import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from maskdispatch import lp, protocol
from maskdispatch.lp import (
    LpProblem, SolverConfig, solve_lp, check_point,
    DimensionMismatch, NumericalBreakdown,
)
from oracle import best_vertex_objective, reference_simplex_run


def simple_bound_problem():
    # min x subject to x >= 3, stated as -x <= -3 with x nonnegative
    return LpProblem(sense="min", c=[1.0], A_in=[[-1.0]], b_in=[-3.0],
                     lb=[0.0])


def test_single_variable_bound():
    sol = solve_lp(simple_bound_problem())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.duals_in[0] == pytest.approx(-1.0, abs=1e-9)


def test_contradictory_equalities_infeasible():
    p = LpProblem(sense="min", c=[1.0, 1.0],
                  A_eq=[[1, 1], [1, 1]], b_eq=[1, 2],
                  lb=[0.0] * 2)
    assert solve_lp(p).status == "infeasible"


def test_unbounded_direction():
    p = LpProblem(sense="max", c=[1.0])
    assert solve_lp(p).status == "unbounded"
    p2 = LpProblem(sense="min", c=[-1.0], A_in=[[-1.0]], b_in=[0.0])
    assert solve_lp(p2).status == "unbounded"


def test_free_variable_recombination():
    # equality pins x1 + x2 = -5 with x1 free; optimum pushes x2 to zero
    p = LpProblem(sense="min", c=[0.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-5.0],
                  lb=[-np.inf, 0.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-9)


def test_max_sense_inequality_duals_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n, m = 4, 6
        A = rng.uniform(0.1, 1.0, (m, n))
        b = rng.uniform(1.0, 2.0, m)
        c = rng.uniform(0.1, 1.0, n)
        p = LpProblem(sense="max", c=c, A_in=A, b_in=b, lb=[0.0] * n)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert np.all(sol.duals_in >= -1e-9)
        # the same data as a min problem flips the dual sign
        pm = LpProblem(sense="min", c=-c, A_in=A, b_in=b, lb=[0.0] * n)
        sm = solve_lp(pm)
        assert np.all(sm.duals_in <= 1e-9)
        assert sm.objective == pytest.approx(-sol.objective, abs=1e-8)


def _random_bounded_lp(rng, n=5, m_in=7, m_eq=0, sense="min", nonneg=False):
    A = rng.normal(size=(m_in, n))
    x0 = rng.uniform(0.1, 1.0, n)
    b = A @ x0 + rng.uniform(0.0, 1.0, m_in)
    y0 = np.abs(rng.normal(size=m_in))
    c = -(A.T @ y0) if sense == "min" else A.T @ y0
    kw = {}
    if m_eq:
        E = rng.normal(size=(m_eq, n))
        kw = dict(A_eq=E, b_eq=E @ x0)
    lb = [0.0 if nonneg else -np.inf] * n
    return LpProblem(sense=sense, c=c, A_in=A, b_in=b, lb=lb, **kw)


def test_simplex_agrees_with_highs():
    rng = np.random.default_rng(11)
    cfg_h = SolverConfig(backend="highs")
    for k in range(60):
        p_data = _random_bounded_lp(rng, sense="min" if k % 2 else "max",
                                    m_eq=k % 3, nonneg=bool(k % 2))
        s1 = solve_lp(p_data)
        s2 = solve_lp(p_data, cfg_h)
        assert s1.status == s2.status
        if s1.status == "optimal":
            assert s1.objective == pytest.approx(s2.objective, abs=1e-7 * (1 + abs(s2.objective)))


def test_objective_matches_vertex_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, n + 5))
        p = _random_bounded_lp(rng, n=n, m_in=m, sense="min")
        sol = solve_lp(p)
        ref = best_vertex_objective(p)
        if sol.status == "optimal" and ref is not None:
            assert sol.objective == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))
            checked += 1
    assert checked >= 40


def test_bit_identical_determinism():
    p = simple_bound_problem()
    a = solve_lp(p)
    b = solve_lp(p)
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    rng = np.random.default_rng(12)
    p2_data = _random_bounded_lp(rng)
    r1 = solve_lp(p2_data)
    r2 = solve_lp(p2_data)
    assert r1.objective == r2.objective
    assert np.array_equal(r1.x, r2.x)


# classic cycling-prone data (Beale's example)
_CYCLING = dict(sense="min", c=[-0.75, 150.0, -0.02, 6.0],
                A_in=[[0.25, -60.0, -0.04, 9.0],
                      [0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0]],
                b_in=[0.0, 0.0, 1.0], lb=[0.0] * 4)


def test_degenerate_problem_terminates():
    # it solves in 7 pivots without Bland's rule; the rule itself is
    # covered by test_blands_rule_matches_reference_and_highs
    p = LpProblem(**_CYCLING)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    ref = best_vertex_objective(p)
    assert sol.objective == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("backend", ["auto", "highs"])
def test_iteration_limit_raises(backend, monkeypatch):
    rng = np.random.default_rng(5)
    p = _random_bounded_lp(rng, n=6, m_in=9)
    monkeypatch.setattr(lp, "_MAX_ITER", 2)
    with pytest.raises(NumericalBreakdown):
        solve_lp(p, SolverConfig(backend=backend))


# min x  s.t.  x = 3,  x <= 10,  y <= 1 (a bound; y costs nothing): the
# optimum x = 3, y = 0 has duals 1 and 0 and bound duals 0
_TINY = dict(sense="min", c=[1.0, 0.0], A_eq=[[1.0, 0.0]], b_eq=[3.0],
             A_in=[[1.0, 0.0]], b_in=[10.0], ub=[np.inf, 1.0])


@pytest.mark.parametrize("x, dual_eq, dual_in, gate", [
    # off the equality by 0.01; gap 0, and the slack row has no dual
    ([3.01, 0.0], 3.01 / 3.0, 0.0, "primal residual"),
    # feasible, no dual weight on the binding row: gap 3, CS 0
    ([3.0, 0.0], 0.0, 0.0, "duality gap"),
    # dual objective 3*4/3 - 10*0.1 = 3 (gap 0), but the slack row (slack 7)
    # carries a dual of -0.1
    ([3.0, 0.0], 4.0 / 3.0, -0.1, "complementary slackness"),
    # every row holds and gap and CS are 0, but y is 1 above its bound
    ([3.0, 2.0], 1.0, 0.0, "primal residual"),
], ids=["residual", "gap", "cs", "bound"])
def test_finish_rejects_each_uncertified_point(x, dual_eq, dual_in, gate):
    p = LpProblem(**_TINY)
    sol = lp._finish(p, [3.0, 0.0], np.array([1.0]), np.array([0.0]), 0,
                     "simplex")
    assert (sol.gap, sol.max_primal_residual, sol.max_cs_violation) == (0, 0, 0)
    with pytest.raises(NumericalBreakdown, match=gate):
        lp._finish(p, x, np.array([dual_eq]), np.array([dual_in]), 0,
                   "simplex")


@pytest.mark.parametrize("sense", ["max", "min"])
def test_highs_bound_duals_in_declared_sense(sense):
    # max x - y  s.t.  x + y <= 10,  -5 <= x <= 3,  y >= 2: the optimum
    # (3, 2) binds x's upper and y's lower bound, not the row; the min
    # problem is the same with the objective negated
    sign = 1.0 if sense == "max" else -1.0
    p = LpProblem(sense=sense, c=[sign, -sign], A_in=[[1.0, 1.0]], b_in=[10.0],
                  lb=[-5.0, 2.0], ub=[3.0, np.inf])
    sol = solve_lp(p, SolverConfig(backend="highs"))
    np.testing.assert_allclose(sol.x, [3.0, 2.0], atol=1e-9)
    assert sol.objective == pytest.approx(sign, abs=1e-9)
    # d(objective)/d(bound) in the declared sense
    np.testing.assert_allclose(sol.duals_ub, [sign, 0.0], atol=1e-9)
    np.testing.assert_allclose(sol.duals_lb, [0.0, -sign], atol=1e-9)
    np.testing.assert_allclose(sol.duals_in, [0.0], atol=1e-9)
    # the row terms alone leave the whole objective as gap; the finite
    # bound terms 3*sign + 2*(-sign) close it
    assert abs(sol.objective - p.b_in @ sol.duals_in) == pytest.approx(1.0)
    assert sol.gap <= 1e-9 and sol.max_cs_violation <= 1e-9


@pytest.mark.parametrize("bounds", [{"ub": [5.0]}, {"lb": [2.0]}],
                         ids=["finite-ub", "nonzero-lb"])
def test_simplex_rejects_other_bounds(bounds):
    p = LpProblem(sense="min", c=[1.0], A_in=[[1.0]], b_in=[10.0], **bounds)
    with pytest.raises(ValueError, match="simplex takes only"):
        solve_lp(p, SolverConfig(backend="simplex"))


@pytest.mark.parametrize("bounds", [
    {"lb": [np.nan]}, {"ub": [np.nan]}, {"lb": [2.0], "ub": [1.0]},
    {"lb": [np.inf]}, {"ub": [-np.inf]},
], ids=["nan-lb", "nan-ub", "crossed", "lb-inf", "ub-minus-inf"])
def test_empty_or_undefined_bounds_rejected(bounds):
    with pytest.raises(ValueError):
        LpProblem(sense="min", c=[1.0], **bounds)


def test_check_point_self_consistency():
    rng = np.random.default_rng(9)
    p = _random_bounded_lp(rng, m_eq=1)
    sol = solve_lp(p)
    rep = check_point(p, sol.x, 1e-6)
    assert rep.feasible
    assert rep.objective == pytest.approx(sol.objective)


def test_check_point_flags_violations():
    p = LpProblem(sense="min", c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0],
                  A_in=[[1.0, 0.0]], b_in=[0.5], lb=[0.0] * 2)
    rep = check_point(p, [2.0, -1.0], 1e-6)
    assert not rep.feasible
    assert rep.max_equality_residual == pytest.approx(1.0)
    assert rep.max_inequality_violation == pytest.approx(1.5)
    assert rep.max_bound_violation == pytest.approx(1.0)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        LpProblem(sense="min", c=[1.0, 2.0], A_in=[[1.0]], b_in=[1.0])
    p = simple_bound_problem()
    with pytest.raises(DimensionMismatch):
        check_point(p, [1.0, 2.0])


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        LpProblem(sense="min", c=[np.nan])
    with pytest.raises(ValueError):
        LpProblem(sense="min", c=[1.0], A_in=[[np.inf]], b_in=[1.0])


def test_redundant_equality_rows_handled():
    # duplicated equality row: phase 1 must drop it and still produce duals
    p = LpProblem(sense="min", c=[1.0, 2.0],
                  A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0],
                  lb=[0.0] * 2)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sense, status", [("min", "optimal"),
                                           ("max", "unbounded")])
def test_all_rows_redundant(sense, status, capfd):
    # phase 1 drops the only row, 0 = 0; what is left has no rows
    p = LpProblem(sense=sense, c=[1.0, 1.0], A_eq=[[0.0, 0.0]], b_eq=[0.0],
                  lb=[0.0] * 2)
    sol = solve_lp(p, SolverConfig(backend="simplex"))
    ref = solve_lp(p, SolverConfig(backend="highs"))
    assert sol.status == ref.status == status
    if status == "optimal":
        np.testing.assert_array_equal(sol.x, [0.0, 0.0])
        np.testing.assert_array_equal(sol.duals_eq, [0.0])
        assert sol.objective == 0.0 == pytest.approx(ref.objective, abs=1e-9)
    # LAPACK reports an illegal argument on stderr
    assert capfd.readouterr() == ("", "")


def test_solution_carries_certificates():
    sol = solve_lp(simple_bound_problem())
    assert sol.gap <= 1e-9
    assert sol.max_primal_residual <= 1e-9
    assert sol.max_cs_violation <= 1e-9


def _same(a, b):
    """Equal bit for bit: dtype, shape and every byte, so -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _simplex_bases(system, monkeypatch):
    """Every basis the simplex factors in a clear and a masked round."""
    bases = []
    factor = lp._lu_factor

    def recording(B):
        bases.append(B.copy())
        return factor(B)

    monkeypatch.setattr(lp, "_lu_factor", recording)
    for mode in ("clear", "masked"):
        protocol.run_market_round(system, 0, mode=mode)
        assert bases, f"the {mode} round factored no basis"
    monkeypatch.undo()
    return bases


def test_lu_helpers_match_scipy_bit_for_bit(threebus, monkeypatch):
    rng = np.random.default_rng(29)
    bases = [rng.normal(size=(m, m)) for m in range(1, 41)]
    bases += _simplex_bases(threebus, monkeypatch)
    for B in bases:
        lu_piv = lp._lu_factor(B)
        ref = scipy.linalg.lu_factor(B, check_finite=False)
        assert _same(lu_piv[0], ref[0]) and _same(lu_piv[1], ref[1])
        # a fresh vector and a strided column, as the simplex passes A[:, j]
        for rhs in (rng.normal(size=B.shape[0]), B[:, -1]):
            for trans in (0, 1):
                assert _same(lp._lu_solve(lu_piv, rhs, trans),
                             scipy.linalg.lu_solve(ref, rhs, trans,
                                                   check_finite=False))


def _pivot_trace(problem, run):
    """How the simplex solves `problem` with `run` as `_Simplex.run`:
    ``(outcome, bases, runs)``, where the outcome is the status, iteration
    count and objective, or ``("breakdown", message)``, `bases` every
    basis `_lu_factor` saw and `runs` each run's (status, x, y, basis)."""
    bases, runs = [], []
    factor = lp._lu_factor

    def recording_factor(B):
        bases.append(B.copy())
        return factor(B)

    def recording_run(engine, *args, **kwargs):
        runs.append(run(engine, *args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_lu_factor", recording_factor)
        mp.setattr(lp._Simplex, "run", recording_run)
        try:
            sol = lp._solve_simplex(problem)
            outcome = (sol.status, sol.iterations, sol.objective)
        except NumericalBreakdown as err:
            outcome = ("breakdown", str(err))
    return outcome, bases, runs


def _assert_pivots_match_reference(problem):
    """The pivot loop solves `problem` along the reference loop's path, bit
    for bit; returns the outcome."""
    outcome, bases, runs = _pivot_trace(problem, lp._Simplex.run)
    want, want_bases, want_runs = _pivot_trace(problem, reference_simplex_run)
    assert outcome == want
    assert len(bases) == len(want_bases)
    assert all(_same(B, W) for B, W in zip(bases, want_bases))
    assert len(runs) == len(want_runs)
    for (status, x, y, basis), ref in zip(runs, want_runs):
        assert (status, basis) == (ref[0], ref[3])
        assert (x is None and ref[1] is None) or _same(x, ref[1])
        assert _same(y, ref[2])
    return outcome


def _simplex_lps(system, seeds):
    """The LP of `system`'s clear round and the slack form of its masked
    round on each mask seed in `seeds`, as the simplex receives them."""
    lps = []
    solve = lp._solve_simplex

    def recording(problem):
        lps.append(problem)
        return solve(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_solve_simplex", recording)
        protocol.run_market_round(system, 0, mode="clear")
        for seed in seeds:
            protocol.run_market_round(system, seed, mode="masked")
    assert len(lps) == 1 + len(seeds)
    return lps


def _random_lp(rng, k):
    """A small LP with free and nonnegative columns.  Every third has a zero
    right-hand side, so it is degenerate at the origin.  By ``k % 4``: 0
    adds two equality rows that contradict each other (infeasible), 1 and 2
    box every column by rows (optimal), 3 leaves the columns unboxed (often
    unbounded)."""
    n, m_eq, m_in = (int(v) for v in rng.integers((1, 0, 0), (7, 3, 6)))
    A = rng.normal(size=(m_eq + m_in, n))
    A[rng.random(A.shape) < 0.3] = 0.0
    lb = np.where(rng.random(n) < 0.4, -np.inf, 0.0)
    x0 = np.where(lb == 0.0, 1.0, rng.choice([-1.0, 1.0], n)) * rng.random(n)
    b = A @ x0
    b[m_eq:] += rng.random(m_in) * (rng.random(m_in) < 0.5)
    if k % 3 == 0:
        b[:] = 0.0
    A_eq, b_eq, A_in, b_in = A[:m_eq], b[:m_eq], A[m_eq:], b[m_eq:]
    if k % 4 == 0:
        a = rng.normal(size=(1, n))
        A_eq, b_eq = np.vstack([A_eq, a, a]), np.append(b_eq, [0.0, 1.0])
    elif k % 4 < 3:
        A_in = np.vstack([A_in, np.eye(n), -np.eye(n)])
        b_in = np.append(b_in, np.full(2 * n, 2.0))
    return LpProblem(sense="max" if k % 2 else "min", c=rng.normal(size=n),
                     A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb)


def _zero_priced(system, owner):
    """`system` with every bid segment of `owner`'s loads priced at 0."""
    return dataclasses.replace(system, loads=[
        dataclasses.replace(d, segments=[dataclasses.replace(s, price=0.0)
                                         for s in d.segments])
        if d.owner == owner else d for d in system.loads])


def test_pivot_loop_matches_reference_bit_for_bit(threebus):
    lps = (_simplex_lps(threebus, range(10))
           + _simplex_lps(_zero_priced(threebus, "LSE1"), range(10))[1:])
    rng = np.random.default_rng(31)
    random_lps = [_random_lp(rng, k) for k in range(200)]
    for p in lps:
        assert _assert_pivots_match_reference(p)[0] == "optimal"
    outcomes = [_assert_pivots_match_reference(p) for p in random_lps]
    assert {o[0] for o in outcomes} == {"optimal", "unbounded", "infeasible"}


@pytest.mark.parametrize("threshold", [0, 2])
def test_blands_rule_matches_reference_and_highs(threebus, threshold,
                                                 monkeypatch):
    lps = [LpProblem(**_CYCLING)] + _simplex_lps(threebus, range(5))
    highs = [solve_lp(p, SolverConfig(backend="highs")).objective
             for p in lps]
    pivots = [solve_lp(p).iterations for p in lps]
    monkeypatch.setattr(lp, "_DEGEN_THRESHOLD", threshold)
    outcomes = [_assert_pivots_match_reference(p) for p in lps]
    for (status, _, objective), want in zip(outcomes, highs):
        assert status == "optimal"
        assert objective == pytest.approx(want, abs=1e-6)
    # Bland's rule took over on some path
    assert [o[1] for o in outcomes] != pivots


def test_singular_basis_breaks_down_without_warning():
    B = np.array([[1.0, 2.0], [2.0, 4.0]])   # U[1, 1] is exactly 0
    with pytest.warns(scipy.linalg.LinAlgWarning):
        scipy.linalg.lu_factor(B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBreakdown, match="singular basis"):
            lp._lu_factor(B)


def _reference_standard_form(problem):
    """``(A, b, c, flip, cols)`` of `problem`'s standard form, built one
    column at a time; ``cols`` lists ``(variable, sign)`` per structural
    column."""
    A_user = np.vstack([problem.A_eq, problem.A_in])
    m_eq, m_in = problem.A_eq.shape[0], problem.A_in.shape[0]
    cols = []
    for j in range(problem.n_vars):
        cols.append((j, 1.0))
        if problem.lb[j] == -np.inf:
            cols.append((j, -1.0))
    A = np.zeros((m_eq + m_in, len(cols) + m_in))
    for k, (j, sgn) in enumerate(cols):
        A[:, k] = sgn * A_user[:, j]
    for r in range(m_in):
        A[m_eq + r, len(cols) + r] = 1.0
    b = np.concatenate([problem.b_eq, problem.b_in])
    flip = np.ones(b.size)
    for r in range(b.size):
        if b[r] < 0:
            flip[r] = -1.0
            A[r, :] *= -1.0
    sign = -1.0 if problem.sense == "max" else 1.0
    c = np.zeros(A.shape[1])
    for k, (j, sgn) in enumerate(cols):
        c[k] = sign * sgn * problem.c[j]
    return A, b * flip, c, flip, cols


def test_standard_form_matches_per_column_reference():
    rng = np.random.default_rng(30)
    for k in range(200):
        n, m_eq, m_in = (int(v) for v in rng.integers((1, 0, 0), (7, 4, 5)))
        A = rng.normal(size=(m_eq + m_in, n))
        A[rng.random(A.shape) < 0.3] = 0.0     # signed zeros under the flip
        p = LpProblem(sense="max" if k % 2 else "min", c=rng.normal(size=n),
                      A_eq=A[:m_eq], b_eq=rng.normal(size=m_eq),
                      A_in=A[m_eq:], b_in=rng.normal(size=m_in),
                      lb=np.where(rng.random(n) < 0.5, -np.inf, 0.0))
        std = lp._StandardForm(p)
        A_ref, b_ref, c_ref, flip_ref, cols = _reference_standard_form(p)
        for got, want in ((std.A, A_ref), (std.b, b_ref), (std.c, c_ref),
                          (std.flip, flip_ref)):
            assert _same(got, want)

        z = rng.normal(size=A_ref.shape[1])
        x_ref = np.zeros(n)
        for i, (j, sgn) in enumerate(cols):
            x_ref[j] += sgn * z[i]
        assert _same(std.recover_x(z), x_ref)

        kept = np.flatnonzero(rng.random(m_eq + m_in) < 0.8)
        y_std = rng.normal(size=kept.size)
        y_ref = np.zeros(m_eq + m_in)
        for i, r in enumerate(kept):
            y_ref[r] = y_std[i]
        for r in range(y_ref.size):
            y_ref[r] *= flip_ref[r]
            if p.sense == "max":
                y_ref[r] = -y_ref[r]
        duals_eq, duals_in = std.recover_duals(y_std, kept)
        assert _same(duals_eq, y_ref[:m_eq]) and _same(duals_in, y_ref[m_eq:])
