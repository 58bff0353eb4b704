"""Linear programming on dense or sparse data, with primal and dual solutions.

Problems are stated as

    min/max  c' x
    s.t.     A_eq x  = b_eq
             A_in x <= b_in
             lb <= x <= ub

with per-column bounds that default to (-inf, inf); a nonnegative column
has (0, inf).  Duals are reported as the gradient of the *declared*
objective with respect to the constraint right-hand sides and the bounds,
so for a max problem the dual of a binding <= row or upper bound is
nonnegative and for a min problem it is nonpositive.

The default backend is a two-phase primal revised simplex (Bland's rule
engaged after a run of degenerate pivots); it takes only lower bounds of 0
or -inf and no upper bounds, and reports no bound duals.  A pivot copies
one column into the basis matrix it keeps, factors it and makes three
solves, calling LAPACK ``getrf``/``getrs`` directly, as scipy's wrappers
cost more than the work on small bases (``_Simplex``).
``choose_backend`` reads only the size:
problems whose rows plus columns exceed ``_SIMPLEX_SIZE_LIMIT`` go to
scipy's HiGHS solver, which accepts the same data and is mapped onto the
same dual convention.  The masked round asks it before assembling
anything, because only the simplex takes the slack form; HiGHS gets the
flow-form LP of ``masking.eliminate_angles``, with its single-entry rows
(the flow limits and, under hourly masks, the bound rows of
single-segment entities) stated as column bounds.  What stays a row is
an equality or a ramp row over two columns, a dense combination that
presolve cannot reduce, so that LP is solved without presolve: on the
118-bus, 2-hour case (mask seeds 1000-1002, one BLAS thread) presolve
costs time, 4.4 ms a screened solve against 3.5-3.7 ms without.  The
agent solves it with its line limits screened
(``protocol._solve_screened``): each screened LP, built as CSR with flow
rows for its monitored line-hours only, is certified through ``_finish``
as it is solved, and the last certificate with the bound check of the
flows left out certifies the whole LP, which is built only should a
screened solve fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

class DimensionMismatch(ValueError):
    """Array shapes disagree with the declared problem dimensions."""


class NumericalBreakdown(RuntimeError):
    """The solver could not certify a reliable solution."""


_FEAS_TOL = 1e-6
_GAP_TOL = 1e-6
_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_DEGEN_THRESHOLD = 40         # consecutive degenerate pivots before Bland's rule
_SIMPLEX_SIZE_LIMIT = 600     # rows + cols above which auto routes to highs
_MAX_ITER = 200_000           # simplex iterations, or HiGHS maxiter


@dataclass
class SolverConfig:
    backend: str = "auto"              # auto | simplex | highs
    highs_method: str = "highs"        # or highs-ipm / highs-ds


def _as_matrix(a, n_cols_hint=None):
    if a is None:
        n = 0 if n_cols_hint is None else n_cols_hint
        return np.zeros((0, n))
    if scipy.sparse.issparse(a):
        return a.tocsr()
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _as_vector(v):
    if v is None:
        return np.zeros(0)
    return np.asarray(v, dtype=float).reshape(-1)


def _all_finite(a):
    if scipy.sparse.issparse(a):
        return np.all(np.isfinite(a.data))
    return np.all(np.isfinite(a))


@dataclass
class LpProblem:
    """LP in objective/equality/inequality/bounds form.

    Matrices may be numpy arrays or scipy.sparse matrices; sparse input
    is only worthwhile for problems large enough to route to HiGHS.
    """

    sense: str
    c: np.ndarray
    A_eq: object = None
    b_eq: np.ndarray = None
    A_in: object = None
    b_in: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c = _as_vector(self.c)
        n = self.c.size
        self.A_eq = _as_matrix(self.A_eq, n)
        self.A_in = _as_matrix(self.A_in, n)
        self.b_eq = _as_vector(self.b_eq)
        self.b_in = _as_vector(self.b_in)
        self.lb = np.full(n, -np.inf) if self.lb is None else _as_vector(self.lb)
        self.ub = np.full(n, np.inf) if self.ub is None else _as_vector(self.ub)
        self.validate()

    @property
    def n_vars(self):
        return self.c.size

    @property
    def n_rows(self):
        return self.A_eq.shape[0] + self.A_in.shape[0]

    def validate(self):
        n = self.n_vars
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.A_eq.shape[1] != n or self.A_in.shape[1] != n:
            raise DimensionMismatch(
                f"column counts disagree: c has {n}, A_eq has {self.A_eq.shape[1]}, "
                f"A_in has {self.A_in.shape[1]}")
        if self.A_eq.shape[0] != self.b_eq.size:
            raise DimensionMismatch("A_eq row count does not match b_eq")
        if self.A_in.shape[0] != self.b_in.size:
            raise DimensionMismatch("A_in row count does not match b_in")
        if self.lb.size != n or self.ub.size != n:
            raise DimensionMismatch("bound lengths do not match variable count")
        # False for NaN too
        if not np.all(self.lb <= self.ub) or np.any(self.lb == np.inf) \
                or np.any(self.ub == -np.inf):
            raise ValueError("bounds must be numbers with lb <= ub, lb < inf "
                             "and ub > -inf")
        for name, a in (("c", self.c), ("b_eq", self.b_eq), ("b_in", self.b_in)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, a in (("A_eq", self.A_eq), ("A_in", self.A_in)):
            if not _all_finite(a):
                raise ValueError(f"{name} contains non-finite entries")

    def objective_at(self, x):
        return float(self.c @ np.asarray(x, dtype=float))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals_eq: np.ndarray = None
    duals_in: np.ndarray = None
    duals_lb: np.ndarray = None
    duals_ub: np.ndarray = None
    objective: float = None
    iterations: int = 0
    backend: str = "simplex"
    gap: float = None
    max_primal_residual: float = None
    max_cs_violation: float = None


@dataclass
class FeasibilityReport:
    max_equality_residual: float
    max_inequality_violation: float
    max_bound_violation: float
    objective: float
    tol: float

    @property
    def feasible(self):
        return (self.max_equality_residual <= self.tol
                and self.max_inequality_violation <= self.tol
                and self.max_bound_violation <= self.tol)


def check_point(problem: LpProblem, x, tol: float = 1e-6) -> FeasibilityReport:
    """Evaluate a candidate point against every constraint family."""
    x = _as_vector(x)
    if x.size != problem.n_vars:
        raise DimensionMismatch(
            f"point has {x.size} entries, problem has {problem.n_vars} variables")
    eq_res = 0.0
    if problem.A_eq.shape[0]:
        eq_res = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq)))
    in_viol = 0.0
    if problem.A_in.shape[0]:
        in_viol = float(max(0.0, np.max(problem.A_in @ x - problem.b_in)))
    bound_viol = float(max(np.max(problem.lb - x, initial=0.0),
                           np.max(x - problem.ub, initial=0.0)))
    return FeasibilityReport(eq_res, in_viol, bound_viol,
                             problem.objective_at(x), tol)


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------

class _StandardForm:
    """min c'z, A z = b, z >= 0, with bookkeeping to map back to the user problem.

    Free variables are split into positive/negative parts; inequality rows
    gain a unit slack; rows with negative rhs are negated (flip tracked for
    dual signs).  Only lower bounds of 0 or -inf and no upper bounds are
    taken; any other bound raises ValueError.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        n = problem.n_vars
        if np.any((problem.lb != 0.0) & (problem.lb != -np.inf)) \
                or np.any(problem.ub != np.inf):
            raise ValueError("the simplex takes only lower bounds of 0 or -inf "
                             "and no upper bounds")
        A_eq, A_in = (a.toarray() if scipy.sparse.issparse(a) else a
                      for a in (problem.A_eq, problem.A_in))
        m_eq, m_in = A_eq.shape[0], A_in.shape[0]
        self.m_eq, self.m_in = m_eq, m_in

        # structural column k is sgn[k]·x[var[k]]; a free x_j has +1, then -1
        var = np.repeat(np.arange(n), 1 + (problem.lb == -np.inf))
        sgn = np.where(np.diff(var, prepend=-1) == 0, -1.0, 1.0)
        self.var, self.sgn, self.n_struct = var, sgn, var.size

        # the slacks' identity sits under the equality rows
        A = np.hstack([sgn * np.vstack([A_eq, A_in])[:, var],
                       np.eye(m_eq + m_in, m_in, -m_eq)])
        b = np.concatenate([problem.b_eq, problem.b_in])
        self.flip = np.where(b < 0, -1.0, 1.0)
        A *= self.flip[:, None]
        b = b * self.flip

        sign = -1.0 if problem.sense == "max" else 1.0
        c = np.concatenate([sign * sgn * problem.c[var], np.zeros(m_in)])
        self.A, self.b, self.c = A, b, c

    def recover_x(self, z):
        x = np.zeros(self.problem.n_vars)
        np.add.at(x, self.var, self.sgn * z[:self.n_struct])
        return x

    def recover_duals(self, y_std, kept_rows):
        """Map standard-form row duals back to user rows and sense."""
        y = np.zeros(self.m_eq + self.m_in)
        y[kept_rows] = y_std
        y = y * self.flip
        if self.problem.sense == "max":
            y = -y
        return y[:self.m_eq], y[self.m_eq:]


def _lu_factor(B):
    """scipy's ``lu_factor(B)`` bit for bit, from LAPACK ``getrf``; a pivot
    under ``_PIVOT_TOL`` raises NumericalBreakdown, with no warning."""
    lu, piv, info = _getrf(B)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
    if np.abs(lu.diagonal()).min() < _PIVOT_TOL:
        raise NumericalBreakdown("singular basis matrix")
    return lu, piv


def _lu_solve(lu_piv, rhs, trans=0):
    """scipy's ``lu_solve(lu_piv, rhs, trans)`` bit for bit, from ``getrs``."""
    x, info = _getrs(*lu_piv, rhs, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


class _Simplex:
    """Revised primal simplex on min c'z, Az=b, z>=0 with a known basis.

    `run` keeps the basis matrix current: a pivot copies the entering
    column over the leaving one, factors the matrix, makes three solves and
    runs the ratio test over the rows whose direction is positive.  On
    threebus's 27-row bases (scipy 1.17, one BLAS thread) a pivot takes
    26 µs of CPU time, 13 of them in ``getrf`` and ``getrs``, called
    directly at 5.8 and 1.0-1.5 µs a call (``lu_factor`` 10.6, ``lu_solve``
    8.8-9.6); gathering the matrix from a list and a ratio for every row
    made it 34 µs.
    """

    def __init__(self, A, b, c):
        self.A, self.b, self.c = A, b, c
        self.iterations = 0

    def run(self, basis, allowed, bar_reentry_from=None):
        """Iterate from `basis`; columns outside `allowed` never enter.

        Columns with index >= bar_reentry_from (phase-1 artificials) are
        removed from `allowed` once they leave the basis.  Returns
        (status, x, y, basis) where status is OPTIMAL or UNBOUNDED.
        """
        A, b, c = self.A, self.b, self.c
        basis = np.array(basis, dtype=np.intp)
        B = A[:, basis]
        degen_run = 0

        while True:
            if self.iterations >= _MAX_ITER:
                raise NumericalBreakdown(
                    f"iteration limit {_MAX_ITER} exceeded")
            self.iterations += 1

            lu_piv = _lu_factor(B)
            xB = _lu_solve(lu_piv, b)
            y = _lu_solve(lu_piv, c[basis], trans=1)

            rc = c - y @ A
            rc[basis] = 0.0
            cand = ((rc < -_DUAL_TOL) & allowed).nonzero()[0]
            if cand.size == 0:
                x = np.zeros_like(c)
                x[basis] = xB
                return OPTIMAL, x, y, basis.tolist()

            bland = degen_run >= _DEGEN_THRESHOLD
            enter = cand[0] if bland else cand[rc[cand].argmin()]

            column = A[:, enter]
            d = _lu_solve(lu_piv, column)
            rows = (d > _PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                return UNBOUNDED, None, y, basis.tolist()

            ratios = np.maximum(xB[rows], 0.0) / d[rows]
            theta = ratios.min()
            ties = rows[ratios - theta <= 1e-9 * (1.0 + abs(theta))]
            if bland:
                leave_pos = ties[basis[ties].argmin()]
            else:
                leave_pos = ties[d[ties].argmax()]

            degen_run = degen_run + 1 if theta <= 1e-11 else 0

            leaving = basis[leave_pos]
            basis[leave_pos] = enter
            B[:, leave_pos] = column
            if bar_reentry_from is not None and leaving >= bar_reentry_from:
                allowed[leaving] = False


def _solve_simplex(problem: LpProblem) -> LpSolution:
    std = _StandardForm(problem)
    A, b, c = std.A, std.b, std.c
    m, n = A.shape

    kept_rows, iterations = list(range(m)), 0
    if m:
        # phase 1: artificial basis
        A1 = np.hstack([A, np.eye(m)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        engine = _Simplex(A1, b, c1)
        allowed = np.ones(n + m, dtype=bool)
        status, z, y, basis = engine.run(range(n, n + m), allowed,
                                         bar_reentry_from=n)
        iterations = engine.iterations
        if status != OPTIMAL:
            raise NumericalBreakdown("phase-1 subproblem reported unbounded")
        phase1_obj = float(c1 @ z)
        if phase1_obj > _FEAS_TOL * (1.0 + np.max(np.abs(b), initial=0.0)):
            return LpSolution(status=INFEASIBLE, backend="simplex",
                              iterations=iterations)

        # drive artificials out; rows that cannot pivot are redundant
        drop_rows = set()
        for pos in range(m):
            if basis[pos] < n:
                continue
            lu_piv = _lu_factor(A1[:, basis])
            for j in range(n):
                if j in basis:
                    continue
                d = _lu_solve(lu_piv, A1[:, j])
                if abs(d[pos]) > _PIVOT_TOL:
                    basis[pos] = j
                    break
            else:
                drop_rows.add(pos)

        if drop_rows:
            kept_rows = [r for r in kept_rows if r not in drop_rows]
            A, b = A[kept_rows, :], b[kept_rows]
            basis = [basis[pos] for pos in kept_rows]

    if not kept_rows:
        # no rows, or only redundant ones: optimal at z = 0 iff no
        # improving direction exists
        if np.any(c < -_DUAL_TOL):
            return LpSolution(status=UNBOUNDED, backend="simplex",
                              iterations=iterations)
        x = std.recover_x(np.zeros(n))
        duals_eq, duals_in = std.recover_duals(np.zeros(0), kept_rows)
        return _finish(problem, x, duals_eq, duals_in, iterations, "simplex")

    # phase 2
    engine2 = _Simplex(A, b, c)
    engine2.iterations = iterations
    status, z, y, basis = engine2.run(basis, np.ones(n, dtype=bool))
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, backend="simplex",
                          iterations=engine2.iterations)

    x = std.recover_x(z)
    duals_eq, duals_in = std.recover_duals(y, kept_rows)
    return _finish(problem, x, duals_eq, duals_in, engine2.iterations, "simplex")


def _solve_highs(problem: LpProblem, config: SolverConfig,
                 presolve: bool) -> LpSolution:
    from scipy.optimize import linprog

    sign = -1.0 if problem.sense == "max" else 1.0
    A_eq = problem.A_eq if problem.A_eq.shape[0] else None
    A_in = problem.A_in if problem.A_in.shape[0] else None
    res = linprog(sign * problem.c,
                  A_ub=A_in, b_ub=problem.b_in if A_in is not None else None,
                  A_eq=A_eq, b_eq=problem.b_eq if A_eq is not None else None,
                  bounds=np.column_stack([problem.lb, problem.ub]),
                  method=config.highs_method,
                  options={"presolve": presolve, "maxiter": _MAX_ITER})
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, backend="highs")
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, backend="highs")
    if res.status != 0:
        raise NumericalBreakdown(f"HiGHS failed: {res.message}")

    # linprog marginals are d(min objective)/d(rhs); flip to the declared sense
    duals_eq = sign * res.eqlin.marginals if A_eq is not None else np.zeros(0)
    duals_in = sign * res.ineqlin.marginals if A_in is not None else np.zeros(0)
    return _finish(problem, res.x, duals_eq, duals_in,
                   int(getattr(res, "nit", 0)), "highs",
                   duals_lb=sign * res.lower.marginals,
                   duals_ub=sign * res.upper.marginals)


def _finish(problem, x, duals_eq, duals_in, iterations, backend,
            duals_lb=None, duals_ub=None):
    """The certified LpSolution at `x` and the declared-sense duals; bound
    duals not given (the simplex's) count as zero in the certificate and
    are reported as None.  Raises NumericalBreakdown when the primal
    residual (rows and bounds), the duality gap or complementary slackness
    (rows and finite bounds) exceeds its tolerance, scaled by 1 + |obj|."""
    x = np.asarray(x, dtype=float)
    n = problem.n_vars
    d_lb = np.zeros(n) if duals_lb is None else np.asarray(duals_lb, dtype=float)
    d_ub = np.zeros(n) if duals_ub is None else np.asarray(duals_ub, dtype=float)
    obj = problem.objective_at(x)

    report = check_point(problem, x, _FEAS_TOL)
    residual = max(report.max_equality_residual,
                   report.max_inequality_violation,
                   report.max_bound_violation)

    lo, hi = np.isfinite(problem.lb), np.isfinite(problem.ub)
    dual_obj = (float(problem.b_eq @ duals_eq) + float(problem.b_in @ duals_in)
                + float(problem.lb[lo] @ d_lb[lo])
                + float(problem.ub[hi] @ d_ub[hi]))
    scale = 1.0 + abs(obj)
    gap = abs(obj - dual_obj)

    products = [duals_in * (problem.b_in - problem.A_in @ x),
                d_lb[lo] * (x[lo] - problem.lb[lo]),
                d_ub[hi] * (problem.ub[hi] - x[hi])]
    cs = float(np.max(np.abs(np.concatenate(products)), initial=0.0))

    if residual > _FEAS_TOL * scale:
        raise NumericalBreakdown(f"primal residual {residual:.3e} exceeds tolerance")
    if gap > _GAP_TOL * scale:
        raise NumericalBreakdown(
            f"duality gap {gap:.3e} exceeds tolerance (objective {obj:.6g})")
    if cs > _GAP_TOL * scale:
        raise NumericalBreakdown(f"complementary slackness violation {cs:.3e}")
    return LpSolution(status=OPTIMAL, x=x, duals_eq=duals_eq, duals_in=duals_in,
                      duals_lb=duals_lb, duals_ub=duals_ub, objective=obj,
                      iterations=iterations, backend=backend, gap=gap,
                      max_primal_residual=residual, max_cs_violation=cs)


def choose_backend(problem: LpProblem, config: SolverConfig = None) -> str:
    """The backend `solve_lp` uses for `problem` under `config`.

    ``backend="auto"`` picks HiGHS when ``problem.n_rows + problem.n_vars``
    exceeds ``_SIMPLEX_SIZE_LIMIT`` and the bundled simplex otherwise; any
    other setting is returned as given.  Nothing else of `problem` is read.
    """
    backend = "auto" if config is None else config.backend
    if backend != "auto":
        return backend
    big = problem.n_rows + problem.n_vars > _SIMPLEX_SIZE_LIMIT
    return "highs" if big else "simplex"


def solve_lp(problem: LpProblem, config: SolverConfig = None, *,
             presolve: bool = True) -> LpSolution:
    """Solve an LpProblem, returning primal and dual solutions.

    Infeasible and unbounded problems are reported through
    ``LpSolution.status``; numerical failure, including hitting
    ``_MAX_ITER`` iterations, raises NumericalBreakdown.  ``presolve=False``
    skips HiGHS presolve, which only pays where the rows have sparse
    structure to remove; the bundled simplex has no presolve and
    ignores it.  The clear LP needs it (13 ms against 18-21 ms on the
    30-bus, 4-hour case, 160-180 ms against 270-280 ms on the 118-bus,
    24-hour one); the masked flow form is faster without it.
    """
    if config is None:
        config = SolverConfig()
    problem.validate()

    backend = choose_backend(problem, config)
    if backend == "simplex":
        return _solve_simplex(problem)
    if backend == "highs":
        return _solve_highs(problem, config, presolve)
    raise ValueError(f"unknown backend {config.backend!r}")
