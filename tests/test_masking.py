import numpy as np
import pytest
import scipy.sparse as sp

from maskdispatch.lp import LpProblem, SolverConfig, solve_lp, DimensionMismatch
from maskdispatch.market import build_ed_blocks, assemble_ed_lp, gen_synthetic
from maskdispatch import masking
from maskdispatch.masking import (
    MaskConfig, MaskKeys, EncryptedSubmission,
    gen_keys, vertical_mask_generic, horizontal_mask_generic,
    build_transformed_ed, recover_primal, recover_lmp, leakage_audit,
    mask_entity, mask_iso, verify_masked,
    KeyGenerationFailed, SingularMask, NonPositiveDiagonal,
    MissingSubmission, SpanMismatch,
)

# worked 3-bus recovery data as printed to two decimals
YG1_PRINTED = np.array([[0.38, 0.05, 0.93],
                        [0.56, 0.53, 0.13],
                        [0.07, 0.77, 0.57]])
P1_MASKED = np.array([74.65, -58.16, 69.40])
YTHETA_PRINTED = np.array([[0.94, 0.67], [0.32, 0.43]])
THETA_MASKED = np.array([33.03, -47.84])
XB_PRINTED = np.array([[0.58, 0.06, 0.92],
                       [0.44, 0.87, 0.22],
                       [0.26, 0.63, 0.37]])
LAMBDA_MASKED = np.array([-13.13, -16.22, -0.95])


def masked_submissions(blocks, keys):
    subs = [mask_entity(e, keys.entities[e.owner])
            for e in blocks.gencos + blocks.lses]
    incidences = {s.owner: s.masked_incidence for s in subs}
    kinds = {s.owner: s.kind for s in subs}
    subs.append(mask_iso(blocks.network_only(), keys.iso, incidences, kinds))
    return subs


def run_masked(system, seed, config=None):
    blocks = build_ed_blocks(system)
    keys = gen_keys(blocks, seed, config)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    return blocks, keys, tlp, sol


def test_key_dimensions_match_entity_blocks(threebus):
    blocks = build_ed_blocks(threebus)
    keys = gen_keys(blocks, seed=1)
    assert keys.entities["GENCO1"].Y.shape == (3, 3)
    assert keys.entities["GENCO1"].X.shape == (6, 6)
    assert keys.entities["LSE1"].Y.shape == (3, 3)
    assert keys.iso.Y_theta.shape == (2, 2)
    assert keys.iso.X_l1.shape == (3, 3)
    assert keys.iso.X_b.shape == (3, 3)


def test_keys_deterministic_per_seed(threebus):
    blocks = build_ed_blocks(threebus)
    a = gen_keys(blocks, seed=17)
    b = gen_keys(blocks, seed=17)
    assert np.array_equal(a.entities["GENCO1"].Y, b.entities["GENCO1"].Y)
    assert np.array_equal(a.iso.X_b, b.iso.X_b)
    c = gen_keys(blocks, seed=18)
    assert not np.array_equal(a.entities["GENCO1"].Y, c.entities["GENCO1"].Y)


def test_key_conditioning_and_positivity(threebus):
    blocks = build_ed_blocks(threebus)
    cfg = MaskConfig(cond_max=1e6)
    for seed in range(10):
        keys = gen_keys(blocks, seed, cfg)
        mats = [keys.iso.Y_theta, keys.iso.X_l1, keys.iso.X_l2, keys.iso.X_b]
        positives = list(mats)
        for ek in keys.entities.values():
            mats.append(ek.X)
            positives.append(ek.Y)
            mats.append(ek.Y)
            assert np.all(ek.R > 0)
        for M in mats:
            assert np.linalg.cond(M) <= 1e6
        for M in positives:
            assert np.all(M > 0)
        assert np.all(keys.iso.R_l1 > 0) and np.all(keys.iso.R_l2 > 0)


def test_impossible_conditioning_gate_fails():
    blocks = build_ed_blocks(gen_synthetic(3, 1, 1, 1, 1, seed=3))
    with pytest.raises(KeyGenerationFailed):
        gen_keys(blocks, seed=0, config=MaskConfig(cond_max=1.0 + 1e-9,
                                                   max_retries=5))


def _assert_hour_blocks_within(M, hours, lo, hi):
    """Entries of the `hours` diagonal blocks lie in [lo, hi]; every other
    entry is a structural zero."""
    M = M.toarray() if sp.issparse(M) else np.asarray(M)
    k = M.shape[0] // hours
    on = np.kron(np.eye(hours, dtype=bool), np.ones((k, k), dtype=bool))
    assert np.all((M[on] >= lo) & (M[on] <= hi))
    assert np.all(M[~on] == 0.0)


@pytest.mark.parametrize("hourly", [False, True])
def test_key_draws_stay_in_documented_ranges(hourly):
    T = 2
    blocks = build_ed_blocks(gen_synthetic(4, 2, 2, 1, T, seed=9, segments=2))
    hours = T if hourly else 1
    for seed in range(3):
        keys = gen_keys(blocks, seed, MaskConfig(hourly_block_masks=hourly))
        iso = keys.iso
        for M in [iso.Y_theta, iso.X_l1, iso.X_l2, iso.X_b] + [
                ek.Y for ek in keys.entities.values()]:
            _assert_hour_blocks_within(M, hours, 0.01, 1.0)
        for ek in keys.entities.values():
            _assert_hour_blocks_within(ek.X, 1, -1.0, 1.0)
        for r in [iso.R_l1, iso.R_l2] + [ek.R for ek in keys.entities.values()]:
            assert np.all((r >= 0.5) & (r <= 2.0))


# ---------------------------------------------------------------------------
# generic transforms
# ---------------------------------------------------------------------------

def _partitioned_lp(rng, equality=False):
    """Random 6-variable, 6-row LP in the three-entity block pattern."""
    A = np.zeros((6, 6))
    A[0:2, 0:2] = rng.uniform(-1, 1, (2, 2))
    A[2:4, 2:4] = rng.uniform(-1, 1, (2, 2))
    A[4:6, :] = rng.uniform(-1, 1, (2, 6))
    x0 = rng.uniform(-1, 1, 6)
    if equality:
        b = A @ x0
        c = rng.uniform(-1, 1, 6)
        return LpProblem(sense="min", c=c, A_eq=A, b_eq=b,
                         sign_class=["free"] * 6)
    b = A @ x0 + rng.uniform(0.0, 0.5, 6)
    y0 = np.abs(rng.normal(size=6)) + 0.05
    c = -(A.T @ y0)
    return LpProblem(sense="min", c=c, A_in=A, b_in=b, sign_class=["free"] * 6)


COLUMN_BLOCKS = [("E1", [0, 1]), ("E2", [2, 3]), ("E3", [4, 5])]
ROW_BLOCKS = [("E1", [0, 1]), ("E2", [2, 3]), ("E3", [4, 5])]


def _column_masks(rng):
    return {owner: rng.uniform(0.01, 1.0, (2, 2)) + np.eye(2) * 0.1
            for owner, _ in COLUMN_BLOCKS}


def test_vertical_identity_masks_reproduce_input():
    rng = np.random.default_rng(2)
    p = _partitioned_lp(rng, equality=True)
    Ys = {owner: np.eye(2) for owner, _ in COLUMN_BLOCKS}
    masked, recover = vertical_mask_generic(p, COLUMN_BLOCKS, Ys)
    np.testing.assert_array_equal(masked.c, p.c)
    np.testing.assert_array_equal(np.asarray(masked.A_eq), np.asarray(p.A_eq))
    np.testing.assert_array_equal(masked.b_eq, p.b_eq)
    np.testing.assert_array_equal(recover(np.arange(6.0)), np.arange(6.0))


def test_vertical_mask_preserves_optimum():
    rng = np.random.default_rng(4)
    for k in range(60):
        p = _partitioned_lp(rng, equality=(k % 2 == 0))
        direct = solve_lp(p)
        Ys = _column_masks(rng)
        masked, recover = vertical_mask_generic(p, COLUMN_BLOCKS, Ys)
        got = solve_lp(masked)
        assert got.status == direct.status
        if direct.status != "optimal":
            continue
        assert got.objective == pytest.approx(
            direct.objective, abs=1e-8 * (1 + abs(direct.objective)))
        x = recover(got.x)
        from maskdispatch.lp import check_point
        assert check_point(p, x, 1e-7).feasible


def test_horizontal_identity_is_plain_slack_form():
    rng = np.random.default_rng(6)
    p = _partitioned_lp(rng)
    Xs = {o: np.eye(2) for o, _ in ROW_BLOCKS}
    Rs = {o: np.ones(2) for o, _ in ROW_BLOCKS}
    masked, spans = horizontal_mask_generic(p, ROW_BLOCKS, Xs, Rs)
    A = np.asarray(masked.A_eq)
    np.testing.assert_array_equal(A[:, :6], np.asarray(p.A_in))
    np.testing.assert_array_equal(A[:, 6:], np.eye(6))
    np.testing.assert_array_equal(masked.b_eq, p.b_in)
    assert masked.sign_class[6:] == ["nonneg"] * 6


def test_horizontal_mask_preserves_optimum():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = _partitioned_lp(rng)
        direct = solve_lp(p)
        Xs = {o: rng.uniform(-1, 1, (2, 2)) + np.eye(2) for o, _ in ROW_BLOCKS}
        Rs = {o: rng.uniform(0.5, 2.0, 2) for o, _ in ROW_BLOCKS}
        masked, _ = horizontal_mask_generic(p, ROW_BLOCKS, Xs, Rs)
        got = solve_lp(masked)
        assert got.status == direct.status
        if direct.status == "optimal":
            assert got.objective == pytest.approx(
                direct.objective, abs=1e-8 * (1 + abs(direct.objective)))


def test_horizontal_slack_rescaling_keeps_structural_solution():
    rng = np.random.default_rng(10)
    p = _partitioned_lp(rng)
    Xs = {o: np.eye(2) for o, _ in ROW_BLOCKS}
    Rs = {o: np.ones(2) for o, _ in ROW_BLOCKS}
    base, _ = horizontal_mask_generic(p, ROW_BLOCKS, Xs, Rs)
    Rs2 = {o: np.ones(2) for o, _ in ROW_BLOCKS}
    Rs2["E2"] = np.array([10.0, 1.0])
    scaled, _ = horizontal_mask_generic(p, ROW_BLOCKS, Xs, Rs2)
    a = solve_lp(base)
    b = solve_lp(scaled)
    assert a.objective == pytest.approx(b.objective, abs=1e-8)
    np.testing.assert_allclose(a.x[:6], b.x[:6], atol=1e-7)


def test_vertical_mask_on_dispatch_columns_preserves_welfare(threebus):
    blocks = build_ed_blocks(threebus)
    problem, layout = assemble_ed_lp(blocks)
    rng = np.random.default_rng(13)
    owners = [e.owner for e in blocks.gencos + blocks.lses] + ["theta"]
    col_blocks = [(o, list(range(*layout.var_spans[o]))) for o in owners]
    Ys = {o: rng.uniform(0.01, 1.0, (len(idx), len(idx)))
          for o, idx in col_blocks}
    masked, recover = vertical_mask_generic(problem, col_blocks, Ys)
    sol = solve_lp(masked)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1330.0, abs=1e-6)
    x = recover(sol.x)
    lo, hi = layout.var_spans["GENCO1"]
    np.testing.assert_allclose(x[lo:hi], [90.0, 20.0, 0.0], atol=1e-6)


def test_generic_mask_validation_errors():
    rng = np.random.default_rng(14)
    p = _partitioned_lp(rng)
    Ys = _column_masks(rng)
    Ys["E1"] = np.zeros((2, 2))
    with pytest.raises(SingularMask):
        vertical_mask_generic(p, COLUMN_BLOCKS, Ys)
    with pytest.raises(ValueError):
        vertical_mask_generic(p, COLUMN_BLOCKS[:2], _column_masks(rng))
    Xs = {o: np.eye(2) for o, _ in ROW_BLOCKS}
    Rs = {o: np.ones(2) for o, _ in ROW_BLOCKS}
    Rs["E3"] = np.array([1.0, -2.0])
    with pytest.raises(NonPositiveDiagonal):
        horizontal_mask_generic(p, ROW_BLOCKS, Xs, Rs)
    bad = {o: np.eye(2) for o, _ in ROW_BLOCKS}
    bad["E1"] = np.ones((2, 2))
    with pytest.raises(SingularMask):
        horizontal_mask_generic(p, ROW_BLOCKS, bad,
                                {o: np.ones(2) for o, _ in ROW_BLOCKS})


# ---------------------------------------------------------------------------
# the masked dispatch problem
# ---------------------------------------------------------------------------

def test_transformed_problem_dimensions(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=0)
    assert tlp.n_structural == 11
    assert tlp.n_slack == 24
    assert tlp.problem.A_eq.shape[0] == 27
    assert [tlp.var_spans[f"slack:{o}"][1] - tlp.var_spans[f"slack:{o}"][0]
            for o in ("GENCO1", "GENCO2", "LSE1")] == [6, 6, 6]
    hi = tlp.var_spans["slack:line_hi"]
    lo = tlp.var_spans["slack:line_lo"]
    assert hi[1] - hi[0] == 3 and lo[1] - lo[0] == 3
    assert all(s == "free" for s in tlp.problem.sign_class[:11])
    assert all(s == "nonneg" for s in tlp.problem.sign_class[11:])


def test_identity_keys_reproduce_slack_form(threebus):
    blocks = build_ed_blocks(threebus)
    keys = MaskKeys.identity(blocks)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    problem, layout = assemble_ed_lp(blocks)
    A_in = np.asarray(problem.A_in)
    A_eq = np.asarray(problem.A_eq)
    m_in, n = A_in.shape
    expected = np.zeros((m_in + A_eq.shape[0], n + m_in))
    expected[:m_in, :n] = A_in
    expected[:m_in, n:] = np.eye(m_in)
    expected[m_in:, :n] = A_eq
    np.testing.assert_array_equal(np.asarray(tlp.problem.A_eq), expected)
    np.testing.assert_array_equal(tlp.problem.b_eq,
                                  np.concatenate([problem.b_in, problem.b_eq]))
    np.testing.assert_array_equal(tlp.problem.c[:n], problem.c)


def test_masked_solve_recovers_clear_outcome(threebus, threebus_golden):
    g = threebus_golden
    for seed in range(20):
        blocks, keys, tlp, sol = run_masked(threebus, seed)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(g["objective"], abs=1e-6)
        rec = recover_primal(keys, sol, tlp)
        np.testing.assert_allclose(rec["GENCO1"], g["gen_segments"]["GENCO1"],
                                   atol=1e-6)
        np.testing.assert_allclose(rec["LSE1"], g["load_segments"]["LSE1"],
                                   atol=1e-6)
        np.testing.assert_allclose(rec["theta"], [-1.0, -10.0], atol=1e-6)
        blo, bhi = tlp.row_spans["balance"]
        lmp = recover_lmp(keys.iso.X_b, sol.duals_eq[blo:bhi])
        np.testing.assert_allclose(lmp, [15.0, 15.5, 16.0], atol=1e-6)


def test_recovery_products_match_printed_values():
    np.testing.assert_allclose(YG1_PRINTED @ P1_MASKED, [90, 20, 0], atol=5e-3)
    np.testing.assert_allclose(YTHETA_PRINTED @ THETA_MASKED, [-1, -10],
                               atol=5e-3)
    np.testing.assert_allclose(recover_lmp(XB_PRINTED, LAMBDA_MASKED),
                               [15.0, 15.5, 16.0], atol=5e-3)


def test_recover_lmp_conventions():
    lam = np.array([4.0, -2.0, 1.5])
    np.testing.assert_allclose(recover_lmp(np.eye(3), -lam), lam)
    rng = np.random.default_rng(15)
    for _ in range(20):
        X = rng.uniform(0.01, 1.0, (4, 4))
        target = rng.uniform(5.0, 40.0, 4)
        lam_tilde = np.linalg.solve(X.T, -target)
        np.testing.assert_allclose(recover_lmp(X, lam_tilde), target,
                                   atol=1e-8 * np.max(np.abs(target)))
    with pytest.raises(DimensionMismatch):
        recover_lmp(np.eye(3), [1.0, 2.0])


def test_recover_primal_identity_passthrough(threebus):
    blocks = build_ed_blocks(threebus)
    keys = MaskKeys.identity(blocks)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    rec = recover_primal(keys, sol, tlp)
    lo, hi = tlp.var_spans["GENCO1"]
    np.testing.assert_allclose(rec["GENCO1"], sol.x[lo:hi])


def test_recover_primal_span_mismatch(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=2)
    bad = gen_keys(build_ed_blocks(gen_synthetic(3, 2, 1, 2, 1, seed=1)), 0)
    with pytest.raises(SpanMismatch):
        recover_primal(bad, sol, tlp)


def test_submissions_disclose_nothing(threebus):
    blocks = build_ed_blocks(threebus)
    for seed in range(10):
        keys = gen_keys(blocks, seed)
        for e in blocks.gencos + blocks.lses:
            sub = mask_entity(e, keys.entities[e.owner])
            assert verify_masked(sub, e)
            assert np.max(np.abs(sub.masked_constraints - e.A)) > 0
            assert np.max(np.abs(sub.masked_rhs - e.rhs)) > 0
            assert np.max(np.abs(sub.masked_cost - e.cost)) > 0


def test_missing_submission_rejected(threebus):
    blocks = build_ed_blocks(threebus)
    keys = gen_keys(blocks, 0)
    subs = masked_submissions(blocks, keys)
    with pytest.raises(MissingSubmission):
        build_transformed_ed(subs[:-1])          # no ISO
    with pytest.raises(MissingSubmission):
        build_transformed_ed(subs[1:])           # ISO expects GENCO1
    with pytest.raises(MissingSubmission):
        build_transformed_ed([s for s in subs if s.kind != "LSE"])


def test_constraint_count_conservation_random_systems():
    for seed in (0, 1, 2):
        system = gen_synthetic(4, 2, 2, 1, 2, seed=seed, segments=2)
        blocks = build_ed_blocks(system)
        problem, _ = assemble_ed_lp(blocks)
        keys = gen_keys(blocks, seed)
        tlp = build_transformed_ed(masked_submissions(blocks, keys))
        assert tlp.problem.A_eq.shape[0] == problem.n_rows
        total_slack = blocks.total_entity_rows + 2 * blocks.line_caps.size
        assert tlp.problem.n_vars == problem.n_vars + total_slack
        sol = solve_lp(tlp.problem)
        ref = solve_lp(problem)
        assert sol.objective == pytest.approx(
            ref.objective, rel=1e-6, abs=1e-6)


def test_hourly_block_masks_preserve_equivalence():
    system = gen_synthetic(4, 2, 2, 1, 3, seed=11, segments=2)
    blocks = build_ed_blocks(system)
    ref = solve_lp(assemble_ed_lp(blocks)[0])
    cfg = MaskConfig(hourly_block_masks=True)
    keys = gen_keys(blocks, 5, cfg)
    assert sp.issparse(keys.iso.X_b)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
    rec = recover_primal(keys, sol, tlp)
    from maskdispatch.lp import check_point
    x = np.concatenate([rec[e.owner] for e in blocks.gencos + blocks.lses]
                       + [rec["theta"]])
    assert check_point(assemble_ed_lp(blocks)[0], x, 1e-6).feasible


# ---------------------------------------------------------------------------
# inference audit
# ---------------------------------------------------------------------------

def test_audit_counts_for_first_entity(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=3)
    subs = masked_submissions(blocks, keys)
    rec = recover_primal(keys, sol, tlp)
    rep = leakage_audit(subs[0], published_recovery=rec["GENCO1"])
    assert rep.linear_equations == 6
    assert rep.linear_unknowns == 9
    assert rep.bilinear_equations == 66
    assert rep.bilinear_unknowns == 51
    assert rep.verdict == "UNDERDETERMINED"


def test_audit_without_publication_drops_recovery_equations(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=4)
    subs = masked_submissions(blocks, keys)
    rep = leakage_audit(subs[0])
    assert rep.linear_equations == 3
    assert rep.verdict == "UNDERDETERMINED"


def test_audit_flags_degenerate_entity():
    sub = EncryptedSubmission(
        owner="tiny", kind="GENCO",
        masked_cost=np.array([2.0]),
        masked_constraints=np.array([[1.5]]),
        masked_slack=np.array([[0.7]]),
        masked_rhs=np.array([3.0]),
        masked_incidence=np.array([[0.9]]))
    rep = leakage_audit(sub, published_recovery=np.array([1.0]))
    assert rep.linear_equations == 2
    assert rep.linear_unknowns == 1
    assert rep.verdict == "AT-RISK"


def test_audit_iso_submission(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=5)
    subs = masked_submissions(blocks, keys)
    rep = leakage_audit(subs[-1], published_recovery=np.zeros(2))
    assert rep.kind == "ISO"
    assert rep.verdict == "UNDERDETERMINED"
