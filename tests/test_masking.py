import collections
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from maskdispatch.lp import (
    LpProblem, SolverConfig, solve_lp, check_point, DimensionMismatch,
    NumericalBreakdown,
)
from maskdispatch.market import build_ed_blocks, assemble_ed_lp, gen_synthetic
from maskdispatch import masking, protocol
from maskdispatch.protocol import run_market_round
from oracle import cancelled_slack_form, plain_iso_products
from maskdispatch.masking import (
    MaskConfig, EntityKeys, IsoKeys, EncryptedSubmission,
    vertical_mask_generic, horizontal_mask_generic,
    build_transformed_ed, recover_lmp, leakage_audit,
    mask_entities, mask_entity, mask_iso,
    KeyGenerationFailed, SingularMask, NonPositiveDiagonal,
    MissingSubmission,
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


PartyKeys = collections.namedtuple("PartyKeys", "entities iso")


def party_keys(blocks, seed, config=None):
    """Every party's keys for mask seed `seed`, drawn as `run_market_round`
    draws them, each from its own child of the seed: PartyKeys(owner ->
    EntityKeys, IsoKeys), the operator's masks as stacks of hour blocks."""
    entities = blocks.gencos + blocks.lses
    *rngs, iso = map(np.random.default_rng,
                     masking.spawn_party_seeds(seed, len(entities)))
    return PartyKeys(
        {e.owner: masking.entity_keys(rng, e.owner, e.kind, e.n, e.m, config,
                                      horizon=blocks.T)
         for e, rng in zip(entities, rngs)},
        masking.iso_keys(iso, blocks.n_iso, blocks.line_caps.size,
                         blocks.admittance.shape[0], config, horizon=blocks.T))


def identity_keys(blocks):
    """All masks identity, slack coefficients one: the no-op key set."""
    TL, TB = blocks.line_caps.size, blocks.admittance.shape[0]
    return PartyKeys(
        {e.owner: EntityKeys(e.owner, e.kind, np.eye(e.n), np.eye(e.m), np.ones(e.m))
         for e in blocks.gencos + blocks.lses},
        IsoKeys(np.eye(blocks.n_iso)[None], np.eye(TL)[None], np.eye(TL)[None],
                np.ones(TL), np.ones(TL), np.eye(TB)[None]))


def masked_submissions(blocks, keys):
    subs = [mask_entity(e, keys.entities[e.owner])
            for e in blocks.gencos + blocks.lses]
    incidences = {s.owner: s.masked_incidence for s in subs}
    subs.append(mask_iso(blocks.network_only(), keys.iso, incidences))
    return subs


def recovered_point(keys, x, tlp):
    """The clear LP's point from the masked solution `x`: each owner's slice
    mapped back through its column key, as its party does in a round."""
    Ys = [k.Y for k in keys.entities.values()] + list(keys.iso.Y_theta)
    return sp.block_diag(Ys, format="csr") @ x[:tlp.n_structural]


def run_masked(system, seed, config=None):
    blocks = build_ed_blocks(system)
    keys = party_keys(blocks, seed, config)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    return blocks, keys, tlp, sol


def test_key_dimensions_match_entity_blocks(threebus):
    blocks = build_ed_blocks(threebus)
    keys = party_keys(blocks, seed=1)
    assert keys.entities["GENCO1"].Y.shape == (3, 3)
    assert keys.entities["GENCO1"].X.shape == (6, 6)
    assert keys.entities["LSE1"].Y.shape == (3, 3)
    assert keys.iso.Y_theta.shape == (1, 2, 2)
    assert keys.iso.X_l1.shape == (1, 3, 3)
    assert keys.iso.X_b.shape == (1, 3, 3)


def test_keys_deterministic_per_seed(threebus):
    blocks = build_ed_blocks(threebus)
    a = party_keys(blocks, seed=17)
    b = party_keys(blocks, seed=17)
    assert np.array_equal(a.entities["GENCO1"].Y, b.entities["GENCO1"].Y)
    assert np.array_equal(a.iso.X_b, b.iso.X_b)
    c = party_keys(blocks, seed=18)
    assert not np.array_equal(a.entities["GENCO1"].Y, c.entities["GENCO1"].Y)


def test_key_conditioning_and_positivity(threebus):
    blocks = build_ed_blocks(threebus)
    cfg = MaskConfig()
    for seed in range(10):
        keys = party_keys(blocks, seed, cfg)
        mats = [*keys.iso.Y_theta, *keys.iso.X_l1, *keys.iso.X_l2, *keys.iso.X_b]
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


def test_impossible_conditioning_gate_fails(monkeypatch):
    system = gen_synthetic(3, 1, 1, 1, 1, seed=3)
    blocks = build_ed_blocks(system)
    monkeypatch.setattr(masking, "_COND_MAX", 1.0 + 1e-9)
    monkeypatch.setattr(masking, "_MAX_RETRIES", 5)
    with pytest.raises(KeyGenerationFailed):
        party_keys(blocks, seed=0)
    with pytest.raises(KeyGenerationFailed):
        run_market_round(system, 0, mode="masked")


def _assert_hour_blocks_within(M, hours, lo, hi):
    """Entries of the `hours` diagonal blocks of the dense `M` lie in
    [lo, hi]; every other entry is a structural zero."""
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
        keys = party_keys(blocks, seed, MaskConfig(hourly_block_masks=hourly))
        iso = keys.iso
        for K in (iso.Y_theta, iso.X_l1, iso.X_l2, iso.X_b):
            assert K.shape[0] == hours and K.shape[1] == K.shape[2]
            assert np.all((K >= 0.01) & (K <= 1.0))
        for ek in keys.entities.values():
            _assert_hour_blocks_within(ek.Y, hours, 0.01, 1.0)
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
        return LpProblem(sense="min", c=c, A_eq=A, b_eq=b)
    b = A @ x0 + rng.uniform(0.0, 0.5, 6)
    y0 = np.abs(rng.normal(size=6)) + 0.05
    c = -(A.T @ y0)
    return LpProblem(sense="min", c=c, A_in=A, b_in=b)


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
    assert list(masked.lb[6:]) == [0.0] * 6 and np.all(masked.ub == np.inf)


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
    assert np.all(tlp.problem.lb[:11] == -np.inf)
    assert np.all(tlp.problem.lb[11:] == 0.0) and np.all(tlp.problem.ub == np.inf)


def test_identity_keys_reproduce_slack_form(threebus):
    blocks = build_ed_blocks(threebus)
    keys = identity_keys(blocks)
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
        rec = recovered_point(keys, sol.x, tlp)
        vs = tlp.var_spans
        np.testing.assert_allclose(rec[slice(*vs["GENCO1"])],
                                   g["gen_segments"]["GENCO1"], atol=1e-6)
        np.testing.assert_allclose(rec[slice(*vs["LSE1"])],
                                   g["load_segments"]["LSE1"], atol=1e-6)
        np.testing.assert_allclose(rec[slice(*vs["theta"])], [-1.0, -10.0],
                                   atol=1e-6)
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
    # under identity keys a party's own recovery hands its slice back
    blocks = build_ed_blocks(threebus)
    keys = identity_keys(blocks)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    for e in blocks.gencos + blocks.lses:
        party = protocol.EntityParty(e, seed=0)
        party._keys = keys.entities[e.owner]
        lo, hi = tlp.var_spans[e.owner]
        np.testing.assert_array_equal(party.recover(sol.x[lo:hi]), sol.x[lo:hi])


def test_submissions_disclose_nothing(threebus):
    blocks = build_ed_blocks(threebus)
    entities = blocks.gencos + blocks.lses
    for seed in range(10):
        keys = party_keys(blocks, seed)
        subs, verified = mask_entities(
            entities, [keys.entities[e.owner] for e in entities])
        assert verified.all()
        for e, sub in zip(entities, subs):
            assert np.max(np.abs(sub.masked_constraints - e.A)) > 0
            assert np.max(np.abs(sub.masked_rhs - e.rhs)) > 0
            assert np.max(np.abs(sub.masked_cost - e.cost)) > 0
    # the no-op keys publish every block as it is, and the test says so
    keys = identity_keys(blocks)
    _, verified = mask_entities(
        entities, [keys.entities[e.owner] for e in entities])
    assert not verified.any()


def test_missing_submission_rejected(threebus):
    blocks = build_ed_blocks(threebus)
    keys = party_keys(blocks, 0)
    subs = masked_submissions(blocks, keys)
    with pytest.raises(MissingSubmission):
        build_transformed_ed(subs[:-1])          # no ISO
    with pytest.raises(MissingSubmission):
        build_transformed_ed(subs[1:])           # ISO expects GENCO1
    with pytest.raises(MissingSubmission):
        build_transformed_ed([s for s in subs if s.kind != "LSE"])
    iso = subs[-1]
    short = dataclasses.replace(iso, balance=iso.balance[:, :-1])
    with pytest.raises(MissingSubmission):
        build_transformed_ed(subs[:-1] + [short])   # ISO lacks LSE1's column
    # the operator names the order in which its balance block joins the
    # entities, outside the payload; in another order one entity's balance
    # columns would sit under another's dispatch (a wrong optimum)
    assert iso.balance_owners == ("GENCO1", "GENCO2", "LSE1")
    assert iso.hours == 1
    assert {"balance_owners", "hours"}.isdisjoint(iso.payload_arrays())
    by_owner = {s.owner: s for s in subs}
    with pytest.raises(MissingSubmission):
        build_transformed_ed([by_owner[o] for o in ("GENCO2", "GENCO1", "LSE1", "ISO")])


def test_constraint_count_conservation_random_systems():
    for seed in (0, 1, 2):
        system = gen_synthetic(4, 2, 2, 1, 2, seed=seed, segments=2)
        blocks = build_ed_blocks(system)
        problem, _ = assemble_ed_lp(blocks)
        keys = party_keys(blocks, seed)
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
    keys = party_keys(blocks, 5, cfg)
    assert keys.iso.X_b.shape[0] == 3
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
    x = recovered_point(keys, sol.x, tlp)
    assert check_point(assemble_ed_lp(blocks)[0], x, 1e-6).feasible


@pytest.mark.parametrize("case", ["hourly-14", "threebus", "pooled30-4h"])
def test_mask_iso_equals_plain_products(case, threebus):
    # keys of one block (threebus; pooled30-4h, over 4 hours) publish each
    # whole product exactly, but the balance block, whose entities' products
    # are joined, to within rounding of the whole product; hourly keys
    # publish each hour block's product as canonical CSR, sorted once so
    # that the leak scan never copies it to sort, to within rounding of the
    # whole product's values: block diagonal, but for the balance block's
    # columns, which run hour-major within each entity
    if case == "threebus":
        system, config = threebus, MaskConfig()
    elif case == "pooled30-4h":
        system = gen_synthetic(30, 2, 2, 5, 4, seed=1, segments=3)
        config = MaskConfig()
    else:
        system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
        config = MaskConfig(hourly_block_masks=True)
    blocks = build_ed_blocks(system)
    for seed in range(3):
        keys = party_keys(blocks, seed, config)
        H = keys.iso.X_b.shape[0]
        assert H == (3 if case == "hourly-14" else 1)
        subs = masked_submissions(blocks, keys)
        iso = subs[-1]
        ref = plain_iso_products(blocks.network_only(), keys.iso,
                                 {s.owner: s.masked_incidence for s in subs[:-1]})
        got = iso.payload_arrays()
        for name, want in ref.items():
            have = got[name]
            if H == 1:
                assert type(have) is np.ndarray, name
                if name != "balance":
                    assert np.array_equal(have, want), name
                    continue
                have = sp.csr_matrix(have)
            assert have.format == "csr" and have.has_canonical_format, name
            r = have.shape[0] // H
            col_hour = (np.arange(have.shape[1]) // (have.shape[1] // H)
                        if name != "balance" else np.concatenate(
                            [np.repeat(np.arange(H), s.n // H) for s in subs[:-1]]))
            coo = have.tocoo()
            assert np.array_equal(coo.row // r, col_hour[coo.col]), name
            have = have.toarray()
            for t in range(H):
                hour = np.ix_(np.arange(t * r, (t + 1) * r),
                              np.flatnonzero(col_hour == t))
                assert np.max(np.abs(have[hour] - want[hour]), initial=0.0) \
                    <= 1e-14 * np.max(np.abs(want[hour]), initial=0.0), (name, t)


def test_stacked_recovery_equals_block_diagonal_product():
    # the operator recovers angles and prices through its keys' hour
    # blocks one block at a time, as the full block diagonal would
    system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
    blocks = build_ed_blocks(system)
    config = MaskConfig(hourly_block_masks=True)
    rng = np.random.default_rng(8)
    for seed in range(3):
        keys = party_keys(blocks, seed, config)
        assert keys.iso.Y_theta.shape[0] == keys.iso.X_b.shape[0] == 3
        party = protocol.IsoParty(blocks, system.lines, {}, None, system.horizon, 0)
        party._keys = keys.iso
        theta, lam = rng.normal(size=blocks.n_iso), rng.normal(size=3 * 14)
        for got, want in (
                (party.recover_angles(theta),
                 scipy.linalg.block_diag(*keys.iso.Y_theta) @ theta),
                (recover_lmp(keys.iso.X_b, lam),
                 -(scipy.linalg.block_diag(*keys.iso.X_b).T @ lam))):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-14 * np.max(np.abs(want)))
        with pytest.raises(DimensionMismatch):
            party.recover_angles(theta[:-1])
        with pytest.raises(DimensionMismatch):
            recover_lmp(keys.iso.X_b, np.append(lam, 0.0))


def _with_condition(rng, n, kappa):
    """U·diag(s)·Vᵀ with orthogonal U, V and 2-norm condition number kappa."""
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return U @ np.diag(np.geomspace(1.0, 1.0 / kappa, n)) @ V.T


def test_frobenius_bound_bounds_condition():
    # the one mask rule is sound: ‖M‖_F·‖M⁻¹‖_F >= κ₂(M) on draws at the
    # workloads' key sizes, positive (column and operator masks) and signed
    # (entity row masks); at n = 1 both are 1, up to rounding
    rng = np.random.default_rng(21)
    mats = [rng.uniform(0.01, 1.0, (n, n)) for n in range(1, 7) for _ in range(30)]
    mats += [rng.uniform(0.01, 1.0, (n, n)) for n in (117, 140) for _ in range(3)]
    mats += [rng.uniform(-1.0, 1.0, (n, n)) for n in (4, 6) for _ in range(30)]
    mats += [rng.uniform(-1.0, 1.0, (n, n)) for n in (120, 150) for _ in range(3)]
    for M in mats:
        assert masking._frobenius_bound(M) >= np.linalg.cond(M) * (1 - 1e-12)


def test_bound_rejects_past_cond_max():
    rng = np.random.default_rng(22)
    for n in (2, 4, 6, 117):
        M = _with_condition(rng, n, masking._COND_MAX * (1 + 1e-3))
        assert masking._frobenius_bound(M) > masking._COND_MAX
    # at n = 2 the bound is κ₂ + 1/κ₂, so it passes 0.1% under the line
    assert masking._frobenius_bound(
        _with_condition(rng, 2, masking._COND_MAX * (1 - 1e-3))) <= masking._COND_MAX
    # an exactly zero pivot has no bound; a near-singular matrix fails
    singular = rng.uniform(0.01, 1.0, (6, 6))
    singular[:, 2] = 0.0
    assert masking._frobenius_bound(singular) == np.inf
    near = rng.uniform(0.01, 1.0, (6, 6))
    near[4] = near[1] + 1e-9 * rng.uniform(size=6)
    assert masking._frobenius_bound(near) > masking._COND_MAX


KEYED_SYSTEMS = {
    "threebus": (None, False, range(5)),
    "pooled30-4h": (dict(buses=30, gencos=2, lses=2, entity_size=5, T=4,
                         seed=1, segments=3), False, (44, 73, 5)),
    "hourly14-3h": (dict(buses=14, gencos=5, lses=5, entity_size=1, T=3,
                         seed=3, segments=2), True, range(3)),
}


@pytest.mark.parametrize("name", sorted(KEYED_SYSTEMS))
def test_drawn_keys_within_cond_max(name, threebus):
    case, hourly, seeds = KEYED_SYSTEMS[name]
    blocks = build_ed_blocks(threebus if case is None else gen_synthetic(**case))
    for seed in seeds:
        keys = party_keys(blocks, seed, MaskConfig(hourly_block_masks=hourly))
        iso = keys.iso
        mats = [*iso.Y_theta, *iso.X_l1, *iso.X_l2, *iso.X_b]
        mats += [M for ek in keys.entities.values() for M in (ek.Y, ek.X)]
        for M in mats:
            assert np.linalg.cond(M) <= masking._COND_MAX


def _bits(a):
    """Shape and bytes of a dense array, or of a CSR matrix's arrays."""
    if sp.issparse(a):
        return a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()
    return a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", sorted(KEYED_SYSTEMS))
def test_party_keys_give_the_round_payloads(name, threebus):
    # the keys the tests draw are the keys the round's parties draw: their
    # submissions are the payloads run_market_round logs, bit for bit
    case, hourly, _ = KEYED_SYSTEMS[name]
    system = threebus if case is None else gen_synthetic(**case)
    blocks, config = build_ed_blocks(system), MaskConfig(hourly_block_masks=hourly)
    for seed in range(3):
        _, log = run_market_round(system, seed, mode="masked", mask_config=config)
        sent = [m.payload for m in log.messages if m.kind == protocol.SUBMISSION]
        subs = masked_submissions(blocks, party_keys(blocks, seed, config))
        assert len(subs) == len(sent)
        for sub, payload in zip(subs, sent):
            drawn = sub.payload_arrays()
            assert list(drawn) == list(payload)
            for key, value in payload.items():
                assert _bits(drawn[key]) == _bits(value), (seed, sub.owner, key)


def test_redrawn_keys_give_the_round_payloads(monkeypatch):
    # a gate of 100 rejects some, not all, first draws of hourly14-3h's
    # parties: those parties are redrawn one draw at a time by entity_keys,
    # and the round still sends what party_keys draws, bit for bit
    system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
    blocks, config = build_ed_blocks(system), MaskConfig(hourly_block_masks=True)
    monkeypatch.setattr(masking, "_COND_MAX", 100.0)
    redrawn, entity_keys = [], masking.entity_keys
    monkeypatch.setattr(masking, "entity_keys",
                        lambda rng, owner, *a, **k: redrawn.append(owner)
                        or entity_keys(rng, owner, *a, **k))
    for seed in range(3):
        redrawn.clear()
        _, log = run_market_round(system, seed, mode="masked", mask_config=config)
        assert 0 < len(redrawn) < 10, (seed, redrawn)
        sent = [m.payload for m in log.messages if m.kind == protocol.SUBMISSION]
        subs = masked_submissions(blocks, party_keys(blocks, seed, config))
        for sub, payload in zip(subs, sent, strict=True):
            drawn = sub.payload_arrays()
            assert list(drawn) == list(payload)
            for key, value in payload.items():
                assert _bits(drawn[key]) == _bits(value), (seed, sub.owner, key)


@pytest.mark.parametrize("bad", ["nan", "kappa-1e9"])
def test_generic_transforms_reject_unusable_mask(bad):
    rng = np.random.default_rng(23)
    if bad == "nan":
        M = rng.uniform(0.01, 1.0, (2, 2))
        M[1, 0] = np.nan
    else:
        M = _with_condition(rng, 2, 1e9)
    p = _partitioned_lp(rng)
    Ys = _column_masks(rng)
    Ys["E1"] = M
    with pytest.raises(SingularMask):
        vertical_mask_generic(p, COLUMN_BLOCKS, Ys)
    Xs = {o: np.eye(2) for o, _ in ROW_BLOCKS}
    Xs["E1"] = M
    with pytest.raises(SingularMask):
        horizontal_mask_generic(p, ROW_BLOCKS, Xs,
                                {o: np.ones(2) for o, _ in ROW_BLOCKS})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(buses=st.integers(4, 14), seed=st.integers(0, 2**16),
       T=st.sampled_from([1, 2]), backend=st.sampled_from(["auto", "highs"]))
def test_masked_equals_clear_on_synthetic_markets(buses, seed, T, backend):
    blocks = build_ed_blocks(gen_synthetic(buses, 3, 3, 1, T, seed=seed,
                                           segments=2))
    clear_problem = assemble_ed_lp(blocks)[0]
    config = SolverConfig(backend=backend)
    ref = solve_lp(clear_problem, config)
    keys = party_keys(blocks, seed)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    sol = solve_lp(tlp.problem, config, presolve=False)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
    x = recovered_point(keys, sol.x, tlp)
    assert check_point(clear_problem, x, 1e-6).feasible


def test_presolve_does_not_change_masked_multi_hour_solve():
    # masking leaves presolve nothing to remove, so skipping it (as the
    # masked round does) must give the same solution bit for bit
    blocks = build_ed_blocks(gen_synthetic(14, 5, 5, 1, 2, seed=3, segments=2))
    keys = party_keys(blocks, 0, MaskConfig(hourly_block_masks=True))
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    config = SolverConfig(backend="highs")
    with_presolve = solve_lp(tlp.problem, config, presolve=True)
    without = solve_lp(tlp.problem, config, presolve=False)
    np.testing.assert_array_equal(without.x, with_presolve.x)
    np.testing.assert_array_equal(without.duals_eq, with_presolve.duals_eq)


def test_hour_stack_reads_dense_and_published_blocks():
    # a dense block is one hour block, as a view; the operator's CSR is its
    # stack of hour blocks, read from its entries without a copy, whether
    # block diagonal or at each hour's own columns (the balance block's)
    rng = np.random.default_rng(3)
    D = rng.uniform(0.01, 1.0, (4, 3))
    stack, cols = masking._hour_stack(D)
    assert np.shares_memory(stack, D) and stack.shape == (1, 4, 3)
    np.testing.assert_array_equal(cols, [[0, 1, 2]])
    hours = rng.uniform(0.01, 1.0, (3, 4, 2))
    at = np.array([[0, 5], [1, 3], [2, 4]])
    for want in (np.arange(6).reshape(3, 2), at):
        M = masking._block_diagonal_csr(hours, want)
        stack, cols = masking._hour_stack(M, 3)
        assert np.shares_memory(stack, M.data)
        np.testing.assert_array_equal(stack, hours)
        np.testing.assert_array_equal(cols, want)
    # rows stored out of order are the same matrix
    M = masking._block_diagonal_csr(hours)
    shuffled = sp.csr_matrix((M.data.reshape(-1, 2)[:, ::-1].ravel(),
                              M.indices.reshape(-1, 2)[:, ::-1].ravel(), M.indptr),
                             shape=M.shape)
    np.testing.assert_array_equal(masking._hour_stack(shuffled, 3)[0], hours)
    # no lines, or one bus: empty hour blocks
    for shape in ((0, 6), (6, 0)):
        M = masking._block_diagonal_csr(np.zeros((3, shape[0] // 3, shape[1] // 3)))
        stack, cols = masking._hour_stack(M, 3)
        assert stack.shape == (3, shape[0] // 3, shape[1] // 3)
        assert cols.shape == (3, shape[1] // 3)


def test_hour_stack_refuses_other_layouts():
    rng = np.random.default_rng(4)
    M = masking._block_diagonal_csr(rng.uniform(0.01, 1.0, (3, 4, 2)))
    outside = M.copy()
    outside.indices[1] = 4           # one entry of hour 0 moved into hour 2
    dropped = M.toarray()
    dropped[5, 2] = 0.0              # one stored entry left out
    for bad, hours in ((outside, 3), (sp.csr_matrix(dropped), 3),
                       (M, 5),       # 12 rows do not split into 5 hours
                       (M.tocoo(), 3), (M.toarray(), 3)):
        with pytest.raises(DimensionMismatch):
            masking._hour_stack(bad, hours)


@pytest.mark.parametrize("case", ["threebus", "hourly-14"])
def test_eliminate_slacks_equals_dense_cancellation(case, threebus):
    # owner by owner, the agent's cancellation kernel gives S⁻¹ times the
    # owner's row block of the slack form, as the oracle's dense solves do
    if case == "threebus":
        blocks, config = build_ed_blocks(threebus), MaskConfig()
    else:
        blocks = build_ed_blocks(gen_synthetic(14, 5, 5, 1, 2, seed=3, segments=2))
        config = MaskConfig(hourly_block_masks=True)
    keys = party_keys(blocks, 2, config)
    assert keys.iso.X_l1.shape[0] == (1 if case == "threebus" else blocks.T)
    tlp = build_transformed_ed(masked_submissions(blocks, keys))
    want = cancelled_slack_form(tlp)
    groups, b_in = masking._cancelled_groups(tlp)
    got = np.zeros(want.A_in.shape)
    for _, r0, col, D, cols in groups:
        rows = r0 + np.arange(D.shape[0] * D.shape[1]).reshape(D.shape[:2])
        for block, at, hour_rows in zip(D, cols, rows):
            got[np.ix_(hour_rows, col + at)] = block
    np.testing.assert_allclose(got, want.A_in, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b_in, want.b_in, rtol=0, atol=1e-10)


def _case_submissions(case, seed, threebus):
    """(published submissions, hours) for a named case at mask seed `seed`."""
    if case == "threebus":
        blocks, config = build_ed_blocks(threebus), MaskConfig()
    elif case in ("hourly-14", "hourly-14-1seg"):
        segments = 1 if case == "hourly-14-1seg" else 2
        blocks = build_ed_blocks(gen_synthetic(14, 5, 5, 1, 2, seed=3,
                                               segments=segments))
        config = MaskConfig(hourly_block_masks=True)
    else:
        blocks = build_ed_blocks(gen_synthetic(30, 2, 2, 5, 4, seed=1, segments=3))
        config = MaskConfig()
    return masked_submissions(blocks, party_keys(blocks, seed, config)), blocks.T


def _case_tlp(case, seed, threebus):
    """(TransformedLp, hours) for a named case at mask seed `seed`."""
    subs, T = _case_submissions(case, seed, threebus)
    return build_transformed_ed(subs), T


@pytest.mark.parametrize("case, seed", [("hourly-14", 0), ("hourly-14", 1),
                                        ("hourly-14", 2), ("threebus", 0),
                                        ("pooled30-4h", 44), ("pooled30-4h", 73),
                                        ("hourly-14-1seg", 0)])
def test_eliminated_angles_reproduce_cancelled_solve(case, seed, threebus):
    # substituting the angles out and mapping the solution back gives an
    # optimal point and duals of the cancelled LP: its entity and angle
    # slices and balance duals match the cancelled LP's own solve
    tlp, _ = _case_tlp(case, seed, threebus)
    config = SolverConfig(backend="highs")
    cancelled = cancelled_slack_form(tlp)
    want = solve_lp(cancelled, config, presolve=False)
    reduced = masking.eliminate_angles(tlp)
    got = reduced.restore(solve_lp(reduced.problem, config, presolve=False))
    assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-6)
    # masked coordinates reach about 1.7e3 here; on pooled30-4h seed 44
    # each solve recovers dispatch about 5e-7 from clear, on opposite sides
    np.testing.assert_allclose(got.x, want.x, rtol=1e-8, atol=1e-6)
    np.testing.assert_allclose(got.duals_eq, want.duals_eq, rtol=1e-8, atol=1e-6)
    assert check_point(cancelled, got.x).feasible
    # dual feasibility in the cancelled LP, the eliminated angle columns too
    residual = (cancelled.c - cancelled.A_in.T @ got.duals_in
                - cancelled.A_eq.T @ got.duals_eq)
    assert np.max(np.abs(residual)) <= 1e-6
    assert np.max(np.abs(residual[tlp.var_spans["theta"][0]:])) <= 1e-9
    # the duals of the rows stated as bounds come back in their rows
    np.testing.assert_allclose(got.duals_in, want.duals_in, rtol=0, atol=1e-6)
    if case == "hourly-14-1seg":
        # single-segment entities under hourly keys have a diagonal Y, so
        # their cancelled bound rows have one entry each (leak (c)) and
        # move into column bounds with the flow limits, upper and lower
        # ones binding
        rows, _, coef = reduced.moved
        TL = tlp.row_spans["line_hi"][1] - tlp.row_spans["line_hi"][0]
        assert rows.size > 2 * TL
        binding = np.abs(got.duals_in[rows]) > 1e-6
        assert binding[coef > 0].any() and binding[coef < 0].any()


@pytest.mark.parametrize("backend", ["auto", "highs"])
def test_coupled_hour_blocks_are_refused(backend, monkeypatch):
    # one entry of X_l2 couples the first line-hour row to the last hour,
    # so the operator publishes its lower-limit group from the full matrix
    # (a stack of hour blocks cannot hold that key): the agent refuses the
    # blocks that do not lie on their hour blocks before any LP is solved
    mask_iso, solved = masking.mask_iso, []

    def coupled(blocks, keys, incidences):
        iso = mask_iso(blocks, keys, incidences)
        X = scipy.linalg.block_diag(*keys.X_l2)
        X[0, -1] = 0.5
        flow = blocks.flow_rows @ scipy.linalg.block_diag(*keys.Y_theta)
        iso.line_flow_lo = sp.csr_matrix(-(X @ flow))
        iso.line_slack_lo = sp.csr_matrix(X * keys.R_l2[None, :])
        iso.line_rhs_lo = X @ blocks.line_caps
        return iso

    monkeypatch.setattr(masking, "mask_iso", coupled)
    monkeypatch.setattr(protocol, "solve_lp", lambda *a, **k: solved.append(a))
    with pytest.raises(DimensionMismatch):
        run_market_round(gen_synthetic(14, 5, 5, 1, 2, seed=3, segments=2), 0,
                         mode="masked", config=SolverConfig(backend=backend),
                         mask_config=MaskConfig(hourly_block_masks=True))
    assert solved == []


@pytest.mark.parametrize("case", ["threebus", "hourly-14", "pooled30-4h"])
def test_eliminated_angles_keep_one_equality_per_hour(case, threebus):
    # hourly keys leave one balance component per hour and dense keys one
    # over all hours; either way a connected network keeps one system
    # balance row per hour, over the entity columns only, and each
    # line-hour adds one flow column and one flow equality; the moved
    # single-entry rows, the two flow limits of each line-hour among them,
    # leave the inequality rows
    tlp, T = _case_tlp(case, 1, threebus)
    reduced = masking.eliminate_angles(tlp)
    nz = tlp.var_spans["theta"][0]
    n_iso = tlp.n_structural - nz
    bal = tlp.row_spans["balance"][0]
    TL = tlp.row_spans["line_hi"][1] - tlp.row_spans["line_hi"][0]
    H = T if case == "hourly-14" else 1
    assert len(reduced.R) == len(reduced.zcols) == len(reduced.eq) == H
    moved = reduced.moved[0].size
    assert moved >= 2 * TL
    assert reduced.A_in.shape == (bal - moved, nz + TL)
    assert (reduced.problem.n_vars, reduced.problem.A_in.shape[0]) == (nz + TL,
                                                                      bal - moved)
    assert reduced.eq.shape[0] * reduced.eq.shape[1] == T
    assert reduced.problem.A_eq.shape[0] == T + TL
    # the angle columns of each hour, and its line-hours over them
    assert reduced.R.shape[0] * reduced.R.shape[1] == n_iso
    assert reduced.a.shape == (H, TL // H, n_iso // H)


@pytest.mark.parametrize("case", ["threebus", "hourly-14", "pooled30-4h"])
def test_screened_lp_is_a_slice_of_the_whole_flow_form(case, threebus):
    # each screened LP, built from the stacks, is the whole flow form with
    # the flow rows and columns of its monitored line-hours only.  A flow
    # row formed with fewer rows of its hour goes through other BLAS
    # kernels, so it agrees to rounding (about 1e-13 relative), not bit
    # for bit
    tlp, _ = _case_tlp(case, 1, threebus)
    reduced = masking.eliminate_angles(tlp)
    whole = reduced.problem
    nz, TL = reduced.c.size, reduced.k.size
    e = whole.A_eq.shape[0] - TL
    for monitored in (reduced.flows_in_rows(), np.array([0, TL // 2, TL - 1]),
                      np.arange(TL)):
        got = reduced.screened(monitored)
        rows = np.concatenate([np.arange(e), e + monitored])
        cols = np.concatenate([np.arange(nz), nz + monitored])
        want = whole.A_eq[rows][:, cols]
        assert got.A_eq.shape == want.shape and got.A_eq.nnz == want.nnz
        assert abs(got.A_eq - want).max() <= 1e-12 * abs(want).max()
        assert (got.A_in != whole.A_in[:, cols]).nnz == 0
        for name in ("c", "lb", "ub"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(whole, name)[cols])
        np.testing.assert_array_equal(got.b_eq, whole.b_eq[rows])
        np.testing.assert_array_equal(got.b_in, whole.b_in)


def _rows_as_bounds(p):
    """`p` with the single-entry rows of its CSR ``A_in`` stated as column
    bounds by `masking._single_entry_bounds`, and the rows moved."""
    coo = p.A_in.tocoo()
    kept, lb, ub, moved = masking._single_entry_bounds(
        coo.row, coo.col, coo.data, p.b_in, p.lb, p.ub)
    return dataclasses.replace(p, A_in=p.A_in[kept], b_in=p.b_in[kept],
                               lb=lb, ub=ub), moved


@pytest.mark.parametrize("caps", [(4.0, 3.0), (3.0, 4.0)],
                         ids=["second-binds", "first-binds"])
def test_repeated_single_entry_row_stays_a_row(caps):
    # max 2x + y - z  s.t.  x <= caps[0], x <= caps[1], x + y <= 10,
    # -z <= -2: only the first bound row of x moves (ub), the second stays
    # a row; -z <= -2 becomes lb_z = 2.  The restored duals are the row
    # form's whichever of x's two rows binds
    p = LpProblem(sense="max", c=[2.0, 1.0, -1.0],
                  A_in=sp.csr_matrix([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                      [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
                  b_in=[caps[0], caps[1], 10.0, -2.0])
    bounded, moved = _rows_as_bounds(p)
    rows, cols, coef = moved
    np.testing.assert_array_equal(rows, [0, 3])
    np.testing.assert_array_equal(cols, [0, 2])
    np.testing.assert_array_equal(coef, [1.0, -1.0])
    np.testing.assert_array_equal(bounded.A_in.toarray(),
                                  [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    np.testing.assert_array_equal(bounded.b_in, [caps[1], 10.0])
    np.testing.assert_array_equal(bounded.ub, [caps[0], np.inf, np.inf])
    np.testing.assert_array_equal(bounded.lb, [-np.inf, -np.inf, 2.0])
    config = SolverConfig(backend="highs")
    want = solve_lp(p, config)
    got = solve_lp(bounded, config)
    np.testing.assert_allclose(got.x, want.x, atol=1e-9)
    duals = masking._row_duals(got, moved)
    np.testing.assert_allclose(duals, want.duals_in, atol=1e-9)
    binding = 0 if caps[0] < caps[1] else 1
    np.testing.assert_allclose(duals[[binding, 2, 3]], [1.0, 1.0, 1.0], atol=1e-9)


def test_crossing_lower_bound_stays_a_row():
    # max x  s.t.  x <= 1, -x <= -(1 + 1e-12): the lower bound would cross
    # the upper one, so its row stays and the solver meets it within its
    # tolerance; the duals restore as for any kept row
    p = LpProblem(sense="max", c=[1.0],
                  A_in=sp.csr_matrix([[1.0], [-1.0]]), b_in=[1.0, -(1.0 + 1e-12)])
    bounded, moved = _rows_as_bounds(p)
    rows, cols, coef = moved
    np.testing.assert_array_equal(rows, [0])
    np.testing.assert_array_equal(bounded.b_in, [-(1.0 + 1e-12)])
    np.testing.assert_array_equal((bounded.lb, bounded.ub), ([-np.inf], [1.0]))
    got = solve_lp(bounded, SolverConfig(backend="highs"))
    assert got.x[0] == pytest.approx(1.0, abs=1e-9)
    assert masking._row_duals(got, moved).size == 2


def test_eliminated_angles_restore_lower_limit_duals(threebus):
    # threebus with its congested line 1-3 entered as 3-1, so that it binds
    # at its lower limit: the flow form states that limit divided by k, and
    # restore must give back the cancelled LP's own line-limit duals
    lines = list(threebus.lines)
    lines[2] = dataclasses.replace(lines[2], from_bus="3", to_bus="1")
    blocks = build_ed_blocks(dataclasses.replace(threebus, lines=lines))
    tlp = build_transformed_ed(masked_submissions(blocks, party_keys(blocks, 0)))
    config = SolverConfig(backend="highs")
    want = solve_lp(cancelled_slack_form(tlp), config, presolve=False)
    reduced = masking.eliminate_angles(tlp)
    got = reduced.restore(solve_lp(reduced.problem, config, presolve=False))
    assert np.max(np.abs(got.duals_in[reduced.lower])) > 1e-3
    np.testing.assert_allclose(got.duals_in, want.duals_in, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(got.duals_eq, want.duals_eq, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("case, tamper", [("threebus", "row"), ("hourly-14", "row"),
                                          ("threebus", "sign")])
def test_eliminated_angles_refuse_unpaired_line_rows(case, tamper, threebus):
    # one row of the published lower-limit block scaled without its slack
    # block or right-hand side: the cancelled rows of that hour are no
    # longer the upper-limit rows times -r1/r2, so merging them would solve
    # another LP.  With the whole block negated they stay parallel, but
    # with the same sign, and the lower limit would turn into an upper one
    subs, _ = _case_submissions(case, 1, threebus)
    iso = subs[-1]
    scale = np.ones(iso.line_flow_lo.shape[0])
    if tamper == "row":
        scale[1] = 1.01
    else:
        scale[:] = -1.0
    iso.line_flow_lo = sp.diags(scale) @ iso.line_flow_lo
    tlp = build_transformed_ed(subs)
    with pytest.raises(NumericalBreakdown, match="not antiparallel"):
        masking.eliminate_angles(tlp)


# ---------------------------------------------------------------------------
# inference audit
# ---------------------------------------------------------------------------

def test_audit_counts_for_first_entity(threebus):
    blocks, keys, tlp, sol = run_masked(threebus, seed=3)
    subs = masked_submissions(blocks, keys)
    rec = recovered_point(keys, sol.x, tlp)[slice(*tlp.var_spans["GENCO1"])]
    rep = leakage_audit(subs[0], published_recovery=rec)
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
