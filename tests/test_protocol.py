import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from maskdispatch import lp, masking, protocol
from maskdispatch.lp import NumericalBreakdown, SolverConfig, solve_lp
from maskdispatch.market import (
    BidSegment, Generator, Load, MarketSystem,
    build_ed_blocks, gen_synthetic, place_blocks, regroup_entities,
)
from maskdispatch.masking import MaskConfig
from maskdispatch.protocol import (
    AGENT, ISO, Message, CommLog, ProtocolViolation,
    run_market_round, comm_cost,
    masked_submission_counts, clear_submission_counts,
    _scan_for_leaks, _private_row_hashes,
    HEADER_BYTES, SCALAR_BYTES,
)


def test_clear_and_masked_rounds_agree(threebus, threebus_golden):
    clear, _ = run_market_round(threebus, 0, mode="clear")
    masked, _ = run_market_round(threebus, 0, mode="masked")
    g = threebus_golden
    assert clear.objective == pytest.approx(g["objective"], abs=1e-6)
    assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
    np.testing.assert_allclose(masked.lmp, g["lmp"], atol=1e-6)
    np.testing.assert_allclose(masked.angles, g["angles"], atol=1e-6)
    np.testing.assert_allclose(masked.flows, g["flows"], atol=1e-6)
    assert clear.max_dispatch_diff(masked) <= 1e-6


def test_masking_seed_changes_wire_not_economics(threebus):
    m1, log1 = run_market_round(threebus, 1, mode="masked")
    m2, log2 = run_market_round(threebus, 2, mode="masked")
    assert m1.objective == pytest.approx(m2.objective, abs=1e-6)
    assert m1.max_dispatch_diff(m2) <= 1e-6
    np.testing.assert_allclose(m1.lmp, m2.lmp, atol=1e-6)
    pay1 = log1.messages[0].payload["masked_constraints"]
    pay2 = log2.messages[0].payload["masked_constraints"]
    assert np.max(np.abs(pay1 - pay2)) > 1e-6


def test_same_seed_reproduces_wire(threebus):
    _, log1 = run_market_round(threebus, 9, mode="masked")
    _, log2 = run_market_round(threebus, 9, mode="masked")
    np.testing.assert_array_equal(log1.messages[0].payload["masked_constraints"],
                                  log2.messages[0].payload["masked_constraints"])


def test_masked_message_counts_match_hand_arithmetic(threebus):
    _, log = run_market_round(threebus, 0, mode="masked")
    # first entity's blocks: 3 cost + 18 constraints + 36 slack + 6 rhs
    # + 9 incidence
    cost = comm_cost(log)
    assert cost.per_party_up["GENCO1"][0] == 72
    assert cost.per_party_down["GENCO1"][0] == 3
    counts = masked_submission_counts(threebus)
    for owner, expect in counts["up"].items():
        assert cost.per_party_up[owner][0] == expect
    for owner, expect in counts["down"].items():
        assert cost.per_party_down[owner][0] == expect
    assert cost.total_up_count == counts["up_total"]
    assert cost.total_down_count == counts["down_total"]


def test_clear_message_counts_match_hand_arithmetic(threebus):
    _, log = run_market_round(threebus, 0, mode="clear")
    # three prices and six bound values per entity, no ramps declared
    cost = comm_cost(log)
    assert cost.per_party_up["GENCO1"][0] == 9
    assert cost.per_party_up["LSE1"][0] == 9
    counts = clear_submission_counts(threebus)
    for owner, expect in counts["up"].items():
        assert cost.per_party_up[owner][0] == expect
    assert cost.total_down_count == counts["down_total"]


def test_clear_counts_match_the_round_with_ramps_and_pooled_owners():
    # per owner, three scalars per bid segment and one per declared ramp
    # limit, whether an owner holds one unit or five
    system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
    for s in (system, regroup_entities(system, 5)):
        cost = comm_cost(run_market_round(s, 0, mode="clear")[1])
        counts = clear_submission_counts(s)
        assert counts["up"] == {o: c for o, (c, _) in cost.per_party_up.items()}
        ramps = sum((g.ramp_up is not None) + (g.ramp_dn is not None)
                    for g in s.generators)
        assert ramps > 0
        assert counts["up_total"] == (
            3 * sum(len(a.segments) for a in s.generators + s.loads)
            + ramps + 4 * s.n_lines + 3)


def test_byte_accounting_and_aggregates(threebus):
    _, log = run_market_round(threebus, 0, mode="masked")
    for m in log.messages:
        assert m.byte_size == m.scalar_count * SCALAR_BYTES + HEADER_BYTES
    cost = comm_cost(log)
    up_msgs = [m for m in log.messages if m.receiver == AGENT]
    assert cost.total_up_bytes == sum(m.byte_size for m in up_msgs)
    assert cost.total_up_mb == pytest.approx(cost.total_up_bytes / 1e6)
    as_json = cost.to_json()
    assert as_json["entities_to_agent"]["count"] == cost.total_up_count


@pytest.mark.parametrize("name, up, down", [("threebus", 2_408, 240),
                                            ("grid118-2h", 3_894_736, 10_752)])
def test_masked_round_wire_bytes(threebus, name, up, down):
    # every block goes out at its full shape, and no submission's metadata
    # (its owner and kind, the operator's balance owners and hour count)
    # is a payload block
    system, config, mask_config, seed, _ = _screening_case(name, threebus)
    _, log = run_market_round(system, seed, mode="masked", config=config,
                              mask_config=mask_config)
    cost = comm_cost(log)
    assert (cost.total_up_bytes, cost.total_down_bytes) == (up, down)
    metadata = {"owner", "kind", "balance_owners", "hours"}
    assert all(metadata.isdisjoint(m.payload) for m in log.messages)


def test_empty_log_zero_report():
    report = comm_cost(CommLog())
    assert report.total_up_count == 0
    assert report.total_down_count == 0
    assert report.to_json()["agent_to_entities"]["count"] == 0


def test_return_path_constant_and_up_count_monotone():
    base = gen_synthetic(10, 1, 1, 8, 1, seed=3, segments=2)
    up_totals = []
    down_totals = []
    for size in (1, 2, 4, 8):
        system = regroup_entities(base, size)
        counts = masked_submission_counts(system)
        up_totals.append(counts["up_total"])
        down_totals.append(counts["down_total"])
    assert len(set(down_totals)) == 1
    assert all(a < b for a, b in zip(up_totals, up_totals[1:]))


def test_counts_helper_matches_round_on_regrouped_system():
    base = gen_synthetic(5, 1, 1, 4, 1, seed=6, segments=1)
    for size in (1, 2, 4):
        system = regroup_entities(base, size)
        _, log = run_market_round(system, 0, mode="masked")
        counts = masked_submission_counts(system)
        assert comm_cost(log).total_up_count == counts["up_total"]
        assert comm_cost(log).total_down_count == counts["down_total"]


def test_sparse_objects_do_not_grow_with_the_number_of_parties(monkeypatch):
    # a round builds the network's and the LP's scipy.sparse objects, none
    # per entity: the clear round of hourly14-3h, and its masked round under
    # hourly masks, build as many with its 10 single-unit entities as with
    # its units pooled into 2, and an entity's masked submission builds none
    built = []
    init = sp._base._spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp._base._spbase, "__init__", counted)
    system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
    for mode, config in (("clear", MaskConfig()),
                         ("masked", MaskConfig(hourly_block_masks=True))):
        counts = []
        for s in (system, regroup_entities(system, 5)):
            built.clear()
            run_market_round(s, 0, mode=mode, mask_config=config)
            counts.append(len(built))
        assert counts[0] > 0 and counts[0] == counts[1], (mode, counts)
    blocks = build_ed_blocks(system)
    seeds = masking.spawn_party_seeds(0, 10)
    built.clear()
    for e, seed in zip(blocks.gencos + blocks.lses, seeds):
        party = protocol.EntityParty(e, seed, horizon=blocks.T)
        protocol.EntityParty.masked_submissions(
            [party], MaskConfig(hourly_block_masks=True))
    assert built == []


def test_key_gating_does_not_grow_with_the_number_of_parties(monkeypatch):
    # the parties' key draws are gated in one stack per block size: a masked
    # hourly14-3h round takes as many exact Frobenius bounds with its 10
    # single-unit entities as with its units pooled into 2 (the operator's,
    # and none for a draw the stacked gate passes), and no party's key
    # arrays share memory with another party's
    calls, drawn = [], []
    bound, draw = masking._frobenius_bound, masking.draw_entity_keys
    monkeypatch.setattr(masking, "_frobenius_bound",
                        lambda M: calls.append(M.shape) or bound(M))
    monkeypatch.setattr(masking, "draw_entity_keys",
                        lambda *a, **k: drawn.append(draw(*a, **k)) or drawn[-1])
    system = gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2)
    counts = []
    for s in (system, regroup_entities(system, 5)):
        calls.clear()
        run_market_round(s, 0, mode="masked",
                         mask_config=MaskConfig(hourly_block_masks=True))
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1], counts
    for keys in drawn:
        assert len(keys) in (10, 2)
        for a, b in itertools.combinations(keys, 2):
            assert not any(np.shares_memory(x, y) for x in (a.Y, a.X, a.R)
                           for y in (b.Y, b.X, b.R)), (a.owner, b.owner)


def test_leak_scanner_catches_raw_rows(threebus):
    blocks = build_ed_blocks(threebus)
    private = _private_row_hashes(blocks)
    msg = Message.build("GENCO1", AGENT, "Submission",
                        {"oops": blocks.gencos[0].A.copy()})
    with pytest.raises(ProtocolViolation):
        _scan_for_leaks([msg], private)
    vec = Message.build("GENCO1", AGENT, "Submission",
                        {"oops": blocks.gencos[0].rhs.copy()})
    with pytest.raises(ProtocolViolation):
        _scan_for_leaks([vec], private)


def _submission(payload):
    return Message.build("GENCO1", AGENT, "Submission", payload)


def test_leak_scanner_catches_private_rows_in_sparse_payloads(threebus):
    blocks = build_ed_blocks(threebus)
    private = _private_row_hashes(blocks)
    rng = np.random.default_rng(3)
    # an entity's constraint row planted among masked-looking rows
    A = blocks.gencos[0].A
    planted = rng.uniform(0.1, 1.0, size=(5, A.shape[1]))
    planted[2] = A[1]
    with pytest.raises(ProtocolViolation, match="contains a private row"):
        _scan_for_leaks([_submission({"oops": sp.csr_matrix(planted)})], private)
    # an admittance row in a payload as wide as the angle columns
    adm = blocks.admittance.toarray()
    planted = rng.uniform(0.1, 1.0, size=(4, blocks.n_iso))
    planted[3] = adm[0]
    with pytest.raises(ProtocolViolation, match="contains a private row"):
        _scan_for_leaks([_submission({"oops": sp.csr_matrix(planted)})], private)
    # stored explicit zeros, one of them -0.0 (which toarray makes 0.0),
    # leave the row's dense form a private row
    row = A[0]
    cols = np.arange(row.size)
    data = row.copy()
    data[np.flatnonzero(row == 0.0)[0]] = -0.0
    stored = sp.csr_matrix((data, cols, [0, row.size]), shape=(1, row.size))
    assert stored.nnz == row.size and np.signbit(stored.data[row == 0.0]).sum() == 1
    with pytest.raises(ProtocolViolation):
        _scan_for_leaks([_submission({"oops": stored})], private)
    # duplicate entries, which toarray adds up, spelling out a private row
    dup = sp.csr_matrix((np.concatenate([row, row]), np.concatenate([cols, cols]),
                         [0, 2 * row.size]), shape=(1, row.size)) * 0.5
    with pytest.raises(ProtocolViolation):
        _scan_for_leaks([_submission({"oops": dup})], private)


def test_leak_scanner_skips_private_rows_without_a_nonzero():
    # all-zero private rows, of 0.0, of -0.0 (an odd and an even count)
    # and sparse, say nothing about a mask; every row with a nonzero keeps
    # the guard
    A = np.array([[0.0, -0.0, 0.0], [1.0, 0.0, 0.0], [-0.0, -0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    private = protocol._PrivateRows([
        ("GENCO1", A), ("GENCO1", np.zeros(3)), ("GENCO1", np.array([-0.0] * 3)),
        ("ISO", sp.csr_matrix((np.array([0.0, 2.0]), [0, 1], [0, 1, 2]),
                              shape=(2, 3)))])
    assert private.known.size == 2
    zeros = np.zeros((2, 3))
    _scan_for_leaks([_submission({"cost": np.zeros(3), "block": zeros,
                                  "sparse": sp.csr_matrix(zeros)})], private)
    for row in (A[1], np.array([0.0, 2.0, 0.0])):
        with pytest.raises(ProtocolViolation):
            _scan_for_leaks([_submission({"oops": row.copy()})], private)


def test_leak_scanner_passes_a_clean_grid118_round():
    system = gen_synthetic(118, 54, 91, 1, 2, seed=7, segments=1)
    _, log = run_market_round(system, 1000, mode="masked",
                              config=SolverConfig(highs_method="highs-ipm"),
                              mask_config=MaskConfig(hourly_block_masks=True))
    _scan_for_leaks(log.messages, _private_row_hashes(build_ed_blocks(system)))


@pytest.mark.parametrize("backend", ["auto", "highs"])
def test_masked_round_clears_market_without_lines(backend):
    # one bus, no lines: the operator's empty line-limit payloads must not
    # match the empty private line-capacity row
    system = MarketSystem(
        name="one", buses=["1"], reference_bus="1", lines=[],
        generators=[Generator("G", "GENCO1", "1", [BidSegment(5.0, 0.0, 10.0)])],
        loads=[Load("L", "LSE1", "1", [BidSegment(9.0, 0.0, 8.0)])], horizon=2)
    config = SolverConfig(backend=backend)
    clear, _ = run_market_round(system, 1, mode="clear", config=config)
    masked, _ = run_market_round(system, 1, mode="masked", config=config)
    assert clear.objective == pytest.approx(64.0)
    assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
    np.testing.assert_allclose(clear.lmp, 5.0, atol=1e-9)
    np.testing.assert_allclose(masked.lmp, clear.lmp, atol=1e-6)
    np.testing.assert_allclose(masked.gen_dispatch["GENCO1"],
                               clear.gen_dispatch["GENCO1"], atol=1e-6)


def test_fixed_load_masked_round_matches_clear():
    # a fixed load (lo == hi) under hourly keys: each hour's two bound rows
    # have one entry and are cancelled separately, so the bounds they give
    # can cross by rounding; the round must still clear
    system = MarketSystem(
        name="onebus", buses=["b"], reference_bus="b", lines=[],
        generators=[Generator("G", "GENCO1", "b", [BidSegment(10.0, 0.0, 100.0)])],
        loads=[Load("L", "LSE1", "b", [BidSegment(20.0, 50.0, 50.0)])], horizon=2)
    config = SolverConfig(backend="highs")
    clear, _ = run_market_round(system, 0, mode="clear", config=config)
    for seed in range(8):
        masked, _ = run_market_round(system, seed, mode="masked", config=config,
                                     mask_config=MaskConfig(hourly_block_masks=True))
        assert masked.objective == pytest.approx(clear.objective, rel=1e-9)
        assert clear.max_dispatch_diff(masked) <= 1e-6
        np.testing.assert_allclose(masked.lmp, clear.lmp, atol=1e-6)


def test_masked_rounds_pass_leak_scan_many_seeds(threebus):
    for seed in range(12):
        _, log = run_market_round(threebus, seed, mode="masked")
        subs = [m for m in log.messages if m.kind == "Submission"]
        assert len(subs) == 4


def test_synthetic_systems_clear_equals_masked():
    for seed in (0, 1, 2, 3):
        system = gen_synthetic(4, 2, 2, 1, 1, seed=seed, segments=2)
        clear, _ = run_market_round(system, seed, mode="clear")
        masked, _ = run_market_round(system, seed, mode="masked")
        assert masked.objective == pytest.approx(clear.objective,
                                                 rel=1e-6, abs=1e-6)


def test_highs_multi_hour_masked_round_matches_clear():
    # the masked LP of a multi-hour round with hourly masks, solved by
    # HiGHS without presolve, as the large cases are
    system = gen_synthetic(14, 5, 5, 1, 2, seed=3, segments=2)
    config = SolverConfig(backend="highs")
    mask_config = MaskConfig(hourly_block_masks=True)
    clear, _ = run_market_round(system, 0, mode="clear", config=config)
    for seed in range(3):
        masked, _ = run_market_round(system, seed, mode="masked",
                                     config=config, mask_config=mask_config)
        assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
        assert clear.max_dispatch_diff(masked) <= 1e-6
        np.testing.assert_allclose(masked.lmp, clear.lmp, atol=1e-6)


@pytest.mark.parametrize("seed", [44, 47, 73])
def test_pooled_multi_hour_masked_round_matches_clear(seed):
    # few parties with full-horizon masks; at mask seeds 44 and 73 solving
    # the masked LP with its slack columns recovered dispatch 1.3e-6 off,
    # and at 47 stating each line-hour twice recovered it 3.2e-6 off
    system = gen_synthetic(30, 2, 2, 5, 4, seed=1, segments=3)
    clear, _ = run_market_round(system, 0, mode="clear")
    masked, _ = run_market_round(system, seed, mode="masked")
    assert masked.objective == pytest.approx(clear.objective, rel=1e-6)
    assert clear.max_dispatch_diff(masked) <= 1e-6
    np.testing.assert_allclose(masked.lmp, clear.lmp, atol=1e-6)


@pytest.mark.parametrize("backend, shape, n_eq", [("auto", (27, 35), 27),
                                                  ("highs", (22, 12), 4)])
def test_masked_round_solves_slack_form_only_on_simplex(threebus, monkeypatch,
                                                        backend, shape, n_eq):
    # the simplex gets the all-equality masked LP, and that LP is
    # certified; HiGHS gets it with every slack block cancelled, the 2
    # angle columns substituted out and each of the 3 lines stated once:
    # the clear LP's 24 inequality rows over its 9 entity columns and 3
    # flow columns, less the 6 flow limits that become the flow columns'
    # bounds, plus one system balance row and 3 flow rows.  threebus is
    # congested, so HiGHS first solves it without any flow row or column
    # and then once more with the binding line-hour, and that last
    # screened LP is certified.  The agent places only the matrices it
    # solves, so HiGHS never sees a 27 x 35 slack form built, and the
    # whole flow form is built only when asked for after the round
    seen, placed, tlps, reduced, certified = [], [], [], [], []
    finish, eliminate = lp._finish, masking.eliminate_angles

    def spy(problem, config=None, **kwargs):
        seen.append(problem)
        return solve_lp(problem, config, **kwargs)

    def finish_spy(problem, *args, **kwargs):
        certified.append(problem)
        return finish(problem, *args, **kwargs)

    def place_spy(pieces, shape):
        placed.append(shape)
        return place_blocks(pieces, shape)

    def build_spy(submissions):
        tlps.append(masking.build_transformed_ed(submissions))
        return tlps[-1]

    def eliminate_spy(tlp):
        reduced.append(eliminate(tlp))
        return reduced[-1]

    monkeypatch.setattr(protocol, "solve_lp", spy)
    monkeypatch.setattr(lp, "_finish", finish_spy)
    monkeypatch.setattr(protocol, "build_transformed_ed", build_spy)
    monkeypatch.setattr(masking, "place_blocks", place_spy)
    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    run_market_round(threebus, 0, mode="masked",
                     config=SolverConfig(backend=backend))
    problem, (tlp,) = certified[-1], tlps
    if backend == "auto":
        assert (problem.n_rows, problem.n_vars) == shape
        assert problem.A_eq.shape[0] == n_eq
        assert len(seen) == 1 and seen[0] is problem
        assert placed == [shape] and reduced == []
    else:
        (first, last), (flow_form,) = seen, reduced
        assert first.A_eq.shape == (1, 9) and first.A_in.shape[1] == 9
        assert problem is last
        assert (last.n_rows, last.n_vars) == (shape[0] - 2, shape[1] - 2)
        assert last.A_eq.shape[0] == n_eq - 2
        assert placed == [] and "problem" not in tlp.__dict__
        assert "problem" not in flow_form.__dict__
        whole = flow_form.problem
        assert (whole.n_rows, whole.n_vars) == shape
        assert whole.A_eq.shape[0] == n_eq


def _screening_case(name, threebus):
    """(system, solver settings, mask settings, mask seed, solves the
    screened round takes) for the cases the screened solve is checked on."""
    if name == "threebus":
        return threebus, SolverConfig(backend="highs"), MaskConfig(), 0, 2
    if name == "hourly14-3h":
        return (gen_synthetic(14, 5, 5, 1, 3, seed=3, segments=2),
                SolverConfig(), MaskConfig(hourly_block_masks=True), 0, 2)
    return (gen_synthetic(118, 54, 91, 1, 2, seed=7, segments=1),
            SolverConfig(highs_method="highs-ipm"),
            MaskConfig(hourly_block_masks=True), 1000, 1)


@pytest.mark.parametrize("name", ["threebus", "hourly14-3h", "grid118-2h"])
def test_screened_solve_matches_a_direct_solve(threebus, monkeypatch, name):
    # congested threebus and hourly14-3h add their binding line-hours in a
    # second solve; no line-hour binds on grid118-2h.  Without screening
    # the agent solves the whole flow-form LP once
    system, config, mask_config, seed, solves = _screening_case(name, threebus)
    seen = []

    def spy(problem, config=None, **kwargs):
        seen.append(problem)
        return solve_lp(problem, config, **kwargs)

    monkeypatch.setattr(protocol, "solve_lp", spy)
    screened, _ = run_market_round(system, seed, mode="masked", config=config,
                                   mask_config=mask_config)
    assert len(seen) == solves
    monkeypatch.setattr(protocol, "_solve_screened", lambda reduced, config: None)
    direct, _ = run_market_round(system, seed, mode="masked", config=config,
                                 mask_config=mask_config)
    assert len(seen) == solves + 1
    assert seen[-1].n_rows > seen[-2].n_rows
    assert screened.objective == pytest.approx(direct.objective, abs=1e-9)
    assert screened.max_dispatch_diff(direct) <= 1e-9
    np.testing.assert_allclose(screened.lmp, direct.lmp, rtol=0, atol=1e-9)


def test_binding_line_hour_is_monitored_with_its_dual(threebus, threebus_golden,
                                                      monkeypatch):
    # line 3 carries its full 100 MW in the clear round
    caps = np.array([ln.capacity for ln in threebus.lines])
    binding = np.flatnonzero(np.isclose(threebus_golden["flows"][0], caps))
    assert binding.tolist() == [2]
    monitored, restored, tlps = [], [], []
    screened = masking.AngleElimination.screened
    restore = masking.AngleElimination.restore

    def screened_spy(self, lines):
        monitored.append(lines)
        return screened(self, lines)

    def restore_spy(self, sol):
        restored.append(restore(self, sol))
        return restored[-1]

    def build_spy(submissions):
        tlps.append(masking.build_transformed_ed(submissions))
        return tlps[-1]

    monkeypatch.setattr(masking.AngleElimination, "screened", screened_spy)
    monkeypatch.setattr(masking.AngleElimination, "restore", restore_spy)
    monkeypatch.setattr(protocol, "build_transformed_ed", build_spy)
    run_market_round(threebus, 0, mode="masked",
                     config=SolverConfig(backend="highs"))
    (sol,), (tlp,) = restored, tlps
    assert monitored[0].size == 0 and np.isin(binding, monitored[-1]).all()
    hi, lo = tlp.row_spans["line_hi"][0], tlp.row_spans["line_lo"][0]
    assert abs(sol.duals_in[hi + 2]) > 1e-6
    # an unmonitored line-hour's limits have zero duals
    free = np.setdiff1d(np.arange(caps.size), monitored[-1])
    assert free.size and not sol.duals_in[hi + free].any()
    assert not sol.duals_in[lo + free].any()


def test_flow_limit_left_a_row_is_monitored_from_the_first_solve(threebus,
                                                                  monkeypatch):
    # `_single_entry_bounds` leaves a flow limit a row when its bounds
    # cross; a row over line 2's flow column keeps that column and its flow
    # row in every screened LP, and the screened solve still gives the
    # whole LP's
    reduced = []
    eliminate = masking.eliminate_angles

    def eliminate_spy(tlp):
        reduced.append(eliminate(tlp))
        return reduced[-1]

    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    config = SolverConfig(backend="highs")
    run_market_round(threebus, 0, mode="masked", config=config)
    (flow_form,) = reduced
    A, nz = flow_form.A_in, flow_form.c.size
    row = sp.csr_matrix(([1.0], ([0], [nz + 1])), shape=(1, A.shape[1]))
    flow_form.A_in = sp.vstack([A, row], format="csr")
    flow_form.b_in = np.append(flow_form.b_in, flow_form.ub[nz + 1])
    # the whole flow form, built below, has the row too
    assert "problem" not in flow_form.__dict__
    assert flow_form.flows_in_rows().tolist() == [1]
    first = flow_form.screened(flow_form.flows_in_rows())
    assert first.n_vars == nz + 1 and first.A_eq.shape[0] == 2
    screened = protocol._solve_screened(flow_form, config)
    direct = solve_lp(flow_form.problem, config, presolve=False)
    assert screened.objective == pytest.approx(direct.objective, abs=1e-9)
    np.testing.assert_allclose(screened.x[:nz], direct.x[:nz], rtol=0, atol=1e-9)


def test_last_certificate_of_a_round_is_on_the_flow_form(threebus, monkeypatch):
    # each screened LP is certified as it is solved, the last one with the
    # binding line-hour; the whole flow form is not built, let alone
    # certified, in the round (its certificate follows from the last one,
    # see test_lifted_solution_is_certified_on_the_whole_flow_form)
    reduced, seen, certified = [], [], []
    eliminate, finish = masking.eliminate_angles, lp._finish

    def eliminate_spy(tlp):
        reduced.append(eliminate(tlp))
        return reduced[-1]

    def spy(problem, config=None, **kwargs):
        seen.append(problem)
        return solve_lp(problem, config, **kwargs)

    def finish_spy(problem, *args, **kwargs):
        certified.append(problem)
        return finish(problem, *args, **kwargs)

    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    monkeypatch.setattr(protocol, "solve_lp", spy)
    monkeypatch.setattr(lp, "_finish", finish_spy)
    run_market_round(threebus, 0, mode="masked",
                     config=SolverConfig(backend="highs"))
    (flow_form,) = reduced
    assert len(certified) == 2 and certified == seen
    assert flow_form.problem.n_vars > certified[-1].n_vars


@pytest.mark.parametrize("name", ["threebus", "hourly14-3h", "grid118-2h"])
def test_highs_round_never_builds_the_whole_flow_form(threebus, monkeypatch, name):
    system, config, mask_config, seed, _ = _screening_case(name, threebus)
    reduced, eliminate = [], masking.eliminate_angles

    def eliminate_spy(tlp):
        reduced.append(eliminate(tlp))
        return reduced[-1]

    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    run_market_round(system, seed, mode="masked", config=config,
                     mask_config=mask_config)
    (flow_form,) = reduced
    assert "problem" not in flow_form.__dict__


@pytest.mark.parametrize("name, seeds", [("threebus", range(10)),
                                         ("hourly14-3h", range(3)),
                                         ("grid118-2h", range(1000, 1003))])
def test_lifted_solution_is_certified_on_the_whole_flow_form(threebus,
                                                            monkeypatch,
                                                            name, seeds):
    # the round's certificate is the last screened solve's plus the lift's
    # bound check; the whole flow form's own certificate at the lifted
    # solution passes and agrees with it
    system, config, mask_config, _, _ = _screening_case(name, threebus)
    rounds, eliminate = [], masking.eliminate_angles
    solve_screened = protocol._solve_screened

    def eliminate_spy(tlp):
        rounds.append([eliminate(tlp)])
        return rounds[-1][0]

    def screened_spy(reduced, config):
        rounds[-1].append(solve_screened(reduced, config))
        return rounds[-1][-1]

    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    monkeypatch.setattr(protocol, "_solve_screened", screened_spy)
    for seed in seeds:
        run_market_round(system, seed, mode="masked", config=config,
                         mask_config=mask_config)
    assert len(rounds) == len(seeds)
    for reduced, sol in rounds:
        assert "problem" not in reduced.__dict__
        whole = lp._finish(reduced.problem, sol.x, sol.duals_eq, sol.duals_in,
                           sol.iterations, sol.backend,
                           duals_lb=sol.duals_lb, duals_ub=sol.duals_ub)
        scale = 1.0 + abs(sol.objective)
        assert abs(whole.objective - sol.objective) <= 1e-9 * scale
        assert abs(whole.gap - sol.gap) <= 1e-9 * scale
        assert abs(whole.max_cs_violation - sol.max_cs_violation) <= 1e-9 * scale
        assert abs(whole.max_primal_residual
                   - sol.max_primal_residual) <= 1e-9 * scale


def test_screened_solve_not_optimal_solves_the_whole_flow_form(threebus,
                                                              monkeypatch):
    # a screened solve that ends infeasible hands the round to the whole
    # flow form, built then, which clears the market as the clear round does
    clear, _ = run_market_round(threebus, 0, mode="clear")
    seen, reduced = [], []
    eliminate = masking.eliminate_angles

    def spy(problem, config=None, **kwargs):
        seen.append(problem)
        if len(seen) == 1:
            return lp.LpSolution(status=lp.INFEASIBLE, backend="highs")
        return solve_lp(problem, config, **kwargs)

    def eliminate_spy(tlp):
        reduced.append(eliminate(tlp))
        return reduced[-1]

    monkeypatch.setattr(protocol, "solve_lp", spy)
    monkeypatch.setattr(masking, "eliminate_angles", eliminate_spy)
    masked, _ = run_market_round(threebus, 0, mode="masked",
                                 config=SolverConfig(backend="highs"))
    (flow_form,) = reduced
    assert len(seen) == 2 and seen[-1] is flow_form.problem
    assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
    assert clear.max_dispatch_diff(masked) <= 1e-6


@pytest.mark.parametrize("backend", ["auto", "highs"])
def test_zero_priced_bids_clear_in_masked_mode(threebus, backend):
    # an all-zero cost row is zero under any mask, so it must not count as
    # a leaked block or a private row
    loads = [dataclasses.replace(d, segments=[dataclasses.replace(s, price=0.0)
                                              for s in d.segments])
             for d in threebus.loads]
    system = dataclasses.replace(threebus, loads=loads)
    config = SolverConfig(backend=backend)
    clear, _ = run_market_round(system, 0, mode="clear", config=config)
    assert clear.objective == pytest.approx(-1020.0)
    for seed in range(5):
        masked, _ = run_market_round(system, seed, mode="masked", config=config)
        assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
        assert clear.max_dispatch_diff(masked) <= 1e-6
        # the load sits at its minimum and both units' marginal segments at
        # a bound (90 of 90 MW at $10, 10 of 80 MW at $12), so every
        # uniform price in [10, 12] is an optimal dual; clear picks 10
        np.testing.assert_allclose(masked.lmp, masked.lmp[0, 0], atol=1e-6)
        assert 10.0 - 1e-6 <= masked.lmp[0, 0] <= 12.0 + 1e-6


def test_invalid_mode_rejected(threebus):
    with pytest.raises(ValueError):
        run_market_round(threebus, 0, mode="plaintext")


def test_entity_recover_rejects_a_slice_of_the_wrong_size(threebus):
    # a party decodes only a slice of its own key's size, and only once it
    # has drawn its keys
    blocks = build_ed_blocks(threebus)
    party = protocol.EntityParty(blocks.gencos[0], 0)
    with pytest.raises(ProtocolViolation, match="cannot decode"):
        party.recover(np.zeros(3))
    protocol.EntityParty.masked_submissions([party], MaskConfig())
    assert party.recover(np.zeros(3)).shape == (3,)
    for size in (2, 4):
        with pytest.raises(ProtocolViolation, match="cannot decode"):
            party.recover(np.zeros(size))


def test_messages_kinds_present(threebus):
    _, log = run_market_round(threebus, 0, mode="masked")
    kinds = {m.kind for m in log.messages}
    assert kinds == {"Submission", "TransformedSolutionSlice",
                     "RecoveredPublication"}
    publications = [m for m in log.messages if m.kind == "RecoveredPublication"]
    assert {m.receiver for m in publications} == {ISO}


def _with_third_segment_price(system, price):
    """`system` with the second generator's third bid segment at `price`."""
    gens = list(system.generators)
    segs = list(gens[1].segments)
    segs[2] = dataclasses.replace(segs[2], price=price)
    gens[1] = dataclasses.replace(gens[1], segments=segs)
    return dataclasses.replace(system, generators=gens)


@pytest.mark.parametrize("price", [1e6, 1e8])
def test_badly_scaled_masked_round_matches_clear_or_breaks_down(threebus, price):
    # a masked dispatch LP is as bounded and feasible as the clear one, so
    # a round either reproduces the clear outcome or fails numerically;
    # ClearingFailed (a market outcome) must not escape
    system = _with_third_segment_price(threebus, price)
    clear, _ = run_market_round(system, 0, mode="clear")
    for seed in range(5):
        try:
            masked, _ = run_market_round(system, seed, mode="masked")
        except NumericalBreakdown:
            continue
        assert masked.objective == pytest.approx(clear.objective, abs=1e-6)
        assert clear.max_dispatch_diff(masked) <= 1e-6
        np.testing.assert_allclose(masked.lmp, clear.lmp, atol=1e-6)
