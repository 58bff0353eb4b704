import dataclasses

import numpy as np
import pytest

from maskdispatch.lp import solve_lp, DimensionMismatch
from maskdispatch.market import (
    MarketSystem, Line, Generator, Load, BidSegment,
    build_ed_blocks, assemble_ed_lp, line_flows, gen_synthetic,
    regroup_entities, extract_cleared,
    IslandedNetwork, EmptyMarket, InvalidCounts, ClearingFailed,
)
from maskdispatch.protocol import run_market_round
from oracle import assemble_ed_lp_scalar, lil_incidences


def welfare(system, gen_dispatch, load_dispatch):
    """Bid value of served load minus offered cost of dispatched generation:
    the scalar assembly's objective, at zero angles."""
    p = assemble_ed_lp_scalar(system)
    x = np.concatenate([gen_dispatch[o] for o in system.gencos]
                       + [load_dispatch[o] for o in system.lses])
    return p.objective_at(np.concatenate([x, np.zeros(p.n_vars - x.size)]))


def test_threebus_blocks_shape(threebus):
    blocks = build_ed_blocks(threebus)
    g1 = blocks.gencos[0]
    assert g1.owner == "GENCO1"
    assert (g1.n, g1.m) == (3, 6)
    np.testing.assert_array_equal(g1.rhs, [90, 90, 90, -10, 0, 0])
    np.testing.assert_array_equal(
        g1.incidence.toarray(), [[1, 1, 1], [0, 0, 0], [0, 0, 0]])
    # three lines, one hour, all reactances 0.1
    np.testing.assert_allclose(blocks.susceptance, [10.0, 10.0, 10.0])
    assert blocks.n_iso == 2


def test_threebus_balance_rows(threebus):
    problem, layout = assemble_ed_lp(build_ed_blocks(threebus))
    A_eq = np.asarray(problem.A_eq)
    # bus-1 row: generation of unit 1 plus 10*theta2 + 10*theta3
    np.testing.assert_allclose(
        A_eq[0], [1, 1, 1, 0, 0, 0, 0, 0, 0, 10, 10])
    np.testing.assert_allclose(
        A_eq[1], [0, 0, 0, 1, 1, 1, 0, 0, 0, -20, 10])
    np.testing.assert_allclose(
        A_eq[2], [0, 0, 0, 0, 0, 0, -1, -1, -1, 10, -20])
    assert layout.row_spans["balance"] == (24, 27)


def test_threebus_clear_golden(threebus, threebus_golden):
    cm = run_market_round(threebus, 0, mode="clear")[0]
    g = threebus_golden
    assert cm.objective == pytest.approx(g["objective"], abs=1e-6)
    for owner, segs in g["gen_segments"].items():
        np.testing.assert_allclose(cm.gen_dispatch[owner], segs, atol=1e-6)
    np.testing.assert_allclose(cm.load_dispatch["LSE1"], g["load_segments"]["LSE1"],
                               atol=1e-6)
    np.testing.assert_allclose(cm.angles, g["angles"], atol=1e-6)
    np.testing.assert_allclose(cm.flows, g["flows"], atol=1e-6)
    np.testing.assert_allclose(cm.lmp, g["lmp"], atol=1e-6)


def test_single_bus_marginal_unit_sets_price():
    system = MarketSystem(
        name="onebus", buses=["b"], reference_bus="b", lines=[],
        generators=[Generator("G", "GENCO1", "b", [BidSegment(10.0, 0.0, 100.0)])],
        loads=[Load("L", "LSE1", "b", [BidSegment(20.0, 50.0, 50.0)])])
    cm = run_market_round(system, 0, mode="clear")[0]
    assert cm.gen_dispatch["GENCO1"][0] == pytest.approx(50.0, abs=1e-8)
    assert cm.lmp[0, 0] == pytest.approx(10.0, abs=1e-8)


def test_uncongested_network_has_uniform_lmp(threebus):
    relaxed = MarketSystem(
        name="wide", buses=list(threebus.buses),
        reference_bus=threebus.reference_bus,
        lines=[Line(l.from_bus, l.to_bus, l.x, 10000.0) for l in threebus.lines],
        generators=threebus.generators, loads=threebus.loads, horizon=1)
    cm = run_market_round(relaxed, 0, mode="clear")[0]
    assert np.max(cm.lmp) - np.min(cm.lmp) <= 1e-6


def test_line_flows_examples(threebus):
    np.testing.assert_allclose(line_flows(threebus, [-1.0, -10.0]),
                               [10.0, 90.0, 100.0], atol=1e-9)
    np.testing.assert_allclose(line_flows(threebus, [0.0, 0.0]), 0.0, atol=0)
    with pytest.raises(DimensionMismatch):
        line_flows(threebus, [1.0, 2.0, 3.0])


def test_line_flows_single_line():
    system = MarketSystem(
        name="pair", buses=["1", "2"], reference_bus="1",
        lines=[Line("1", "2", 0.1, 50.0)],
        generators=[Generator("G", "GENCO1", "1", [BidSegment(5.0, 0.0, 10.0)])],
        loads=[Load("L", "LSE1", "2", [BidSegment(9.0, 0.0, 10.0)])])
    np.testing.assert_allclose(line_flows(system, [-1.0]), [10.0])


def test_social_welfare_evaluation(threebus, threebus_golden):
    g = threebus_golden
    assert welfare(threebus, g["gen_segments"], g["load_segments"]) \
        == pytest.approx(1330.0)
    zero = {k: np.zeros_like(v) for k, v in g["gen_segments"].items()}
    zload = {k: np.zeros_like(v) for k, v in g["load_segments"].items()}
    assert welfare(threebus, zero, zload) == 0.0


def test_social_welfare_is_linear_in_prices(threebus, threebus_golden):
    doubled = MarketSystem(
        name="double", buses=list(threebus.buses),
        reference_bus=threebus.reference_bus, lines=list(threebus.lines),
        generators=[Generator(u.name, u.owner, u.bus,
                              [BidSegment(2 * s.price, s.lo, s.hi) for s in u.segments])
                    for u in threebus.generators],
        loads=[Load(d.name, d.owner, d.bus,
                    [BidSegment(2 * s.price, s.lo, s.hi) for s in d.segments])
               for d in threebus.loads])
    g = threebus_golden
    assert welfare(doubled, g["gen_segments"], g["load_segments"]) \
        == pytest.approx(2 * 1330.0)


def test_ramp_rows_appear_for_two_hours():
    seg = [BidSegment(10.0, 0.0, 50.0), BidSegment(14.0, 0.0, 50.0)]
    system = MarketSystem(
        name="ramped", buses=["1", "2"], reference_bus="1",
        lines=[Line("1", "2", 0.1, 500.0)],
        generators=[Generator("G", "GENCO1", "1", seg, ramp_up=20.0, ramp_dn=20.0)],
        loads=[Load("L", "LSE1", "2", [BidSegment(30.0, 0.0, 60.0)])],
        horizon=2)
    blocks = build_ed_blocks(system)
    g = blocks.gencos[0]
    # 2 hours * 2 segments * 2 bounds = 8 bound rows, plus 2 ramp rows
    assert g.m == 10
    up_row = g.A[8]
    np.testing.assert_allclose(up_row, [-1, -1, 1, 1])
    assert g.rhs[8] == 20.0
    np.testing.assert_allclose(g.A[9], [1, 1, -1, -1])
    assert g.rhs[9] == 20.0


def test_flat_dispatch_when_hours_are_identical():
    # bids do not vary by hour, so the optimum repeats each hour and a
    # tight ramp stays slack; the hour-coupling rows must not perturb it
    system = MarketSystem(
        name="flat", buses=["1"], reference_bus="1", lines=[],
        generators=[Generator("G", "GENCO1", "1",
                              [BidSegment(5.0, 0.0, 100.0)],
                              ramp_up=1.0, ramp_dn=1.0)],
        loads=[Load("L", "LSE1", "1", [BidSegment(30.0, 20.0, 40.0)])],
        horizon=3)
    single = MarketSystem(
        name="flat1", buses=["1"], reference_bus="1", lines=[],
        generators=[Generator("G", "GENCO1", "1", [BidSegment(5.0, 0.0, 100.0)])],
        loads=[Load("L", "LSE1", "1", [BidSegment(30.0, 20.0, 40.0)])])
    cm = run_market_round(system, 0, mode="clear")[0]
    ref = run_market_round(single, 0, mode="clear")[0]
    assert cm.objective == pytest.approx(3 * ref.objective, abs=1e-6)
    hours = cm.gen_dispatch["GENCO1"].reshape(3, -1)
    np.testing.assert_allclose(hours - hours[0], 0.0, atol=1e-6)


def test_scalar_and_block_assembly_agree():
    rng = np.random.default_rng(21)
    for k in range(8):
        system = gen_synthetic(buses=int(rng.integers(2, 6)),
                               gencos=int(rng.integers(1, 3)),
                               lses=int(rng.integers(1, 3)),
                               entity_size=1, T=int(rng.integers(1, 3)),
                               seed=100 + k, segments=2)
        p_blocks, _ = assemble_ed_lp(build_ed_blocks(system))
        p_scalar = assemble_ed_lp_scalar(system)
        s1 = solve_lp(p_blocks)
        s2 = solve_lp(p_scalar)
        assert s1.status == s2.status == "optimal"
        assert s1.objective == pytest.approx(s2.objective, abs=1e-8 * (1 + abs(s2.objective)))


def test_cleared_market_invariants_on_synthetics():
    for seed in (1, 2, 3, 4):
        system = gen_synthetic(4, 2, 2, 1, 2, seed=seed, segments=2)
        cm = run_market_round(system, 0, mode="clear")[0]
        # flows inside limits
        caps = np.array([[l.capacity for l in system.lines]] * system.horizon)
        assert np.all(np.abs(cm.flows) <= caps + 1e-6)
        # nodal balance: per bus-hour, generation - load - injection = 0
        blocks = build_ed_blocks(system)
        theta = cm.angles[:, [i for i, b in enumerate(system.buses)
                              if b != system.reference_bus]].reshape(-1)
        inj = blocks.admittance @ theta
        net = -inj
        for e in blocks.gencos:
            net += e.incidence @ cm.gen_dispatch[e.owner]
        for e in blocks.lses:
            net -= e.incidence @ cm.load_dispatch[e.owner]
        assert np.max(np.abs(net)) <= 1e-6
        # lossless: total generation equals total load every hour
        gen_hour = np.zeros(system.horizon)
        load_hour = np.zeros(system.horizon)
        per_hour = lambda e, x: np.asarray(x).reshape(system.horizon, -1).sum(axis=1)
        for e in blocks.gencos:
            gen_hour += per_hour(e, cm.gen_dispatch[e.owner])
        for e in blocks.lses:
            load_hour += per_hour(e, cm.load_dispatch[e.owner])
        np.testing.assert_allclose(gen_hour, load_hour, atol=1e-6)
        # objective consistent with the bid evaluation
        assert cm.objective == pytest.approx(
            welfare(system, cm.gen_dispatch, cm.load_dispatch), abs=1e-6)


def test_reference_bus_change_preserves_physics(threebus):
    base = run_market_round(threebus, 0, mode="clear")[0]
    moved = MarketSystem(
        name="ref2", buses=list(threebus.buses), reference_bus="2",
        lines=list(threebus.lines), generators=threebus.generators,
        loads=threebus.loads, horizon=1)
    other = run_market_round(moved, 0, mode="clear")[0]
    np.testing.assert_allclose(base.flows, other.flows, atol=1e-6)
    np.testing.assert_allclose(base.lmp, other.lmp, atol=1e-6)
    assert base.max_dispatch_diff(other) <= 1e-6
    # angles shift by the new reference but differences survive
    assert np.max(np.abs(base.angles - base.angles[:, :1]
                         - (other.angles - other.angles[:, :1]))) <= 1e-6


def test_gen_synthetic_deterministic_and_solvable():
    a = gen_synthetic(3, 2, 1, 1, 1, seed=5)
    b = gen_synthetic(3, 2, 1, 1, 1, seed=5)
    assert a == b
    cm = run_market_round(a, 0, mode="clear")[0]
    assert cm.objective >= 0.0


def test_gen_synthetic_case2_style_ownership():
    system = gen_synthetic(118, 27, 10, 2, 24, seed=7)
    assert len(system.generators) == 54
    assert len(system.loads) == 20
    assert len(system.gencos) == 27
    assert all(len(system.units_of(g)) == 2 for g in system.gencos)
    blocks = build_ed_blocks(system)
    assert blocks.n_iso == 24 * 117
    problem, _ = assemble_ed_lp(blocks)
    sol = solve_lp(problem)
    assert sol.status == "optimal"


def test_gen_synthetic_invalid_counts():
    with pytest.raises(InvalidCounts):
        gen_synthetic(0, 1, 1, 1, 1, seed=1)
    with pytest.raises(InvalidCounts):
        gen_synthetic(3, 1, 1, 1, 0, seed=1)


def test_regroup_entities_preserves_physics():
    system = gen_synthetic(5, 2, 2, 2, 1, seed=9)
    grouped = regroup_entities(system, 4)
    assert len(grouped.gencos) == 1
    base = run_market_round(system, 0, mode="clear")[0]
    other = run_market_round(grouped, 0, mode="clear")[0]
    assert base.objective == pytest.approx(other.objective, abs=1e-6)


def test_empty_market_rejected():
    system = MarketSystem(name="empty", buses=["1"], reference_bus="1",
                          lines=[], generators=[], loads=[])
    with pytest.raises(EmptyMarket):
        build_ed_blocks(system)


def test_islanded_network_rejected():
    system = MarketSystem(
        name="island", buses=["1", "2", "3"], reference_bus="1",
        lines=[Line("1", "2", 0.1, 10.0)],
        generators=[Generator("G", "GENCO1", "1", [BidSegment(5, 0, 10)])],
        loads=[Load("L", "LSE1", "3", [BidSegment(9, 0, 10)])])
    with pytest.raises(IslandedNetwork):
        build_ed_blocks(system)


def test_self_loop_line_rejected(threebus):
    # a line from a bus to itself carries no flow, but its incidence row
    # would keep only the second write and limit |angle| / x instead
    with pytest.raises(ValueError, match="connects a bus to itself"):
        dataclasses.replace(threebus,
                            lines=threebus.lines + [Line("3", "3", 0.1, 5.0)])


@pytest.mark.parametrize("key", ["ramp_up", "ramp_dn"])
def test_negative_ramp_rejected(threebus, key):
    # a negative ramp limit would force a unit's output down from hour to
    # hour, or make the market infeasible; a zero limit stays legal
    units = list(threebus.generators)
    units[0] = dataclasses.replace(units[0], **{key: -5.0})
    # the message names the case-file field, ramp_down for ramp_dn
    field = {"ramp_dn": "ramp_down"}.get(key, key)
    with pytest.raises(ValueError, match=f"{field} must not be negative"):
        dataclasses.replace(threebus, generators=units, horizon=2)
    units[0] = dataclasses.replace(units[0], **{key: 0.0})
    assert dataclasses.replace(threebus, generators=units, horizon=2).horizon == 2


def test_infeasible_market_names_family(threebus):
    # load minimum of 100 MW with all line capacities shrunk to 1 MW
    squeezed = MarketSystem(
        name="squeezed", buses=list(threebus.buses), reference_bus="1",
        lines=[Line(l.from_bus, l.to_bus, l.x, 1.0) for l in threebus.lines],
        generators=threebus.generators, loads=threebus.loads)
    with pytest.raises(ClearingFailed) as err:
        run_market_round(squeezed, 0, mode="clear")
    assert err.value.status == "infeasible"
    assert err.value.family == "line capacity limits"


def test_zero_point_violates_load_minimum(threebus):
    problem, _ = assemble_ed_lp(build_ed_blocks(threebus))
    from maskdispatch.lp import check_point
    rep = check_point(problem, np.zeros(problem.n_vars), 1e-6)
    # the 100 MW minimum on the first load segment is violated at zero
    assert not rep.feasible
    assert rep.max_inequality_violation == pytest.approx(100.0)


@pytest.mark.parametrize("case", ["threebus", "grid118-2h", "one-bus"])
def test_incidences_equal_lil_built_csr(case, threebus):
    # built from index arrays, the incidences keep the exact CSR arrays a
    # lil_matrix gives, so the clear LP is placed bit for bit as before
    if case == "threebus":
        system = threebus
    elif case == "grid118-2h":
        system = gen_synthetic(118, 54, 91, 1, 2, seed=7, segments=1)
    else:
        system = MarketSystem(
            name="one", buses=["1"], reference_bus="1", lines=[],
            generators=[Generator("G", "GENCO1", "1", [BidSegment(5.0, 0.0, 10.0)])],
            loads=[Load("L", "LSE1", "1", [BidSegment(9.0, 0.0, 8.0)])],
            horizon=2)
    blocks = build_ed_blocks(system)
    want_inc, want_KL = lil_incidences(system)
    pairs = [(e.incidence, want_inc[e.owner]) for e in blocks.gencos + blocks.lses]
    pairs.append((blocks.incidence_lines, want_KL))
    for got, want in pairs:
        assert got.format == "csr" and got.shape == want.shape
        assert got.has_canonical_format and want.has_canonical_format
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
