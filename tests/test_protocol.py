import dataclasses

import numpy as np
import pytest

from maskdispatch.lp import NumericalBreakdown
from maskdispatch.market import gen_synthetic, regroup_entities, build_ed_blocks
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
    up, down = log.party_share("GENCO1")
    assert up == 72
    assert down == 3
    counts = masked_submission_counts(threebus)
    for owner, expect in counts["up"].items():
        assert log.party_share(owner)[0] == expect
    for owner, expect in counts["down"].items():
        assert log.party_share(owner)[1] == expect
    cost = comm_cost(log)
    assert cost.total_up_count == counts["up_total"]
    assert cost.total_down_count == counts["down_total"]


def test_clear_message_counts_match_hand_arithmetic(threebus):
    _, log = run_market_round(threebus, 0, mode="clear")
    # three prices and six bound values per entity, no ramps declared
    assert log.party_share("GENCO1")[0] == 9
    assert log.party_share("LSE1")[0] == 9
    counts = clear_submission_counts(threebus)
    for owner, expect in counts["up"].items():
        assert log.party_share(owner)[0] == expect
    cost = comm_cost(log)
    assert cost.total_down_count == counts["down_total"]


def test_byte_accounting_and_aggregates(threebus):
    _, log = run_market_round(threebus, 0, mode="masked")
    for m in log.messages:
        assert m.byte_size == m.scalar_count * SCALAR_BYTES + HEADER_BYTES
    cost = comm_cost(log)
    up_msgs = [m for m in log.messages if m.receiver == AGENT]
    assert cost.total_up_bytes == sum(m.byte_size for m in up_msgs)
    assert cost.total_up_mb == pytest.approx(cost.total_up_bytes / 1e6)
    rows = cost.to_csv().strip().splitlines()
    assert rows[0].startswith("party,")
    assert rows[-1].startswith("TOTAL,")
    as_json = cost.to_json()
    assert as_json["entities_to_agent"]["count"] == cost.total_up_count


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


def test_invalid_mode_rejected(threebus):
    with pytest.raises(ValueError):
        run_market_round(threebus, 0, mode="plaintext")


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
