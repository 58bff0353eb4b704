"""Multi-party market round simulation with communication accounting.

One round runs in four steps: bidding entities publish their (masked)
blocks, the grid operator publishes its (masked) network blocks, a
clearing agent solves the assembled LP, and solution slices go back to
their owners for local recovery.  In clear mode the same message flow
carries the raw bids instead and the agent solves the plain dispatch
LP, which is the baseline the masked mode is compared against.

Every exchanged value is logged.  Accounting is definitional: a scalar
costs 8 bytes on the wire and each message carries a fixed 32-byte header;
asset locations are treated as registry data in clear mode (not part of
the per-round payload), while masked mode transmits each entity's full
masked incidence block KP·Y to the clearing agent.  That block does not
hide locations: its zero rows are the bus-hours where the entity has no
asset, so its nonzero rows name the buses of its assets (on the shipped
three-bus case GENCO1, GENCO2 and LSE1 map to rows 0, 1 and 2 for every
seed).  Routing the incidences to the grid operator only is ROADMAP
item 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from maskdispatch.lp import SolverConfig, solve_lp
from maskdispatch.market import (
    MarketSystem, EdBlocks, ClearedMarket,
    build_ed_blocks, assemble_ed_lp, extract_cleared, full_angles, line_flows,
    require_optimal,
)
from maskdispatch import masking
from maskdispatch.masking import (
    MaskConfig, EncryptedSubmission, build_transformed_ed,
    recover_lmp, verify_masked,
)

SCALAR_BYTES = 8
HEADER_BYTES = 32

AGENT = "clearing-agent"
ISO = "ISO"

SUBMISSION = "Submission"
SOLUTION_SLICE = "TransformedSolutionSlice"
PUBLICATION = "RecoveredPublication"


class ProtocolViolation(RuntimeError):
    """Unmasked private data crossed the trust boundary."""


@dataclass
class Message:
    sender: str
    receiver: str
    kind: str
    payload: dict
    scalar_count: int
    byte_size: int

    @classmethod
    def build(cls, sender, receiver, kind, payload):
        count = int(sum(masking.block_size(v) for v in payload.values()))
        return cls(sender=sender, receiver=receiver, kind=kind,
                   payload=payload, scalar_count=count,
                   byte_size=count * SCALAR_BYTES + HEADER_BYTES)


@dataclass
class CommLog:
    messages: list = field(default_factory=list)

    def add(self, msg: Message):
        self.messages.append(msg)

    def _select(self, sender=None, receiver=None):
        return [m for m in self.messages
                if (sender is None or m.sender == sender)
                and (receiver is None or m.receiver == receiver)]

    def party_share(self, party):
        """(scalar_count to agent, scalar_count from agent) for one party."""
        up = sum(m.scalar_count for m in self._select(sender=party, receiver=AGENT))
        down = sum(m.scalar_count for m in self._select(sender=AGENT, receiver=party))
        return up, down


# ---------------------------------------------------------------------------
# parties
# ---------------------------------------------------------------------------

class EntityParty:
    """A GENCO or LSE: owns its assets and blocks, creates and keeps its keys."""

    def __init__(self, blocks_slice, assets, seed, horizon=1):
        self.blocks = blocks_slice
        self.assets = assets
        self.owner = blocks_slice.owner
        self.kind = blocks_slice.kind
        self.horizon = horizon
        self._seed = seed
        self._keys = None

    def masked_submission(self, config: MaskConfig) -> EncryptedSubmission:
        rng = np.random.default_rng(self._seed)
        self._keys = masking.entity_keys(rng, self.owner, self.kind,
                                         self.blocks.n, self.blocks.m, config,
                                         horizon=self.horizon)
        sub = masking.mask_entity(self.blocks, self._keys)
        if not verify_masked(sub, self.blocks):
            raise ProtocolViolation(
                f"submission of {self.owner} leaks an unmasked block")
        return sub

    def clear_payload(self) -> dict:
        prices = [s.price for a in self.assets for s in a.segments]
        bounds = [v for a in self.assets for s in a.segments for v in (s.lo, s.hi)]
        payload = {"prices": np.asarray(prices, dtype=float),
                   "bounds": np.asarray(bounds, dtype=float)}
        ramps = [v for a in self.assets
                 for v in (getattr(a, "ramp_up", None), getattr(a, "ramp_dn", None))
                 if v is not None]
        if ramps:
            payload["ramp_limits"] = np.asarray(ramps, dtype=float)
        return payload

    def recover(self, masked_slice) -> np.ndarray:
        masked_slice = np.asarray(masked_slice, dtype=float)
        if self._keys is None or masked_slice.size != self._keys.Y.shape[0]:
            raise ProtocolViolation(f"{self.owner} cannot decode this slice")
        return self._keys.Y @ masked_slice


class IsoParty:
    """The grid operator: owns the network, its keys, and price recovery."""

    def __init__(self, grid_blocks, lines, bus_index, reference_bus, horizon, seed):
        self.grid = grid_blocks
        self.lines = lines
        self.bus_index = bus_index
        self.reference_bus = reference_bus
        self.horizon = horizon
        self._seed = seed
        self._keys = None

    def masked_submission(self, config, entity_incidences, entity_kinds):
        rng = np.random.default_rng(self._seed)
        TL = self.grid.line_caps.size
        TB = self.grid.admittance.shape[0]
        self._keys = masking.iso_keys(rng, self.grid.n_iso, TL, TB, config,
                                      horizon=self.horizon)
        return masking.mask_iso(self.grid, self._keys, entity_incidences,
                                entity_kinds)

    def clear_payload(self) -> dict:
        return {"line_from": np.asarray([self.bus_index[l.from_bus]
                                         for l in self.lines], dtype=float),
                "line_to": np.asarray([self.bus_index[l.to_bus]
                                       for l in self.lines], dtype=float),
                "reactance": np.asarray([l.x for l in self.lines]),
                "capacity": np.asarray([l.capacity for l in self.lines]),
                "meta": np.asarray([self.horizon, len(self.bus_index),
                                    self.bus_index[self.reference_bus]],
                                   dtype=float)}

    def recover_angles(self, theta_slice):
        return self._keys.Y_theta @ np.asarray(theta_slice, dtype=float)

    def recover_lmp(self, lambda_slice):
        return recover_lmp(self._keys.X_b, lambda_slice)


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------

def _private_row_hashes(blocks: EdBlocks):
    rows = set()

    def add(arr):
        a = np.ascontiguousarray(np.asarray(arr, dtype=float))
        if a.ndim == 1:
            rows.add(a.tobytes())
        else:
            for r in a:
                rows.add(np.ascontiguousarray(r).tobytes())

    for e in blocks.gencos + blocks.lses:
        add(e.A)
        add(e.rhs)
        add(e.cost)
    add(blocks.line_caps)
    add(blocks.admittance.toarray())
    return rows


def _scan_for_leaks(messages, private_rows):
    import scipy.sparse as sp

    for msg in messages:
        if msg.kind != SUBMISSION:
            continue
        for name, arr in msg.payload.items():
            if sp.issparse(arr):
                arr = arr.toarray()
            a = np.ascontiguousarray(np.asarray(arr, dtype=float))
            if a.ndim == 1:
                if a.tobytes() in private_rows:
                    raise ProtocolViolation(
                        f"payload {name!r} of {msg.sender} matches private data")
            else:
                for r in a:
                    if np.ascontiguousarray(r).tobytes() in private_rows:
                        raise ProtocolViolation(
                            f"payload {name!r} of {msg.sender} contains a private row")


def run_market_round(system: MarketSystem, seed: int, mode: str = "masked",
                     config: SolverConfig = None,
                     mask_config: MaskConfig = None):
    """Run one complete clearing round.  Returns (ClearedMarket, CommLog).

    Masked mode never changes the economics: the cleared quantities,
    angles, and prices match clear mode (up to solver tolerance) for
    every seed; only the exchanged bytes differ.
    """
    if mode not in ("clear", "masked"):
        raise ValueError(f"mode must be 'clear' or 'masked', got {mode!r}")
    if mask_config is None:
        mask_config = MaskConfig()
    blocks = build_ed_blocks(system)
    entities = blocks.gencos + blocks.lses
    seeds = masking.spawn_party_seeds(seed, len(entities))
    parties = []
    for e, s in zip(entities, seeds[:-1]):
        assets = (system.units_of(e.owner) if e.kind == "GENCO"
                  else system.loads_of(e.owner))
        parties.append(EntityParty(e, assets, s, horizon=system.horizon))
    bus_index = {b: i for i, b in enumerate(system.buses)}
    iso = IsoParty(blocks.network_only(), system.lines, bus_index,
                   system.reference_bus, system.horizon, seeds[-1])
    log = CommLog()

    if mode == "clear":
        return _run_clear(system, blocks, parties, iso, log, config)
    return _run_masked(system, blocks, parties, iso, log, config, mask_config)


def _run_clear(system, blocks, parties, iso, log, config):
    for p in parties:
        log.add(Message.build(p.owner, AGENT, SUBMISSION, p.clear_payload()))
    log.add(Message.build(ISO, AGENT, SUBMISSION, iso.clear_payload()))

    problem, layout = assemble_ed_lp(blocks)
    sol = solve_lp(problem, config)
    require_optimal(sol.status, system)

    for p in parties:
        lo, hi = layout.var_spans[p.owner]
        log.add(Message.build(AGENT, p.owner, SOLUTION_SLICE,
                              {"dispatch": sol.x[lo:hi]}))
    lo, hi = layout.var_spans["theta"]
    log.add(Message.build(AGENT, ISO, SOLUTION_SLICE,
                          {"theta": sol.x[lo:hi], "lmp": -sol.duals_eq}))
    cleared = extract_cleared(system, blocks, layout, sol.x, sol.duals_eq,
                              sol.objective)
    return cleared, log


def _run_masked(system, blocks, parties, iso, log, config, mask_config):
    submissions = []
    for p in parties:
        sub = p.masked_submission(mask_config)
        submissions.append(sub)
        log.add(Message.build(p.owner, AGENT, SUBMISSION, sub.payload_arrays()))

    incidences = {s.owner: s.masked_incidence for s in submissions}
    kinds = {s.owner: s.kind for s in submissions}
    iso_sub = iso.masked_submission(mask_config, incidences, kinds)
    submissions.append(iso_sub)
    log.add(Message.build(ISO, AGENT, SUBMISSION, iso_sub.payload_arrays()))

    _scan_for_leaks(log.messages, _private_row_hashes(blocks))

    tlp = build_transformed_ed(submissions)
    expected_rows = (blocks.total_entity_rows + 2 * blocks.line_caps.size
                     + blocks.admittance.shape[0])
    if tlp.problem.n_rows != expected_rows:
        raise ProtocolViolation("transformed row count drifted from the original")

    sol = solve_lp(tlp.problem, config)
    require_optimal(sol.status)

    gen_dispatch, load_dispatch = {}, {}
    for p in parties:
        lo, hi = tlp.var_spans[p.owner]
        log.add(Message.build(AGENT, p.owner, SOLUTION_SLICE,
                              {"masked_dispatch": sol.x[lo:hi]}))
        recovered = p.recover(sol.x[lo:hi])
        log.add(Message.build(p.owner, ISO, PUBLICATION,
                              {"dispatch": recovered}))
        (gen_dispatch if p.kind == "GENCO" else load_dispatch)[p.owner] = recovered

    tlo, thi = tlp.var_spans["theta"]
    blo, bhi = tlp.row_spans["balance"]
    log.add(Message.build(AGENT, ISO, SOLUTION_SLICE,
                          {"masked_theta": sol.x[tlo:thi],
                           "masked_balance_duals": sol.duals_eq[blo:bhi]}))
    theta = iso.recover_angles(sol.x[tlo:thi])
    lmp = iso.recover_lmp(sol.duals_eq[blo:bhi])

    T, B, L = system.horizon, system.n_buses, system.n_lines
    cleared = ClearedMarket(objective=float(sol.objective),
                            gen_dispatch=gen_dispatch,
                            load_dispatch=load_dispatch,
                            angles=full_angles(system, theta),
                            flows=line_flows(system, theta).reshape(T, L),
                            lmp=lmp.reshape(T, B))
    return cleared, log


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

@dataclass
class CostReport:
    per_party_up: dict      # party -> (scalar_count, bytes)
    per_party_down: dict
    total_up_count: int
    total_up_bytes: int
    total_down_count: int
    total_down_bytes: int

    @property
    def total_up_mb(self):
        return self.total_up_bytes / 1e6

    @property
    def total_down_mb(self):
        return self.total_down_bytes / 1e6

    def to_json(self):
        return {
            "per_party": {
                p: {"up_count": self.per_party_up.get(p, (0, 0))[0],
                    "up_bytes": self.per_party_up.get(p, (0, 0))[1],
                    "down_count": self.per_party_down.get(p, (0, 0))[0],
                    "down_bytes": self.per_party_down.get(p, (0, 0))[1]}
                for p in sorted(set(self.per_party_up) | set(self.per_party_down))
            },
            "entities_to_agent": {"count": self.total_up_count,
                                  "bytes": self.total_up_bytes,
                                  "mb": self.total_up_mb},
            "agent_to_entities": {"count": self.total_down_count,
                                  "bytes": self.total_down_bytes,
                                  "mb": self.total_down_mb},
        }

    def to_csv(self):
        lines = ["party,up_count,up_bytes,down_count,down_bytes"]
        for p in sorted(set(self.per_party_up) | set(self.per_party_down)):
            uc, ub = self.per_party_up.get(p, (0, 0))
            dc, db = self.per_party_down.get(p, (0, 0))
            lines.append(f"{p},{uc},{ub},{dc},{db}")
        lines.append(f"TOTAL,{self.total_up_count},{self.total_up_bytes},"
                     f"{self.total_down_count},{self.total_down_bytes}")
        return "\n".join(lines) + "\n"


def comm_cost(log: CommLog) -> CostReport:
    """Aggregate the log into per-party and total exchange costs."""
    up, down = {}, {}
    for m in log.messages:
        if m.receiver == AGENT:
            c, b = up.get(m.sender, (0, 0))
            up[m.sender] = (c + m.scalar_count, b + m.byte_size)
        elif m.sender == AGENT:
            c, b = down.get(m.receiver, (0, 0))
            down[m.receiver] = (c + m.scalar_count, b + m.byte_size)
    return CostReport(
        per_party_up=up, per_party_down=down,
        total_up_count=sum(c for c, _ in up.values()),
        total_up_bytes=sum(b for _, b in up.values()),
        total_down_count=sum(c for c, _ in down.values()),
        total_down_bytes=sum(b for _, b in down.values()),
    )


def masked_submission_counts(system: MarketSystem) -> dict:
    """Scalar counts each party would transmit in a masked round.

    Pure dimension arithmetic, no solving: an entity sends its masked
    cost row (n), constraint block (m*n), slack block (m*m), bounds
    (m), and incidence (T*B*n); the operator sends the two line-flow
    blocks, two line-slack blocks, two line bounds, the further-masked
    incidence blocks, and the masked admittance block.  The return path
    carries each owner's solution slice and the operator's angle and
    dual slices.
    """
    blocks = build_ed_blocks(system)
    TB = blocks.admittance.shape[0]
    TL = blocks.line_caps.size
    n_iso = blocks.n_iso
    up = {}
    for e in blocks.gencos + blocks.lses:
        up[e.owner] = e.n + e.m * e.n + e.m * e.m + e.m + TB * e.n
    sum_n = sum(e.n for e in blocks.gencos + blocks.lses)
    up[ISO] = 2 * TL * n_iso + 2 * TL * TL + 2 * TL + TB * sum_n + TB * n_iso
    down = {e.owner: e.n for e in blocks.gencos + blocks.lses}
    down[ISO] = n_iso + TB
    return {"up": up, "down": down,
            "up_total": sum(up.values()), "down_total": sum(down.values())}


def clear_submission_counts(system: MarketSystem) -> dict:
    """Scalar counts for the clear-mode baseline round."""
    blocks = build_ed_blocks(system)
    # an entity sends one price and two bound values per bid segment; a
    # GENCO adds any ramp limits it declares; the operator sends four
    # scalars per line plus horizon, bus count, and reference index
    up = {}
    for owner in system.gencos:
        units = system.units_of(owner)
        up[owner] = sum(3 * len(u.segments) for u in units) + sum(
            (1 if u.ramp_up is not None else 0)
            + (1 if u.ramp_dn is not None else 0) for u in units)
    for owner in system.lses:
        up[owner] = sum(3 * len(d.segments) for d in system.loads_of(owner))
    up[ISO] = 4 * system.n_lines + 3
    down = {e.owner: e.n for e in blocks.gencos + blocks.lses}
    down[ISO] = blocks.n_iso + blocks.admittance.shape[0]
    return {"up": up, "down": down,
            "up_total": sum(up.values()), "down_total": sum(down.values())}

