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
item 11.

Before solving, the agent scans every submitted row for an unmasked
private row (`_scan_for_leaks`): rows are matched by a wrapping 64-bit
digest computed in vectorised batches, sparse payloads from their stored
entries only, and a digest match raises only when the bytes agree too.
Private rows without a nonzero entry are not scanned for: every mask maps
them to zero, so zero entries stay visible under masking.

Every party publishes its inequality rows row-scaled only, with no row
mask or slack block, which the agent would cancel (ROADMAP item 4(a)).
An LP the router sends to HiGHS is solved in its shift-factor flow form:
the agent substitutes the masked angles out, states each line-hour once
through a masked-flow column and its single-entry rows as column bounds
(`masking.eliminate_angles`).  It solves that LP with the line limits
added lazily (`_solve_screened`): first without the flow rows, then with
every line-hour whose flow the last solution overloads, until none is.  Each screened LP is built
straight from the stacks, with flow rows for its monitored line-hours
only, and the last one's certificate, with the bound check of every
flow it left out, certifies the solution on the whole flow-form LP,
which is never built.  Should a screened solve not be optimal, the
whole LP is built and solved as it is.  The solution is mapped back to
masked angles, row duals and balance duals before any slice is sent.
The simplex takes the all-equality slack form, every inequality row with
an identity slack column.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from maskdispatch.lp import (
    OPTIMAL, NumericalBreakdown, SolverConfig, choose_backend, solve_lp,
)
from maskdispatch.market import (
    AGENT, ISO, MarketSystem, EdBlocks, ClearedMarket,
    build_ed_blocks, assemble_ed_lp, extract_cleared, full_angles, line_flows,
    ramp_limits, require_optimal,
)
from maskdispatch import masking
from maskdispatch.masking import MaskConfig, build_transformed_ed, recover_lmp

SCALAR_BYTES = 8
HEADER_BYTES = 32

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
        # every block counts its full shape, a sparse one too, not its nnz
        count = sum(math.prod(v.shape) for v in payload.values())
        return cls(sender=sender, receiver=receiver, kind=kind,
                   payload=payload, scalar_count=count,
                   byte_size=count * SCALAR_BYTES + HEADER_BYTES)


@dataclass
class CommLog:
    messages: list = field(default_factory=list)

    def add(self, msg: Message):
        self.messages.append(msg)


# ---------------------------------------------------------------------------
# parties
# ---------------------------------------------------------------------------

class EntityParty:
    """A GENCO or LSE: owns its assets and blocks, creates and keeps its keys."""

    def __init__(self, blocks_slice, seed, horizon=1):
        self.blocks = blocks_slice
        self.owner = blocks_slice.owner
        self.kind = blocks_slice.kind
        self.horizon = horizon
        self._seed = seed
        self._keys = None

    @staticmethod
    def masked_submissions(parties, config: MaskConfig) -> list:
        """Each party's keys, drawn from its own seed, and its submission,
        for all `parties` in one stacked pass (`masking.draw_entity_keys`,
        `masking.mask_entities`)."""
        keys = masking.draw_entity_keys(
            [(p._seed, p.owner, p.kind, p.blocks.n, p.blocks.m, p.horizon)
             for p in parties], config)
        subs, verified = masking.mask_entities([p.blocks for p in parties], keys)
        for p, k, ok in zip(parties, keys, verified):
            p._keys = k
            if not ok:
                raise ProtocolViolation(
                    f"submission of {p.owner} leaks an unmasked block")
        return subs

    def clear_payload(self) -> dict:
        assets = self.blocks.assets
        prices = [s.price for a in assets for s in a.segments]
        bounds = [v for a in assets for s in a.segments for v in (s.lo, s.hi)]
        payload = {"prices": np.asarray(prices, dtype=float),
                   "bounds": np.asarray(bounds, dtype=float)}
        ramps = [v for a in assets for v in ramp_limits(a) if v is not None]
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

    def masked_submission(self, config, entity_incidences):
        rng = np.random.default_rng(self._seed)
        TL = self.grid.line_caps.size
        TB = self.grid.admittance.shape[0]
        self._keys = masking.iso_keys(rng, self.grid.n_iso, TL, TB, config,
                                      horizon=self.horizon)
        return masking.mask_iso(self.grid, self._keys, entity_incidences)

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
        return masking.apply_blocks(self._keys.Y_theta, theta_slice)

    def recover_lmp(self, lambda_slice):
        return recover_lmp(self._keys.X_b, lambda_slice)


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------

_MIX = np.uint64(0x9E3779B97F4A7C15)
_SIGN_BIT = np.uint64(1 << 63)
_BATCH = 1 << 16    # values digested per pass, which bounds the scan's copies


def _canonical_csr(block):
    """`block` as CSR storing each position at most once, with the value
    ``toarray`` gives it."""
    if block.format == "csr":
        if block.has_canonical_format:
            return block
        a = block.copy()
        a.sort_indices()
        if a.has_canonical_format:
            return a
    # duplicates: toarray adds them to 0.0 in stored order, as add.at does
    coo = block.tocoo()
    n = block.shape[1]
    pos, inv = np.unique(coo.row.astype(np.int64) * n + coo.col,
                         return_inverse=True)
    values = np.zeros(pos.size)
    np.add.at(values, inv, coo.data)
    return sp.csr_matrix((values, np.divmod(pos, n)), shape=block.shape)


def _digests(blocks, counts, widths):
    """A digest of every row of `blocks`, float64 arrays before sparse
    matrices, with the given row counts and widths (see `_Rows`)."""
    width = np.repeat(np.array(widths, dtype=np.uint64), counts)
    values = [a.ravel() for a in blocks if type(a) is np.ndarray]
    dense = len(values)
    # after a leading 0.0, row r's entries end at ends[r + 1]
    ends = np.zeros(width.size + 1, dtype=np.int64)
    r = sum(counts[:dense])
    np.cumsum(width[:r], out=ends[1:r + 1], dtype=np.int64)
    first_sparse = ends[r] + 1
    for a in blocks[dense:]:
        a = _canonical_csr(a)
        values.append(a.data)
        ends[r + 1:r + 1 + a.shape[0]] = a.indptr[1:] + ends[r]
        r += a.shape[0]
    v = np.concatenate([np.zeros(1)] + values)
    if dense < len(blocks):
        v[first_sparse:] += 0.0
    bits = v.view(np.uint64)
    sums = np.cumsum(bits, out=bits)[ends]
    return (sums[1:] - sums[:-1] + width) * _MIX


class _Rows:
    """The rows of labelled blocks, each with a wrapping uint64 digest.

    A 1-D block is one row; a sparse block stays sparse.  A row's digest
    is (the sum of its entries' bit patterns + its length) times an odd
    constant, all modulo 2**64.  0.0 has the bit pattern 0, so a sparse
    row's digest comes from its stored entries alone and equals that of
    its dense form (``toarray`` turns a stored -0.0 into 0.0, and so does
    the ``+= 0.0`` in `_digests`).  Equal rows have equal digests; rows
    with other values rarely do.  Rows are digested in vectorised passes
    over copies of about `_BATCH` values, whatever the number of blocks.
    """

    def __init__(self, labelled):
        labels, ndims, blocks, counts, widths, sparse = [], [], [], [], [], []
        for label, block in labelled:
            if type(block) is not np.ndarray and sp.issparse(block):
                sparse.append((label, block))
                continue
            a = np.asarray(block, dtype=float)
            rows = len(a) if a.ndim > 1 else 1
            labels.append(label)
            ndims.append(a.ndim)
            blocks.append(a)
            counts.append(rows)
            widths.append(a.size // rows if rows else 0)
        # sparse blocks last, the order `_digests` takes them in
        for label, a in sparse:
            labels.append(label)
            ndims.append(2)
            blocks.append(a)
            counts.append(a.shape[0])
            widths.append(a.shape[1])
        self.labels, self.ndims = labels, ndims
        self.blocks, self.counts, self.widths = blocks, counts, widths
        digests, start, size = [], 0, 0
        for i, a in enumerate(blocks, 1):
            size += a.size
            if size >= _BATCH or i == len(blocks):
                digests.append(_digests(blocks[start:i], counts[start:i],
                                        widths[start:i]))
                start, size = i, 0
        self.digests = np.concatenate(digests or [np.zeros(0, np.uint64)])

    def row(self, k):
        """(label, ndim, row k as a contiguous dense float64 array)."""
        for i, rows in enumerate(self.counts):
            if k < rows:
                break
            k -= rows
        a = self.blocks[i]
        if sp.issparse(a):
            row = _canonical_csr(a)[k:k + 1].toarray()[0]
        else:
            row = a.reshape(rows, -1)[k]
        return self.labels[i], self.ndims[i], np.ascontiguousarray(row)


class _PrivateRows(_Rows):
    """Rows no submission may carry, looked up by digest.

    A bitmap over the digests' high bits, at most 1/64 full, passes a
    payload row on to the sorted digests about once in 64 or less.
    """

    def __init__(self, labelled):
        super().__init__(labelled)
        # a row with no nonzero entry holds no data: every mask maps it to
        # zero, and an empty one would match any empty payload.  A row of
        # k entries -0.0 and w - k entries 0.0 digests as
        # (w + k * 2**63) * _MIX, so only those digests are checked
        width = np.repeat(np.array(self.widths, dtype=np.uint64), self.counts)
        maybe = ((self.digests == width * _MIX)
                 | (self.digests == (width + _SIGN_BIT) * _MIX))
        zero = [k for k in np.flatnonzero(maybe) if not self.row(k)[2].any()]
        self.order = np.argsort(self.digests)
        if zero:
            self.order = self.order[~np.isin(self.order, zero)]
        self.known = self.digests[self.order]
        bits = max(12, (64 * self.known.size).bit_length())
        self.shift = np.uint64(64 - bits)
        self.bitmap = np.zeros(1 << bits, dtype=bool)
        self.bitmap[self.known >> self.shift] = True

    def matches(self, digests):
        """(k, private row indices) for each k whose digest one shares."""
        rows = np.flatnonzero(self.bitmap[digests >> self.shift])
        if not rows.size:
            return []
        lo = np.searchsorted(self.known, digests[rows], side="left")
        hi = np.searchsorted(self.known, digests[rows], side="right")
        return [(rows[i], self.order[lo[i]:hi[i]])
                for i in np.flatnonzero(lo < hi)]


def _private_row_hashes(blocks: EdBlocks):
    """The private rows no submission may carry, for `_scan_for_leaks`:
    every entity's constraint rows, bounds, costs and the nonzero rows of
    its bus incidence ``KP``, the line capacities, the flow rows ``G·KL``
    (line reactances and topology) and the admittance rows.  The read-only
    constraint block `A` that the entities of one asset structure share is
    digested once, and so are the incidence rows of entities whose columns
    group into bus-hours alike."""
    entities = blocks.gencos + blocks.lses
    labelled = list({id(e.A): (e.owner, e.A) for e in entities}.values())
    labelled += [(e.owner, v) for e in entities for v in (e.rhs, e.cost)]
    widths = {}
    for e in entities:
        widths.setdefault(e.n, []).append(e.bus_rows)
    labelled += [("KP", _incidence_rows(np.array(rows)))
                 for n, rows in widths.items() if n]
    labelled += [(ISO, blocks.line_caps), (ISO, blocks.flow_rows),
                 (ISO, blocks.admittance)]
    return _PrivateRows(labelled)


def _incidence_rows(bus_rows):
    """The distinct nonzero rows of the incidences ``KP`` whose columns'
    balance rows are the rows of the ``(K, n)`` array `bus_rows`, in
    stacked calls: an entity's r-th nonzero row holds 1.0 in the columns
    at its r-th bus-hour, so entities whose columns group into bus-hours
    alike share their rows."""
    order = np.argsort(bus_rows, axis=1, kind="stable")
    ordered = np.take_along_axis(bus_rows, order, axis=1)
    # each column's bus-hour, counted among its entity's bus-hours
    rank = np.cumsum(np.diff(ordered, axis=1, prepend=ordered[:, :1]) != 0, axis=1)
    patterns = np.empty_like(rank)
    np.put_along_axis(patterns, order, rank, axis=1)
    patterns = np.unique(patterns, axis=0)
    rows = patterns[:, None, :] == np.arange(patterns.max() + 1)[:, None]
    return rows[rows.any(axis=2)].astype(float)


def _scan_for_leaks(messages, private_rows):
    """Raise ProtocolViolation when a submitted payload row equals a
    private row byte for byte.

    Only rows whose digest (which covers the length) matches a private
    row's are compared, so the scan costs about one vectorised pass over
    the submitted values and never densifies a sparse payload."""
    sent = _Rows(((msg.sender, name), arr) for msg in messages
                 if msg.kind == SUBMISSION for name, arr in msg.payload.items())
    for k, candidates in private_rows.matches(sent.digests):
        (sender, name), ndim, row = sent.row(k)
        if not any(private_rows.row(j)[2].tobytes() == row.tobytes()
                   for j in candidates):
            continue
        if ndim == 1:
            raise ProtocolViolation(
                f"payload {name!r} of {sender} matches private data")
        raise ProtocolViolation(
            f"payload {name!r} of {sender} contains a private row")


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
    seeds = (masking.spawn_party_seeds(seed, len(entities)) if mode == "masked"
             else [None] * (len(entities) + 1))   # a clear round draws no keys
    parties = [EntityParty(e, s, horizon=system.horizon)
               for e, s in zip(entities, seeds[:-1])]
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


def _solve_screened(reduced, config):
    """``(sol, theta)``: the optimal solution of the whole flow-form LP
    ``reduced.problem``, found with its line limits added lazily and never
    building that LP, and its masked angles (`masking.AngleElimination.lift`);
    or None when a solve on the way is not optimal.

    The first LP monitors no line-hour but those an inequality row
    touches (`masking.AngleElimination.flows_in_rows`); each solve's lifted
    flows ``a·θ'`` name the line-hours to add, and the next solve monitors
    them too.  The monitored set only grows, so at most TL + 1 LPs are
    solved.  The last solution is returned lifted onto the layout of
    ``reduced.problem``, with the iterations of every solve.  Its
    certificate is that of the last screened solve (``lp._finish``), its
    primal residual raised to the worst bound violation of the lifted
    flows: the flow rows it dropped hold by construction and their duals
    are zero, so that certifies it on the whole LP too.  No presolve: the
    singleton rows it would remove are bounds already, and on the flow
    form it costs time.
    """
    monitored = reduced.flows_in_rows()
    iterations = 0
    try:
        while True:
            sol = solve_lp(reduced.screened(monitored), config, presolve=False)
            if sol.status != OPTIMAL:
                return None
            iterations += sol.iterations
            sol, violated, theta = reduced.lift(sol, monitored)
            if not violated.size:
                return dataclasses.replace(sol, iterations=iterations), theta
            monitored = np.union1d(monitored, violated)
    except NumericalBreakdown:
        return None


def _run_masked(system, blocks, parties, iso, log, config, mask_config):
    submissions = EntityParty.masked_submissions(parties, mask_config)
    for sub in submissions:
        log.add(Message.build(sub.owner, AGENT, SUBMISSION, sub.payload_arrays()))

    incidences = {s.owner: s.masked_incidence for s in submissions}
    iso_sub = iso.masked_submission(mask_config, incidences)
    submissions.append(iso_sub)
    log.add(Message.build(ISO, AGENT, SUBMISSION, iso_sub.payload_arrays()))

    _scan_for_leaks(log.messages, _private_row_hashes(blocks))

    tlp = build_transformed_ed(submissions)
    expected_rows = (blocks.total_entity_rows + 2 * blocks.line_caps.size
                     + blocks.admittance.shape[0])
    if tlp.n_rows != expected_rows:
        raise ProtocolViolation("transformed row count drifted from the original")

    if config is None:
        config = SolverConfig()
    # routed on its size before anything is assembled
    if choose_backend(tlp, config) == "highs":
        # the agent substitutes the angles out, states each line-hour's
        # limits on one flow column and single-entry rows as column bounds,
        # leaving an LP over the entity and flow columns with one balance
        # equality per hour and dense or two-entry rows; it stays on HiGHS
        # however small that LP is, is solved with its line limits screened
        # and, should a screened solve not be optimal, built whole and
        # solved as it is, and its solution is mapped back to angles and row
        # duals
        reduced = masking.eliminate_angles(tlp)
        highs = dataclasses.replace(config, backend="highs")
        sol, theta = (_solve_screened(reduced, highs)
                      or (solve_lp(reduced.problem, highs, presolve=False), None))
        sol = reduced.restore(sol, theta)
        balance_rows = slice(None)
    else:
        sol = solve_lp(tlp.problem, config, presolve=False)
        balance_rows = slice(*tlp.row_spans["balance"])
    require_optimal(sol.status)
    balance_duals = sol.duals_eq[balance_rows]

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
    log.add(Message.build(AGENT, ISO, SOLUTION_SLICE,
                          {"masked_theta": sol.x[tlo:thi],
                           "masked_balance_duals": balance_duals}))
    theta = iso.recover_angles(sol.x[tlo:thi])
    lmp = iso.recover_lmp(balance_duals)

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
    cost row (n), row-scaled constraint block (m*n) and bounds (m), and
    incidence (T*B*n); the operator sends its row-scaled line block
    (T*L*n_iso) and its one right-hand side (T*L) for both limits, then
    the masked admittance block and the further-masked incidences as one
    balance block.  No party sends a row mask or slack block, which the
    agent would cancel.  The return path carries each owner's solution
    slice and the operator's angle and dual slices.
    """
    blocks = build_ed_blocks(system)
    TB = blocks.admittance.shape[0]
    TL = blocks.line_caps.size
    n_iso = blocks.n_iso
    up = {}
    for e in blocks.gencos + blocks.lses:
        up[e.owner] = e.n + e.m * e.n + e.m + TB * e.n
    sum_n = sum(e.n for e in blocks.gencos + blocks.lses)
    up[ISO] = TL * n_iso + TL + TB * sum_n + TB * n_iso
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
    entities = blocks.gencos + blocks.lses
    up = {e.owner: sum(3 * len(a.segments)
                       + sum(v is not None for v in ramp_limits(a))
                       for a in e.assets)
          for e in entities}
    up[ISO] = 4 * system.n_lines + 3
    down = {e.owner: e.n for e in entities}
    down[ISO] = blocks.n_iso + blocks.admittance.shape[0]
    return {"up": up, "down": down,
            "up_total": sum(up.values()), "down_total": sum(down.values())}

