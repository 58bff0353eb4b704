"""Electricity-market model and assembly of the dispatch LP.

The market clears a DC economic dispatch: multi-segment generator and
load bids, per-segment bounds, generator ramp limits, line capacity
limits, and nodal power balance under the DC power-flow approximation
(flow = angle difference / reactance).  Locational marginal prices are
the duals of the nodal balance equalities.

Layout conventions (used by everything downstream):

* `ed_layout` is the one source of the LP's block layout, keyed by
  owner: each entity's dispatch columns in order, then the angle
  columns (plus slack columns in the masked problem); each entity's
  constraint rows, then the upper and lower line-limit rows, then the
  nodal-balance rows.  The clear and masked assemblers both use it;
* within an entity, variable columns run hour-major: for each hour, for
  each asset in system order, one column per bid segment;
* entity constraint rows: for each hour, per asset, all segment upper
  bounds then all segment lower bounds; ramp rows for hours >= 2 follow
  after every bound row;
* line rows run hour-major over lines; balance rows hour-major over
  buses; angle columns hour-major over non-reference buses, the
  reference angle is fixed at zero and carries no column.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from maskdispatch.lp import (
    LpProblem, solve_lp, DimensionMismatch, NumericalBreakdown,
)


class IslandedNetwork(ValueError):
    """The network graph is disconnected: the reduced admittance matrix is singular."""


class EmptyMarket(ValueError):
    """The system has no generators or no loads."""


class InvalidCounts(ValueError):
    """Synthetic-system counts are out of range."""


class ClearingFailed(RuntimeError):
    """The dispatch LP was infeasible."""

    def __init__(self, status, family=None):
        self.status = status
        self.family = family
        msg = f"market clearing {status}"
        if family:
            msg += f" (offending constraint family: {family})"
        super().__init__(msg)


# the two parties besides the asset owners, as the messages name them
ISO = "ISO"
AGENT = "clearing-agent"
# owner names no asset owner may take: the layout (`ed_layout`), the
# payloads and the communication tally key by owner alongside these
# parties and the grid's blocks, and every slack block is "slack:<name>"
RESERVED_OWNERS = (ISO, AGENT, "theta", "balance", "line_hi", "line_lo")
SLACK_PREFIX = "slack:"


@dataclass(frozen=True)
class BidSegment:
    price: float   # $/MWh
    lo: float      # MW
    hi: float      # MW


@dataclass
class Generator:
    name: str
    owner: str
    bus: str
    segments: list
    ramp_up: float = None
    ramp_dn: float = None


@dataclass
class Load:
    name: str
    owner: str
    bus: str
    segments: list


@dataclass
class Line:
    from_bus: str
    to_bus: str
    x: float          # reactance, p.u.
    capacity: float   # MW


@dataclass
class MarketSystem:
    name: str
    buses: list
    reference_bus: str
    lines: list
    generators: list
    loads: list
    horizon: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(set(self.buses)) != len(self.buses):
            raise ValueError("duplicate bus ids")
        if self.reference_bus not in self.buses:
            raise ValueError(f"reference bus {self.reference_bus!r} not in bus list")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral):
            raise ValueError(f"horizon must be a whole number of hours, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1 hour")
        bus_set = set(self.buses)
        for ln in self.lines:
            what = f"line {ln.from_bus}-{ln.to_bus}"
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise ValueError(f"{what} references unknown bus")
            if ln.from_bus == ln.to_bus:
                raise ValueError(f"{what} connects a bus to itself")
            _require_finite(what, reactance=ln.x, capacity=ln.capacity)
            if ln.x <= 0:
                raise ValueError(f"{what} reactance must be positive")
            if ln.capacity <= 0:
                raise ValueError(f"{what} capacity must be positive")
        names = set()
        for asset in list(self.generators) + list(self.loads):
            if asset.name in names:
                raise ValueError(f"duplicate asset name {asset.name!r}")
            names.add(asset.name)
            if asset.bus not in bus_set:
                raise ValueError(f"asset {asset.name} placed at unknown bus {asset.bus!r}")
            if not asset.owner:
                raise ValueError(f"asset {asset.name} has no owner")
            if asset.owner in RESERVED_OWNERS or \
                    asset.owner.startswith(SLACK_PREFIX):
                raise ValueError(f"asset {asset.name}: owner name "
                                 f"{asset.owner!r} is reserved")
            if not asset.segments:
                raise ValueError(f"asset {asset.name} has no bid segments")
            # named as in the case file
            ramps = dict(zip(("ramp_up", "ramp_down"), ramp_limits(asset)))
            _require_finite(f"asset {asset.name}", **ramps)
            for key, v in ramps.items():
                if v is not None and v < 0:
                    raise ValueError(f"asset {asset.name}: {key} must not be "
                                     f"negative, got {v}")
            for k, seg in enumerate(asset.segments):
                _require_finite(f"asset {asset.name} segment {k}",
                                price=seg.price, lo=seg.lo, hi=seg.hi)
                if seg.lo > seg.hi:
                    raise ValueError(
                        f"asset {asset.name} segment {k}: lower bound {seg.lo} "
                        f"exceeds upper bound {seg.hi}")
        both = set(self.gencos) & set(self.lses)
        if both:
            raise ValueError(f"owner {sorted(both)[0]!r} holds both "
                             "generators and loads")

    @property
    def gencos(self):
        return list(dict.fromkeys(g.owner for g in self.generators))

    @property
    def lses(self):
        return list(dict.fromkeys(d.owner for d in self.loads))

    def units_of(self, owner):
        return [g for g in self.generators if g.owner == owner]

    def loads_of(self, owner):
        return [d for d in self.loads if d.owner == owner]

    @property
    def n_buses(self):
        return len(self.buses)

    @property
    def n_lines(self):
        return len(self.lines)


def ramp_limits(asset):
    """``(up, down)``: a generator's ramp limits, None where not given; a
    load has none."""
    return getattr(asset, "ramp_up", None), getattr(asset, "ramp_dn", None)


def _require_finite(what, **values):
    for key, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{what}: {key} must be finite, got {v}")


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------

@dataclass
class EntityBlocks:
    """One bidding entity's slice of the dispatch LP.

    For a GENCO this is (c_i, E_i, M_i, KP_i); for an LSE (d_j, F_j,
    N_j, KD_j).  The incidence KP_i maps the entity's variables onto the
    `n_balance` bus-hour balance rows with one 1.0 per column; it is kept
    as `bus_rows`, each column's balance row.
    """

    owner: str
    kind: str                 # "GENCO" | "LSE"
    assets: list              # the entity's Generators or Loads, in column order
    cost: np.ndarray          # (n,)
    A: np.ndarray             # (m, n) rows of one-sided <= constraints
    rhs: np.ndarray           # (m,)
    bus_rows: np.ndarray      # (n,) int, column j's entry of KP_i is in row bus_rows[j]
    n_balance: int            # T*B, the rows of KP_i

    @property
    def n(self):
        return self.cost.size

    @property
    def m(self):
        return self.rhs.size


@dataclass
class GridBlocks:
    """The network-only slice of the dispatch LP (what the ISO owns)."""

    susceptance: np.ndarray         # 1/x per line-hour, the diagonal of G (T*L,)
    incidence_lines: sp.csr_matrix  # KL: (T*L, n_iso) with +-1 entries
    admittance: sp.csr_matrix       # B with reference column removed: (T*B, n_iso)
    line_caps: np.ndarray           # (T*L,)

    @property
    def n_iso(self):
        return self.incidence_lines.shape[1]

    @property
    def flow_rows(self):
        """G*KL: maps angles to per-line-hour flows (KL's rows scaled in
        place, a fifth of the cost of a product with ``sp.diags``)."""
        KL = self.incidence_lines
        return sp.csr_matrix(
            (KL.data * np.repeat(self.susceptance, np.diff(KL.indptr)),
             KL.indices, KL.indptr), shape=KL.shape)


@dataclass
class EdBlocks(GridBlocks):
    """The whole dispatch LP in block form: the network plus every entity."""

    system: MarketSystem
    gencos: list              # EntityBlocks per GENCO
    lses: list                # EntityBlocks per LSE

    def network_only(self) -> GridBlocks:
        return GridBlocks(susceptance=self.susceptance,
                          incidence_lines=self.incidence_lines,
                          admittance=self.admittance,
                          line_caps=self.line_caps)

    @property
    def T(self):
        return self.system.horizon

    @property
    def total_entity_rows(self):
        return sum(g.m for g in self.gencos) + sum(d.m for d in self.lses)


def _connected(system: MarketSystem) -> bool:
    if system.n_buses <= 1:
        return True
    adj = {b: [] for b in system.buses}
    for ln in system.lines:
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = {system.buses[0]}
    stack = [system.buses[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(system.buses)


def _entity_structure(structure, T):
    """``(A, pick)`` shared by every entity whose assets have `structure`:
    per asset its segment count and whether it has an up and a down ramp
    limit.  `A` is read-only; the entity's ``rhs`` is ``values[pick]``, with
    `values` its segments' upper bounds, their negated lower bounds, then
    its ramp limits (per asset up before down)."""
    k = sum(c for c, _, _ in structure)
    n = T * k
    # per column of an hour: its rows among the hour's bound rows (per asset
    # the upper bounds, then the lower); per ramp limit, up before down,
    # (limit, column, sign) for each column of its asset
    up, lo, ramp, first, limits = [], [], [], 0, 0
    for c, *ramps in structure:
        up += range(2 * first, 2 * first + c)
        lo += range(2 * first + c, 2 * first + 2 * c)
        for sign, given in zip((1.0, -1.0), ramps):
            if given:
                ramp += [(limits, j, sign) for j in range(first, first + c)]
                limits += 1
        first += c

    A = np.zeros((2 * n + (T - 1) * limits, n))
    pick = np.empty(A.shape[0], dtype=np.intp)
    t, cols = np.arange(T)[:, None], np.arange(k)
    bounds = A[:2 * n].reshape(T, 2 * k, T, k)
    bounds[t, up, t, cols], bounds[t, lo, t, cols] = 1.0, -1.0
    pick[:2 * n].reshape(T, 2 * k)[:, up] = cols
    pick[:2 * n].reshape(T, 2 * k)[:, lo] = k + cols
    if ramp:
        # the rows for hour t + 1 hold +sign at hour t + 1, -sign at hour t
        r, j, sign = map(np.array, zip(*ramp))
        rows = A[2 * n:].reshape(T - 1, limits, T, k)
        rows[t[:-1], r, t[1:], j], rows[t[:-1], r, t[:-1], j] = sign, -sign
        pick[2 * n:] = np.tile(2 * k + np.arange(limits), T - 1)
    A.flags.writeable = False
    return A, pick


def build_ed_blocks(system: MarketSystem) -> EdBlocks:
    """Assemble the per-entity and network blocks of the dispatch LP.
    Entities whose assets have one structure share one read-only `A`."""
    if not system.generators or not system.loads:
        raise EmptyMarket("market needs at least one generator and one load")
    if not _connected(system):
        raise IslandedNetwork("network is not connected")

    T, B, L = system.horizon, system.n_buses, system.n_lines
    bus_idx = {b: i for i, b in enumerate(system.buses)}
    ref = bus_idx[system.reference_bus]
    n_iso = T * (B - 1)

    assets = {}   # owner -> its assets in system order, in one pass
    for a in list(system.generators) + list(system.loads):
        assets.setdefault(a.owner, []).append(a)
    kinds = {**dict.fromkeys(system.gencos, "GENCO"),
             **dict.fromkeys(system.lses, "LSE")}
    alike = {}    # structure -> owners
    for owner in kinds:
        structure = tuple((len(a.segments), *(v is not None for v in ramp_limits(a)))
                          for a in assets[owner])
        alike.setdefault(structure, []).append(owner)
    entities = {}
    for structure, owners in alike.items():
        A, pick = _entity_structure(structure, T)
        segs = [[s for a in assets[o] for s in a.segments] for o in owners]
        values = np.array([[s.hi for s in ss] + [-s.lo for s in ss]
                           + [v for a in assets[o] for v in ramp_limits(a)
                              if v is not None]
                           for o, ss in zip(owners, segs)], dtype=float)
        prices = np.array([[s.price for s in ss] for ss in segs], dtype=float)
        bus = np.array([[bus_idx[a.bus] for a in assets[o] for _ in a.segments]
                        for o in owners])
        cost, rhs = np.tile(prices, T), values[:, pick]
        bus_rows = (np.arange(T)[:, None] * B + bus[:, None]).reshape(len(owners), -1)
        for i, o in enumerate(owners):
            entities[o] = EntityBlocks(owner=o, kind=kinds[o], assets=assets[o],
                                       cost=cost[i], A=A, rhs=rhs[i],
                                       bus_rows=bus_rows[i], n_balance=T * B)

    frm = np.array([bus_idx[ln.from_bus] for ln in system.lines], dtype=np.intp)
    to = np.array([bus_idx[ln.to_bus] for ln in system.lines], dtype=np.intp)
    w = 1.0 / np.array([ln.x for ln in system.lines], dtype=float)
    caps = np.tile(np.array([ln.capacity for ln in system.lines], dtype=float), T)
    # per line-hour row, +1 at the from bus's angle column and -1 at the to
    # bus's, columns ascending; the reference bus has no angle column
    ends = np.tile(np.stack([frm, to], 1), (T, 1))
    cols = ends - (ends > ref) + np.repeat(np.arange(T) * (B - 1), L)[:, None]
    order = np.argsort(cols, axis=1)
    ends, cols = (np.take_along_axis(a, order, 1) for a in (ends, cols))
    keep = ends != ref
    KL = sp.csr_matrix((np.array([1.0, -1.0])[order][keep], cols[keep],
                        np.concatenate([[0], np.cumsum(keep.sum(1))])),
                       shape=(T * L, n_iso))

    Bfull = np.zeros((B, B))
    # added in line order, as a loop over the lines would
    np.add.at(Bfull, (np.stack([frm, to, frm, to], 1), np.stack([frm, to, to, frm], 1)),
              np.stack([w, w, -w, -w], 1))
    # B without the reference column, once per hour on the diagonal, each
    # row's nonzeros in column order
    Bred = np.delete(Bfull, ref, axis=1)
    r, c = np.nonzero(Bred)
    admittance = sp.csr_matrix(
        (np.tile(Bred[r, c], T), (c + np.arange(T)[:, None] * (B - 1)).ravel(),
         np.concatenate([[0], np.cumsum(np.tile(np.bincount(r, minlength=B), T))])),
        shape=(T * B, n_iso))

    return EdBlocks(system=system,
                    gencos=[entities[g] for g in system.gencos],
                    lses=[entities[d] for d in system.lses],
                    susceptance=np.tile(w, T), incidence_lines=KL,
                    admittance=admittance, line_caps=caps)


# placement above this many cells builds scipy.sparse instead of dense
_DENSE_CELL_LIMIT = 2_000_000


@dataclass
class EdLpLayout:
    """Column/row spans of the assembled LP, keyed by owner."""

    var_spans: dict
    row_spans: dict
    n_vars: int
    n_rows: int


def ed_layout(parties, n_iso, TL, TB, slacks=False) -> EdLpLayout:
    """The owner-keyed block layout shared by the clear and masked LPs.

    Reads only public dimensions: each party's `owner`, column count `n`
    and constraint-row count `m`, in column order.  Columns are every
    party's dispatch, then the `n_iso` angles; with `slacks`, every
    party's slack columns and the two line-slack groups follow.  Rows are
    every party's constraints, the `TL` upper then `TL` lower line
    limits, then the `TB` nodal balances.
    """
    var_spans, row_spans = {}, {}
    col = row = 0
    for p in parties:
        var_spans[p.owner] = (col, col + p.n)
        row_spans[p.owner] = (row, row + p.m)
        col += p.n
        row += p.m
    var_spans["theta"] = (col, col + n_iso)
    col += n_iso
    if slacks:
        for p in parties:
            var_spans[SLACK_PREFIX + p.owner] = (col, col + p.m)
            col += p.m
        var_spans[SLACK_PREFIX + "line_hi"] = (col, col + TL)
        var_spans[SLACK_PREFIX + "line_lo"] = (col + TL, col + 2 * TL)
        col += 2 * TL
    row_spans["line_hi"] = (row, row + TL)
    row_spans["line_lo"] = (row + TL, row + 2 * TL)
    row_spans["balance"] = (row + 2 * TL, row + 2 * TL + TB)
    return EdLpLayout(var_spans=var_spans, row_spans=row_spans,
                      n_vars=col, n_rows=row + 2 * TL + TB)


def coo_csr(parts, shape, tiny=None):
    """CSR from (rows, cols, values) triplets; repeated positions are added.
    With `tiny`, entries of magnitude at most `tiny` are left out first."""
    if not parts:
        return sp.csr_matrix(shape)
    r, c, v = (np.concatenate(t) for t in zip(*parts))
    if tiny is not None:
        keep = np.abs(v) > tiny
        r, c, v = r[keep], c[keep], v[keep]
    return sp.csr_matrix((v, (r, c)), shape=shape)


def place_blocks(pieces, shape):
    """A matrix of `shape` holding each (row offset, column offset, block).

    Blocks may be dense or sparse and must not overlap.  Up to
    `_DENSE_CELL_LIMIT` cells the result is a dense array; above it, a
    CSR matrix from the blocks' nonzero triplets (`coo_csr`).  The dense
    branch stays because it is faster on small LPs: on the 3-bus case the
    clear LP assembles in 0.5-0.6 ms dense against 1.6-1.9 ms as CSR, the
    slack form in 0.1 ms against 0.7-1.3 ms (of an 11-14 ms masked round).
    """
    if shape[0] * shape[1] <= _DENSE_CELL_LIMIT:
        out = np.zeros(shape)
        for r, c, block in pieces:
            if sp.issparse(block):
                block = block.toarray()
            out[r:r + block.shape[0], c:c + block.shape[1]] = block
        return out
    coos = [(r, c, sp.coo_matrix(block)) for r, c, block in pieces]
    return coo_csr([(coo.row + r, coo.col + c, coo.data) for r, c, coo in coos],
                   shape)


def assemble_ed_lp(blocks: EdBlocks):
    """Build the dispatch LP from the block form.

    Returns (LpProblem, EdLpLayout).  Variables: entity dispatch
    segments then angles, all free (bounds are explicit rows).  The
    balance rows are the equalities, every other row an inequality.
    """
    entities = blocks.gencos + blocks.lses
    layout = ed_layout(entities, blocks.n_iso, blocks.line_caps.size,
                       blocks.admittance.shape[0])
    vs, rs = layout.var_spans, layout.row_spans
    th, bal = vs["theta"][0], rs["balance"][0]
    flow = blocks.flow_rows
    # every entity's balance entries in one piece: its columns run from 0,
    # +1 for generation and -1 for load at each column's bus-hour
    sign = np.repeat([1.0 if e.kind == "GENCO" else -1.0 for e in entities],
                     [e.n for e in entities])
    incidence = sp.coo_matrix(
        (sign, (np.concatenate([e.bus_rows for e in entities]), np.arange(th))),
        shape=(layout.n_rows - bal, th))
    pieces = [(rs["line_hi"][0], th, flow), (rs["line_lo"][0], th, -flow),
              (bal, th, -blocks.admittance), (bal, 0, incidence)]
    pieces += [(rs[e.owner][0], vs[e.owner][0], e.A) for e in entities]
    A = place_blocks(pieces, (layout.n_rows, layout.n_vars))

    c = np.concatenate([-e.cost if e.kind == "GENCO" else e.cost
                        for e in entities] + [np.zeros(blocks.n_iso)])
    b_in = np.concatenate([e.rhs for e in entities]
                          + [blocks.line_caps, blocks.line_caps])
    problem = LpProblem(sense="max", c=c, A_eq=A[bal:],
                        b_eq=np.zeros(layout.n_rows - bal),
                        A_in=A[:bal], b_in=b_in)
    return problem, layout


# ---------------------------------------------------------------------------
# clearing outcome
# ---------------------------------------------------------------------------

@dataclass
class ClearedMarket:
    """Market-clearing outcome: dispatch, angles, flows, prices."""

    objective: float
    gen_dispatch: dict       # owner -> (n_i,) segment dispatch, block order
    load_dispatch: dict      # owner -> (n_j,)
    angles: np.ndarray       # (T, B) with the reference column fixed at 0
    flows: np.ndarray        # (T, L) MW
    lmp: np.ndarray          # (T, B) $/MWh

    def max_dispatch_diff(self, other):
        d = 0.0
        for key in self.gen_dispatch:
            d = max(d, float(np.max(np.abs(self.gen_dispatch[key] - other.gen_dispatch[key]))))
        for key in self.load_dispatch:
            d = max(d, float(np.max(np.abs(self.load_dispatch[key] - other.load_dispatch[key]))))
        return d


def full_angles(system: MarketSystem, theta) -> np.ndarray:
    """(T, B) bus angles from the reduced angle vector; the reference is 0."""
    T, B = system.horizon, system.n_buses
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != T * (B - 1):
        raise DimensionMismatch(
            f"expected {T * (B - 1)} angles, got {theta.size}")
    ref = system.buses.index(system.reference_bus)
    full = np.zeros((T, B))
    full[:, [i for i in range(B) if i != ref]] = theta.reshape(T, B - 1)
    return full


def line_flows(system: MarketSystem, angles) -> np.ndarray:
    """Per-line-hour flows (MW) from the reduced angle vector."""
    full = full_angles(system, angles)
    bus_idx = {b: i for i, b in enumerate(system.buses)}
    frm = [bus_idx[ln.from_bus] for ln in system.lines]
    to = [bus_idx[ln.to_bus] for ln in system.lines]
    x = np.array([ln.x for ln in system.lines], dtype=float)
    return ((full[:, frm] - full[:, to]) / x).reshape(-1)


def _diagnose_infeasibility(system) -> str:
    relaxed = MarketSystem(
        name=system.name, buses=list(system.buses),
        reference_bus=system.reference_bus,
        lines=[Line(l.from_bus, l.to_bus, l.x, 1e9) for l in system.lines],
        generators=system.generators, loads=system.loads,
        horizon=system.horizon)
    try:
        problem, _ = assemble_ed_lp(build_ed_blocks(relaxed))
        if solve_lp(problem).status == "optimal":
            return "line capacity limits"
    except NumericalBreakdown:
        pass
    return "generator/load bound or ramp constraints"


def require_optimal(status, system=None):
    """Raise unless an LP status is optimal.

    The dispatch LP is bounded by construction (finite segment bounds,
    angles fixed by a connected network, invertible masks), so only
    "infeasible" is a market outcome: ClearingFailed, naming the
    offending constraint family when `system` is given.  Any other
    status is a solver failure: NumericalBreakdown.
    """
    if status == "optimal":
        return
    if status == "infeasible":
        family = None if system is None else _diagnose_infeasibility(system)
        raise ClearingFailed(status, family)
    raise NumericalBreakdown(
        f"LP solver reported {status} on a dispatch LP that is bounded "
        f"by construction")


def extract_cleared(system, blocks, layout, x, balance_duals,
                    objective) -> ClearedMarket:
    """Split an LP solution vector into a ClearedMarket along the layout."""
    def part(key):
        lo, hi = layout.var_spans[key]
        return np.asarray(x[lo:hi], dtype=float)

    theta = part("theta")
    T, B = system.horizon, system.n_buses
    # balance duals price one extra MW of load; sign fixed by the max sense
    lmp = (-np.asarray(balance_duals, dtype=float)).reshape(T, B)
    return ClearedMarket(objective=float(objective),
                         gen_dispatch={e.owner: part(e.owner) for e in blocks.gencos},
                         load_dispatch={e.owner: part(e.owner) for e in blocks.lses},
                         angles=full_angles(system, theta),
                         flows=line_flows(system, theta).reshape(T, system.n_lines),
                         lmp=lmp)


# ---------------------------------------------------------------------------
# synthetic systems
# ---------------------------------------------------------------------------

def gen_synthetic(buses: int, gencos: int, lses: int, entity_size: int,
                  T: int, seed: int, segments: int = 3) -> MarketSystem:
    """Random connected market, feasible by construction.

    The network is a random spanning tree plus chords.  All bid-segment
    minima are zero, so the zero dispatch point is always feasible; load
    bids are priced above the cheapest generation so the cleared market
    trades.  Deterministic per seed.
    """
    for name, v in (("buses", buses), ("gencos", gencos), ("lses", lses),
                    ("entity_size", entity_size), ("T", T), ("segments", segments)):
        if v < 1:
            raise InvalidCounts(f"{name} must be >= 1, got {v}")
    rng = np.random.default_rng(seed)
    bus_ids = [str(i + 1) for i in range(buses)]

    lines = []
    if buses > 1:
        order = list(rng.permutation(buses))
        for i in range(1, buses):
            a = order[i]
            b = order[int(rng.integers(0, i))]
            lines.append((min(a, b), max(a, b)))
        existing = set(lines)
        n_chords = max(1, buses // 5)
        attempts = 0
        while n_chords > 0 and attempts < 50 * buses:
            attempts += 1
            a, b = rng.integers(0, buses, size=2)
            a, b = int(a), int(b)
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in existing:
                continue
            existing.add(key)
            lines.append(key)
            n_chords -= 1

    generators = []
    for g in range(gencos):
        owner = f"GENCO{g + 1}"
        for u in range(entity_size):
            segs = []
            price = float(rng.uniform(5.0, 15.0))
            for _ in range(segments):
                cap = float(rng.uniform(20.0, 80.0))
                segs.append(BidSegment(price=round(price, 2), lo=0.0, hi=round(cap, 1)))
                price += float(rng.uniform(1.0, 5.0))
            total = sum(s.hi for s in segs)
            ramp = round(float(rng.uniform(0.4, 1.0)) * total, 1)
            generators.append(Generator(
                name=f"U{g * entity_size + u + 1}", owner=owner,
                bus=bus_ids[int(rng.integers(0, buses))], segments=segs,
                ramp_up=ramp, ramp_dn=ramp))

    loads = []
    for d in range(lses):
        owner = f"LSE{d + 1}"
        for v in range(entity_size):
            segs = []
            price = float(rng.uniform(18.0, 30.0))
            for _ in range(segments):
                cap = float(rng.uniform(20.0, 60.0))
                segs.append(BidSegment(price=round(price, 2), lo=0.0, hi=round(cap, 1)))
                price -= float(rng.uniform(0.5, 3.0))
            loads.append(Load(
                name=f"L{d * entity_size + v + 1}", owner=owner,
                bus=bus_ids[int(rng.integers(0, buses))], segments=segs))

    peak_load = sum(s.hi for ld in loads for s in ld.segments)
    line_objs = [Line(from_bus=bus_ids[a], to_bus=bus_ids[b],
                      x=round(float(rng.uniform(0.05, 0.2)), 4),
                      capacity=round(float(rng.uniform(0.15, 0.8)) * peak_load, 1))
                 for a, b in lines]

    return MarketSystem(name=f"synthetic-{buses}b-{gencos}g-{lses}d-s{seed}",
                        buses=bus_ids, reference_bus=bus_ids[0],
                        lines=line_objs, generators=generators, loads=loads,
                        horizon=T)


def regroup_entities(system: MarketSystem, entity_size: int) -> MarketSystem:
    """Reassign asset ownership in chunks of `entity_size` assets per entity.

    The physical system (and hence the cleared outcome) is unchanged;
    only who owns what moves, which is what drives masked submission
    sizes.
    """
    if entity_size < 1:
        raise InvalidCounts("entity_size must be >= 1")
    gens = []
    for i, g in enumerate(system.generators):
        gens.append(Generator(name=g.name, owner=f"GENCO{i // entity_size + 1}",
                              bus=g.bus, segments=list(g.segments),
                              ramp_up=g.ramp_up, ramp_dn=g.ramp_dn))
    loads = []
    for i, d in enumerate(system.loads):
        loads.append(Load(name=d.name, owner=f"LSE{i // entity_size + 1}",
                          bus=d.bus, segments=list(d.segments)))
    return MarketSystem(name=f"{system.name}-k{entity_size}",
                        buses=list(system.buses),
                        reference_bus=system.reference_bus,
                        lines=list(system.lines), generators=gens,
                        loads=loads, horizon=system.horizon)
