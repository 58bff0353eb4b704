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
    LpProblem, SolverConfig, solve_lp, DimensionMismatch, NumericalBreakdown,
    FREE,
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
            if not asset.segments:
                raise ValueError(f"asset {asset.name} has no bid segments")
            _require_finite(f"asset {asset.name}",
                            ramp_up=getattr(asset, "ramp_up", None),
                            ramp_dn=getattr(asset, "ramp_dn", None))
            for k, seg in enumerate(asset.segments):
                _require_finite(f"asset {asset.name} segment {k}",
                                price=seg.price, lo=seg.lo, hi=seg.hi)
                if seg.lo > seg.hi:
                    raise ValueError(
                        f"asset {asset.name} segment {k}: lower bound {seg.lo} "
                        f"exceeds upper bound {seg.hi}")

    @property
    def gencos(self):
        seen = {}
        for g in self.generators:
            seen.setdefault(g.owner, None)
        return list(seen)

    @property
    def lses(self):
        seen = {}
        for d in self.loads:
            seen.setdefault(d.owner, None)
        return list(seen)

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
    N_j, KD_j).  `incidence` maps the entity's variables onto bus-hour
    balance rows and is stored sparse.
    """

    owner: str
    kind: str                 # "GENCO" | "LSE"
    cost: np.ndarray          # (n,)
    A: np.ndarray             # (m, n) rows of one-sided <= constraints
    rhs: np.ndarray           # (m,)
    incidence: sp.csr_matrix  # (T*B, n), entries 0/1
    var_names: list = None

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
        """G*KL: maps angles to per-line-hour flows."""
        return sp.diags(self.susceptance) @ self.incidence_lines


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


def _entity_blocks(system, owner, assets, kind):
    T = system.horizon
    B = system.n_buses
    bus_idx = {b: i for i, b in enumerate(system.buses)}
    segs = [len(a.segments) for a in assets]
    n_per_hour = sum(segs)
    n = T * n_per_hour

    col = {}
    names = []
    for t in range(T):
        for a_i, a in enumerate(assets):
            for k in range(len(a.segments)):
                col[(t, a_i, k)] = len(names)
                names.append(f"{a.name}:s{k + 1}:t{t + 1}")

    rows = []
    rhs = []
    for t in range(T):
        for a_i, a in enumerate(assets):
            for k, seg in enumerate(a.segments):
                r = np.zeros(n)
                r[col[(t, a_i, k)]] = 1.0
                rows.append(r)
                rhs.append(seg.hi)
            for k, seg in enumerate(a.segments):
                r = np.zeros(n)
                r[col[(t, a_i, k)]] = -1.0
                rows.append(r)
                rhs.append(-seg.lo)
    if kind == "GENCO":
        for t in range(1, T):
            for a_i, a in enumerate(assets):
                up, dn = a.ramp_up, a.ramp_dn
                if up is not None:
                    r = np.zeros(n)
                    for k in range(len(a.segments)):
                        r[col[(t, a_i, k)]] = 1.0
                        r[col[(t - 1, a_i, k)]] = -1.0
                    rows.append(r)
                    rhs.append(up)
                if dn is not None:
                    r = np.zeros(n)
                    for k in range(len(a.segments)):
                        r[col[(t, a_i, k)]] = -1.0
                        r[col[(t - 1, a_i, k)]] = 1.0
                    rows.append(r)
                    rhs.append(dn)

    cost = np.zeros(n)
    inc = sp.lil_matrix((T * B, n))
    for t in range(T):
        for a_i, a in enumerate(assets):
            for k, seg in enumerate(a.segments):
                j = col[(t, a_i, k)]
                cost[j] = seg.price
                inc[t * B + bus_idx[a.bus], j] = 1.0

    return EntityBlocks(owner=owner, kind=kind, cost=cost,
                        A=np.array(rows, dtype=float).reshape(len(rows), n),
                        rhs=np.array(rhs, dtype=float),
                        incidence=inc.tocsr(), var_names=names)


def build_ed_blocks(system: MarketSystem) -> EdBlocks:
    """Assemble the per-entity and network blocks of the dispatch LP."""
    if not system.generators or not system.loads:
        raise EmptyMarket("market needs at least one generator and one load")
    if not _connected(system):
        raise IslandedNetwork("network is not connected")

    T, B, L = system.horizon, system.n_buses, system.n_lines
    bus_idx = {b: i for i, b in enumerate(system.buses)}
    ref = bus_idx[system.reference_bus]
    ang_cols = [i for i in range(B) if i != ref]
    ang_col_of = {b: j for j, b in enumerate(ang_cols)}
    n_iso = T * (B - 1)

    gencos = [_entity_blocks(system, g, system.units_of(g), "GENCO")
              for g in system.gencos]
    lses = [_entity_blocks(system, d, system.loads_of(d), "LSE")
            for d in system.lses]

    weights = np.zeros(T * L)
    KL = sp.lil_matrix((T * L, n_iso))
    caps = np.zeros(T * L)
    for t in range(T):
        for l_i, ln in enumerate(system.lines):
            r = t * L + l_i
            weights[r] = 1.0 / ln.x
            caps[r] = ln.capacity
            a, b = bus_idx[ln.from_bus], bus_idx[ln.to_bus]
            if a != ref:
                KL[r, t * (B - 1) + ang_col_of[a]] = 1.0
            if b != ref:
                KL[r, t * (B - 1) + ang_col_of[b]] = -1.0

    Bfull = np.zeros((B, B))
    for ln in system.lines:
        a, b = bus_idx[ln.from_bus], bus_idx[ln.to_bus]
        w = 1.0 / ln.x
        Bfull[a, a] += w
        Bfull[b, b] += w
        Bfull[a, b] -= w
        Bfull[b, a] -= w
    Bred = Bfull[:, ang_cols]
    admittance = sp.block_diag([sp.csr_matrix(Bred)] * T, format="csr")

    return EdBlocks(system=system, gencos=gencos, lses=lses,
                    susceptance=weights, incidence_lines=KL.tocsr(),
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
            var_spans[f"slack:{p.owner}"] = (col, col + p.m)
            col += p.m
        var_spans["slack:line_hi"] = (col, col + TL)
        var_spans["slack:line_lo"] = (col + TL, col + 2 * TL)
        col += 2 * TL
    row_spans["line_hi"] = (row, row + TL)
    row_spans["line_lo"] = (row + TL, row + 2 * TL)
    row_spans["balance"] = (row + 2 * TL, row + 2 * TL + TB)
    return EdLpLayout(var_spans=var_spans, row_spans=row_spans,
                      n_vars=col, n_rows=row + 2 * TL + TB)


def place_blocks(pieces, shape):
    """A matrix of `shape` holding each (row offset, column offset, block).

    Blocks may be dense or sparse and must not overlap.  Up to
    `_DENSE_CELL_LIMIT` cells the result is a dense array; above it, a
    CSR matrix built from the blocks' concatenated COO triplets.
    """
    if shape[0] * shape[1] <= _DENSE_CELL_LIMIT:
        out = np.zeros(shape)
        for r, c, block in pieces:
            if sp.issparse(block):
                block = block.toarray()
            out[r:r + block.shape[0], c:c + block.shape[1]] = block
        return out
    rows, cols, vals = [], [], []
    for r, c, block in pieces:
        coo = sp.coo_matrix(block)
        rows.append(coo.row + r)
        cols.append(coo.col + c)
        vals.append(coo.data)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape)


def assemble_ed_lp(blocks: EdBlocks):
    """Build the dispatch LP from the block form.

    Returns (LpProblem, EdLpLayout).  Variables: entity dispatch
    segments then angles, all sign-free (bounds are explicit rows).  The
    balance rows are the equalities, every other row an inequality.
    """
    entities = blocks.gencos + blocks.lses
    layout = ed_layout(entities, blocks.n_iso, blocks.line_caps.size,
                       blocks.admittance.shape[0])
    vs, rs = layout.var_spans, layout.row_spans
    th, bal = vs["theta"][0], rs["balance"][0]
    flow = blocks.flow_rows
    pieces = [(rs["line_hi"][0], th, flow), (rs["line_lo"][0], th, -flow),
              (bal, th, -blocks.admittance)]
    for e in entities:
        pieces += [(rs[e.owner][0], vs[e.owner][0], e.A),
                   (bal, vs[e.owner][0],
                    e.incidence if e.kind == "GENCO" else -e.incidence)]
    A = place_blocks(pieces, (layout.n_rows, layout.n_vars))

    c = np.concatenate([-e.cost if e.kind == "GENCO" else e.cost
                        for e in entities] + [np.zeros(blocks.n_iso)])
    b_in = np.concatenate([e.rhs for e in entities]
                          + [blocks.line_caps, blocks.line_caps])
    problem = LpProblem(sense="max", c=c, A_eq=A[bal:],
                        b_eq=np.zeros(layout.n_rows - bal),
                        A_in=A[:bal], b_in=b_in,
                        sign_class=[FREE] * layout.n_vars)
    return problem, layout


# ---------------------------------------------------------------------------
# clearing and evaluation
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


def social_welfare(system: MarketSystem, gen_dispatch: dict, load_dispatch: dict) -> float:
    """Bid value of served load minus offered cost of dispatched generation."""
    total = 0.0
    for owner in system.gencos:
        blk = _entity_blocks(system, owner, system.units_of(owner), "GENCO")
        x = np.asarray(gen_dispatch[owner], dtype=float)
        if x.size != blk.n:
            raise DimensionMismatch(f"dispatch for {owner} has wrong length")
        total -= float(blk.cost @ x)
    for owner in system.lses:
        blk = _entity_blocks(system, owner, system.loads_of(owner), "LSE")
        x = np.asarray(load_dispatch[owner], dtype=float)
        if x.size != blk.n:
            raise DimensionMismatch(f"dispatch for {owner} has wrong length")
        total += float(blk.cost @ x)
    return total


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


def solve_clear(system: MarketSystem, config: SolverConfig = None) -> ClearedMarket:
    """Clear the market in the open: solve the dispatch LP on raw bids."""
    blocks = build_ed_blocks(system)
    problem, layout = assemble_ed_lp(blocks)
    sol = solve_lp(problem, config)
    require_optimal(sol.status, system)
    return extract_cleared(system, blocks, layout, sol.x, sol.duals_eq,
                           sol.objective)


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
