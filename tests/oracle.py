"""Independent references for the solver and the LP assembly.

The brute-force LP oracle enumerates basic feasible points directly.
It is only usable on small problems (the candidate count is
combinatorial) and deliberately independent of the simplex code path, so
it can certify solver results and optimum uniqueness.

`assemble_ed_lp_scalar` builds the dispatch LP constraint by constraint
from the bid data, independently of the block assembler it cross-checks.

`plain_iso_products` forms the grid operator's masked blocks as whole
products of its keys' full block diagonals, the reference for
`masking.mask_iso`.

`masked_line_limits` forms the operator's line-limit blocks in the
message form it used to publish, two row-masked limit groups with their
slack blocks, the reference that its row-scaled line rows are what that
form gave away.

`masked_entity_rows` forms an entity's row blocks in the message form it
used to publish, row-masked with a slack block, the reference that its
row-scaled rows are what that form gave away.

`cancelled_slack_form` cancels each owner's slack block by a dense solve
on the assembled slack form, the reference for the rows the clearing
agent places and for `masking.eliminate_angles`.

`lil_incidences` builds the entity and line incidences entry by entry in
a `lil_matrix`, the reference for `market.build_ed_blocks`.

`reference_simplex_run` is a second pivot loop for `lp._Simplex`, the
reference for `lp._Simplex.run`: it keeps its basis as a list, gathers
the basis matrix from it and runs the ratio test over every row on each
pivot.
"""

from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from maskdispatch import lp
from maskdispatch.lp import LpProblem
from maskdispatch.market import SLACK_PREFIX, MarketSystem


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def enumerate_vertices(problem: LpProblem, tol=1e-8):
    """All basic feasible points: every nonsingular active set of size n."""
    n = problem.n_vars
    A_eq = _dense(problem.A_eq)
    b_eq = np.asarray(problem.b_eq, dtype=float)
    rows = [_dense(problem.A_in)] if problem.A_in.shape[0] else []
    rhs = [np.asarray(problem.b_in, dtype=float)] if problem.A_in.shape[0] else []
    for j in range(n):
        for sgn, bound in ((-1.0, problem.lb[j]), (1.0, problem.ub[j])):
            if np.isfinite(bound):
                e = np.zeros((1, n))
                e[0, j] = sgn
                rows.append(e)
                rhs.append(np.array([sgn * bound]))
    G = np.vstack(rows) if rows else np.zeros((0, n))
    h = np.concatenate(rhs) if rhs else np.zeros(0)

    need = n - A_eq.shape[0]
    if need < 0:
        need = 0
    vertices = []
    for subset in combinations(range(G.shape[0]), need):
        M = np.vstack([A_eq, G[list(subset), :]])
        v = np.concatenate([b_eq, h[list(subset)]])
        if M.shape[0] != n or np.linalg.matrix_rank(M) < n:
            continue
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        feas_eq = np.max(np.abs(A_eq @ x - b_eq), initial=0.0)
        feas_in = np.max(G @ x - h, initial=0.0) if G.shape[0] else 0.0
        if feas_eq <= tol and feas_in <= tol:
            vertices.append(x)
    return vertices


def best_vertex_objective(problem: LpProblem, tol=1e-8):
    """Optimal objective over all vertices, or None when none exist."""
    vertices = enumerate_vertices(problem, tol)
    if not vertices:
        return None
    values = [problem.objective_at(x) for x in vertices]
    return min(values) if problem.sense == "min" else max(values)


def certify_unique_optimum(problem: LpProblem, tol=1e-6):
    """True when exactly one distinct vertex attains the optimum."""
    vertices = enumerate_vertices(problem)
    if not vertices:
        return False
    values = np.array([problem.objective_at(x) for x in vertices])
    best = values.min() if problem.sense == "min" else values.max()
    winners = [x for x, v in zip(vertices, values) if abs(v - best) <= tol]
    distinct = []
    for x in winners:
        if not any(np.max(np.abs(x - y)) <= 1e-7 for y in distinct):
            distinct.append(x)
    return len(distinct) == 1


def assemble_ed_lp_scalar(system: MarketSystem):
    """Constraint-by-constraint assembly straight from the bid data.

    Independent of the block path; used to cross-check it.  Variable
    order matches `assemble_ed_lp`, row order may differ.
    """
    T, B, L = system.horizon, system.n_buses, system.n_lines
    bus_idx = {b: i for i, b in enumerate(system.buses)}
    ref = bus_idx[system.reference_bus]
    ang_cols = {i: j for j, i in enumerate(i for i in range(B) if i != ref)}

    cols = []      # (owner_kind, price) in column order
    col_of = {}
    for owner in system.gencos:
        for t in range(T):
            for u_i, u in enumerate(system.units_of(owner)):
                for k in range(len(u.segments)):
                    col_of[("G", owner, t, u.name, k)] = len(cols)
                    cols.append(("G", u.segments[k].price))
    for owner in system.lses:
        for t in range(T):
            for d_i, d in enumerate(system.loads_of(owner)):
                for k in range(len(d.segments)):
                    col_of[("D", owner, t, d.name, k)] = len(cols)
                    cols.append(("D", d.segments[k].price))
    theta0 = len(cols)
    n = theta0 + T * (B - 1)

    def theta_col(t, b_i):
        return theta0 + t * (B - 1) + ang_cols[b_i]

    c = np.zeros(n)
    for j, (kind, price) in enumerate(cols):
        c[j] = price if kind == "D" else -price

    A_in_rows, b_in = [], []

    def add_row(coeffs, rhs):
        r = np.zeros(n)
        for j, v in coeffs:
            r[j] += v
        A_in_rows.append(r)
        b_in.append(rhs)

    for owner in system.gencos:
        for u in system.units_of(owner):
            for t in range(T):
                for k, seg in enumerate(u.segments):
                    j = col_of[("G", owner, t, u.name, k)]
                    add_row([(j, 1.0)], seg.hi)
                    add_row([(j, -1.0)], -seg.lo)
            for t in range(1, T):
                ks = range(len(u.segments))
                if u.ramp_up is not None:
                    add_row([(col_of[("G", owner, t, u.name, k)], 1.0) for k in ks]
                            + [(col_of[("G", owner, t - 1, u.name, k)], -1.0) for k in ks],
                            u.ramp_up)
                if u.ramp_dn is not None:
                    add_row([(col_of[("G", owner, t, u.name, k)], -1.0) for k in ks]
                            + [(col_of[("G", owner, t - 1, u.name, k)], 1.0) for k in ks],
                            u.ramp_dn)
    for owner in system.lses:
        for d in system.loads_of(owner):
            for t in range(T):
                for k, seg in enumerate(d.segments):
                    j = col_of[("D", owner, t, d.name, k)]
                    add_row([(j, 1.0)], seg.hi)
                    add_row([(j, -1.0)], -seg.lo)
    for t in range(T):
        for ln in system.lines:
            a, b = bus_idx[ln.from_bus], bus_idx[ln.to_bus]
            coeffs = []
            if a != ref:
                coeffs.append((theta_col(t, a), 1.0 / ln.x))
            if b != ref:
                coeffs.append((theta_col(t, b), -1.0 / ln.x))
            add_row(coeffs, ln.capacity)
            add_row([(j, -v) for j, v in coeffs], ln.capacity)

    # nodal balance: generation minus load minus net flow out of the bus
    A_eq_rows = [np.zeros(n) for _ in range(T * B)]
    for owner in system.gencos:
        for u in system.units_of(owner):
            for t in range(T):
                row = A_eq_rows[t * B + bus_idx[u.bus]]
                for k in range(len(u.segments)):
                    row[col_of[("G", owner, t, u.name, k)]] += 1.0
    for owner in system.lses:
        for d in system.loads_of(owner):
            for t in range(T):
                row = A_eq_rows[t * B + bus_idx[d.bus]]
                for k in range(len(d.segments)):
                    row[col_of[("D", owner, t, d.name, k)]] -= 1.0
    for t in range(T):
        for ln in system.lines:
            a, b = bus_idx[ln.from_bus], bus_idx[ln.to_bus]
            w = 1.0 / ln.x
            ra, rb = A_eq_rows[t * B + a], A_eq_rows[t * B + b]
            if a != ref:
                ra[theta_col(t, a)] -= w
                rb[theta_col(t, a)] += w
            if b != ref:
                ra[theta_col(t, b)] += w
                rb[theta_col(t, b)] -= w

    return LpProblem(sense="max", c=c,
                     A_eq=np.array(A_eq_rows), b_eq=np.zeros(T * B),
                     A_in=np.array(A_in_rows), b_in=np.array(b_in))


def plain_iso_products(blocks, keys, entity_incidences):
    """Name -> the operator's masked block, each a whole dense product
    ``K @ M`` of a key's full block diagonal, expanded from its stack of
    hour blocks; ``"balance"`` over the incidences side by side."""
    Y, Xb = (scipy.linalg.block_diag(*K) for K in (keys.Y_theta, keys.X_b))
    return {"line_flow": (blocks.flow_rows @ Y) / keys.R_l[:, None],
            "balance_theta": Xb @ (blocks.admittance @ Y),
            "balance": Xb @ np.hstack(list(entity_incidences.values()))}


def masked_line_limits(blocks, keys, X_l1, X_l2, R_l2):
    """Name -> the operator's line-limit blocks in its earlier message
    form, dense, for its keys `keys` and the full row masks `X_l1`, `X_l2`
    of its upper and lower limits, with ``keys.R_l`` and `R_l2` their
    slack coefficients: ``±X·G·KL·Y_θ``, ``X·diag(R)`` and ``X·PL`` per
    limit."""
    flow = blocks.flow_rows @ scipy.linalg.block_diag(*keys.Y_theta)
    return {"line_flow_hi": X_l1 @ flow, "line_flow_lo": -(X_l2 @ flow),
            "line_slack_hi": X_l1 * keys.R_l[None, :],
            "line_slack_lo": X_l2 * R_l2[None, :],
            "line_rhs_hi": X_l1 @ blocks.line_caps,
            "line_rhs_lo": X_l2 @ blocks.line_caps}


def masked_entity_rows(entity, keys, X):
    """Name -> the entity's row blocks in its earlier message form, dense,
    for its keys `keys` and the row mask `X`: ``X·E·Y``, the slack block
    ``X·diag(R)`` with its row scales ``keys.R`` as slack coefficients, and
    ``X·M``."""
    return {"masked_constraints": X @ entity.A @ keys.Y,
            "masked_slack": X * keys.R[None, :],
            "masked_rhs": X @ entity.rhs}


def cancelled_slack_form(tlp):
    """The masked LP `tlp` with every owner's slack block cancelled, in the
    clear LP's layout: owner by owner, ``np.linalg.solve(S, ·)`` of the
    owner's rows of the dense slack form ``tlp.problem``, with ``S`` its
    slack columns (the identity, as no party sends a slack block).  The
    cancelled rows are the inequalities, the balance rows, unchanged, the
    equalities, and every variable is free."""
    A, b = _dense(tlp.problem.A_eq), tlp.problem.b_eq
    n, bal = tlp.n_structural, tlp.row_spans["balance"][0]
    A_in, b_in = A[:bal, :n].copy(), np.zeros(bal)
    for owner, (r0, r1) in tlp.row_spans.items():
        if owner != "balance" and r1 > r0:
            S = A[r0:r1, slice(*tlp.var_spans[SLACK_PREFIX + owner])]
            A_in[r0:r1] = np.linalg.solve(S, A[r0:r1, :n])
            b_in[r0:r1] = np.linalg.solve(S, b[r0:r1])
    return LpProblem(sense="max", c=tlp.problem.c[:n], A_eq=A[bal:, :n],
                     b_eq=b[bal:], A_in=A_in, b_in=b_in)


def lil_incidences(system: MarketSystem):
    """(owner -> entity incidence, line incidence KL), each set entry by
    entry in a ``lil_matrix`` and converted to CSR."""
    T, B, L = system.horizon, system.n_buses, system.n_lines
    bus = {b: i for i, b in enumerate(system.buses)}
    ref = bus[system.reference_bus]
    angle = {i: j for j, i in enumerate(i for i in range(B) if i != ref)}
    out = {}
    for owner in system.gencos + system.lses:
        assets = (system.units_of(owner) if owner in system.gencos
                  else system.loads_of(owner))
        n = T * sum(len(a.segments) for a in assets)
        inc, j = sp.lil_matrix((T * B, n)), 0
        for t in range(T):
            for a in assets:
                for _ in a.segments:
                    inc[t * B + bus[a.bus], j] = 1.0
                    j += 1
        out[owner] = inc.tocsr()
    KL = sp.lil_matrix((T * L, T * (B - 1)))
    for t in range(T):
        for l_i, ln in enumerate(system.lines):
            if bus[ln.from_bus] != ref:
                KL[t * L + l_i, t * (B - 1) + angle[bus[ln.from_bus]]] = 1.0
            if bus[ln.to_bus] != ref:
                KL[t * L + l_i, t * (B - 1) + angle[bus[ln.to_bus]]] = -1.0
    return out, KL.tocsr()


def reference_simplex_run(self, basis, allowed, bar_reentry_from=None):
    """`lp._Simplex.run`'s pivots the plain way, for an engine `self`.

    Same contract, pivot rule, tolerances and Bland's tie-break.  Each
    pivot gathers ``A[:, basis]`` from the basis list and fills a ratio
    for every row, infinite where the direction is not positive.  The
    module's names are read from `lp` when called, so a test that
    patches ``lp._lu_factor`` or ``lp._DEGEN_THRESHOLD`` patches both
    loops.
    """
    A, b, c = self.A, self.b, self.c
    m, n_total = A.shape
    basis = list(basis)
    in_basis = np.zeros(n_total, dtype=bool)
    in_basis[basis] = True
    degen_run = 0

    while True:
        if self.iterations >= lp._MAX_ITER:
            raise lp.NumericalBreakdown(
                f"iteration limit {lp._MAX_ITER} exceeded")
        self.iterations += 1

        lu_piv = lp._lu_factor(A[:, basis])
        xB = lp._lu_solve(lu_piv, b)
        y = lp._lu_solve(lu_piv, c[basis], trans=1)

        rc = c - y @ A
        rc[in_basis] = 0.0
        cand = ((rc < -lp._DUAL_TOL) & allowed).nonzero()[0]
        if cand.size == 0:
            x = np.zeros(n_total)
            x[basis] = xB
            return lp.OPTIMAL, x, y, basis

        bland = degen_run >= lp._DEGEN_THRESHOLD
        if bland:
            enter = int(cand[0])
        else:
            enter = int(cand[rc[cand].argmin()])

        d = lp._lu_solve(lu_piv, A[:, enter])
        pos = d > lp._PIVOT_TOL
        if not pos.any():
            return lp.UNBOUNDED, None, y, basis

        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
        theta = ratios.min()
        ties = (ratios - theta <= 1e-9 * (1.0 + abs(theta))).nonzero()[0]
        if bland:
            leave_pos = min(ties, key=lambda r: basis[r])
        else:
            leave_pos = ties[d[ties].argmax()]

        degen_run = degen_run + 1 if theta <= 1e-11 else 0

        leaving = basis[leave_pos]
        in_basis[leaving] = False
        in_basis[enter] = True
        basis[leave_pos] = enter
        if bar_reentry_from is not None and leaving >= bar_reentry_from:
            allowed[leaving] = False
