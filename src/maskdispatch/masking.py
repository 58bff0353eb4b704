"""Random-matrix masking of the dispatch LP and solution recovery.

Each bidding entity hides its data behind secret random matrices: a
column mask Y (applied on the right of its blocks), a row mask X
(applied on the left of its constraint block), and positive slack
coefficients R that turn its inequality rows into equalities.  The grid
operator does the same for line-limit rows and additionally masks the
nodal-balance rows with a square positive matrix applied on the left.
Solving the masked LP and mapping each solution slice back through the
owner's keys reproduces the clear-market dispatch, angles, and prices.

The module also provides the two generic single-sided transforms
(column-wise and row-wise masking of an arbitrary partitioned LP) and a
counting audit of what an adversary could infer from one entity's
published blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from maskdispatch.lp import LpProblem, DimensionMismatch, FREE, NONNEG
from maskdispatch.market import EdBlocks, ed_layout, place_blocks


class KeyGenerationFailed(RuntimeError):
    """Could not sample a well-conditioned mask within the retry budget."""


class SingularMask(ValueError):
    """A mask matrix is singular or too ill-conditioned to invert."""


class NonPositiveDiagonal(ValueError):
    """Slack coefficients must be strictly positive."""


class MissingSubmission(ValueError):
    """The submission set does not cover every expected party."""


class SpanMismatch(ValueError):
    """A solution slice does not match the owner's key dimensions."""


_POSITIVE_RANGE = (0.01, 1.0)   # entries of Y, Y_theta, X_l1/X_l2, X_b
_SIGNED_RANGE = (-1.0, 1.0)     # entries of entity X masks
_DIAG_RANGE = (0.5, 2.0)        # slack coefficient diagonals
# above this dimension the condition gate uses a LAPACK 1-norm estimate
# instead of an exact SVD
_EXACT_COND_DIM = 800


@dataclass
class MaskConfig:
    cond_max: float = 1e6
    max_retries: int = 50
    # sample the column masks and the operator's row masks as per-hour
    # block diagonals instead of one full positive matrix over all
    # hours.  Identical to the default at a one-hour horizon, and all
    # equivalence and recovery arithmetic is unchanged; without it the
    # masked LP densifies quadratically in hours*lines and multi-day
    # cases stop being solvable in reasonable time.  Transmission
    # accounting always charges full blocks either way.
    hourly_block_masks: bool = False


@dataclass
class EntityKeys:
    owner: str
    kind: str            # GENCO | LSE
    Y: np.ndarray        # (n, n) positive
    X: np.ndarray        # (m, m) sign-unrestricted
    R: np.ndarray        # (m,) positive slack coefficients


@dataclass
class IsoKeys:
    Y_theta: np.ndarray  # (n_iso, n_iso) positive
    X_l1: np.ndarray     # (T*L, T*L) positive
    X_l2: np.ndarray
    R_l1: np.ndarray     # (T*L,) positive
    R_l2: np.ndarray
    X_b: np.ndarray      # (T*B, T*B) positive


@dataclass
class MaskKeys:
    entities: dict       # owner -> EntityKeys
    iso: IsoKeys

    @classmethod
    def identity(cls, blocks: EdBlocks):
        """All masks identity, slack coefficients one: the no-op key set."""
        ents = {}
        for e in blocks.gencos + blocks.lses:
            ents[e.owner] = EntityKeys(owner=e.owner, kind=e.kind,
                                       Y=np.eye(e.n), X=np.eye(e.m),
                                       R=np.ones(e.m))
        TL = blocks.line_caps.size
        TB = blocks.admittance.shape[0]
        iso = IsoKeys(Y_theta=np.eye(blocks.n_iso),
                      X_l1=np.eye(TL), X_l2=np.eye(TL),
                      R_l1=np.ones(TL), R_l2=np.ones(TL),
                      X_b=np.eye(TB))
        return cls(entities=ents, iso=iso)


def _condition(M):
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n <= _EXACT_COND_DIM:
        return float(np.linalg.cond(M))
    lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    if np.min(np.abs(np.diag(lu))) == 0.0:
        return np.inf
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (M,))[0]
    anorm = np.linalg.norm(M, 1)
    rcond, _ = gecon(lu, anorm)
    return np.inf if rcond == 0 else 1.0 / float(rcond)


def _sample_mask(rng, n, lo, hi, config, what):
    if n == 0:
        return np.zeros((0, 0))
    for _ in range(config.max_retries):
        M = rng.uniform(lo, hi, size=(n, n))
        if _condition(M) <= config.cond_max:
            return M
    raise KeyGenerationFailed(
        f"no acceptable {what} mask of size {n} in {config.max_retries} draws")


def _sample_hourly_mask(rng, n, T, lo, hi, config, what, sparse_out=False):
    """Per-hour block-diagonal mask; hour-major variable layout assumed."""
    if n % T:
        raise DimensionMismatch(f"{what}: {n} columns do not split into {T} hours")
    k = n // T
    parts = [_sample_mask(rng, k, lo, hi, config, what) for _ in range(T)]
    if sparse_out:
        return sp.block_diag(parts, format="csr")
    out = np.zeros((n, n))
    for t, blk in enumerate(parts):
        out[t * k:(t + 1) * k, t * k:(t + 1) * k] = blk
    return out


def entity_keys(rng, owner, kind, n, m, config: MaskConfig = None,
                horizon: int = 1) -> EntityKeys:
    """Draw one entity's private keys from its own random stream."""
    if config is None:
        config = MaskConfig()
    plo, phi = _POSITIVE_RANGE
    if config.hourly_block_masks and horizon > 1:
        Y = _sample_hourly_mask(rng, n, horizon, plo, phi, config,
                                f"{owner} column")
    else:
        Y = _sample_mask(rng, n, plo, phi, config, f"{owner} column")
    X = _sample_mask(rng, m, *_SIGNED_RANGE, config, f"{owner} row")
    R = rng.uniform(*_DIAG_RANGE, size=m)
    return EntityKeys(owner=owner, kind=kind, Y=Y, X=X, R=R)


def iso_keys(rng, n_iso, TL, TB, config: MaskConfig = None,
             horizon: int = 1) -> IsoKeys:
    """Draw the grid operator's private keys from its own random stream."""
    if config is None:
        config = MaskConfig()
    plo, phi = _POSITIVE_RANGE
    if config.hourly_block_masks and horizon > 1:
        def draw(size, what):
            return _sample_hourly_mask(rng, size, horizon, plo, phi, config,
                                       what, sparse_out=True)
    else:
        def draw(size, what):
            return _sample_mask(rng, size, plo, phi, config, what)
    return IsoKeys(
        Y_theta=draw(n_iso, "angle column"),
        X_l1=draw(TL, "line row 1"),
        X_l2=draw(TL, "line row 2"),
        R_l1=rng.uniform(*_DIAG_RANGE, size=TL),
        R_l2=rng.uniform(*_DIAG_RANGE, size=TL),
        X_b=draw(TB, "balance row"),
    )


def spawn_party_seeds(seed: int, n_entities: int):
    """Per-party seed children for one market round, entities first, ISO last."""
    return np.random.SeedSequence(seed).spawn(n_entities + 1)


def gen_keys(blocks: EdBlocks, seed: int, config: MaskConfig = None) -> MaskKeys:
    """Draw the full key set for a system, deterministically per seed.

    Every party's keys come from an independent child of the seed, so a
    party regenerates exactly its own keys without seeing anyone else's.
    """
    if config is None:
        config = MaskConfig()
    entities = blocks.gencos + blocks.lses
    T = blocks.T
    children = spawn_party_seeds(seed, len(entities))
    ent_keys = {}
    for child, e in zip(children[:-1], entities):
        ent_keys[e.owner] = entity_keys(np.random.default_rng(child),
                                        e.owner, e.kind, e.n, e.m, config,
                                        horizon=T)
    TL = blocks.line_caps.size
    TB = blocks.admittance.shape[0]
    iso = iso_keys(np.random.default_rng(children[-1]),
                   blocks.n_iso, TL, TB, config, horizon=T)
    return MaskKeys(entities=ent_keys, iso=iso)


# ---------------------------------------------------------------------------
# generic single-sided transforms
# ---------------------------------------------------------------------------

def _check_invertible(M, name):
    if M.shape[0] != M.shape[1]:
        raise SingularMask(f"{name} mask must be square, got {M.shape}")
    if M.shape[0] == 0:
        return
    if np.linalg.matrix_rank(M) < M.shape[0]:
        raise SingularMask(f"{name} mask is singular")


def vertical_mask_generic(problem: LpProblem, column_blocks, Ys):
    """Mask a column-partitioned LP with per-owner square matrices.

    `column_blocks` is a list of (owner, column-index-list) covering
    every column exactly once; `Ys` maps owner to its mask.  Columns
    must be sign-free (bounds belong in the constraint set).  Returns
    (masked LpProblem, recover) where recover maps a masked primal
    vector back to the original variables.
    """
    n = problem.n_vars
    covered = []
    for owner, idx in column_blocks:
        covered.extend(idx)
    if sorted(covered) != list(range(n)):
        raise ValueError("column blocks must cover every column exactly once")
    for owner, idx in column_blocks:
        if problem.sign_class and any(problem.sign_class[j] != FREE for j in idx):
            raise ValueError(
                f"columns of {owner} must be sign-free before column masking")
        Y = np.asarray(Ys[owner], dtype=float)
        if Y.shape != (len(idx), len(idx)):
            raise DimensionMismatch(
                f"{owner} mask is {Y.shape}, block has {len(idx)} columns")
        _check_invertible(Y, owner)

    A_eq = np.array(problem.A_eq.toarray() if sp.issparse(problem.A_eq)
                    else problem.A_eq, dtype=float, copy=True)
    A_in = np.array(problem.A_in.toarray() if sp.issparse(problem.A_in)
                    else problem.A_in, dtype=float, copy=True)
    c = problem.c.copy()
    for owner, idx in column_blocks:
        Y = np.asarray(Ys[owner], dtype=float)
        c[idx] = c[idx] @ Y
        if A_eq.shape[0]:
            A_eq[:, idx] = A_eq[:, idx] @ Y
        if A_in.shape[0]:
            A_in[:, idx] = A_in[:, idx] @ Y

    masked = LpProblem(sense=problem.sense, c=c, A_eq=A_eq, b_eq=problem.b_eq.copy(),
                       A_in=A_in, b_in=problem.b_in.copy(),
                       sign_class=list(problem.sign_class))

    def recover(x_masked):
        x_masked = np.asarray(x_masked, dtype=float)
        if x_masked.size != n:
            raise SpanMismatch(f"expected {n} values, got {x_masked.size}")
        x = np.zeros(n)
        for owner, idx in column_blocks:
            x[idx] = np.asarray(Ys[owner], dtype=float) @ x_masked[idx]
        return x

    return masked, recover


def horizontal_mask_generic(problem: LpProblem, row_blocks, Xs, Rs):
    """Mask a row-partitioned LP into all-equality form.

    `row_blocks` is a list of (owner, inequality-row-index-list)
    covering every inequality row exactly once.  Each owner's rows gain
    slack variables with positive coefficients Rs[owner] and the whole
    block (slack included) is multiplied on the left by Xs[owner].
    Original equality rows pass through untouched, after the masked
    blocks.  Returns (masked LpProblem, spans) where spans locates each
    owner's slack columns and rows.
    """
    m_in = problem.A_in.shape[0]
    covered = []
    for owner, idx in row_blocks:
        covered.extend(idx)
    if sorted(covered) != list(range(m_in)):
        raise ValueError("row blocks must cover every inequality row exactly once")

    A_in = np.asarray(problem.A_in.toarray() if sp.issparse(problem.A_in)
                      else problem.A_in, dtype=float)
    A_eq = np.asarray(problem.A_eq.toarray() if sp.issparse(problem.A_eq)
                      else problem.A_eq, dtype=float)
    n = problem.n_vars
    n_slack = m_in

    slack_off = {}
    off = n
    for owner, idx in row_blocks:
        slack_off[owner] = (off, off + len(idx))
        off += len(idx)

    rows = []
    rhs = []
    row_spans = {}
    r0 = 0
    for owner, idx in row_blocks:
        k = len(idx)
        X = np.asarray(Xs[owner], dtype=float)
        if X.shape != (k, k):
            raise DimensionMismatch(f"{owner} row mask is {X.shape}, block has {k} rows")
        _check_invertible(X, owner)
        r = np.asarray(Rs[owner], dtype=float).reshape(-1)
        if r.size != k:
            raise DimensionMismatch(f"{owner} slack coefficients have wrong length")
        if np.any(r <= 0):
            raise NonPositiveDiagonal(f"{owner} slack coefficients must be positive")
        block = np.zeros((k, n + n_slack))
        block[:, :n] = X @ A_in[idx, :]
        lo, hi = slack_off[owner]
        block[:, lo:hi] = X * r[None, :]
        rows.append(block)
        rhs.append(X @ problem.b_in[idx])
        row_spans[owner] = (r0, r0 + k)
        r0 += k
    if A_eq.shape[0]:
        block = np.zeros((A_eq.shape[0], n + n_slack))
        block[:, :n] = A_eq
        rows.append(block)
        rhs.append(problem.b_eq)
        row_spans["equalities"] = (r0, r0 + A_eq.shape[0])

    c = np.concatenate([problem.c, np.zeros(n_slack)])
    sign = list(problem.sign_class) + [NONNEG] * n_slack
    masked = LpProblem(sense=problem.sense, c=c,
                       A_eq=np.vstack(rows), b_eq=np.concatenate(rhs),
                       A_in=None, b_in=None, sign_class=sign)
    return masked, {"slack_cols": slack_off, "rows": row_spans}


# ---------------------------------------------------------------------------
# the masked dispatch problem
# ---------------------------------------------------------------------------

@dataclass
class EncryptedSubmission:
    """One party's published blocks.  Nothing here is raw bid or grid data.

    Entity submissions carry the masked cost row, the masked constraint
    block, the masked slack block, the masked bounds vector, and the
    masked bus incidence.  The grid operator's submission carries the
    masked line-limit rows, their slack blocks and bounds, the masked
    balance-row blocks (its own and one per entity, further masked with
    the balance-row key), and the masked admittance block.
    """

    owner: str
    kind: str                         # GENCO | LSE | ISO
    masked_cost: np.ndarray = None        # c_i Y_i           (n,)
    masked_constraints: np.ndarray = None  # X_i E_i Y_i      (m, n)
    masked_slack: np.ndarray = None       # X_i R_i           (m, m)
    masked_rhs: np.ndarray = None         # X_i M_i           (m,)
    masked_incidence: np.ndarray = None   # KP_i Y_i          (T*B, n)
    # ISO fields
    line_flow_hi: np.ndarray = None       # X_l1 G KL Y_theta (T*L, n_iso)
    line_flow_lo: np.ndarray = None       # -X_l2 G KL Y_theta
    line_slack_hi: np.ndarray = None      # X_l1 R_l1         (T*L, T*L)
    line_slack_lo: np.ndarray = None      # X_l2 R_l2
    line_rhs_hi: np.ndarray = None        # X_l1 PL           (T*L,)
    line_rhs_lo: np.ndarray = None        # X_l2 PL
    balance_gen: dict = None              # owner -> X_b KP_i Y_i (T*B, n_i)
    balance_load: dict = None             # owner -> X_b KD_j Y_j
    balance_theta: np.ndarray = None      # X_b B Y_theta     (T*B, n_iso)

    @property
    def n(self):
        return self.masked_cost.size

    @property
    def m(self):
        return self.masked_rhs.size

    def payload_arrays(self):
        """Name -> array for every transmitted block."""
        out = {}
        names = ["masked_cost", "masked_constraints", "masked_slack",
                 "masked_rhs", "masked_incidence", "line_flow_hi",
                 "line_flow_lo", "line_slack_hi", "line_slack_lo",
                 "line_rhs_hi", "line_rhs_lo", "balance_theta"]
        for nm in names:
            v = getattr(self, nm)
            if v is not None:
                out[nm] = v
        for d, tag in ((self.balance_gen, "balance_gen"),
                       (self.balance_load, "balance_load")):
            if d:
                for owner, v in d.items():
                    out[f"{tag}:{owner}"] = v
        return out


def block_size(v):
    """Scalar count of a transmitted block: the full shape, not the nnz."""
    if sp.issparse(v):
        return int(v.shape[0] * v.shape[1])
    return int(np.asarray(v).size)


def mask_entity(entity_blocks, keys: EntityKeys) -> EncryptedSubmission:
    """Build a GENCO/LSE submission from its blocks and private keys."""
    Y, X, R = keys.Y, keys.X, keys.R
    if Y.shape != (entity_blocks.n, entity_blocks.n) or \
       X.shape != (entity_blocks.m, entity_blocks.m):
        raise DimensionMismatch(f"keys for {entity_blocks.owner} have wrong shape")
    if np.any(R <= 0):
        raise NonPositiveDiagonal(f"{entity_blocks.owner} slack coefficients")
    return EncryptedSubmission(
        owner=entity_blocks.owner, kind=entity_blocks.kind,
        masked_cost=entity_blocks.cost @ Y,
        masked_constraints=X @ entity_blocks.A @ Y,
        masked_slack=X * R[None, :],
        masked_rhs=X @ entity_blocks.rhs,
        masked_incidence=np.asarray(entity_blocks.incidence @ Y),
    )


def _colscale(X, r):
    if sp.issparse(X):
        return (X @ sp.diags(r)).tocsr()
    return X * r[None, :]


def mask_iso(blocks, keys: IsoKeys, entity_incidences: dict,
             entity_kinds: dict) -> EncryptedSubmission:
    """Build the grid operator's submission from network-only blocks.

    `blocks` needs only the network fields (GridBlocks or EdBlocks).
    `entity_incidences` maps each entity to its published masked
    incidence block (already column-masked by the entity itself); the
    operator applies its balance-row mask on top.
    """
    if np.any(keys.R_l1 <= 0) or np.any(keys.R_l2 <= 0):
        raise NonPositiveDiagonal("line slack coefficients")
    sparse_keys = sp.issparse(keys.X_b)
    flow = blocks.flow_rows @ keys.Y_theta
    bal_theta = keys.X_b @ (blocks.admittance @ keys.Y_theta)
    if not sparse_keys:
        flow = np.asarray(flow)
        bal_theta = np.asarray(bal_theta)
    gen = {}
    load = {}
    for owner, inc in entity_incidences.items():
        tgt = gen if entity_kinds[owner] == "GENCO" else load
        masked = keys.X_b @ inc
        tgt[owner] = sp.csr_matrix(masked) if sparse_keys else masked
    return EncryptedSubmission(
        owner="ISO", kind="ISO",
        line_flow_hi=keys.X_l1 @ flow,
        line_flow_lo=-(keys.X_l2 @ flow),
        line_slack_hi=_colscale(keys.X_l1, keys.R_l1),
        line_slack_lo=_colscale(keys.X_l2, keys.R_l2),
        line_rhs_hi=keys.X_l1 @ blocks.line_caps,
        line_rhs_lo=keys.X_l2 @ blocks.line_caps,
        balance_gen=gen, balance_load=load, balance_theta=bal_theta,
    )


def verify_masked(submission: EncryptedSubmission, entity_blocks) -> bool:
    """True when no published block equals its unmasked source."""
    pairs = [
        (submission.masked_cost, entity_blocks.cost),
        (submission.masked_constraints, entity_blocks.A),
        (submission.masked_rhs, entity_blocks.rhs),
        (submission.masked_slack, np.eye(entity_blocks.m)),
    ]
    for masked, raw in pairs:
        if masked.shape == raw.shape and np.array_equal(masked, raw):
            return False
    return True


@dataclass
class TransformedLp:
    """The masked all-equality LP plus the spans needed to route results."""

    problem: LpProblem
    var_spans: dict
    row_spans: dict
    n_structural: int
    n_slack: int


def build_transformed_ed(submissions) -> TransformedLp:
    """Assemble the masked dispatch LP from submissions alone.

    The assembler sees only EncryptedSubmission fields.  `ed_layout`
    places the blocks from their public dimensions alone, in the clear
    LP's order plus slack columns: entity dispatch columns, angle
    columns, then entity slacks and the two line-slack groups.
    """
    isos = [s for s in submissions if s.kind == "ISO"]
    gencos = [s for s in submissions if s.kind == "GENCO"]
    lses = [s for s in submissions if s.kind == "LSE"]
    if len(isos) != 1:
        raise MissingSubmission(f"expected exactly one ISO submission, got {len(isos)}")
    if not gencos or not lses:
        raise MissingSubmission("need at least one GENCO and one LSE submission")
    iso = isos[0]
    if set(iso.balance_gen) != {s.owner for s in gencos}:
        raise MissingSubmission("ISO balance blocks do not match GENCO submissions")
    if set(iso.balance_load) != {s.owner for s in lses}:
        raise MissingSubmission("ISO balance blocks do not match LSE submissions")

    entities = gencos + lses
    n_iso = iso.balance_theta.shape[1]
    TL = iso.line_rhs_hi.size
    TB = iso.balance_theta.shape[0]
    for s in entities:
        if s.masked_constraints.shape != (s.m, s.n) or \
           s.masked_slack.shape != (s.m, s.m) or \
           s.masked_incidence.shape != (TB, s.n):
            raise DimensionMismatch(f"submission of {s.owner} is inconsistent")

    layout = ed_layout(entities, n_iso, TL, TB, slacks=True)
    vs, rs = layout.var_spans, layout.row_spans
    th, bal = vs["theta"][0], rs["balance"][0]
    hi, lo = rs["line_hi"][0], rs["line_lo"][0]
    pieces = [(hi, th, iso.line_flow_hi),
              (hi, vs["slack:line_hi"][0], iso.line_slack_hi),
              (lo, th, iso.line_flow_lo),
              (lo, vs["slack:line_lo"][0], iso.line_slack_lo),
              (bal, th, -iso.balance_theta)]
    for s in entities:
        pieces += [(rs[s.owner][0], vs[s.owner][0], s.masked_constraints),
                   (rs[s.owner][0], vs[f"slack:{s.owner}"][0], s.masked_slack),
                   (bal, vs[s.owner][0], iso.balance_gen[s.owner]
                    if s.kind == "GENCO" else -iso.balance_load[s.owner])]
    A = place_blocks(pieces, (layout.n_rows, layout.n_vars))

    n_structural = vs["theta"][1]
    n_slack = layout.n_vars - n_structural
    c = np.concatenate([-s.masked_cost if s.kind == "GENCO" else s.masked_cost
                        for s in entities] + [np.zeros(layout.n_vars - th)])
    b = np.concatenate([s.masked_rhs for s in entities]
                       + [iso.line_rhs_hi, iso.line_rhs_lo, np.zeros(TB)])
    sign = [FREE] * n_structural + [NONNEG] * n_slack
    problem = LpProblem(sense="max", c=c, A_eq=A, b_eq=b, A_in=None,
                        b_in=None, sign_class=sign)
    return TransformedLp(problem=problem, var_spans=vs, row_spans=rs,
                         n_structural=n_structural, n_slack=n_slack)


def recover_primal(keys: MaskKeys, solution, tlp: TransformedLp) -> dict:
    """Map each owner's masked solution slice back to its real values.

    Returns owner -> dispatch for entities plus "theta" for the grid
    operator.  Each entry uses only that owner's key and slice.
    """
    x = np.asarray(solution.x, dtype=float)
    out = {}
    for owner, ek in keys.entities.items():
        if owner not in tlp.var_spans:
            raise SpanMismatch(f"no column span for {owner}")
        lo, hi = tlp.var_spans[owner]
        if hi - lo != ek.Y.shape[0]:
            raise SpanMismatch(
                f"{owner} slice has {hi - lo} entries, key is {ek.Y.shape[0]}")
        out[owner] = ek.Y @ x[lo:hi]
    lo, hi = tlp.var_spans["theta"]
    if hi - lo != keys.iso.Y_theta.shape[0]:
        raise SpanMismatch("angle slice does not match the angle key")
    out["theta"] = np.asarray(keys.iso.Y_theta @ x[lo:hi]).reshape(-1)
    return out


def recover_lmp(X_b, lambda_tilde) -> np.ndarray:
    """Unmask prices from the balance-row duals of the masked problem."""
    if not sp.issparse(X_b):
        X_b = np.atleast_2d(np.asarray(X_b, dtype=float))
    lam = np.asarray(lambda_tilde, dtype=float).reshape(-1)
    if X_b.ndim != 2 or X_b.shape[0] != X_b.shape[1]:
        raise DimensionMismatch(f"balance mask must be square, got {X_b.shape}")
    if lam.size != X_b.shape[0]:
        raise DimensionMismatch(
            f"dual slice has {lam.size} entries, mask is {X_b.shape[0]}")
    return -np.asarray(X_b.T @ lam).reshape(-1)


# ---------------------------------------------------------------------------
# inference audit
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    owner: str
    kind: str
    linear_equations: int
    linear_unknowns: int
    bilinear_equations: int
    bilinear_unknowns: int

    @property
    def verdict(self):
        return ("UNDERDETERMINED" if self.linear_unknowns > self.linear_equations
                else "AT-RISK")


def leakage_audit(submission: EncryptedSubmission,
                  published_recovery=None) -> AuditReport:
    """Count what an adversary can set up against one party's keys.

    Linear equations in the column-mask entries come from the published
    masked incidence (only its structurally nonzero rows say anything)
    and, when the recovered dispatch is published, from the recovery
    product itself.  Bilinear equations come from the masked constraint
    and slack blocks (every entry couples row-mask, slack, and
    column-mask unknowns) plus the full incidence and recovery blocks.
    The audit only counts; it does not attempt to solve the bilinear
    system.
    """
    if submission.kind == "ISO":
        TL, n_iso = submission.line_flow_hi.shape
        TB = submission.balance_theta.shape[0]
        published = 0 if published_recovery is None else n_iso + TB
        return AuditReport(
            owner=submission.owner, kind="ISO",
            linear_equations=published,
            linear_unknowns=n_iso * n_iso + TB * TB,
            bilinear_equations=2 * TL * n_iso + 2 * TL * TL + 2 * TL
                               + TB * n_iso + published,
            bilinear_unknowns=n_iso * n_iso + 2 * TL * TL + 2 * TL + TB * TB,
        )

    n, m = submission.n, submission.m
    inc = np.asarray(submission.masked_incidence)
    nnz_rows = int(np.sum(np.any(inc != 0.0, axis=1)))
    full_rows = inc.shape[0]
    published = n if published_recovery is not None else 0
    return AuditReport(
        owner=submission.owner, kind=submission.kind,
        linear_equations=nnz_rows * n + published,
        linear_unknowns=n * n,
        bilinear_equations=m * n + m * m + full_rows * n + published,
        bilinear_unknowns=m * m + m + n * n,
    )
