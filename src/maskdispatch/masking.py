"""Random-matrix masking of the dispatch LP and solution recovery.

Each bidding entity hides its data behind secret random matrices: a
column mask Y (applied on the right of its blocks), a row mask X
(applied on the left of its constraint block), and positive slack
coefficients R that turn its inequality rows into equalities.  The grid
operator does the same for line-limit rows and additionally masks the
nodal-balance rows with a square positive matrix applied on the left.
Solving the masked LP and mapping each solution slice back through the
owner's keys reproduces the clear-market dispatch, angles, and prices.
The operator keeps each of its masks as the stack of its diagonal hour
blocks (one block for a mask over all hours) and applies it one hour
block at a time; under hourly masks it publishes block-diagonal CSR.
The clearing agent keeps the published blocks as
they arrive and builds only the LP its solver takes: the all-equality
slack form for the bundled simplex or, for HiGHS, the LP with every
owner's slack block cancelled, the free angle columns substituted out and
each line-hour stated once (``eliminate_angles``, the shift-factor form
in flow form: the entity columns plus one masked-flow column per
line-hour, one balance equality per hour and one flow equality per
line-hour).  One kernel cancels the slack blocks (``_cancel_slacks``):
owners' dense blocks of one shape in one stacked solve, and the two
sparse line-slack blocks of hourly keys one diagonal block of their
common split (an hour) at a time.  The agent works on each hour's
blocks as dense arrays and builds CSR only for the matrices it hands
on.  After cancellation a line-hour's upper and lower limit rows are one
row up to a positive factor; the agent checks that they are antiparallel
and raises NumericalBreakdown if not.  The factor and the
flows were already computable from the published blocks, and nothing
new is sent.  Every inequality row left with a single entry (the flow
limits, and the bound rows of entities with a diagonal column mask) is
handed to HiGHS as a column bound.  The solution is mapped back to the
masked angles, the row duals of the moved rows, the line-limit duals and
the balance duals before recovery, so the solution slices and the
messages are those of the clear LP's layout.

The module also provides the two generic single-sided transforms
(column-wise and row-wise masking of an arbitrary partitioned LP) and a
counting audit of what an adversary could infer from one entity's
published blocks.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from maskdispatch.lp import (
    LpProblem, DimensionMismatch, NumericalBreakdown,
)
from maskdispatch.market import (
    ISO, SLACK_PREFIX, coo_csr, ed_layout, place_blocks, triplets,
)


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
# a matrix serves as a mask, drawn as a key or supplied to the generic
# transforms, when its Frobenius bound ‖M‖_F·‖M⁻¹‖_F (_frobenius_bound) is
# at most _COND_MAX.  The bound is at least the 2-norm condition number, so
# it keeps the recovery's error amplification under _COND_MAX, and up to
# 6.4x it on the signed entity row masks, so the rule is that much
# stricter there.  A drawn key is redrawn until it passes, at most
# _MAX_RETRIES draws per mask.
_COND_MAX = 1e6
_MAX_RETRIES = 50


@dataclass
class MaskConfig:
    # the one mask setting; the condition gate (_COND_MAX, _MAX_RETRIES)
    # is fixed.  hourly_block_masks draws the column masks and the
    # operator's row masks in one positive block per hour instead of one
    # full positive matrix over all hours.  Identical to the default at a
    # one-hour horizon, and all equivalence and recovery arithmetic is
    # unchanged; without it the masked LP densifies quadratically in
    # hours*lines and multi-day cases stop being solvable in reasonable
    # time.  Transmission accounting always charges full blocks either way.
    hourly_block_masks: bool = False

    def hours(self, horizon):
        """How many diagonal hour blocks a column or operator row mask is
        drawn in over `horizon` hours."""
        return horizon if self.hourly_block_masks else 1


@dataclass
class EntityKeys:
    owner: str
    kind: str            # GENCO | LSE
    Y: np.ndarray        # (n, n) positive
    X: np.ndarray        # (m, m) sign-unrestricted
    R: np.ndarray        # (m,) positive slack coefficients


@dataclass
class IsoKeys:
    """The grid operator's keys.  Each mask is kept as the ``(H, k, k)``
    stack of its diagonal blocks, ``H = MaskConfig.hours(horizon)``: a mask
    over all hours is the stack of one block."""
    Y_theta: np.ndarray  # (H, n_iso/H, n_iso/H) positive
    X_l1: np.ndarray     # (H, T*L/H, T*L/H) positive
    X_l2: np.ndarray
    R_l1: np.ndarray     # (T*L,) positive
    R_l2: np.ndarray
    X_b: np.ndarray      # (H, T*B/H, T*B/H) positive


def _frobenius_bound(M):
    """``‖M‖_F·‖M⁻¹‖_F`` from an LU factorisation and inverse (LAPACK
    ``getrf``/``getri``), or inf when M is singular or the bound is not
    finite (a NaN entry included).  It is the one test of whether M may
    serve as a mask: at most _COND_MAX.

    It bounds the 2-norm condition number κ₂ from above and is at most
    n·κ₂ (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 6), so it is stricter than κ₂ by its ratio to κ₂: over 300
    positive draws each at n = 117 and 140 that ratio was 1.2 at the median
    and 2.2 at worst, and on the signed entity row masks of the pooled
    30-bus 4-hour case (n = 120 and 150) it reached 5.5-6.4.  Its cost,
    against an SVD and a condition estimate, is in the README (Numerics)."""
    if M.shape[0] == 1:   # |m|·|1/m| without LAPACK: hourly 1-column keys
        return 1.0 if M[0, 0] != 0.0 and np.isfinite(M[0, 0]) else np.inf
    lu, piv, info = scipy.linalg.lapack.dgetrf(M)
    if info > 0:
        return np.inf
    inv, info = scipy.linalg.lapack.dgetri(lu, piv)
    bound = float(np.linalg.norm(M) * np.linalg.norm(inv))
    return bound if info == 0 and np.isfinite(bound) else np.inf


def _sample_mask(rng, n, lo, hi, what):
    """A uniform draw on [lo, hi) of size n x n, redrawn until its
    `_frobenius_bound` is at most _COND_MAX, at most _MAX_RETRIES draws."""
    if n == 0:
        return np.zeros((0, 0))
    for _ in range(_MAX_RETRIES):
        M = rng.uniform(lo, hi, size=(n, n))
        if _frobenius_bound(M) <= _COND_MAX:
            return M
    raise KeyGenerationFailed(
        f"no acceptable {what} mask of size {n} in {_MAX_RETRIES} draws")


def _sample_hourly_mask(rng, n, T, lo, hi, what):
    """The ``(T, n/T, n/T)`` stack of the T diagonal hour blocks of an
    n x n mask, hour-major variable layout assumed: T `_sample_mask` draws
    in hour order, each block the same values from the same use of `rng`."""
    if n % T:
        raise DimensionMismatch(f"{what}: {n} columns do not split into {T} hours")
    return _stack([_sample_mask(rng, n // T, lo, hi, what) for _ in range(T)])


def _stack(parts):
    """``np.stack(parts)``, without its copy and call cost for one part."""
    return parts[0][None] if len(parts) == 1 else np.stack(parts)


def _block_diagonal(stack):
    """The dense block-diagonal matrix of the ``(T, k, k)`` stack, its blocks
    filled in directly (a third of the cost of ``sp.block_diag``)."""
    T, k, _ = stack.shape
    out, t = np.zeros((T * k, T * k)), np.arange(T)
    out.reshape(T, k, T, k)[t, :, t, :] = stack
    return out


def entity_keys(rng, owner, kind, n, m, config: MaskConfig = None,
                horizon: int = 1) -> EntityKeys:
    """Draw one entity's private keys from its own random stream."""
    if config is None:
        config = MaskConfig()
    Y = _block_diagonal(_sample_hourly_mask(
        rng, n, config.hours(horizon), *_POSITIVE_RANGE, f"{owner} column"))
    X = _sample_mask(rng, m, *_SIGNED_RANGE, f"{owner} row")
    R = rng.uniform(*_DIAG_RANGE, size=m)
    return EntityKeys(owner=owner, kind=kind, Y=Y, X=X, R=R)


def iso_keys(rng, n_iso, TL, TB, config: MaskConfig = None,
             horizon: int = 1) -> IsoKeys:
    """Draw the grid operator's private keys from its own random stream."""
    if config is None:
        config = MaskConfig()
    hours = config.hours(horizon)

    def draw(size, what):
        return _sample_hourly_mask(rng, size, hours, *_POSITIVE_RANGE, what)
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


# ---------------------------------------------------------------------------
# generic single-sided transforms
# ---------------------------------------------------------------------------

def _check_invertible(M, name):
    if M.shape[0] != M.shape[1]:
        raise SingularMask(f"{name} mask must be square, got {M.shape}")
    if M.shape[0] and _frobenius_bound(M) > _COND_MAX:
        raise SingularMask(f"{name} mask is singular or too ill-conditioned "
                           f"(Frobenius bound above {_COND_MAX:g})")


def vertical_mask_generic(problem: LpProblem, column_blocks, Ys):
    """Mask a column-partitioned LP with per-owner square matrices.

    `column_blocks` is a list of (owner, column-index-list) covering
    every column exactly once; `Ys` maps owner to its mask.  Columns
    must be free (bounds belong in the constraint set).  Returns
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
        if np.isfinite(problem.lb[idx]).any() or np.isfinite(problem.ub[idx]).any():
            raise ValueError(
                f"columns of {owner} must be free before column masking")
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
                       A_in=A_in, b_in=problem.b_in.copy())

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
    masked = LpProblem(sense=problem.sense, c=c,
                       A_eq=np.vstack(rows), b_eq=np.concatenate(rhs),
                       A_in=None, b_in=None,
                       lb=np.concatenate([problem.lb, np.zeros(n_slack)]),
                       ub=np.concatenate([problem.ub, np.full(n_slack, np.inf)]))
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
    the balance-row key, keyed by owner), and the masked admittance block.
    Below, a key stack stands for its block diagonal; the operator's
    blocks are dense, or block-diagonal CSR under hourly keys.
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
    balance: dict = None                  # owner -> X_b KP_i Y_i (T*B, n_i)
                                          # or X_b KD_j Y_j
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
        for owner, v in (self.balance or {}).items():
            out[f"balance:{owner}"] = v
        return out


def mask_entity(entity_blocks, keys: EntityKeys) -> EncryptedSubmission:
    """Build a GENCO/LSE submission from its blocks and private keys.  KP·Y
    adds each row of Y to 0.0 in its column's balance row (`bus_rows`) in
    column order, the sums of a CSR product with KP bit for bit."""
    Y, X, R = keys.Y, keys.X, keys.R
    if Y.shape != (entity_blocks.n, entity_blocks.n) or \
       X.shape != (entity_blocks.m, entity_blocks.m):
        raise DimensionMismatch(f"keys for {entity_blocks.owner} have wrong shape")
    if np.any(R <= 0):
        raise NonPositiveDiagonal(f"{entity_blocks.owner} slack coefficients")
    incidence = np.zeros((entity_blocks.n_balance, entity_blocks.n))
    np.add.at(incidence, entity_blocks.bus_rows, Y)
    return EncryptedSubmission(
        owner=entity_blocks.owner, kind=entity_blocks.kind,
        masked_cost=entity_blocks.cost @ Y,
        masked_constraints=X @ entity_blocks.A @ Y,
        masked_slack=X * R[None, :],
        masked_rhs=X @ entity_blocks.rhs,
        masked_incidence=incidence,
    )


def _block_diagonal_csr(stack, structure):
    """The block-diagonal matrix of the ``(H, r, c)`` stack as canonical
    CSR, every entry of each block stored.  Its read-only ``(indices,
    indptr)``, in the dtype scipy picks, are ``structure[stack.shape]``,
    added when missing, so the matrices of one shape share them."""
    H, r, c = stack.shape
    if stack.shape not in structure:
        dtype = np.int32 if stack.size < 2**31 else np.int64
        cols = np.arange(H * c, dtype=dtype).reshape(H, 1, c)
        arrays = (np.broadcast_to(cols, stack.shape).ravel(),
                  np.arange(H * r + 1, dtype=dtype) * dtype(c))
        arrays[0].flags.writeable = arrays[1].flags.writeable = False
        structure[stack.shape] = arrays
    return sp.csr_matrix((stack.ravel(), *structure[stack.shape]),
                         shape=(H * r, H * c))


def mask_iso(blocks, keys: IsoKeys,
             entity_incidences: dict) -> EncryptedSubmission:
    """Build the grid operator's submission from network-only blocks.

    `blocks` needs only the network fields (GridBlocks or EdBlocks).
    `entity_incidences` maps each entity to its published masked
    incidence block (already column-masked by the entity itself); the
    operator applies its balance-row mask on top and publishes each
    result under the same owner in `balance`.

    The network blocks, and each incidence under hourly keys, are block
    diagonal over the hour blocks of the key stacks (`IsoKeys`), so every
    product is formed block by block: the network's (CSR) times Y_theta's,
    batched matmuls with the row keys', each incidence owner by owner.
    With one block these are the whole products, published dense; with
    more, each is published as block-diagonal CSR, the blocks of one shape
    sharing one set of index arrays (`_block_diagonal_csr`).
    """
    if np.any(keys.R_l1 <= 0) or np.any(keys.R_l2 <= 0):
        raise NonPositiveDiagonal("line slack coefficients")
    H = len(keys.X_b)

    def angles(M):
        """CSR `M` times Y_theta, hour block by hour block."""
        r, c = M.shape[0] // H, M.shape[1] // H
        return _stack([(M if H == 1 else M[h * r:(h + 1) * r, h * c:(h + 1) * c]) @ Y
                       for h, Y in enumerate(keys.Y_theta)])

    def hours(inc):
        """The diagonal hour blocks of the dense incidence `inc`."""
        t, n = np.arange(H), inc.shape[1] // H
        return inc[None] if H == 1 else inc.reshape(H, -1, H, n)[t, :, t, :]

    publish = (functools.partial(_block_diagonal_csr, structure={}) if H > 1
               else (lambda stack: stack[0]))
    flow, caps = angles(blocks.flow_rows), blocks.line_caps.reshape(H, -1, 1)
    return EncryptedSubmission(
        owner=ISO, kind="ISO",
        line_flow_hi=publish(keys.X_l1 @ flow),
        line_flow_lo=publish(-(keys.X_l2 @ flow)),
        line_slack_hi=publish(keys.X_l1 * keys.R_l1.reshape(H, 1, -1)),
        line_slack_lo=publish(keys.X_l2 * keys.R_l2.reshape(H, 1, -1)),
        line_rhs_hi=(keys.X_l1 @ caps).reshape(-1),
        line_rhs_lo=(keys.X_l2 @ caps).reshape(-1),
        balance={owner: publish(keys.X_b @ hours(inc))
                 for owner, inc in entity_incidences.items()},
        balance_theta=publish(keys.X_b @ angles(blocks.admittance)),
    )


def verify_masked(submission: EncryptedSubmission, entity_blocks) -> bool:
    """True when no published block equals its unmasked source.

    A raw block with no nonzero entry is skipped: every mask maps it to
    zero, so equality with it says nothing about the mask.
    """
    pairs = [
        (submission.masked_cost, entity_blocks.cost),
        (submission.masked_constraints, entity_blocks.A),
        (submission.masked_rhs, entity_blocks.rhs),
        (submission.masked_slack, np.eye(entity_blocks.m)),
    ]
    for masked, raw in pairs:
        if masked.shape == raw.shape and np.array_equal(masked, raw) \
                and np.any(raw):
            return False
    return True


@dataclass
class TransformedLp:
    """The masked dispatch LP, kept as the blocks the parties published.

    `groups` holds each owner's row group ``(owner, col, C, S, b)``, read
    ``C z + S s = b`` with ``s >= 0`` and ``C`` at structural column
    ``col``: the entities, then the operator's upper and lower line limits.
    `balance` holds the ``(col, block, sign)`` pieces of the balance rows
    (zero right-hand side): each block as published, entering the rows
    times ``sign`` (-1 for the angle block and the loads' blocks), `c` the
    structural costs.  Only the form a solver asks for is assembled:
    `problem` (the slack form) or `eliminate_angles`.
    """

    groups: list
    balance: list
    c: np.ndarray
    var_spans: dict
    row_spans: dict
    n_structural: int
    n_slack: int
    n_rows: int
    n_vars: int

    @functools.cached_property
    def problem(self) -> LpProblem:
        """The masked LP in all-equality slack form, assembled on first access."""
        vs, bal = self.var_spans, self.row_spans["balance"][0]
        pieces = [(bal, col, block if sign > 0 else -block)
                  for col, block, sign in self.balance]
        for owner, col, C, S, _ in self.groups:
            r0 = self.row_spans[owner][0]
            pieces += [(r0, col, C), (r0, vs[SLACK_PREFIX + owner][0], S)]
        return LpProblem(
            sense="max", c=np.concatenate([self.c, np.zeros(self.n_slack)]),
            A_eq=place_blocks(pieces, (self.n_rows, self.n_vars)),
            b_eq=np.concatenate([b for *_, b in self.groups]
                                + [np.zeros(self.n_rows - bal)]),
            A_in=None, b_in=None,
            lb=np.concatenate([np.full(self.n_structural, -np.inf),
                               np.zeros(self.n_slack)]))


def build_transformed_ed(submissions) -> TransformedLp:
    """Collect the masked dispatch LP from submissions alone.

    The agent sees only EncryptedSubmission fields.  `ed_layout` places
    the blocks from their public dimensions alone, in the clear LP's
    order plus slack columns: entity dispatch columns, angle columns,
    then entity slacks and the two line-slack groups.  No matrix is
    assembled here.
    """
    isos = [s for s in submissions if s.kind == "ISO"]
    gencos = [s for s in submissions if s.kind == "GENCO"]
    lses = [s for s in submissions if s.kind == "LSE"]
    if len(isos) != 1:
        raise MissingSubmission(f"expected exactly one ISO submission, got {len(isos)}")
    if not gencos or not lses:
        raise MissingSubmission("need at least one GENCO and one LSE submission")
    iso = isos[0]
    entities = gencos + lses
    if set(iso.balance) != {s.owner for s in entities}:
        raise MissingSubmission("ISO balance blocks do not match entity submissions")
    n_iso = iso.balance_theta.shape[1]
    TL = iso.line_rhs_hi.size
    TB = iso.balance_theta.shape[0]
    for s in entities:
        if s.masked_constraints.shape != (s.m, s.n) or \
           s.masked_slack.shape != (s.m, s.m) or \
           s.masked_incidence.shape != (TB, s.n):
            raise DimensionMismatch(f"submission of {s.owner} is inconsistent")

    layout = ed_layout(entities, n_iso, TL, TB, slacks=True)
    vs = layout.var_spans
    th, n_structural = vs["theta"]
    groups = [(s.owner, vs[s.owner][0], s.masked_constraints, s.masked_slack,
               s.masked_rhs) for s in entities]
    groups += [("line_hi", th, iso.line_flow_hi, iso.line_slack_hi, iso.line_rhs_hi),
               ("line_lo", th, iso.line_flow_lo, iso.line_slack_lo, iso.line_rhs_lo)]
    balance = [(th, iso.balance_theta, -1.0)]
    balance += [(vs[s.owner][0], iso.balance[s.owner],
                 1.0 if s.kind == "GENCO" else -1.0) for s in entities]
    c = np.concatenate([-s.masked_cost if s.kind == "GENCO" else s.masked_cost
                        for s in entities] + [np.zeros(n_iso)])
    return TransformedLp(groups=groups, balance=balance, c=c, var_spans=vs,
                         row_spans=layout.row_spans, n_structural=n_structural,
                         n_slack=layout.n_vars - n_structural,
                         n_rows=layout.n_rows, n_vars=layout.n_vars)


def _diagonal_blocks(*Ms):
    """``[(r0, r1, c0, c1)]``, the finest common split of the same-shape
    matrices `Ms` into contiguous diagonal blocks of rows ``r0:r1`` by
    columns ``c0:c1``: a cut before row i at column j needs, in each of
    `Ms`, the rows above i to touch only columns below j and the rest only
    columns from j on.  A sparse matrix touches its stored entries, a dense
    one its nonzeros.  An empty row is a block of no columns.
    """
    n_rows, n_cols = Ms[0].shape
    lo, hi = np.full(n_rows, n_cols), np.full(n_rows, -1)
    for M in Ms:
        if sp.issparse(M):
            M = M.tocsr()
            ptr, idx = M.indptr, M.indices
        else:
            row, idx = np.nonzero(M)
            ptr = np.searchsorted(row, np.arange(n_rows + 1))
        filled = np.flatnonzero(np.diff(ptr))
        lo[filled] = np.minimum(lo[filled], np.minimum.reduceat(idx, ptr[filled]))
        hi[filled] = np.maximum(hi[filled], np.maximum.reduceat(idx, ptr[filled]))
    end = np.maximum.accumulate(hi)[:-1] + 1  # rows <= i: columns < end[i]
    start = np.minimum.accumulate(lo[::-1])[::-1][1:]  # rows > i: >= start[i]
    cut = np.flatnonzero(end <= start)
    r = np.concatenate([[0], cut + 1, [n_rows]])
    c = np.concatenate([[0], end[cut], [n_cols]])
    return list(zip(r[:-1], r[1:], c[:-1], c[1:]))


def _dense_rows(M, r0, r1, cols=None):
    """``(cols, D)``: rows ``r0:r1`` of dense or sparse `M` as a dense ``D``
    over the columns `cols`, by default those the rows touch, ascending (all
    of a dense M's).  A CSR matrix is read from its arrays, not sliced."""
    if not sp.issparse(M):
        if cols is None:
            return np.arange(M.shape[1]), M[r0:r1]
        return cols, M[r0:r1, cols]
    M = M.tocsr()
    if not M.has_canonical_format:  # repeated entries are summed
        M = M.copy()
        M.sum_duplicates()
    p = M.indptr[r0:r1 + 1]
    idx = M.indices[p[0]:p[-1]]
    if cols is None:
        cols = np.unique(idx)
    where = np.empty(M.shape[1], dtype=np.intp)
    where[cols] = np.arange(cols.size)
    D = np.zeros((r1 - r0, cols.size))
    D[np.repeat(np.arange(r1 - r0), np.diff(p)), where[idx]] = M.data[p[0]:p[-1]]
    return cols, D


def _cancel_slacks(groups):
    """Every row group ``(C, S, b)`` of `groups` with its slack block S
    cancelled: per group a list of ``(r0, r1, cols, S⁻¹C, S⁻¹b)``, one per
    diagonal block of S, with ``S⁻¹C`` dense over the block's rows ``r0:r1``
    and the columns ``cols`` of C that they touch (all of a dense C's).

    Groups are solved in batches of one shape of S and C.  A batch of dense
    S (the entities; the line limits under dense keys) is solved whole, in
    one stacked ``np.linalg.solve``, which gives each group's own solve bit
    for bit.  A batch holding a sparse S (the two line-limit groups under
    hourly keys) is split on one common split of its S's patterns
    (`_diagonal_blocks`), and each block is solved for the whole batch in
    one stacked solve, against the columns that its rows touch in any of
    the batch's C.  This is the cancellation kernel of `eliminate_angles`.
    """
    batches = {}
    for i, (C, S, _) in enumerate(groups):
        batches.setdefault((S.shape, C.shape), []).append(i)
    out = [[] for _ in groups]
    for ((m, _), (_, width)), idx in batches.items():
        Cs, Ss, bs = zip(*(groups[i] for i in idx))
        if not any(map(sp.issparse, Ss)):
            rhs = np.empty((len(idx), m, width + 1))
            rhs[:, :, :-1], rhs[:, :, -1] = Cs, bs
            sol = np.linalg.solve(np.stack(Ss), rhs)
            for i, x in zip(idx, sol):
                out[i].append((0, m, np.arange(width), x[:, :-1], x[:, -1]))
            continue
        Cs = [C.tocsr() if sp.issparse(C) else sp.csr_matrix(C) for C in Cs]
        for r0, r1, c0, c1 in _diagonal_blocks(*Ss):
            cols = np.unique(np.concatenate(
                [C.indices[C.indptr[r0]:C.indptr[r1]] for C in Cs]))
            sol = np.linalg.solve(
                np.stack([_dense_rows(S, r0, r1, np.arange(c0, c1))[1]
                          for S in Ss]),
                np.stack([np.column_stack([_dense_rows(C, r0, r1, cols)[1],
                                           b[r0:r1]])
                          for C, b in zip(Cs, bs)]))
            for i, x in zip(idx, sol):
                out[i].append((r0, r1, cols, x[:, :-1], x[:, -1]))
    return out


def _cancelled_groups(tlp: TransformedLp):
    """``[(owner, row offset, column, blocks)]`` for every nonempty row
    group of `tlp`, with its `_cancel_slacks` blocks, and ``S⁻¹b`` over all
    of them, in the inequality rows of the clear LP's layout (see
    `eliminate_angles`)."""
    groups = [(owner, tlp.row_spans[owner][0], col, (C, S, b))
              for owner, col, C, S, b in tlp.groups if b.size]
    b_in = np.zeros(tlp.row_spans["balance"][0])
    out = []
    for (owner, r0, col, _), blocks in zip(
            groups, _cancel_slacks([g for *_, g in groups])):
        for q0, q1, *_, x in blocks:
            b_in[r0 + q0:r0 + q1] = x
        out.append((owner, r0, col, blocks))
    return out, b_in


def _block_triplets(placed):
    """COO triplets of dense blocks ``(r0, col, (q0, q1, cols, D, ...))``,
    each ``D`` at rows ``r0 + q0:r0 + q1`` by columns ``col + cols``: one
    broadcast for all the blocks of one shape."""
    by_shape = {}
    for r0, col, (q0, _, cols, D, *_) in placed:
        by_shape.setdefault(D.shape, []).append((r0 + q0, col + cols, D))
    out = []
    for (m, w), items in by_shape.items():
        r0s, cols, Ds = zip(*items)
        out.append((np.repeat(np.add.outer(r0s, np.arange(m)), w),
                    np.tile(np.stack(cols), m).ravel(), np.stack(Ds).ravel()))
    return out


def _merge_line_rows(hi, lo):
    """``(blocks, k)`` for the cancelled upper- and lower-limit rows of the
    line-hours, ``hi = R_l1⁻¹·F`` and ``lo = -R_l2⁻¹·F``, given as
    `_cancel_slacks` blocks on one common split: per row the ratio
    ``k = r1/r2`` fitted by least squares, ``lo ≈ -k·hi``, and the
    symmetric merge ``a = (hi - lo/k)/2``, as ``[(r0, r1, cols, a)]``.
    Raises NumericalBreakdown unless every pair is antiparallel (``k > 0``)
    to a relative residual ``|lo + k·hi| / |lo|`` of at most 1e-6."""
    def dots(A, B):
        """Row-wise inner products over the nonzero terms only, summed
        pairwise in column order (``np.add.reduceat``, as scipy sums a CSR
        row), so the zero columns a block carries for the other group do
        not change the rounding."""
        terms = A * B
        keep = terms != 0
        count = keep.sum(axis=1)
        filled = count > 0
        out = np.zeros(terms.shape[0])
        out[filled] = np.add.reduceat(terms[keep], (np.cumsum(count) - count)[filled])
        return out

    blocks, ks, fits = [], [np.zeros(0)], [np.zeros((2, 0))]
    with np.errstate(divide="ignore", invalid="ignore"):
        for (r0, r1, cols, h, _), (*_, l, _) in zip(hi, lo):
            k = -dots(h, l) / dots(h, h)
            res = l + k[:, None] * h
            # |lo + k·hi| <= 1e-6·|lo|, squared
            fits.append(np.array([dots(res, res), 1e-12 * dots(l, l)]))
            blocks.append((r0, r1, cols, (h - l * (1.0 / k)[:, None]) * 0.5))
            ks.append(k)
    k, (rr, ll) = np.concatenate(ks), np.concatenate(fits, axis=1)
    bad = np.flatnonzero(~((k > 0) & (rr <= ll)))
    if bad.size:
        raise NumericalBreakdown(
            f"{bad.size} of {k.size} line-hour limit pairs are not "
            f"antiparallel (first: row {bad[0]})")
    return blocks, k


def _rows_as_bounds(problem):
    """`problem`, whose columns are free, with single-entry inequality rows
    stated as column bounds, and ``(rows, cols, coef)`` of the rows moved.
    Row ``a·x_j <= b`` of CSR ``A_in`` becomes ``ub_j = b/a`` when
    ``a > 0`` and ``lb_j = b/a`` when ``a < 0``.  Only the first such row
    per column and direction moves; a later one stays a row, as do all
    rows with other counts.  A lower bound above its column's new upper
    bound stays a row too: a fixed quantity (``lo == hi``) gives two rows
    from separate cancellations, whose bounds can cross by rounding, and
    an infeasible one is left for the solver to report."""
    A, b = problem.A_in, problem.b_in
    rows = np.flatnonzero(np.diff(A.indptr) == 1)
    cols, coef = A.indices[A.indptr[rows]], A.data[A.indptr[rows]]
    # np.unique's indices are those of each key's first occurrence
    _, first = np.unique(2 * cols + (coef < 0), return_index=True)
    rows, cols, coef = rows[first], cols[first], coef[first]
    bound, up = b[rows] / coef, coef > 0
    lb, ub = problem.lb.copy(), problem.ub.copy()
    ub[cols[up]] = bound[up]
    move = up | (bound <= ub[cols])
    rows, cols, coef, bound = rows[move], cols[move], coef[move], bound[move]
    lb[cols[coef < 0]] = bound[coef < 0]
    kept = np.ones(b.size, dtype=bool)
    kept[rows] = False
    return dataclasses.replace(problem, A_in=A[kept], b_in=b[kept],
                               lb=lb, ub=ub), (rows, cols, coef)


def _row_duals(sol, moved):
    """The inequality duals of the problem before `_rows_as_bounds` from
    `sol` of the problem after it: a moved row's dual is its bound's dual
    divided by the row's coefficient."""
    rows, cols, coef = moved
    kept = np.ones(sol.duals_in.size + rows.size, dtype=bool)
    kept[rows] = False
    duals = np.empty(kept.size)
    duals[kept] = sol.duals_in
    duals[rows] = np.where(coef > 0, sol.duals_ub[cols], sol.duals_lb[cols]) / coef
    return duals


# a lifted flow beyond its bound by at most this, relative to 1 + |bound|,
# counts as within it: a hundredth of HiGHS's primal feasibility tolerance
_SCREEN_TOL = 1e-9


@dataclass
class AngleElimination:
    """The masked LP in flow form over the entity columns, and the way back.

    `problem` is what `eliminate_angles` hands the solver: the entity
    columns ``z``, then one masked-flow column ``f`` per line-hour, with
    its single-entry rows stated as column bounds.  `restore` maps its
    optimal solution to the clear LP's layout (``ed_layout(slacks=False)``,
    the structural columns and rows of ``tlp.problem``): the masked angles
    ``θ' = P·z`` after the entity columns (``f`` is dropped), every
    inequality row's dual in its row (the moved rows' from
    their bounds' duals), the lower-limit duals divided by `k` and the
    masked balance duals in place of the reduced LP's equality duals.
    `components` holds ``(rows, cols, zcols, Q, R, P)`` per diagonal block
    of the balance block (`_diagonal_blocks`); `L` is the merged line
    block ``a`` over the angle columns, `k` the lower-to-upper row ratios,
    `lower` the rows of the lower limits and `moved` the ``(rows, cols,
    coef)`` of the rows stated as bounds (`_rows_as_bounds`), both in the
    inequality rows of that layout.

    `screened`, `lift` and `flows_in_rows` state `problem` with only some of
    its line-hours monitored, for a solve that adds line limits lazily.
    An unmonitored line-hour loses its flow row and flow column, and with
    them its limits: the balance equalities, every inequality row and the
    other column bounds stay, so the screened LP is a relaxation of
    `problem`.  Its optimum lifted back (``f = F_z·z`` from the flow rows'
    entity part ``F_z = a·P``, zero duals on the dropped rows and bounds)
    is optimal for `problem` whenever every lifted flow lies within its
    bounds: the point is feasible, and the zero duals leave the dual
    solution feasible with the same objective.
    """

    problem: LpProblem
    components: list
    L: sp.csr_matrix
    k: np.ndarray
    lower: slice
    n_balance: int
    moved: tuple

    def _screen_index(self, monitored):
        """(rows of ``problem.A_eq``, columns of `problem`) that
        ``screened(monitored)`` keeps, in order."""
        TL = self.k.size
        nz, n_eq = self.problem.n_vars - TL, self.problem.A_eq.shape[0] - TL
        return (np.concatenate([np.arange(n_eq), n_eq + monitored]),
                np.concatenate([np.arange(nz), nz + monitored]))

    def flows_in_rows(self):
        """The line-hours whose flow column an inequality row touches,
        sorted: a flow limit that `_rows_as_bounds` left a row because its
        bounds crossed.  They are monitored from the first solve on, so
        every inequality row of `problem` is a row of each screened LP."""
        nz = self.problem.n_vars - self.k.size
        cols = self.problem.A_in.indices
        return np.unique(cols[cols >= nz]) - nz

    def screened(self, monitored) -> LpProblem:
        """`problem` with the flow rows and flow columns of the line-hours
        in sorted `monitored` only (a superset of `flows_in_rows`): the entity
        columns, then those flow columns in order; the balance equalities,
        then those flow rows; every inequality row."""
        p = self.problem
        rows, cols = self._screen_index(monitored)
        return LpProblem(sense=p.sense, c=p.c[cols], A_eq=p.A_eq[rows][:, cols],
                         b_eq=p.b_eq[rows], A_in=p.A_in[:, cols], b_in=p.b_in,
                         lb=p.lb[cols], ub=p.ub[cols])

    def lift(self, sol, monitored):
        """``(lifted, violated)`` for the optimal `sol` of
        ``screened(monitored)``: `lifted` is `sol` in the layout of
        `problem`, with each unmonitored flow ``f = F_z·z`` and a zero dual
        on each unmonitored flow row and bound, and `violated` the
        unmonitored line-hours whose flow lies outside its bounds by more
        than ``_SCREEN_TOL`` relative to ``1 + |bound|``, sorted."""
        p = self.problem
        nz, n_eq = p.n_vars - self.k.size, p.A_eq.shape[0] - self.k.size
        rows, cols = self._screen_index(monitored)
        x = np.zeros(p.n_vars)
        x[:nz] = sol.x[:nz]
        # with every flow column at 0 the flow rows give F_z·z
        x[nz:] = (p.A_eq @ x)[n_eq:]
        f, lb, ub = x[nz:].copy(), p.lb[nz:], p.ub[nz:]
        x[cols] = sol.x
        out = (f - ub > _SCREEN_TOL * (1.0 + np.abs(ub))) \
            | (lb - f > _SCREEN_TOL * (1.0 + np.abs(lb)))
        out[monitored] = False
        duals_eq, duals_lb, duals_ub = (np.zeros(p.A_eq.shape[0]),
                                        np.zeros(p.n_vars), np.zeros(p.n_vars))
        duals_eq[rows], duals_lb[cols], duals_ub[cols] = (
            sol.duals_eq, sol.duals_lb, sol.duals_ub)
        return dataclasses.replace(sol, x=x, duals_eq=duals_eq, duals_lb=duals_lb,
                                   duals_ub=duals_ub), np.flatnonzero(out)

    def restore(self, sol):
        """`sol` with ``x``, ``duals_in`` and ``duals_eq`` in the clear
        LP's layout; a non-optimal `sol` is returned as it is."""
        if sol.x is None:
            return sol
        TL = self.k.size
        z = sol.x[:sol.x.size - TL]
        duals_in = _row_duals(sol, self.moved)
        duals_in[self.lower] /= self.k
        n_eq = sol.duals_eq.size - TL
        theta = np.zeros(self.L.shape[1])
        lam = np.zeros(self.n_balance)
        # dual feasibility of the eliminated columns, Bθᵀλ + Lθᵀμ = 0, with
        # Lθᵀμ = aᵀη from the flow equalities' duals η
        g = self.L.T @ sol.duals_eq[n_eq:]
        e = 0
        for rows, cols, zcols, Q, R, P in self.components:
            theta[cols] = P @ z[zcols]
            nu = sol.duals_eq[e:e + rows.size - cols.size]
            e += nu.size
            lam[rows] = Q @ np.concatenate(
                [-scipy.linalg.solve_triangular(R, g[cols], trans="T"), nu])
        x = np.concatenate([z, theta])
        return dataclasses.replace(sol, x=x, duals_in=duals_in, duals_eq=lam,
                                   duals_lb=np.zeros(x.size),
                                   duals_ub=np.zeros(x.size))


def eliminate_angles(tlp: TransformedLp) -> AngleElimination:
    """The masked LP with every slack block cancelled, the free angle
    columns substituted out and each line-hour stated once through a
    masked-flow column: the shift-factor (PTDF) form of the dispatch,
    computed on masked data.

    Each owner's row group reads ``C z + S s = b`` with ``s >= 0``, where
    ``C = X·E·Y``, ``S = X·diag(R)`` and ``b = X·M`` are what the owner
    published for its constraint matrix ``E`` and bounds ``M``.
    Multiplying it on the left by ``S⁻¹`` (`_cancel_slacks`) gives
    ``R⁻¹E·Y z + s = R⁻¹M``, that is ``R⁻¹E·Y z <= R⁻¹M``, and the slack
    columns drop out: an LP in the clear LP's layout whose entity and
    angle slices and balance duals equal, in exact arithmetic, those of
    ``tlp.problem``, so recovery is unchanged.  This is the row-mask
    cancellation of ROADMAP item 4(a).

    The masked balance rows read ``Bz·z + Bθ·θ' = 0``, with
    ``Bθ = -X_b·B·Y_θ`` and ``Bz`` the entities' published balance blocks,
    stacked once, each signed as it enters the rows.  `Bθ` is split into
    its diagonal blocks (`_diagonal_blocks`: one per hour under hourly
    keys, one under dense keys).  For each, a full QR
    ``Bθ = [Q1 Q2]·[R; 0]`` turns the rows into ``θ' = P·z`` with
    ``P = -R⁻¹·Q1ᵀ·Bz`` and the equalities ``Q2ᵀ·Bz·z = 0`` (one per hour
    for a connected network).  The entity rows are unchanged.

    Each line-hour's cancelled rows are ``hi = R_l1⁻¹·F`` and
    ``lo = -R_l2⁻¹·F`` (``F = G·KL·Y_θ``), one shift-factor row twice.
    `_merge_line_rows` finds ``k = r1/r2`` from the two rows alone, checks
    that they are antiparallel (NumericalBreakdown if not, rather than
    solving another LP) and merges them into ``a``, block by block of the
    line-slack blocks' common split (one per hour under hourly keys).
    The line-hour then gets a column ``f``, the equality ``a·P·z - f = 0``
    after the balance equalities, and the limits ``f <= b_hi`` and
    ``-f <= b_lo/k`` in the rows the two line limits held, so the
    inequality rows keep the clear LP's order.  Each block is built
    densely over its own rows and columns, and the LP is placed once as
    CSR from its triplets, without the entries of magnitude at most 1e-9
    (cancellation residue that HiGHS drops on input, its
    ``small_matrix_value``).

    Last, the inequality rows left with one entry are stated as bounds
    of their columns (`_rows_as_bounds`), which an interior-point solver
    treats far more cheaply than a row: the flow limits, and the bound
    rows of every entity whose column mask is diagonal.  The other rows
    stay in ``problem.A_in`` in their order.  `restore` puts each bound's
    dual back in its row (`_row_duals`), so ``duals_in`` keeps the clear
    LP's layout.  On the 118-bus, 2-hour case with hourly keys, 1,140 of
    1,248 inequality rows move and the 108 two-entry ramp rows stay.

    The agent does not solve `problem` whole in one go: the flow rows hold
    almost all of its nonzeros and few line-hours bind, so it solves
    ``AngleElimination.screened`` LPs that monitor a growing set of
    line-hours and certifies the lifted last one on `problem` (see
    `protocol._solve_screened`).

    Only published data is read, so the agent learns nothing it could not
    already derive.  It relies on each owner's slack block being
    invertible (a condition-gated ``X`` times a positive diagonal; a
    mitigation of item 4(a) that changes that must revisit it) and on each
    diagonal block of ``Bθ`` having full column rank (a connected network, a
    condition-gated ``X_b`` and ``Y_θ``).  ``k`` and the flows
    ``f = hi·θ'`` were already computable from what the agent received;
    nothing new is sent.  The entity part of the move exists only because
    of a leak: a single-segment entity under hourly keys has a diagonal
    ``Y``, so after the cancellation each of its bound rows has one entry
    and tells the agent price times bound for its hour (ROADMAP item 4,
    leak (c)).  The agent sees these rows either way; a mitigation that
    mixes an entity's hours makes them dense again, and this part of the
    saving goes with it.
    """
    bal = tlp.row_spans["balance"][0]
    nz, n = tlp.var_spans["theta"]
    n_iso, TB = n - nz, tlp.n_rows - bal
    groups, b_in = _cancelled_groups(tlp)
    (l0, l1), lower = tlp.row_spans["line_hi"], slice(*tlp.row_spans["line_lo"])
    TL = l1 - l0
    lines = {owner: blocks for owner, _, _, blocks in groups
             if owner in ("line_hi", "line_lo")}
    line_blocks, k = _merge_line_rows(lines.get("line_hi", []),
                                      lines.get("line_lo", []))
    b_in[lower] /= k
    flow = nz + np.arange(TL)
    ineq = _block_triplets([(r0, col, block) for owner, r0, col, blocks in groups
                            if owner not in lines for block in blocks])
    ineq += [(l0 + np.arange(TL), flow, np.ones(TL)),
             (np.arange(lower.start, lower.stop), flow, -np.ones(TL))]
    (_, Bt, _), *entities = tlp.balance
    Bz = [block for _, block, _ in entities]
    Bz = sp.hstack(Bz, format="csr") if any(map(sp.issparse, Bz)) else np.hstack(Bz)
    sign = np.repeat([s for *_, s in entities], [b.shape[1] for _, b, _ in entities])

    components, flow_parts, eq_parts, e = [], [], [], 0
    for r0, r1, c0, c1 in _diagonal_blocks(Bt):
        rows, cols = np.arange(r0, r1), np.arange(c0, c1)
        zcols, Bz_k = _dense_rows(Bz, r0, r1)
        Bz_k = Bz_k * sign[zcols]
        Q, R = np.linalg.qr(-_dense_rows(Bt, r0, r1, cols)[1], mode="complete")
        R = R[:cols.size]
        P = -scipy.linalg.solve_triangular(R, Q[:, :cols.size].T @ Bz_k)
        eq = Q[:, cols.size:].T @ Bz_k
        eq_parts.append(triplets(e + np.arange(eq.shape[0]), zcols, eq))
        e += eq.shape[0]
        # the flow rows a·P of the line blocks over these angle columns
        for q0, q1, lcols, a in line_blocks:
            inside = (c0 <= lcols) & (lcols < c1)
            if inside.any():
                ak = np.zeros((q1 - q0, cols.size))
                ak[:, lcols[inside] - c0] = a[:, inside]
                flow_parts.append(triplets(np.arange(q0, q1), zcols, ak @ P))
        components.append((rows, cols, zcols, Q, R, P))
    eq_parts += [(e + r, c, v) for r, c, v in flow_parts]
    eq_parts.append((e + np.arange(TL), flow, -np.ones(TL)))
    problem, moved = _rows_as_bounds(LpProblem(
        sense="max", c=np.concatenate([tlp.c[:nz], np.zeros(TL)]),
        A_eq=coo_csr(eq_parts, (e + TL, nz + TL), tiny=1e-9),
        b_eq=np.zeros(e + TL),
        A_in=coo_csr(ineq, (bal, nz + TL), tiny=1e-9), b_in=b_in))
    # exact zeros left out, as sparse arithmetic leaves them out
    L = coo_csr(_block_triplets([(0, 0, b) for b in line_blocks]), (TL, n_iso),
                tiny=0.0)
    return AngleElimination(problem=problem, components=components, L=L, k=k,
                            lower=lower, n_balance=TB, moved=moved)


def apply_blocks(blocks, v) -> np.ndarray:
    """The block-diagonal matrix of `blocks`, the ``(H, k, k)`` stack of its
    diagonal blocks (`IsoKeys`) or one ``(k, k)`` matrix, times the vector
    `v`, block by block."""
    K, v = np.asarray(blocks, dtype=float), np.asarray(v, dtype=float).reshape(-1)
    K = K[None] if K.ndim == 2 else K
    if K.ndim != 3 or K.shape[1] != K.shape[2] or v.size != K.shape[0] * K.shape[1]:
        raise DimensionMismatch(f"a slice of {v.size} entries does not fit "
                                f"mask blocks of shape {K.shape}")
    return (K @ v.reshape(K.shape[0], -1, 1)).reshape(-1)


def recover_lmp(X_b, lambda_tilde) -> np.ndarray:
    """Unmask prices from the balance-row duals of the masked problem,
    ``-X_bᵀ·λ̃``, with `X_b` a stack of hour blocks or one matrix."""
    return -apply_blocks(np.swapaxes(np.atleast_2d(np.asarray(X_b, dtype=float)),
                                     -1, -2), lambda_tilde)


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
