"""Random-matrix masking of the dispatch LP and solution recovery.

Each bidding entity hides its data behind secret keys: a column mask Y
(applied on the right of its blocks) and a private positive row scale R,
and publishes its inequality rows row-scaled only, ``R⁻¹·E·Y`` over
``R⁻¹·M``.  The grid operator masks its angle columns with Y_θ and its
nodal-balance rows with a square positive matrix X_b applied on the
left.  Its line-limit rows go out row-scaled only too: one block
``R_l⁻¹·G·KL·Y_θ`` and one right-hand side ``R_l⁻¹·PL`` serve both limits
of every line-hour, with R_l a private positive diagonal.  A row mask sent
with its slack block hides nothing, since anyone holding the message
cancels it (ROADMAP item 4(a)), so no party sends either: every
inequality row is what the clearing agent read from the row-masked
groups with slack blocks it used to receive.
Solving the masked LP and mapping each solution slice back through the
owner's keys reproduces the clear-market dispatch, angles, and prices.
The operator keeps each of its masks as the stack of its diagonal hour
blocks (one block for a mask over all hours) and applies it one hour
block at a time; under hourly masks it publishes block-diagonal CSR.  It
publishes its balance-row mask over every entity's masked incidence as
one block, its columns in the layout's entity order, formed in one
stacked matmul over the entities' hour blocks joined side by side, and
names how many hour blocks each of its blocks holds (`hours`).  The
clearing agent stacks the entities' dense blocks per ``(m, n)`` shape
(`RowStack`) and reads each of the operator's blocks as the ``(H, r,
c)`` stack of its hour blocks and their columns (`_hour_stack`: a CSR
block's entries are the stack), and refuses any other layout.  It signs
the two balance blocks as they enter the rows and builds only the LP its
solver takes: the all-equality slack form for the bundled simplex, every
inequality row with an identity slack column that nobody sends, or, for
HiGHS, the LP with the free angle columns substituted out and each
line-hour stated once (``eliminate_angles``, the shift-factor form in
flow form: the entity columns plus one masked-flow column per line-hour,
one balance equality per hour and one flow equality per line-hour).
Each entity stack's rows are placed in one broadcast, and the QR runs
over the hours of the balance stack.  The flow form is kept as stacks,
hour h's line block over hour h's angle columns:
the agent builds each LP it solves straight from them, with the flow
rows of the line-hours it monitors only (``AngleElimination.screened``),
and builds CSR only for the matrices it hands on.  Every inequality row
left with a single entry (the flow limits, and the bound rows of
entities with a diagonal column mask) is handed to HiGHS as a column
bound.  The solution is mapped back to the masked angles, the row duals
of the moved rows and the balance duals before recovery, so the
solution slices and the messages are those of the clear LP's layout.

The entities' identical local work runs in stacked passes, one per
block shape, not once per entity: their key draws are gated together
(`draw_entity_keys`) and their blocks masked together (`mask_entities`),
bit for bit what each entity's own draw and products give.

The module also provides the two generic single-sided transforms
(column-wise and row-wise masking of an arbitrary partitioned LP) and a
counting audit of what an adversary could infer from one entity's
published blocks.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from maskdispatch.lp import LpProblem, DimensionMismatch
from maskdispatch.market import (
    ISO, coo_csr, ed_layout, place_blocks,
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


_POSITIVE_RANGE = (0.01, 1.0)   # entries of Y, Y_theta, X_b
# the row scales of the entities (R) and of the operator's line rows (R_l):
# a positive diagonal is all a row mask amounts to once its published slack
# block is cancelled, so a row scale is a party's whole row key
_DIAG_RANGE = (0.5, 2.0)
# a matrix serves as a mask, drawn as a key or supplied to the generic
# transforms, when its Frobenius bound ‖M‖_F·‖M⁻¹‖_F (_frobenius_bound) is
# at most _COND_MAX.  The bound is at least the 2-norm condition number, so
# it keeps the recovery's error amplification under _COND_MAX, and it was
# at most 2.4x it on the positive keys drawn here (see _frobenius_bound).
# A drawn key is redrawn until it passes, at most _MAX_RETRIES draws per
# mask.
_COND_MAX = 1e6
_MAX_RETRIES = 50


@dataclass
class MaskConfig:
    # the one mask setting; the condition gate (_COND_MAX, _MAX_RETRIES)
    # is fixed.  hourly_block_masks draws the column masks and the
    # operator's balance-row mask in one positive block per hour instead
    # of one full positive matrix over all hours (its line rows are only
    # row-scaled, and their scales are per row either way).  Identical to
    # the default at a one-hour horizon, and all equivalence and recovery
    # arithmetic is unchanged; without it the masked LP densifies
    # quadratically in hours*lines and multi-day cases stop being solvable
    # in reasonable time.  Transmission accounting always charges full
    # blocks either way.
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
    R: np.ndarray        # (m,) positive row scales


@dataclass
class IsoKeys:
    """The grid operator's keys.  Each mask is kept as the ``(H, k, k)``
    stack of its diagonal blocks, ``H = MaskConfig.hours(horizon)``: a mask
    over all hours is the stack of one block."""
    Y_theta: np.ndarray  # (H, n_iso/H, n_iso/H) positive
    R_l: np.ndarray      # (T*L,) positive line row scales
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
    and 2.2 at worst, and over every key accepted in 2,048 key sets of the
    pooled 30-bus 4-hour case (n = 60 to 120) 1.2 and 2.35.  Its cost,
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
    return EntityKeys(owner=owner, kind=kind, Y=Y,
                      R=rng.uniform(*_DIAG_RANGE, size=m))


def _passes_gate(stack):
    """Per matrix of the ``(N, k, k)`` stack, whether ``_frobenius_bound(M)
    <= _COND_MAX``.  One stacked inverse prefilters: its bound is the exact
    one up to rounding (about κ·eps ≤ 1e-10 relative), so a matrix passes on
    it 1e-6 below the limit.  The rest, and all of a stack that holds a
    singular matrix, go to `_frobenius_bound`."""
    passed = np.zeros(len(stack), dtype=bool)
    try:
        with np.errstate(all="ignore"):
            bound = (np.linalg.norm(stack, axis=(1, 2))
                     * np.linalg.norm(np.linalg.inv(stack), axis=(1, 2)))
        passed = bound <= _COND_MAX * (1 - 1e-6)
    except np.linalg.LinAlgError:
        pass
    for i in np.flatnonzero(~passed):
        passed[i] = _frobenius_bound(stack[i]) <= _COND_MAX
    return passed


def draw_entity_keys(parties, config: MaskConfig = None) -> list:
    """Each party's keys, bit for bit ``entity_keys(np.random.default_rng(seed),
    owner, kind, n, m, config, horizon)`` for its ``(seed, owner, kind, n, m,
    horizon)`` in `parties`.  Each stream draws its hour blocks of Y, then
    R, as if every draw passed; the blocks of one size are gated together
    (`_passes_gate`), and a party with a rejected block is redrawn by
    `entity_keys` from a fresh generator.  Keys own their arrays."""
    if config is None:
        config = MaskConfig()
    drawn, blocks, redraw = [], {}, set()
    for i, (seed, _, _, n, m, horizon) in enumerate(parties):
        H = config.hours(horizon)
        rng = np.random.default_rng(seed)
        Y = rng.uniform(*_POSITIVE_RANGE, size=(H, n // H, n // H))
        drawn.append((Y, rng.uniform(*_DIAG_RANGE, size=m)))
        blocks.setdefault(n // H, []).append((i, Y))
    for items in blocks.values():
        passed = _passes_gate(np.concatenate([b for _, b in items]))
        party = np.repeat([i for i, _ in items], [len(b) for _, b in items])
        redraw.update(party[~passed].tolist())
    return [entity_keys(np.random.default_rng(seed), owner, kind, n, m, config,
                        horizon) if i in redraw
            else EntityKeys(owner, kind, _block_diagonal(Y), R)
            for i, ((seed, owner, kind, n, m, horizon), (Y, R))
            in enumerate(zip(parties, drawn))]


def iso_keys(rng, n_iso, TL, TB, config: MaskConfig = None,
             horizon: int = 1) -> IsoKeys:
    """Draw the grid operator's private keys from its own random stream."""
    if config is None:
        config = MaskConfig()
    hours = config.hours(horizon)

    def draw(size, what):
        return _sample_hourly_mask(rng, size, hours, *_POSITIVE_RANGE, what)
    return IsoKeys(Y_theta=draw(n_iso, "angle column"),
                   R_l=rng.uniform(*_DIAG_RANGE, size=TL),
                   X_b=draw(TB, "balance row"))


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

    Entity submissions carry the masked cost row, the constraint block
    and bounds vector divided row by row by the entity's scales R (the
    constraint block also column-masked by its Y), and the masked bus
    incidence.  The grid
    operator's submission carries its line rows, row-scaled only, with
    their one right-hand side for both limits.  No party sends a row mask
    or a slack block, which the agent would cancel (ROADMAP item 4(a)):
    every inequality row's slack is the identity.  The operator's
    submission also carries the masked admittance block and
    one balance block: every entity's masked incidence side by side in
    the layout's entity order (GENCOs, then LSEs), further masked with
    the balance-row key.  Below, a key stack
    stands for its block diagonal; the operator's blocks are dense, or
    block-diagonal CSR under hourly keys.  The payload is every block
    that is set, named by its field, in field order.  The operator's
    submission also names the owners whose incidences `balance` joins, in
    order, and how many hour blocks each of its blocks holds: public
    metadata, like `owner` and `kind`, not payload blocks.
    """

    owner: str
    kind: str                         # GENCO | LSE | ISO
    balance_owners: tuple = None      # ISO: the owners of balance's columns
    hours: int = None                 # ISO: the hour blocks of each block
    masked_cost: np.ndarray = None        # c_i Y_i           (n,)
    masked_constraints: np.ndarray = None  # R_i⁻¹ E_i Y_i    (m, n)
    masked_rhs: np.ndarray = None         # R_i⁻¹ M_i         (m,)
    masked_incidence: np.ndarray = None   # KP_i Y_i          (T*B, n)
    # ISO fields
    line_flow: np.ndarray = None          # R_l⁻¹ G KL Y_theta (T*L, n_iso)
    line_rhs: np.ndarray = None           # R_l⁻¹ PL          (T*L,)
    balance_theta: np.ndarray = None      # X_b B Y_theta     (T*B, n_iso)
    balance: np.ndarray = None            # X_b [KP_1 Y_1 ... KD_N Y_N]
                                          #                   (T*B, sum n)

    @property
    def n(self):
        return self.masked_cost.size

    @property
    def m(self):
        return self.masked_rhs.size

    def payload_arrays(self):
        """Name -> array for every transmitted block: each field that is
        set, but the metadata."""
        return {name: a for name in _PAYLOAD_FIELDS
                if (a := getattr(self, name)) is not None}


# the fields of EncryptedSubmission that are payload blocks, in field order
_PAYLOAD_FIELDS = tuple(f.name for f in dataclasses.fields(EncryptedSubmission)
                        if f.name not in ("owner", "kind", "balance_owners", "hours"))


def mask_entities(entity_blocks, keys):
    """Every GENCO/LSE submission from its blocks and keys, and per entity
    whether none of its published blocks equals its unmasked source (a raw
    block with no nonzero entry says nothing about a mask and is skipped).
    Entities of one ``(n, m)`` shape are masked together: ``c·Y``,
    ``R⁻¹·E·Y`` and ``R⁻¹·M`` as ``np.matmul`` of stacks and a division by
    the row scales, bit for bit each entity's own product, and KP·Y as one
    ``np.add.at`` adding each row of Y to 0.0 in its column's balance row
    (`bus_rows`) in column order, as a CSR product with KP sums."""
    groups = {}
    for i, (e, k) in enumerate(zip(entity_blocks, keys)):
        if k.Y.shape != (e.n, e.n) or k.R.shape != (e.m,):
            raise DimensionMismatch(f"keys for {e.owner} have wrong shape")
        groups.setdefault((e.n, e.m), []).append(i)
    subs, verified = [None] * len(keys), np.ones(len(keys), dtype=bool)
    for idx in groups.values():
        es = [entity_blocks[i] for i in idx]
        Y, R = (np.array([getattr(keys[i], f) for i in idx]) for f in "YR")
        bad = np.flatnonzero((R <= 0).any(axis=1))
        if bad.size:
            raise NonPositiveDiagonal(f"{es[bad[0]].owner} row scales")
        cost, A, rhs = (np.array([getattr(e, f) for e in es])
                        for f in ("cost", "A", "rhs"))
        incidence = np.zeros((len(es), es[0].n_balance, Y.shape[1]))
        np.add.at(incidence, (np.arange(len(es))[:, None],
                              np.array([e.bus_rows for e in es])), Y)
        published = (np.matmul(cost[:, None], Y)[:, 0],
                     np.matmul(A, Y) / R[..., None], rhs / R)
        for p, s in zip(published, (cost, A, rhs)):
            axes = tuple(range(1, s.ndim))
            verified[idx] &= ~((p == s).all(axis=axes) & s.any(axis=axes))
        for i, e, cY, EY, M, KPY in zip(idx, es, *published, incidence):
            subs[i] = EncryptedSubmission(
                owner=e.owner, kind=e.kind, masked_cost=cY,
                masked_constraints=EY, masked_rhs=M, masked_incidence=KPY)
    return subs, verified


def mask_entity(entity_blocks, keys: EntityKeys) -> EncryptedSubmission:
    """One GENCO/LSE submission: `mask_entities` for a batch of one."""
    return mask_entities([entity_blocks], [keys])[0][0]


def _block_diagonal_csr(stack, cols=None):
    """The ``(H·r, H·c)`` CSR matrix of the ``(H, r, c)`` stack whose rows
    of hour h hold ``stack[h]`` at the ``(H, c)`` column indices
    ``cols[h]``, every entry stored: by default hour h's own columns, the
    block diagonal.  Canonical when each ``cols[h]`` ascends."""
    H, r, c = stack.shape
    dtype = np.int32 if stack.size < 2**31 else np.int64
    if cols is None:
        cols = np.arange(H * c).reshape(H, c)
    indices = np.broadcast_to(cols.astype(dtype)[:, None, :], stack.shape).ravel()
    return sp.csr_matrix((stack.ravel(), indices,
                          np.arange(H * r + 1, dtype=dtype) * dtype(c)),
                         shape=(H * r, H * c))


def _hour_stack(M, hours=1):
    """``(stack, cols)``: the received block `M` as `_block_diagonal_csr`
    builds it, the ``(H, r, c)`` stack of its hour blocks and their ``(H,
    c)`` column indices.  A dense `M` is one block (``hours`` must be 1),
    its stack a view.  A CSR `M` holds ``H = hours`` blocks: every row
    stores ``c = M.shape[1]/H`` entries, at the same ascending columns in
    each row of an hour (rows stored out of order are sorted first), and
    its entries are the stack, not copied.  Anything else raises
    DimensionMismatch."""
    if not sp.issparse(M):
        if hours != 1:
            raise DimensionMismatch(f"a dense block cannot hold {hours} hour blocks")
        return M[None], np.arange(M.shape[1])[None]
    (n_rows, n_cols), H = M.shape, hours
    r, c = n_rows // H, n_cols // H
    if M.format != "csr" or n_rows % H or n_cols % H or \
       not np.array_equal(M.indptr, np.arange(n_rows + 1) * c):
        raise DimensionMismatch(f"a {M.format} block of shape {M.shape} does "
                                f"not store {H} full hour blocks")
    if not M.has_sorted_indices:
        M = M.sorted_indices()
    at = M.indices.reshape(H, r, c)
    cols = at[:, 0] if r else np.arange(n_cols).reshape(H, c)
    if not ((at == cols[:, None]).all() and (np.diff(cols) > 0).all()
            and (cols[:, :1] >= 0).all() and (cols[:, -1:] < n_cols).all()):
        raise DimensionMismatch("a block's rows of one hour store different columns")
    return M.data.reshape(H, r, c), cols


def _matrix(stack, cols=None):
    """The matrix whose `_hour_stack` is ``(stack, cols)``, by default
    block diagonal: one block as it is, more as CSR."""
    return stack[0] if len(stack) == 1 else _block_diagonal_csr(stack, cols)


def mask_iso(blocks, keys: IsoKeys,
             entity_incidences: dict) -> EncryptedSubmission:
    """Build the grid operator's submission from network-only blocks.

    `blocks` needs only the network fields (GridBlocks or EdBlocks).
    `entity_incidences` maps each entity, in the layout's entity order
    (GENCOs, then LSEs), to its published masked incidence block (already
    column-masked by the entity itself); the operator applies its
    balance-row mask on top and publishes the results side by side as one
    block, `balance`, and names them, in order, as `balance_owners`.

    The network blocks, and each incidence under hourly keys, are block
    diagonal over the hour blocks of the key stacks (`IsoKeys`), so every
    product is formed block by block: the network's (CSR) times Y_theta's
    and batched matmuls with X_b's.  The line rows are divided by their
    scales R_l and published once for both limits.  The entities'
    diagonal hour blocks are joined along their columns and masked in one
    stacked matmul, under one block the whole-key product ``X_b·[KP_1Y_1
    … KD_NY_N]``.  With one block these are the whole products, published
    dense; with more, each is published as CSR built from its stack
    (`_block_diagonal_csr`), the balance block with each hour's columns
    at their entities' columns of that hour.
    """
    if np.any(keys.R_l <= 0):
        raise NonPositiveDiagonal("line row scales")
    H = len(keys.X_b)

    def angles(M):
        """CSR `M` times Y_theta, hour block by hour block."""
        r, c = M.shape[0] // H, M.shape[1] // H
        return _stack([(M if H == 1 else M[h * r:(h + 1) * r, h * c:(h + 1) * c]) @ Y
                       for h, Y in enumerate(keys.Y_theta)])

    def hours(inc):
        """The diagonal hour blocks of the dense incidence `inc`, as the
        ``(rows, columns, H)`` view of hour h's columns in its rows."""
        return inc.reshape(H, -1, H, inc.shape[1] // H).diagonal(axis1=0, axis2=2)

    incidences = [hours(inc) for inc in entity_incidences.values()]
    widths = np.array([inc.shape[1] for inc in incidences])   # columns an hour
    # column j of an hour block belongs to the entity whose `width` columns
    # start at `start` there; in hour h it is H·start + (j - start) + h·width
    start = np.repeat(np.cumsum(widths) - widths, widths)
    width = np.repeat(widths, widths)
    cols = (H - 1) * start + np.arange(start.size) + np.arange(H)[:, None] * width
    return EncryptedSubmission(
        owner=ISO, kind="ISO", balance_owners=tuple(entity_incidences), hours=H,
        line_flow=_matrix(angles(blocks.flow_rows) / keys.R_l.reshape(H, -1, 1)),
        line_rhs=blocks.line_caps / keys.R_l,
        balance_theta=_matrix(keys.X_b @ angles(blocks.admittance)),
        balance=_matrix(keys.X_b @ np.ascontiguousarray(
            np.moveaxis(np.concatenate(incidences, axis=1), 2, 0)), cols),
    )


# K entity row blocks of one shape of the masked LP, block k of owner
# owners[k] reading ``C[k]·z <= b[k]`` in the (K, r) rows rows[k] over the
# (K, c) structural columns cols[k]
RowStack = collections.namedtuple("RowStack", "owners rows cols C b")


def _triplets(rows, cols, D):
    """COO triplets of the ``(K, r, c)`` stack `D` whose block k lies at the
    ``(K, r)`` rows ``rows[k]`` and ``(K, c)`` columns ``cols[k]``: one
    broadcast."""
    return (np.repeat(rows, D.shape[2]),
            np.broadcast_to(cols[:, None, :], D.shape).ravel(), D.ravel())


@dataclass
class TransformedLp:
    """The masked dispatch LP, kept as the blocks the parties published.

    `stacks` holds the entities' rows as `RowStack`s, one per ``(m, n)``
    shape of the entity submissions, in the order of each shape's first
    entity.  `line_flow` is the operator's line block as the ``(H, L, c)``
    stack of its published hour blocks (`_hour_stack`), hour h's over hour
    h's angle columns, and `line_rhs` the right-hand side of its ``TL``
    rows: the upper limits read ``line_flow·θ' <= line_rhs`` and the lower
    ones ``-line_flow·θ' <= line_rhs``.  `balance` holds the two ``(col,
    block, cols)`` pieces of the balance rows (zero right-hand side), each
    block an `_hour_stack` ``(stack, cols)`` signed as it enters the rows:
    the entities' published block with the loads' columns negated, then
    the negated angle block.  `c` holds the structural costs.  Only the
    form a solver asks for is assembled: `problem` (the slack form) or
    `eliminate_angles`.
    """

    stacks: list
    line_flow: np.ndarray
    line_rhs: np.ndarray
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
        """The masked LP in all-equality slack form, placed from the stacks
        on first access.  A block lies on consecutive rows and columns
        (an empty one, of a market without lines, places nothing), and row
        i's slack is column ``n_structural + i`` with coefficient one: one
        identity over the slack columns of every inequality row, which
        nobody sends."""
        bal, ns = self.row_spans["balance"][0], self.n_structural
        th, (H, L, _) = self.var_spans["theta"][0], self.line_flow.shape
        pieces = [(bal, col, _matrix(B, cols)) for col, B, cols in self.balance]
        pieces.append((0, ns, sp.identity(bal, format="csr")))
        b_eq = np.zeros(self.n_rows)
        for st in self.stacks:
            pieces += [(r[0], c[0], C) for r, c, C in zip(st.rows, st.cols, st.C)
                       if r.size]
            b_eq[st.rows] = st.b
        for name, sign in (("line_hi", 1.0), ("line_lo", -1.0)):
            r0 = self.row_spans[name][0]
            pieces.append((r0, th, _matrix(sign * self.line_flow)))
            b_eq[r0:r0 + H * L] = self.line_rhs
        return LpProblem(
            sense="max", c=np.concatenate([self.c, np.zeros(self.n_slack)]),
            A_eq=place_blocks(pieces, (self.n_rows, self.n_vars)), b_eq=b_eq,
            A_in=None, b_in=None,
            lb=np.concatenate([np.full(self.n_structural, -np.inf),
                               np.zeros(self.n_slack)]))


def build_transformed_ed(submissions) -> TransformedLp:
    """Collect the masked dispatch LP from submissions alone.

    The agent sees only EncryptedSubmission fields.  `ed_layout` places
    the blocks from their public dimensions alone, in the clear LP's
    order plus slack columns: entity dispatch columns, angle columns,
    then entity slacks and the two line-slack groups.  No matrix is
    assembled here.  The GENCO and LSE submissions must come in the order
    whose incidences `mask_iso` joined into the operator's balance block,
    the order it names (`balance_owners`).  Every entity's blocks must be
    dense and of its shape, which is checked before anything is stacked;
    the entities of one ``(m, n)`` shape are stacked together
    (`RowStack`).  The operator's blocks are read as their `_hour_stack`
    in its `hours` blocks, every one but `balance` on their diagonal; a
    block that is not raises DimensionMismatch.  Its line block is placed
    twice, for the upper and the lower limits.
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
    n_iso = iso.balance_theta.shape[1]
    TL = iso.line_rhs.size
    TB = iso.balance_theta.shape[0]
    if iso.balance_owners != tuple(s.owner for s in entities) or \
       iso.balance.shape != (TB, sum(s.n for s in entities)):
        raise MissingSubmission(
            "ISO balance block does not span the entity submissions in order")
    # the entities by the types and shapes of their blocks, each of which
    # is checked once: a valid one groups the entities of one (m, n)
    shapes = {}
    for s in entities:
        C = s.masked_constraints
        shapes.setdefault((type(C), C.shape, s.masked_rhs.size, s.masked_cost.size,
                           s.masked_incidence.shape), []).append(s)
    for (tC, C, m, n, inc), group in shapes.items():
        if (tC, C, inc) != (np.ndarray, (m, n), (TB, n)):
            raise DimensionMismatch(f"submission of {group[0].owner} is inconsistent")

    layout = ed_layout(entities, n_iso, TL, TB, slacks=True)
    vs, rs = layout.var_spans, layout.row_spans
    th, n_structural = vs["theta"]

    def diagonal(M, shape):
        if M.shape == shape:
            stack, cols = _hour_stack(M, iso.hours)
            if np.array_equal(cols.ravel(), np.arange(cols.size)):
                return stack, cols
        raise DimensionMismatch(f"an ISO block of shape {M.shape} is not "
                                f"the {shape} block diagonal of its hours")
    stacks = [RowStack(tuple(s.owner for s in group),
                       np.add.outer([rs[s.owner][0] for s in group], np.arange(m)),
                       np.add.outer([vs[s.owner][0] for s in group], np.arange(n)),
                       *(np.array([getattr(s, f) for s in group]) for f in
                         ("masked_constraints", "masked_rhs")))
              for (_, _, m, n, _), group in shapes.items()]
    # +1 for generation and -1 for load in each entity column, exact
    sign = np.repeat([1.0 if s.kind == "GENCO" else -1.0 for s in entities],
                     [s.n for s in entities])
    Bz, zcols = _hour_stack(iso.balance, iso.hours)
    Bt, tcols = diagonal(iso.balance_theta, (TB, n_iso))
    balance = [(0, Bz * sign[zcols][:, None], zcols), (th, -Bt, tcols)]
    c = np.concatenate([-s.masked_cost if s.kind == "GENCO" else s.masked_cost
                        for s in entities] + [np.zeros(n_iso)])
    return TransformedLp(stacks=stacks,
                         line_flow=diagonal(iso.line_flow, (TL, n_iso))[0],
                         line_rhs=iso.line_rhs, balance=balance, c=c, var_spans=vs,
                         row_spans=rs, n_structural=n_structural,
                         n_slack=layout.n_vars - n_structural,
                         n_rows=layout.n_rows, n_vars=layout.n_vars)


def _single_entry_bounds(r, c, v, b, lb, ub):
    """``(kept, lb, ub, (rows, cols, coef))`` for the inequality rows
    ``A x <= b`` stored as the triplets ``(r, c, v)``, their columns free
    but for `lb` and `ub`: the single-entry rows stated as column bounds.
    Row ``a·x_j <= b`` becomes ``ub_j = b/a`` when ``a > 0`` and
    ``lb_j = b/a`` when ``a < 0``.  Only the first such row per column and
    direction moves; a later one stays a row, as do all rows with other
    counts.  A lower bound above its column's new upper bound stays a row
    too: a fixed quantity (``lo == hi``) gives two rows with separate row
    scales, whose bounds can cross by rounding, and an infeasible one is
    left for the solver to report.  `kept` marks the rows that
    stay; ``(rows, cols, coef)`` are the rows moved."""
    single = np.flatnonzero(np.bincount(r, minlength=b.size)[r] == 1)
    single = single[np.argsort(r[single], kind="stable")]
    rows, cols, coef = r[single], c[single], v[single]
    # np.unique's indices are those of each key's first occurrence
    _, first = np.unique(2 * cols + (coef < 0), return_index=True)
    rows, cols, coef = rows[first], cols[first], coef[first]
    bound, up = b[rows] / coef, coef > 0
    lb, ub = lb.copy(), ub.copy()
    ub[cols[up]] = bound[up]
    move = up | (bound <= ub[cols])
    rows, cols, coef, bound = rows[move], cols[move], coef[move], bound[move]
    lb[cols[coef < 0]] = bound[coef < 0]
    kept = np.ones(b.size, dtype=bool)
    kept[rows] = False
    return kept, lb, ub, (rows, cols, coef)


def _row_duals(sol, moved):
    """The inequality duals of the rows before `_single_entry_bounds` from
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
    """The masked LP in flow form over the entity columns, kept as the
    stacks it is built from, and the way back.

    The flow form (see `eliminate_angles`) has the entity columns ``z``,
    then one masked-flow column ``f`` per line-hour; the balance
    equalities ``Q2ᵀ·Bz·z = 0``, then one flow equality ``a·P·z - f = 0``
    per line-hour, with ``P = -R⁻¹·Q1ᵀ·Bz``; and the inequality rows, the
    single-entry ones stated as column bounds.  It is kept as `c`, the
    entity columns' costs (a flow costs nothing); `A_in` and `b_in`, the
    inequality rows left rows, CSR over ``z`` and ``f``; `lb` and `ub`,
    the bounds of ``z`` and ``f``; and the stacks over the hour blocks of
    the balance rows: each hour's entity columns `zcols` and balance block
    `Bz`, the full QR `Q`, `R` of its angle block, its balance equalities
    ``eq = Q2ᵀ·Bz`` and its line block `a` (the operator's published
    ``line_flow``) over its angle columns.  `moved` holds the ``(rows, cols,
    coef)`` of the rows stated as bounds (`_single_entry_bounds`), in the
    inequality rows of the clear LP's layout.  ``P`` is never formed.

    `screened` builds the flow form with only some line-hours monitored,
    the LP the agent solves; `problem`, the whole flow form, is built on
    first access only (by the round's fallback when a screened solve is
    not optimal, and by tests).  An unmonitored line-hour loses its flow row and flow column,
    and with them its limits: the balance equalities, every inequality
    row and the other column bounds stay, so the screened LP is a
    relaxation of `problem`.  `lift` maps its optimum onto `problem`: each
    unmonitored flow ``f = a·θ'`` from the angles ``θ' = P·z``
    (`angles`), zero duals on the dropped rows and bounds.  That point is
    optimal for `problem` whenever every lifted flow lies within its
    bounds: the dropped flow rows hold by construction, and the zero duals
    leave the dual solution feasible with the same objective.  So the
    screened solve's certificate and the lift's bound check certify it on
    `problem`.  `restore` maps an optimal solution of `problem` to the
    clear LP's layout (``ed_layout(slacks=False)``, the structural columns
    and rows of ``tlp.problem``): the masked angles ``θ'`` after the
    entity columns (``f`` is dropped), every inequality row's dual in its
    row (the moved rows' from their bounds' duals) and the masked balance
    duals in place of the flow form's equality duals.
    """

    c: np.ndarray
    A_in: sp.csr_matrix
    b_in: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    moved: tuple
    a: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Bz: np.ndarray
    zcols: np.ndarray
    eq: np.ndarray

    @functools.cached_property
    def problem(self) -> LpProblem:
        """The whole flow form, every line-hour monitored, built on first
        access."""
        return self.screened(np.arange(self.lb.size - self.c.size))

    def flows_in_rows(self):
        """The line-hours whose flow column an inequality row touches,
        sorted: a flow limit that `_single_entry_bounds` left a row because
        its bounds crossed.  They are monitored from the first solve on, so
        every inequality row is a row of each screened LP."""
        nz, cols = self.c.size, self.A_in.indices
        return np.unique(cols[cols >= nz]) - nz

    def _flow_rows(self, monitored, r0):
        """COO triplets of the flow rows ``a_i·P·z - f_i`` of the sorted
        line-hours `monitored`, the i-th in row ``r0 + i`` with its flow at
        column ``c.size + i``.  Per hour, ``a_i·P = -(Q1·R⁻ᵀ·a_iᵀ)ᵀ·Bz``:
        a solve and products with the monitored rows of ``a`` only."""
        H, L, n = self.a.shape
        hour, line = np.divmod(monitored, L)
        out, r = [], r0
        for h in np.unique(hour):
            at = line[hour == h]
            W = scipy.linalg.solve_triangular(self.R[h], self.a[h, at].T, trans="T")
            rows = -((self.Q[h, :, :n] @ W).T @ self.Bz[h])
            out.append((np.repeat(r + np.arange(at.size), rows.shape[1]),
                        np.tile(self.zcols[h], at.size), rows.ravel()))
            r += at.size
        m = monitored.size
        return out + [(r0 + np.arange(m), self.c.size + np.arange(m), -np.ones(m))]

    def screened(self, monitored) -> LpProblem:
        """The flow form with the flow rows and flow columns of the
        line-hours in sorted `monitored` only (a superset of
        `flows_in_rows`): the entity columns, then those flow columns in
        order; the balance equalities, then those flow rows; every
        inequality row.  It is built from the stacks, each flow row only
        for a monitored line-hour (`_flow_rows`), as CSR from its triplets
        without the entries of magnitude at most 1e-9 (cancellation
        residue that HiGHS drops on input, its ``small_matrix_value``)."""
        nz, m = self.c.size, monitored.size
        e = self.eq.shape[0] * self.eq.shape[1]
        cols = np.concatenate([np.arange(nz), nz + monitored])
        # each kept column's position; the rows touch no other
        at = np.full(self.lb.size, -1)
        at[cols] = np.arange(cols.size)
        A = self.A_in
        return LpProblem(
            sense="max", c=np.concatenate([self.c, np.zeros(m)]),
            A_eq=coo_csr([_triplets(np.arange(e).reshape(self.eq.shape[:2]),
                                    self.zcols, self.eq)]
                         + self._flow_rows(monitored, e), (e + m, nz + m),
                         tiny=1e-9),
            b_eq=np.zeros(e + m),
            A_in=sp.csr_matrix((A.data, at[A.indices], A.indptr),
                               shape=(A.shape[0], nz + m)),
            b_in=self.b_in, lb=self.lb[cols], ub=self.ub[cols])

    def angles(self, z):
        """The masked angles ``θ' = P·z = -R⁻¹·Q1ᵀ·(Bz·z)`` at the entity
        columns' values `z`, as the ``(H, c, 1)`` stack of the hours:
        products and a triangular solve per hour with vectors (scipy's
        stacked call loops over the hours in Python too)."""
        n = self.R.shape[1]
        y = np.swapaxes(self.Q[..., :n], 1, 2) @ (self.Bz @ z[self.zcols][..., None])
        return -np.stack([scipy.linalg.solve_triangular(R, v)
                          for R, v in zip(self.R, y)])

    def lift(self, sol, monitored):
        """``(lifted, violated, theta)`` for the optimal `sol` of
        ``screened(monitored)``: `lifted` is `sol` in the layout of
        `problem`, with each unmonitored flow ``f = a·θ'``, a zero dual on
        each unmonitored flow row and bound and the largest bound
        violation of those flows in its primal residual, `violated` the
        unmonitored line-hours whose flow lies outside its bounds by more
        than ``_SCREEN_TOL`` relative to ``1 + |bound|``, sorted, and
        `theta` the masked angles ``θ'`` (`angles`), for `restore`."""
        nz, TL = self.c.size, self.lb.size - self.c.size
        e = sol.duals_eq.size - monitored.size
        cols = np.concatenate([np.arange(nz), nz + monitored])
        theta = self.angles(sol.x[:nz])
        x = np.concatenate([sol.x[:nz], (self.a @ theta).ravel()])
        f, lb, ub = x[nz:].copy(), self.lb[nz:], self.ub[nz:]
        x[cols] = sol.x
        over = np.maximum(f - ub, lb - f)
        out = (f - ub > _SCREEN_TOL * (1.0 + np.abs(ub))) \
            | (lb - f > _SCREEN_TOL * (1.0 + np.abs(lb)))
        over[monitored], out[monitored] = 0.0, False
        duals_eq, duals_lb, duals_ub = (np.zeros(e + TL), np.zeros(nz + TL),
                                        np.zeros(nz + TL))
        duals_eq[np.concatenate([np.arange(e), e + monitored])] = sol.duals_eq
        duals_lb[cols], duals_ub[cols] = sol.duals_lb, sol.duals_ub
        residual = max(sol.max_primal_residual, float(np.max(over, initial=0.0)))
        return (dataclasses.replace(sol, x=x, duals_eq=duals_eq, duals_lb=duals_lb,
                                    duals_ub=duals_ub, max_primal_residual=residual),
                np.flatnonzero(out), theta.ravel())

    def restore(self, sol, theta=None):
        """`sol`, optimal for `problem`, with ``x``, ``duals_in`` and
        ``duals_eq`` in the clear LP's layout; a non-optimal `sol` is
        returned as it is.  `theta`, the masked angles at its entity
        columns as `lift` returns them, is computed if not given."""
        if sol.x is None:
            return sol
        nz = self.c.size
        H, L, _ = self.a.shape
        z = sol.x[:nz]
        duals_in = _row_duals(sol, self.moved)
        e = sol.duals_eq.size - H * L
        # dual feasibility of the eliminated columns, Bθᵀλ + Lθᵀμ = 0, with
        # Lθᵀμ = aᵀη from the flow equalities' duals η
        g = np.swapaxes(self.a, 1, 2) @ sol.duals_eq[e:].reshape(H, L, 1)
        lam = self.Q @ np.concatenate(
            [-np.stack([scipy.linalg.solve_triangular(R, v, trans="T")
                        for R, v in zip(self.R, g)]),
             sol.duals_eq[:e].reshape(H, -1, 1)], axis=1)
        x = np.concatenate([z, self.angles(z).ravel() if theta is None else theta])
        return dataclasses.replace(sol, x=x, duals_in=duals_in,
                                   duals_eq=lam.ravel(),
                                   duals_lb=np.zeros(x.size),
                                   duals_ub=np.zeros(x.size))


def eliminate_angles(tlp: TransformedLp) -> AngleElimination:
    """The masked LP with the free angle columns substituted out and each
    line-hour stated once through a masked-flow column: the shift-factor
    (PTDF) form of the dispatch, computed on masked data, kept as the
    stacks its LPs are built from.

    Each entity's rows read ``C z <= b``, with ``C = R⁻¹·E·Y`` and ``b =
    R⁻¹·M`` as the entity published them for its constraint matrix ``E``
    and bounds ``M``: the slack form's rows ``C z + s = b`` without their
    identity slack columns, an LP in the clear LP's layout whose entity
    and angle slices and balance duals equal those of ``tlp.problem``, so
    recovery is unchanged.  Each stack of ``tlp.stacks`` is placed in one
    broadcast, with no walk over the owners.

    The masked balance rows read ``Bz·z + Bθ·θ' = 0``, with
    ``Bθ = -X_b·B·Y_θ`` and ``Bz`` the entities' published balance block,
    both as signed in ``tlp.balance``: stacks of hour blocks (one per hour
    under hourly keys, one under dense keys), ``Bz`` over each hour's
    entity columns.  For each hour a full QR ``Bθ = [Q1 Q2]·[R; 0]``,
    taken for all hours in one stacked call, turns the rows into
    ``θ' = P·z`` with ``P = -R⁻¹·Q1ᵀ·Bz`` and the equalities
    ``Q2ᵀ·Bz·z = 0`` (one per hour for a connected network).  The entity
    rows are unchanged.

    The operator publishes each line-hour's shift-factor row once,
    ``a = R_l⁻¹·G·KL·Y_θ`` with the right-hand side ``b = R_l⁻¹·PL``
    (``tlp.line_flow``, a stack of hour blocks whose hour h lies over hour
    h's angle columns).  The line-hour gets a column ``f``, the equality
    ``a·P·z - f = 0`` after the balance equalities, and the limits ``f <=
    b`` and ``-f <= b`` in the rows the two line limits hold, so the
    inequality rows keep the clear LP's order.

    The inequality rows are placed as triplets, without the entries of
    magnitude at most 1e-9 (the zeros of the dense entity blocks, and any
    entry that HiGHS drops on input, its ``small_matrix_value``), and
    those left with one entry are stated as bounds of their columns
    (`_single_entry_bounds`) before any
    CSR is built: an interior-point solver treats a bound far more cheaply
    than a row.  They are the flow limits, and the bound rows of every
    entity whose column mask is diagonal.  The other rows become
    ``A_in`` in their order.  `restore` puts each bound's dual back in its
    row (`_row_duals`), so ``duals_in`` keeps the clear LP's layout.  On
    the 118-bus, 2-hour case with hourly keys, 1,140 of 1,248 inequality
    rows move and the 108 two-entry ramp rows stay.

    The flow rows would hold almost all of the flow form's nonzeros, and
    few line-hours bind, so none is formed here: the agent solves
    ``AngleElimination.screened`` LPs that monitor a growing set of
    line-hours, each built with the flow rows of its monitored line-hours
    only, and lifts the last one onto the whole flow form (see
    `protocol._solve_screened`).  Neither ``P`` nor the whole flow form is
    formed unless the fallback asks for ``AngleElimination.problem``.

    Only published data is read, so the agent learns nothing it could not
    already derive.  It relies on each hour block of ``Bθ`` having full
    column rank (a connected network, a condition-gated ``X_b`` and
    ``Y_θ``).  The flows ``f = a·θ'`` were already computable from what
    the agent received; nothing new is sent.  The entity part of the move
    exists only because of a leak: a single-segment entity under hourly
    keys has a diagonal ``Y``, so each of its published bound rows has one
    entry and tells the agent price times bound for its hour (ROADMAP item
    4, leak (c)).  The agent sees these rows either way; a mitigation that
    mixes an entity's hours makes them dense again, and this part of the
    saving goes with it.
    """
    nz, TL = tlp.var_spans["theta"][0], tlp.line_rhs.size
    b_in = np.zeros(tlp.row_spans["balance"][0])
    for st in tlp.stacks:
        b_in[st.rows] = st.b
    # the entities' stacks, then the upper and lower limits of each flow
    ineq = [_triplets(st.rows, st.cols, st.C) for st in tlp.stacks]
    flow = nz + np.arange(TL)
    for name, sign in (("line_hi", 1.0), ("line_lo", -1.0)):
        rows = np.arange(*tlp.row_spans[name])
        b_in[rows] = tlp.line_rhs
        ineq.append((rows, flow, np.full(TL, sign)))
    r, col, v = (np.concatenate(t) for t in zip(*ineq))
    keep = np.abs(v) > 1e-9
    r, col, v = r[keep], col[keep], v[keep]
    kept, lb, ub, moved = _single_entry_bounds(
        r, col, v, b_in, np.full(nz + TL, -np.inf), np.full(nz + TL, np.inf))
    row, stay = np.cumsum(kept) - 1, kept[r]
    A_in = coo_csr([(row[r[stay]], col[stay], v[stay])],
                   (int(kept.sum()), nz + TL))
    (_, Bz, zcols), (_, Bt, _) = tlp.balance
    n = Bt.shape[2]
    Q, R = np.linalg.qr(Bt, mode="complete")
    return AngleElimination(
        c=tlp.c[:nz], A_in=A_in, b_in=b_in[kept], lb=lb, ub=ub, moved=moved,
        a=tlp.line_flow, Q=Q, R=R[:, :n], Bz=Bz, zcols=zcols,
        eq=np.swapaxes(Q[..., n:], 1, 2) @ Bz)


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
    product itself.  Bilinear equations come from the row-scaled
    constraint block (every entry couples a row-scale and column-mask
    unknowns) plus the full incidence and recovery blocks.  The audit
    only counts; it does not attempt to solve the bilinear system.
    """
    if submission.kind == "ISO":
        # the line rows are row-scaled only: R_l's TL unknowns, not a mask
        TL, n_iso = submission.line_flow.shape
        TB = submission.balance_theta.shape[0]
        published = 0 if published_recovery is None else n_iso + TB
        return AuditReport(
            owner=submission.owner, kind="ISO",
            linear_equations=published,
            linear_unknowns=n_iso * n_iso + TB * TB,
            bilinear_equations=TL * n_iso + TL + TB * n_iso + published,
            bilinear_unknowns=n_iso * n_iso + TL + TB * TB,
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
        bilinear_equations=m * n + full_rows * n + published,
        bilinear_unknowns=m + n * n,
    )
