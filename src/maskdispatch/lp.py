"""Linear programming on dense or sparse data, with primal and dual solutions.

Problems are stated as

    min/max  c' x
    s.t.     A_eq x  = b_eq
             A_in x <= b_in
             x_j >= 0 for every variable whose sign class is "nonneg"

Duals are reported as the gradient of the *declared* objective with
respect to the constraint right-hand sides, so for a max problem the
dual of a binding <= row is nonnegative and for a min problem it is
nonpositive.

The default backend is a two-phase primal revised simplex (Bland's rule
engaged after a run of degenerate pivots).  Problems whose size exceeds
``_SIMPLEX_SIZE_LIMIT`` are routed to scipy's HiGHS solver,
which accepts the same data (including scipy.sparse matrices) and is
mapped onto the same dual convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FREE = "free"
NONNEG = "nonneg"


class DimensionMismatch(ValueError):
    """Array shapes disagree with the declared problem dimensions."""


class NumericalBreakdown(RuntimeError):
    """The solver could not certify a reliable solution."""


_FEAS_TOL = 1e-6
_GAP_TOL = 1e-6
_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_DEGEN_THRESHOLD = 40         # consecutive degenerate pivots before Bland's rule
_SIMPLEX_SIZE_LIMIT = 600     # rows + cols above which auto routes to highs


@dataclass
class SolverConfig:
    max_iter: int = 200_000
    backend: str = "auto"              # auto | simplex | highs
    highs_method: str = "highs"        # or highs-ipm / highs-ds


@dataclass
class SolveStats:
    """Running record of optimality certificates, for suite-wide checks."""

    n_optimal: int = 0
    max_gap: float = 0.0
    max_primal_residual: float = 0.0
    max_cs_violation: float = 0.0

    def record(self, gap, residual, cs):
        self.n_optimal += 1
        self.max_gap = max(self.max_gap, gap)
        self.max_primal_residual = max(self.max_primal_residual, residual)
        self.max_cs_violation = max(self.max_cs_violation, cs)

    def reset(self):
        self.n_optimal = 0
        self.max_gap = 0.0
        self.max_primal_residual = 0.0
        self.max_cs_violation = 0.0


SOLVE_STATS = SolveStats()


def _as_matrix(a, n_cols_hint=None):
    if a is None:
        n = 0 if n_cols_hint is None else n_cols_hint
        return np.zeros((0, n))
    if scipy.sparse.issparse(a):
        return a.tocsr()
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _as_vector(v):
    if v is None:
        return np.zeros(0)
    return np.asarray(v, dtype=float).reshape(-1)


def _all_finite(a):
    if scipy.sparse.issparse(a):
        return np.all(np.isfinite(a.data))
    return np.all(np.isfinite(a))


@dataclass
class LpProblem:
    """LP in objective/equality/inequality/sign-class form.

    Matrices may be numpy arrays or scipy.sparse matrices; sparse input
    is only worthwhile for problems large enough to route to HiGHS.
    """

    sense: str
    c: np.ndarray
    A_eq: object = None
    b_eq: np.ndarray = None
    A_in: object = None
    b_in: np.ndarray = None
    sign_class: list = None

    def __post_init__(self):
        self.c = _as_vector(self.c)
        n = self.c.size
        self.A_eq = _as_matrix(self.A_eq, n)
        self.A_in = _as_matrix(self.A_in, n)
        self.b_eq = _as_vector(self.b_eq)
        self.b_in = _as_vector(self.b_in)
        if self.sign_class is None:
            self.sign_class = [FREE] * n
        self.sign_class = list(self.sign_class)
        self.validate()

    @property
    def n_vars(self):
        return self.c.size

    @property
    def n_rows(self):
        return self.A_eq.shape[0] + self.A_in.shape[0]

    def validate(self):
        n = self.n_vars
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.A_eq.shape[1] != n or self.A_in.shape[1] != n:
            raise DimensionMismatch(
                f"column counts disagree: c has {n}, A_eq has {self.A_eq.shape[1]}, "
                f"A_in has {self.A_in.shape[1]}")
        if self.A_eq.shape[0] != self.b_eq.size:
            raise DimensionMismatch("A_eq row count does not match b_eq")
        if self.A_in.shape[0] != self.b_in.size:
            raise DimensionMismatch("A_in row count does not match b_in")
        if len(self.sign_class) != n:
            raise DimensionMismatch("sign_class length does not match variable count")
        for s in self.sign_class:
            if s not in (FREE, NONNEG):
                raise ValueError(f"unknown sign class {s!r}")
        for name, a in (("c", self.c), ("b_eq", self.b_eq), ("b_in", self.b_in)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, a in (("A_eq", self.A_eq), ("A_in", self.A_in)):
            if not _all_finite(a):
                raise ValueError(f"{name} contains non-finite entries")

    def objective_at(self, x):
        return float(self.c @ np.asarray(x, dtype=float))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals_eq: np.ndarray = None
    duals_in: np.ndarray = None
    objective: float = None
    iterations: int = 0
    backend: str = "simplex"
    gap: float = None
    max_primal_residual: float = None
    max_cs_violation: float = None


@dataclass
class FeasibilityReport:
    max_equality_residual: float
    max_inequality_violation: float
    max_sign_violation: float
    objective: float
    tol: float

    @property
    def feasible(self):
        return (self.max_equality_residual <= self.tol
                and self.max_inequality_violation <= self.tol
                and self.max_sign_violation <= self.tol)


def check_point(problem: LpProblem, x, tol: float = 1e-6) -> FeasibilityReport:
    """Evaluate a candidate point against every constraint family."""
    x = _as_vector(x)
    if x.size != problem.n_vars:
        raise DimensionMismatch(
            f"point has {x.size} entries, problem has {problem.n_vars} variables")
    eq_res = 0.0
    if problem.A_eq.shape[0]:
        eq_res = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq)))
    in_viol = 0.0
    if problem.A_in.shape[0]:
        in_viol = float(max(0.0, np.max(problem.A_in @ x - problem.b_in)))
    nonneg = np.array([s == NONNEG for s in problem.sign_class])
    sign_viol = float(np.max(-x[nonneg], initial=0.0)) if nonneg.any() else 0.0
    return FeasibilityReport(eq_res, in_viol, max(sign_viol, 0.0),
                             problem.objective_at(x), tol)


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------

class _StandardForm:
    """min c'z, A z = b, z >= 0, with bookkeeping to map back to the user problem.

    Free variables are split into positive/negative parts; inequality rows
    gain a unit slack; rows with negative rhs are negated (flip tracked for
    dual signs).
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        n = problem.n_vars
        A_eq = problem.A_eq
        A_in = problem.A_in
        if scipy.sparse.issparse(A_eq):
            A_eq = A_eq.toarray()
        if scipy.sparse.issparse(A_in):
            A_in = A_in.toarray()
        m_eq, m_in = A_eq.shape[0], A_in.shape[0]
        self.m_eq, self.m_in = m_eq, m_in
        m = m_eq + m_in

        cols = []        # (var_index, sign) per structural column
        for j, s in enumerate(problem.sign_class):
            cols.append((j, 1.0))
            if s == FREE:
                cols.append((j, -1.0))
        self.cols = cols
        n_struct = len(cols)
        self.n_struct = n_struct
        self.n_slack = m_in

        A_user = np.vstack([A_eq, A_in]) if m else np.zeros((0, n))
        A = np.zeros((m, n_struct + m_in))
        for k, (j, sgn) in enumerate(cols):
            A[:, k] = sgn * A_user[:, j]
        for r in range(m_in):
            A[m_eq + r, n_struct + r] = 1.0

        b = np.concatenate([problem.b_eq, problem.b_in])
        self.flip = np.ones(m)
        neg = b < 0
        self.flip[neg] = -1.0
        A[neg, :] *= -1.0
        b = b * self.flip

        sign = -1.0 if problem.sense == "max" else 1.0
        c = np.zeros(n_struct + m_in)
        for k, (j, sgn) in enumerate(cols):
            c[k] = sign * sgn * problem.c[j]

        self.A, self.b, self.c = A, b, c
        self.sense_mult = sign

    def recover_x(self, z):
        x = np.zeros(self.problem.n_vars)
        for k, (j, sgn) in enumerate(self.cols):
            x[j] += sgn * z[k]
        return x

    def recover_duals(self, y_std, kept_rows):
        """Map standard-form row duals back to user rows and sense."""
        y = np.zeros(self.m_eq + self.m_in)
        y[kept_rows] = y_std
        y = y * self.flip
        if self.problem.sense == "max":
            y = -y
        return y[:self.m_eq], y[self.m_eq:]


class _Simplex:
    """Revised primal simplex on min c'z, Az=b, z>=0 with a known basis."""

    def __init__(self, A, b, c, max_iter):
        self.A, self.b, self.c = A, b, c
        self.max_iter = max_iter
        self.iterations = 0

    def _factor(self, basis):
        B = self.A[:, basis]
        lu, piv = scipy.linalg.lu_factor(B, check_finite=False)
        if np.min(np.abs(np.diag(lu))) < _PIVOT_TOL:
            raise NumericalBreakdown("singular basis matrix")
        return lu, piv

    def run(self, basis, allowed, bar_reentry_from=None):
        """Iterate from `basis`; columns outside `allowed` never enter.

        Columns with index >= bar_reentry_from (phase-1 artificials) are
        removed from `allowed` once they leave the basis.  Returns
        (status, x, y, basis) where status is OPTIMAL or UNBOUNDED.
        """
        A, b, c, max_iter = self.A, self.b, self.c, self.max_iter
        m, n_total = A.shape
        basis = list(basis)
        in_basis = np.zeros(n_total, dtype=bool)
        in_basis[basis] = True
        degen_run = 0

        while True:
            if self.iterations >= max_iter:
                raise NumericalBreakdown(
                    f"iteration limit {max_iter} exceeded")
            self.iterations += 1

            lu_piv = self._factor(basis)
            xB = scipy.linalg.lu_solve(lu_piv, b, check_finite=False)
            y = scipy.linalg.lu_solve(lu_piv, c[basis], trans=1, check_finite=False)

            rc = c - y @ A
            rc[in_basis] = 0.0
            cand = np.flatnonzero((rc < -_DUAL_TOL) & allowed)
            if cand.size == 0:
                x = np.zeros(n_total)
                x[basis] = xB
                return OPTIMAL, x, y, basis

            bland = degen_run >= _DEGEN_THRESHOLD
            if bland:
                enter = int(cand[0])
            else:
                enter = int(cand[np.argmin(rc[cand])])

            d = scipy.linalg.lu_solve(lu_piv, A[:, enter], check_finite=False)
            pos = d > _PIVOT_TOL
            if not np.any(pos):
                return UNBOUNDED, None, y, basis

            ratios = np.full(m, np.inf)
            ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
            theta = np.min(ratios)
            ties = np.flatnonzero(ratios - theta <= 1e-9 * (1.0 + abs(theta)))
            if bland:
                leave_pos = min(ties, key=lambda r: basis[r])
            else:
                leave_pos = ties[np.argmax(d[ties])]

            degen_run = degen_run + 1 if theta <= 1e-11 else 0

            leaving = basis[leave_pos]
            in_basis[leaving] = False
            in_basis[enter] = True
            basis[leave_pos] = enter
            if bar_reentry_from is not None and leaving >= bar_reentry_from:
                allowed[leaving] = False


def _solve_simplex(problem: LpProblem, config: SolverConfig) -> LpSolution:
    std = _StandardForm(problem)
    A, b, c = std.A, std.b, std.c
    m, n = A.shape

    if m == 0:
        # no constraints at all: optimal iff no improving direction exists
        if np.any(c < -_DUAL_TOL):
            return LpSolution(status=UNBOUNDED, backend="simplex")
        x = std.recover_x(np.zeros(n))
        return _finish(problem, x, np.zeros(0), np.zeros(0), 0, "simplex")

    # phase 1: artificial basis
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    engine = _Simplex(A1, b, c1, config.max_iter)
    allowed = np.ones(n + m, dtype=bool)
    status, z, y, basis = engine.run(basis, allowed, bar_reentry_from=n)
    if status != OPTIMAL:
        raise NumericalBreakdown("phase-1 subproblem reported unbounded")
    phase1_obj = float(c1 @ z)
    if phase1_obj > _FEAS_TOL * (1.0 + np.max(np.abs(b), initial=0.0)):
        return LpSolution(status=INFEASIBLE, backend="simplex",
                          iterations=engine.iterations)

    # drive artificials out of the basis; rows that cannot pivot are redundant
    kept_rows = list(range(m))
    drop_rows = []
    for pos in range(m):
        if basis[pos] < n:
            continue
        lu_piv = engine._factor(basis)
        row_ok = False
        for j in range(n):
            if j in basis:
                continue
            d = scipy.linalg.lu_solve(lu_piv, A1[:, j], check_finite=False)
            if abs(d[pos]) > _PIVOT_TOL:
                basis[pos] = j
                row_ok = True
                break
        if not row_ok:
            drop_rows.append(pos)

    if drop_rows:
        keep = [r for r in range(m) if r not in set(drop_rows)]
        A = A[keep, :]
        b = b[keep]
        basis = [basis[pos] for pos in keep]
        kept_rows = keep

    # phase 2
    engine2 = _Simplex(A, b, c, config.max_iter)
    engine2.iterations = engine.iterations
    allowed2 = np.ones(n, dtype=bool)
    status, z, y, basis = engine2.run(basis, allowed2)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, backend="simplex",
                          iterations=engine2.iterations)

    x = std.recover_x(z[:std.n_struct + std.n_slack])
    duals_eq, duals_in = std.recover_duals(y, kept_rows)
    return _finish(problem, x, duals_eq, duals_in, engine2.iterations, "simplex")


def _solve_highs(problem: LpProblem, config: SolverConfig) -> LpSolution:
    from scipy.optimize import linprog

    sign = -1.0 if problem.sense == "max" else 1.0
    bounds = [(None, None) if s == FREE else (0.0, None)
              for s in problem.sign_class]
    A_eq = problem.A_eq if problem.A_eq.shape[0] else None
    A_in = problem.A_in if problem.A_in.shape[0] else None
    res = linprog(sign * problem.c,
                  A_ub=A_in, b_ub=problem.b_in if A_in is not None else None,
                  A_eq=A_eq, b_eq=problem.b_eq if A_eq is not None else None,
                  bounds=bounds, method=config.highs_method)
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, backend="highs")
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, backend="highs")
    if res.status != 0:
        raise NumericalBreakdown(f"HiGHS failed: {res.message}")

    # linprog marginals are d(min objective)/d(rhs); flip to the declared sense
    duals_eq = sign * res.eqlin.marginals if A_eq is not None else np.zeros(0)
    duals_in = sign * res.ineqlin.marginals if A_in is not None else np.zeros(0)
    return _finish(problem, res.x, duals_eq, duals_in,
                   int(getattr(res, "nit", 0)), "highs")


def _finish(problem, x, duals_eq, duals_in, iterations, backend):
    x = np.asarray(x, dtype=float)
    obj = problem.objective_at(x)

    report = check_point(problem, x, _FEAS_TOL)
    residual = max(report.max_equality_residual,
                   report.max_inequality_violation,
                   report.max_sign_violation)

    dual_obj = float(problem.b_eq @ duals_eq) + float(problem.b_in @ duals_in)
    scale = 1.0 + abs(obj)
    gap = abs(obj - dual_obj)

    cs = 0.0
    if problem.A_in.shape[0]:
        slack = problem.b_in - problem.A_in @ x
        cs = float(np.max(np.abs(duals_in * slack)))

    sol = LpSolution(status=OPTIMAL, x=x, duals_eq=duals_eq, duals_in=duals_in,
                     objective=obj, iterations=iterations, backend=backend,
                     gap=gap, max_primal_residual=residual,
                     max_cs_violation=cs)
    if residual > _FEAS_TOL * scale:
        raise NumericalBreakdown(f"primal residual {residual:.3e} exceeds tolerance")
    if gap > _GAP_TOL * scale:
        raise NumericalBreakdown(
            f"duality gap {gap:.3e} exceeds tolerance (objective {obj:.6g})")
    if cs > _GAP_TOL * scale:
        raise NumericalBreakdown(f"complementary slackness violation {cs:.3e}")
    SOLVE_STATS.record(gap / scale, residual, cs / scale)
    return sol


def solve_lp(problem: LpProblem, config: SolverConfig = None) -> LpSolution:
    """Solve an LpProblem, returning primal and dual solutions.

    Infeasible and unbounded problems are reported through
    ``LpSolution.status``; numerical failure raises NumericalBreakdown.
    """
    if config is None:
        config = SolverConfig()
    problem.validate()

    backend = config.backend
    if backend == "auto":
        size = problem.n_rows + problem.n_vars
        sparse_input = (scipy.sparse.issparse(problem.A_eq)
                        or scipy.sparse.issparse(problem.A_in))
        backend = "highs" if (size > _SIMPLEX_SIZE_LIMIT or sparse_input) \
            else "simplex"
    if backend == "simplex":
        return _solve_simplex(problem, config)
    if backend == "highs":
        return _solve_highs(problem, config)
    raise ValueError(f"unknown backend {config.backend!r}")
