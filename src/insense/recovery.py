"""Basis pursuit and the exact-recovery evaluation sweep.

solve_bp finds the minimum-l1 solution of an equality-constrained linear
system by splitting x into positive and negative parts and handing the
resulting linear program to the HiGHS solver bundled with scipy.
evaluate_recovery replays the sweep protocol: plant a unit-magnitude
k-sparse signal on every size-k support (or a seeded sample of them when
there are too many), measure it through the selected rows, and count the
supports that basis pursuit reproduces exactly.

Before any LP, a sweep screens all of its supports at once with the
Fuchs certificate (IEEE TIT 2004): when w = A_S (A_S'A_S)^-1 1 keeps
|a_l' w| < 1 off the support, 1_S is the unique basis pursuit solution,
and the trial counts as exact without an LP (its residual and error are
reported as 0.0; RecoveryReport.certified counts these trials).  The
remaining trials share the constraint matrix and only the measurement
changes, so a sweep builds one HiGHS model and re-solves it with new row
bounds per trial, in support order: each solve is a dual simplex run
warm-started from the basis the previous LP trial ended in, and
_SIMPLEX_ITERATION_LIMIT caps the simplex iterations of each such run.

The sweep sees the selected submatrix with its columns scaled to unit
l2 norm.  Column coherence, the quantity the selectors optimize, only
constrains column directions; without the rescaling, per-column gain
differences leak into the planted amplitudes and the sweep stops
measuring the property the selection controlled.
"""

import itertools
import math

import numpy as np

from dataclasses import dataclass
from typing import NamedTuple

from scipy.optimize._highspy import _core as _highs
from scipy.sparse import csc_array

from .exceptions import SolverFailureError
from .metrics import as_integer, as_sensing_matrix, as_whole_number, validate_subset
from .seeding import seeded_rng

# Fuchs pre-screen of a sweep: supports per batched solve, the least
# eigenvalue ratio of A_S'A_S that is solved at all, and the gap below 1
# that every off-support correlation must keep
_CERT_CHUNK = 1024
_CERT_MIN_EIG_RATIO = 1e-6
_CERT_MARGIN = 1e-6
# basis pursuit: the largest equality residual of an accepted solution,
# the per-entry error of an exact recovery, and the simplex iterations of
# one solve (inside a sweep, counted from the previous trial's basis)
_FEAS_TOL = 1e-8
_EXACT_TOL = 1e-4
_SIMPLEX_ITERATION_LIMIT = 20000


@dataclass
class BpConfig:
    """Sampling settings of a recovery sweep.

    A sweep runs every size-k support while (n choose k) is at most
    sample_cap, and a seeded uniform sample of sample_cap supports above
    it.  Both must be integers (bools are rejected), sample_cap >= 1.
    """

    seed: int = 0
    sample_cap: int = 10000

    def __post_init__(self):
        as_integer(self.seed, "seed")
        as_integer(self.sample_cap, "sample_cap", least=1)


class TrialOutcome(NamedTuple):
    """One support's result inside a recovery sweep."""

    support: tuple
    recovered: bool
    residual: float
    linf_error: float


@dataclass
class RecoveryReport:
    """Aggregate sweep outcome; per_trial is filled only on request.

    certified counts the exact trials decided by the Fuchs certificate
    without an LP, solver_failures the LP trials whose solve failed.
    """

    total_trials: int
    exact_count: int
    accuracy_percent: float
    sampled: bool
    certified: int = 0
    solver_failures: int = 0
    per_trial: list[TrialOutcome] | None = None

    def to_dict(self):
        return {
            "total_trials": self.total_trials,
            "exact_count": self.exact_count,
            "accuracy_percent": self.accuracy_percent,
            "sampled": self.sampled,
            "certified": self.certified,
            "solver_failures": self.solver_failures,
        }


class _BasisPursuit:
    """The basis pursuit LP of a fixed matrix, re-solved for each measurement.

    min 1'[u; v] subject to [a, -a][u; v] = y, u, v >= 0, held in one
    HiGHS model; solve(y) only changes the row bounds, so HiGHS starts
    from the basis the previous solve ended in.
    """

    def __init__(self, a):
        m, n = a.shape
        mat = csc_array(np.hstack([a, -a]))
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = 2 * n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.col_cost_ = np.ones(2 * n)
        lp.col_lower_ = np.zeros(2 * n)
        lp.col_upper_ = np.full(2 * n, _highs.kHighsInf)
        lp.row_lower_ = lp.row_upper_ = np.zeros(m)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = mat.indptr
        lp.a_matrix_.index_ = mat.indices
        lp.a_matrix_.value_ = mat.data
        self._a = a
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("simplex_iteration_limit", _SIMPLEX_ITERATION_LIMIT)
        self._highs.passModel(lp)

    def solve(self, y):
        """Minimum-l1 x with a @ x = y, and its residual; raises SolverFailureError."""
        highs = self._highs
        for row, value in enumerate(y.tolist()):
            highs.changeRowBounds(row, value, value)
        highs.run()
        status = highs.getModelStatus()
        solution = highs.getSolution()
        x, residual = None, float("nan")
        if solution.value_valid:
            uv = np.asarray(solution.col_value)
            n = self._a.shape[1]
            x = uv[:n] - uv[n:]
            residual = float(np.linalg.norm(self._a @ x - y))
        if status != _highs.HighsModelStatus.kOptimal or x is None:
            raise SolverFailureError(
                f"basis pursuit LP failed: {highs.modelStatusToString(status)}", residual=residual
            )
        if residual > _FEAS_TOL:
            raise SolverFailureError(
                f"basis pursuit solution infeasible (residual {residual:.3e})", residual=residual
            )
        return x, residual


def solve_bp(phi_sub, y):
    """Minimum-l1 solution of phi_sub @ x = y.

    Parameters
    ----------
    phi_sub : array_like, shape (m, n)
        Measurement rows (typically the selected submatrix).
    y : array_like, shape (m,)
        Noiseless measurements.

    Returns
    -------
    ndarray, shape (n,)

    Raises
    ------
    SolverFailureError
        When the linear program fails (for one, after
        _SIMPLEX_ITERATION_LIMIT simplex iterations) or the returned point
        leaves an equality residual above _FEAS_TOL (1e-8); carries the
        last residual when known.
    """
    a = np.asarray(phi_sub, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"measurement matrix must be 2-D, got shape {a.shape}")
    if y.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape} vs measurement {y.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
        raise ValueError("measurement matrix and measurements must be finite")
    return _BasisPursuit(a).solve(y)[0]


def _unit_columns(a):
    """Columns scaled to unit l2 norm; all-zero columns pass through."""
    norms = np.linalg.norm(a, axis=0)
    return a / np.where(norms > 0.0, norms, 1.0)


def _unrank(ranks, n, k):
    """Lexicographic size-k subsets of range(n) for an array of ranks.

    Rank r is rewritten as q = C(n, k) - r, the number of subsets from
    the r-th on; position by position, the next element v is the largest
    with C(n - v, remaining) >= q, found by one searchsorted over the
    table C(j, remaining), j = 0..n, and q drops by C(n - v - 1,
    remaining).  Table entries are clipped at C(n, k), which q never
    exceeds, so every count fits in int64 when C(n, k) does.
    """
    total = math.comb(n, k)
    q = total - np.asarray(ranks, dtype=np.int64)
    out = np.empty((q.size, k), dtype=np.intp)
    for i, remaining in enumerate(range(k, 0, -1)):
        table = np.array([min(math.comb(j, remaining), total) for j in range(n + 1)],
                         dtype=np.int64)
        j = np.searchsorted(table, q)
        out[:, i] = n - j
        q -= table[j - 1]
    return out


def _supports(n, k, cfg):
    """Every size-k support, or a seeded uniform sample above the cap."""
    total = math.comb(n, k)
    if total <= cfg.sample_cap:
        return list(itertools.combinations(range(n), k)), False
    rng = seeded_rng(cfg.seed)
    if total <= max(4 * cfg.sample_cap, 1_000_000):
        ranks = rng.permutation(total)[: cfg.sample_cap]
    elif total < 2**63:
        # collisions are rare at this size; rejection converges quickly
        seen = set()
        while len(seen) < cfg.sample_cap:
            seen.add(int(rng.integers(total)))
        ranks = list(seen)
    else:
        # ranks no longer fit in int64: draw uniform supports directly
        seen = set()
        while len(seen) < cfg.sample_cap:
            seen.add(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
        return sorted(seen), True
    return list(map(tuple, _unrank(np.sort(ranks), n, k).tolist())), True


def _fuchs_certified(a, supports):
    """Which supports carry a Fuchs certificate of exact recovery.

    For a support S with A_S' A_S well conditioned, w = A_S (A_S' A_S)^-1 1
    is a dual point with A_S' w = 1; |a_l' w| < 1 for every l outside S
    proves that 1_S is the unique minimum-l1 point of {x : A x = A 1_S}
    (Fuchs, IEEE TIT 2004), so basis pursuit recovers it exactly.
    Ill-conditioned supports (zero or repeated columns, k > m) are never
    certified.  supports is an int array of shape (t, k); the stacked
    k x k solves run over chunks of _CERT_CHUNK supports, so memory stays
    O(_CERT_CHUNK n).
    """
    t, k = supports.shape
    certified = np.zeros(t, dtype=bool)
    cols = a.T
    for lo in range(0, t, _CERT_CHUNK):
        chunk = supports[lo:lo + _CERT_CHUNK]
        a_s = cols[chunk]  # (c, k, m)
        gram = a_s @ a_s.transpose(0, 2, 1)
        eig = np.linalg.eigvalsh(gram)
        ok = eig[:, 0] > _CERT_MIN_EIG_RATIO * eig[:, -1]
        gram[~ok] = np.eye(k)  # keep the batched solve nonsingular; verdict already False
        coef = np.linalg.solve(gram, np.ones((len(chunk), k, 1)))
        w = (a_s * coef).sum(axis=1)  # (c, m)
        corr = np.abs(w @ a)
        np.put_along_axis(corr, chunk, 0.0, axis=1)
        certified[lo:lo + len(chunk)] = ok & (corr.max(axis=1) < 1.0 - _CERT_MARGIN)
    return certified


def evaluate_recovery(phi, subset, k, cfg=None, keep_trials=False):
    """Exact-recovery percentage of unit-magnitude k-sparse signals.

    cfg (a BpConfig) picks the supports.  For each support, plants x with
    ones on the support, measures y = A @ x through the column-normalized
    submatrix A, and counts the trial as exact when basis pursuit
    reproduces x to within _EXACT_TOL (1e-4) in every entry.  A support with a Fuchs certificate (see
    _fuchs_certified) is exact without an LP; its residual and error are
    reported as 0.0 and it is counted in `certified`.  Every other
    support goes to basis pursuit: a solver failure marks the trial as
    not recovered, is counted in solver_failures, and the sweep goes on.
    The LP trials share one warm-started model (see the module
    docstring).  per_trial holds every TrialOutcome when keep_trials.

    Returns
    -------
    RecoveryReport

    Raises
    ------
    ValueError
        When k is not a whole number in [1, n) (bools are rejected), and
        InvalidSubsetError (a ValueError) when subset is not a strictly
        increasing list of whole numbers in [0, d).
    """
    cfg = cfg or BpConfig()
    phi = as_sensing_matrix(phi)
    d, n = phi.shape
    idx = validate_subset(subset, d)
    whole = as_whole_number(k)
    if whole is None or not 1 <= whole < n:
        raise ValueError(f"sparsity k={k!r} must be an integer in [1, {n})")
    k = whole
    a = _unit_columns(phi[idx])
    supports, sampled = _supports(n, k, cfg)
    certified = _fuchs_certified(a, np.array(supports))
    bp = _BasisPursuit(a)
    trials = [] if keep_trials else None
    exact = failures = 0
    for support, sure in zip(supports, certified.tolist()):
        if sure:
            residual, err, recovered = 0.0, 0.0, True
        else:
            x = np.zeros(n)
            x[list(support)] = 1.0
            y = a @ x
            try:
                xhat, residual = bp.solve(y)
                err = float(np.max(np.abs(xhat - x)))
                recovered = err <= _EXACT_TOL
            except SolverFailureError as exc:
                residual, err, recovered = exc.residual, math.inf, False
                failures += 1
        exact += recovered
        if keep_trials:
            trials.append(TrialOutcome(support, bool(recovered), residual, err))
    total = len(supports)
    return RecoveryReport(
        total_trials=total,
        exact_count=exact,
        accuracy_percent=100.0 * exact / total,
        sampled=sampled,
        certified=int(certified.sum()),
        solver_failures=failures,
        per_trial=trials,
    )
