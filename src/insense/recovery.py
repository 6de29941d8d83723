"""Basis pursuit and the exact-recovery evaluation sweep.

solve_bp finds the minimum-l1 solution of an equality-constrained linear
system by splitting x into positive and negative parts and handing the
resulting linear program to the HiGHS solver bundled with scipy,
through its binding scipy.optimize._highspy._core.  The first LP of a
process imports that binding, and scipy.optimize with it (see
_highs_binding); importing insense, selecting, scoring and a sweep the
dual screen decides in full load no scipy module at all.
evaluate_recovery replays the sweep protocol: plant a unit-magnitude
k-sparse signal on every size-k support (or a seeded sample of them when
there are too many), measure it through the selected rows, and count the
supports that basis pursuit reproduces exactly.

Before any LP, a sweep screens all of its supports at once with dual
certificates (see _dual_screen).  A support whose dual set {w : A_S'w = 1}
holds a w with |a_l' w| < 1 off the support has 1_S as the unique basis
pursuit solution: the trial counts as exact without an LP (residual and
error 0.0, counted in RecoveryReport.certified).  The screen starts from
the Fuchs point w = A_S (A_S'A_S)^-1 1 (IEEE TIT 2004) and moves on by
Lawson reweighting; on linearly independent rows the same weights give
a lower bound on the least max |a_l' w| over the dual set, and a bound
above 1 proves 1_S is no basis pursuit solution: the trial counts as not
recovered without an LP (residual and error NaN, counted in
RecoveryReport.refuted).  The supports a few Lawson steps leave
undecided are pooled from the whole sweep and get exchange rounds on a
reference set of columns, which decide nearly all of them.  Every
matrix takes this one path; dependent rows (a repeated row, more rows
than columns) only lose the refutations.  However many rows a sweep
has, each phase is batched by the matrices it holds (k x m, m x m or
(m + 1) x (m + 1)), so that no array of them has more than
_CERT_ENTRIES entries; the Fuchs point's rows of n correlations are
held to that budget too.  The undecided trials share the constraint
matrix and only the measurement changes, so the first of them
builds one HiGHS model, and the sweep re-solves it with new row bounds
per trial, in support order: each solve is a dual simplex run without
presolve, warm-started from the basis the previous LP trial ended in,
and _SIMPLEX_ITERATION_LIMIT caps the simplex iterations of each such
run.  A sweep the screen decides in full builds no model.

The sweep sees the selected submatrix with its columns scaled to unit
l2 norm, each after an exact power-of-two scaling of its own (see
_unit_columns), so that no column norm overflows or underflows at any
scale of phi or of a single column.  Column coherence, the
quantity the selectors optimize, only constrains column directions;
without the rescaling, per-column gain differences leak into the
planted amplitudes and the sweep stops measuring the property the
selection controlled.
"""

import contextlib
import math

import numpy as np

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

from .exceptions import SolverFailureError
from .metrics import as_integer, as_whole_number, extract_submatrix
from .seeding import seeded_rng

# dual screen of a sweep: the most supports per batched solve, the least
# eigenvalue ratio of A_S'A_S that is solved at all (and of A A' for any
# refutation, and the floor of the Lawson ridge), the gap to 1 that a
# certificate or a refutation must keep, the Lawson steps after the Fuchs
# point, the most entries of a batch's m x m matrices or of a block of the
# outer-product table, and the most exchange rounds after the Lawson steps
_CERT_CHUNK = 512
_CERT_MIN_EIG_RATIO = 1e-6
_CERT_MARGIN = 1e-6
_CERT_ITERS = 6
_CERT_ENTRIES = 2**18
_EXCHANGE_ROUNDS = 40
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
    sample_cap, and above it a uniform sample of sample_cap supports
    drawn from seed.  Both must be integers (bools are rejected),
    sample_cap >= 1.
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

    certified counts the trials the dual screen proved exact and refuted
    those it proved not exact, both without an LP; solver_failures counts
    the LP trials whose solve failed, and simplex_iterations sums the
    simplex iterations HiGHS reported over the sweep's LP trials.
    """

    total_trials: int
    exact_count: int
    accuracy_percent: float
    sampled: bool
    certified: int = 0
    refuted: int = 0
    solver_failures: int = 0
    simplex_iterations: int = 0
    per_trial: list[TrialOutcome] | None = None

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_trial"}

    def __eq__(self, other):
        # a trial no LP ran on has a NaN residual and error, and NaN never
        # equals itself; reading NaN as None keeps a report equal to its
        # copies (pickled, or rebuilt from arrays), not only to itself
        if type(other) is not type(self):
            return NotImplemented
        return self._nan_free() == other._nan_free()

    __hash__ = None

    def _nan_free(self):
        values = [_nan_to_none(v) for v in self.to_dict().values()]
        if self.per_trial is not None:
            values.append([tuple(map(_nan_to_none, t)) for t in self.per_trial])
        return values


def _nan_to_none(value):
    return None if value != value else value


def _highs_binding():
    """scipy's HiGHS binding; the first LP of a process imports scipy.optimize with it."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise ImportError(
            "basis pursuit needs scipy's HiGHS binding scipy.optimize._highspy._core"
            f" (scipy >= 1.15): {exc}"
        ) from exc
    return _core


class _BasisPursuit:
    """The basis pursuit LP of a fixed matrix, re-solved for each measurement.

    min 1'[u; v] subject to [a, -a][u; v] = y, u, v >= 0, held in one
    HiGHS model; solve(y) only changes the row bounds, so HiGHS starts
    from the basis the previous solve ended in.
    """

    def __init__(self, a):
        m, n = a.shape
        core = _highs_binding()
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = 2 * n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.col_cost_ = np.ones(2 * n)
        lp.col_lower_ = np.zeros(2 * n)
        lp.col_upper_ = np.full(2 * n, core.kHighsInf)
        lp.row_lower_ = lp.row_upper_ = np.zeros(m)
        # [a, -a] as dense columns; HiGHS drops their zero entries itself
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.arange(0, 2 * n * m + 1, m)
        lp.a_matrix_.index_ = np.tile(np.arange(m), 2 * n)
        lp.a_matrix_.value_ = np.concatenate([a, -a], axis=1).T.ravel()
        self._a = a
        self._optimal = core.HighsModelStatus.kOptimal
        self._highs = core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("simplex_iteration_limit", _SIMPLEX_ITERATION_LIMIT)
        # presolve would run again on every re-solve; without it, sweeps take
        # the same simplex iterations in less time
        self._highs.setOptionValue("presolve", "off")
        self._highs.passModel(lp)
        self.simplex_iterations = 0

    def solve(self, y):
        """Minimum-l1 x with a @ x = y, and its residual; raises SolverFailureError."""
        highs = self._highs
        for row, value in enumerate(y.tolist()):
            highs.changeRowBounds(row, value, value)
        highs.run()
        self.simplex_iterations += highs.getInfo().simplex_iteration_count
        status = highs.getModelStatus()
        solution = highs.getSolution()
        x, residual = None, float("nan")
        if solution.value_valid:
            uv = np.asarray(solution.col_value)
            n = self._a.shape[1]
            x = uv[:n] - uv[n:]
            residual = float(np.linalg.norm(self._a @ x - y))
        if status != self._optimal or x is None:
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

    The first call of a process imports scipy.optimize, which holds the
    HiGHS binding; later calls reuse it.

    Raises
    ------
    ValueError
        When phi_sub is not a 2-D matrix with at least one row and one
        column, y does not match its rows, or an entry is not finite.
    SolverFailureError
        When the linear program fails (for one, after
        _SIMPLEX_ITERATION_LIMIT simplex iterations) or the returned point
        leaves an equality residual above _FEAS_TOL (1e-8); carries the
        last residual when known.
    ImportError
        When scipy lacks the binding scipy.optimize._highspy._core
        (scipy < 1.15).
    """
    a = np.asarray(phi_sub, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"measurement matrix must be 2-D, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"measurement matrix must have a row and a column, got shape {a.shape}")
    if y.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape} vs measurement {y.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
        raise ValueError("measurement matrix and measurements must be finite")
    return _BasisPursuit(a).solve(y)[0]


def _unit_columns(a):
    """Columns scaled to unit l2 norm; all-zero columns pass through.

    Each column is first scaled by the power of two that puts its largest
    entry in [0.5, 1).  That is exact, so no norm overflows or underflows
    at any scale of the column, and a column whose squares stay in float
    range comes out bit for bit as a / |a|.
    """
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), axis=0))[1])
    norms = np.linalg.norm(a, axis=0)
    return a / np.where(norms > 0.0, norms, 1.0)


@lru_cache(maxsize=64)
def _binomials(n, r, total):
    """C(j, r) for j = 0..n, clipped at total, as a read-only int64 array.

    A sweep unranks with one table per support position; sweeps of one n
    and k repeat them, so the last few are kept.
    """
    table = np.array([min(math.comb(j, r), total) for j in range(n + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _unrank(ranks, n, k):
    """Lexicographic size-k subsets of range(n) for an array of ranks.

    Rank r is rewritten as q = C(n, k) - r, the number of subsets from
    the r-th on; position by position, the next element v is the largest
    with C(n - v, remaining) >= q, found by one searchsorted over the
    table C(j, remaining), j = 0..n (see _binomials), and q drops by
    C(n - v - 1, remaining).  Table entries are clipped at C(n, k), which
    q never exceeds, so every count fits in int64 when C(n, k) does.
    """
    total = math.comb(n, k)
    q = total - np.asarray(ranks, dtype=np.int64)
    out = np.empty((q.size, k), dtype=np.intp)
    for i, remaining in enumerate(range(k, 0, -1)):
        table = _binomials(n, remaining, total)
        j = np.searchsorted(table, q)
        out[:, i] = n - j
        q -= table[j - 1]
    return out


def _supports(n, k, cfg):
    """Every size-k support, or a seeded uniform sample above the cap.

    A (t, k) int array in lexicographic order, and whether it is sampled.
    Below C(n, k) = 2^63 a sample is the sorted ranks of one
    Generator.choice (Floyd's algorithm: O(sample_cap) time and memory);
    past it, supports are drawn directly until sample_cap are distinct.
    """
    total = math.comb(n, k)
    if total <= cfg.sample_cap:
        return _unrank(np.arange(total), n, k), False
    rng = seeded_rng(cfg.seed)
    if total < 2**63:
        ranks = rng.choice(total, cfg.sample_cap, replace=False, shuffle=False)
        return _unrank(np.sort(ranks), n, k), True
    seen = set()
    while len(seen) < cfg.sample_cap:
        seen.add(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
    return np.array(sorted(seen)), True


def _certify(w, a, sup, root):
    """|a_l' w| for each row of w (0 on its support), and whether the row certifies.

    w certifies its support when max |a_l' w| off the support, plus the
    distance ||A_S' w - 1|| / sigma_min(A_S) from w to the dual set (which
    adds at most that to any |a_l' w| of a unit column), stays below
    1 - _CERT_MARGIN.  root holds sigma_min(A_S) per support.
    """
    corr = w @ a
    on = (np.arange(len(w))[:, None], sup)
    slack = corr[on] - 1.0
    np.abs(corr, out=corr)
    corr[on] = 0.0
    sure = corr.max(axis=1) + np.sqrt((slack * slack).sum(axis=1)) / root
    return corr, sure < 1.0 - _CERT_MARGIN


def _inverse(mats):
    """Batched inverse; a matrix LAPACK finds singular comes back as NaN."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        out = np.full_like(mats, np.nan)
        for i, mat in enumerate(mats):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.inv(mat)
        return out


def _bordered(cols, sup, ref):
    """K = [[A_S, -A_J], [0, 1']] for each support, shape (c, m + 1, m + 1)."""
    c, k = sup.shape
    m = cols.shape[1]
    mat = np.zeros((c, m + 1, m + 1))
    mat[:, :m, :k] = cols[sup].transpose(0, 2, 1)
    mat[:, :m, k:] = -cols[ref].transpose(0, 2, 1)
    mat[:, m, k:] = 1.0
    return mat


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _exchange(a, sup, root, ref, reach):
    """Verdicts of up to _EXCHANGE_ROUNDS exchange rounds (see _dual_screen).

    sup (c, k) holds supports the Lawson steps left undecided, root their
    sigma_min(A_S), and ref (c, p) a reference set of p = m - k + 1
    off-support columns for each; _dual_screen passes c <= max(1,
    _CERT_ENTRIES // (m + 1)^2) supports, so that the (c, m + 1, m + 1)
    inverses stay within _CERT_ENTRIES entries.  reach is sqrt(n /
    lambda_min(A A')), or inf on linearly dependent rows, where the
    rounds refute nothing.
    Each support holds the inverse of its bordered matrix K = [[A_S, -A_J],
    [0, sigma']]: one batched inverse of K bordered with ones, then a
    Sherman-Morrison rank-one update for the switch to sigma and one per
    exchange, and nothing else.  Beside it each support keeps span =
    [A_S, -A_J], the top m rows of K, copied once from the first bordered
    matrix; an exchange sets its column k + drop to -a_l*, so that a
    round's refutation residual r = A_S lam - A_J mu is one batched
    product span @ (lam, mu).  An inverse of a (nearly) singular K may
    hold inf or NaN, which ends that support's rounds without a verdict;
    numpy's warnings about them are silenced.
    """
    k = sup.shape[1]
    m = a.shape[0]
    cols = a.T
    verdict = np.zeros(len(sup), dtype=np.int8)
    live = np.arange(len(sup))
    ref = ref.copy()  # the exchanges write into it
    # |K|_F^2 <= m + 1 + p with unit columns and a +-1 border, so K^-1 below
    # this keeps the Frobenius condition number of K under 1 / _CERT_MIN_EIG_RATIO
    limit = 1.0 / (_CERT_MIN_EIG_RATIO**2 * (2 * m - k + 2))
    # a first inverse bordered with ones gives (lam, mu) with 1' mu = 1, and
    # sigma = sign(mu); the border then becomes sigma, the first rank-one
    # update: K gains e_m (0, sigma - 1)', and Sherman-Morrison divides by
    # 1 + (sigma - 1)' mu = sigma' mu = ||mu||_1 >= 1
    span = _bordered(cols, sup, ref)
    inv = _inverse(span)
    # [A_S, -A_J], the top m rows of K, kept beside its inverse
    span = span[:, :m].copy()
    border = np.where(inv[:, k:, m] < 0.0, -1.0, 1.0)
    dual = inv[:, :, m].copy()
    row = ((border - 1.0)[:, :, None] * inv[:, k:]).sum(axis=1)
    row /= np.abs(dual[:, k:]).sum(axis=1)[:, None]
    inv -= dual[:, :, None] * row[:, None, :]
    for _ in range(_EXCHANGE_ROUNDS):
        # (lam, mu) = K^-1 e_m, the null vector of [A_S, -A_J] with sigma' mu
        # = 1, oriented with its border to 1'lam >= 0
        dual = inv[:, :, m]
        turn = np.where(dual[:, :k].sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        dual *= turn
        border *= turn
        # K' [w; h] = [1; 0]: A_S' w = 1 and sigma_j a_j' w = h = 1'lam on J,
        # the minimax over J; both verdicts below hold for whatever (lam, mu)
        # and w were computed
        w = inv[:, :k, :m].sum(axis=1)
        corr, sure = _certify(w, a, sup, root)
        wrong = np.zeros_like(sure)
        if math.isfinite(reach):
            # with r = A_S lam - A_J mu, every w of the dual set has 1'lam <=
            # ||mu||_1 max_J |a_j' w| + |r| |w|, and a minimizer with L <= 1
            # has |A' w|^2 <= n, so |w| <= reach; r is needed only where 1'lam
            # is large
            value = dual[:, :k].sum(axis=1)
            bar = (1.0 + _CERT_MARGIN) * np.abs(dual[:, k:]).sum(axis=1)
            wrong = ~sure & (value > bar)
            if wrong.any():
                r = np.linalg.norm((span @ dual[:, :, None])[:, :, 0], axis=1)
                wrong &= value - r * reach > bar
        verdict[live[sure]] = 1
        verdict[live[wrong]] = -1
        # exchange: the most violated column l* comes in; a support whose l*
        # is already in J has reached the minimax and stops, and so does one
        # whose K^-1 is not finite or too large
        new = corr.argmax(axis=1)
        keep = (~(sure | wrong) & (ref != new[:, None]).all(axis=1)
                & (np.einsum("cij,cij->c", inv, inv) < limit))
        if not keep.any():
            break
        if not keep.all():
            live, sup, root, ref, border, inv, span, w, new = (
                x[keep] for x in (live, sup, root, ref, border, inv, span, w, new))
        head = cols[new]
        sign = np.where((w * head).sum(axis=1) < 0.0, -1.0, 1.0)
        # the dual simplex ratio test: with z = K^-1 [sigma* a_l*; 0], sigma* =
        # sign(a_l*' w), the duals (lam, mu) + theta z with mu_l* = theta sigma*
        # raise 1'lam / ||mu||_1 as theta grows, until the first sigma_j mu_j
        # reaches 0: the least sigma_j z_j / |mu_j|
        z = (inv[:, :, :m] @ head[:, :, None])[:, :, 0] * sign[:, None]
        dual = inv[:, :, m]
        at = np.arange(len(live))
        drop = (z[:, k:] * border / np.abs(dual[:, k:])).argmin(axis=1)
        ref[at, drop] = new
        border[at, drop] = sign
        # column k + drop of K becomes [-a_l*; sigma*], which K^-1 maps to
        # d = sigma* ((lam, mu) - z)
        d = sign[:, None] * (dual - z)
        q = k + drop
        span[at, :, q] = -head
        row = inv[at, q] / d[at, q][:, None]
        inv -= d[:, :, None] * row[:, None, :]
        inv[at, q] = row
    return verdict


def _outer_products(cols):
    """The table of outer products a_l a_l', one flattened m x m row per column."""
    m = cols.shape[1]
    return (cols[:, :, None] * cols[:, None, :]).reshape(len(cols), m * m)


def _dual_screen(a, supports):
    """Decide from dual certificates whether basis pursuit recovers 1_S.

    Returns an int8 verdict per support: 1 when 1_S is the unique
    minimum-l1 point of {x : A x = A 1_S}, -1 when it is not a minimum-l1
    point at all, 0 when the screen cannot tell (the sweep then runs the
    LP).  Both verdicts rest on the dual set {w : A_S' w = 1}: 1_S is a
    minimizer exactly when L = min_w max_{l not in S} |a_l' w| <= 1, and
    the unique one when a w with every |a_l' w| < 1 exists (Zhang, Yin &
    Cheng 2015).

    Iterate 0 is the Fuchs point w = A_S (A_S' A_S)^-1 1 (Fuchs, IEEE TIT
    2004).  Up to _CERT_ITERS Lawson steps follow on the supports still
    undecided: with weights omega >= 0 on the off-support columns summing
    to 1, M = A diag(omega) A' + delta I and w = M^-1 A_S lam, lam =
    (A_S' M^-1 A_S)^-1 1, minimizes sum omega_l (a_l' w)^2 + delta |w|^2
    over the dual set; the weights then become omega_l |a_l' w|,
    renormalized.  delta is _CERT_MARGIN max(lambda_min(A A'),
    _CERT_MIN_EIG_RATIO lambda_max(A A')) / n, so M is regular on any
    rows.  A computed w certifies when max |a_l' w| off the support, plus
    the distance ||A_S' w - 1|| / sigma_min(A_S) to a point of the dual
    set, stays below 1 - _CERT_MARGIN; that test holds for any w, on any
    rows.  It refutes when the rows are linearly independent,
    lambda_min(A A') > _CERT_MIN_EIG_RATIO lambda_max(A A'), and the
    weak-duality bound D = 2 1'lam - sum omega_l (a_l' w)^2 - |r|^2 /
    delta, r = A diag(omega) A' w - A_S lam, exceeds (1 + _CERT_MARGIN)^2:
    D lower-bounds the weighted minimum, which lower-bounds L^2 up to
    delta |w_L|^2 <= delta n / lambda_min(A A') when L <= 1, and on such
    rows delta is _CERT_MARGIN lambda_min(A A') / n, so D > (1 +
    _CERT_MARGIN)^2 forces L > 1.  On dependent or nearly dependent rows
    |w_L| has no such bound, and neither D nor the exchange bound below
    refutes.  An inexact solve can only make a verdict less likely.

    A support with an all-zero column is refuted before any batch, and
    no batch holds it: basis pursuit leaves that entry at 0.  Other
    supports whose A_S' A_S has an eigenvalue ratio below
    _CERT_MIN_EIG_RATIO (repeated columns, k > m) stay undecided.
    supports is an int array of shape (t, k).  Each phase is batched by
    the matrices it holds, at most _CERT_CHUNK supports and otherwise
    max(1, _CERT_ENTRIES // s) for matrices of s entries each.  The
    Fuchs point holds k x m and k x k ones and a row of n values
    |a_l' w|, so it takes every support without a zero column in
    batches of s = max(k m, n) (327 supports on 400 rows at k = 2), and
    forms A_S' A_S once for both the eigenvalue test and its solve.  The
    supports it leaves are pooled from every batch with their
    (A_S' A_S)^-1 1, and take the Lawson steps in batches of s = m^2,
    from the Fuchs point's |a_l' w| as first weights (a Lawson batch's
    weights hold up to _CERT_CHUNK x n entries).  Each step sums M over
    blocks of max(1, _CERT_ENTRIES // m^2) columns, a (batch, block) @
    (block, m^2) product with that block's table of the outer products
    a_l a_l', so neither a table block nor a batch's M holds more than
    max(_CERT_ENTRIES, m^2) entries.  When the whole table fits in one
    block (at most 32 rows and n <= 256, for one), the sweep builds it
    once and every step forms M from a single weights @ table product;
    past that, each step builds its blocks anew, which keeps the budget.

    The supports still undecided after the last Lawson step are pooled
    from every batch, and up to _EXCHANGE_ROUNDS exchange rounds run on
    the pool, in batches of s = (m + 1)^2, the entries of each support's
    bordered inverse; that many rounds only guard against cycling, since
    the rounds decide nearly every support they get.  L is a discrete
    Chebyshev problem, and the rounds are its Stiefel exchange (Cheney,
    Introduction to Approximation Theory, 1966).  Each
    support keeps a reference set J of p = m - k + 1 off-support columns,
    at first those with the largest |a_l' w| at the last Lawson w, and the
    inverse of the bordered matrix K = [[A_S, -A_J], [0, sigma']] with
    sigma = sign(mu) (see _exchange).  A round reads from it (lam, mu), the
    null vector of the m x (m + 1) matrix [A_S, -A_J] with sigma' mu = 1,
    oriented to 1'lam >= 0, and r = A_S lam - A_J mu.  Every w of the dual
    set has 1'lam <= ||mu||_1 max_J |a_j' w| + |r| |w|, and a minimizer
    with L <= 1 has |w| <= sqrt(n / lambda_min(A A')), so on independent
    rows the round refutes when 1'lam - |r| sqrt(n / lambda_min(A A')) >
    (1 + _CERT_MARGIN) ||mu||_1.  The w with A_S' w = 1 and sigma_j a_j'
    w = 1'lam on J, the minimax over J, also read from the inverse, goes
    through the certificate test above.  The most violated column then
    enters J and the column the dual simplex ratio test names leaves it, a
    rank-one change of K; a support stops when its most violated column is
    already in J, which makes w the minimizer over every column, or when
    its K is singular (as it is on dependent rows).  Both verdicts are
    inequalities that hold for whatever (lam, mu) or w was computed.  The
    rounds are skipped when p > n - k.
    """
    k = supports.shape[1]
    m, n = a.shape
    cols = a.T
    dead = (~a.any(axis=0))[supports].any(axis=1)
    verdict = -dead.astype(np.int8)
    rest = np.flatnonzero(~dead)
    eig_aa = np.linalg.eigvalsh(a @ a.T)
    # only the refutations need independent rows; the ridge has a floor
    independent = eig_aa[0] > _CERT_MIN_EIG_RATIO * eig_aa[-1]
    delta = _CERT_MARGIN * max(eig_aa[0], _CERT_MIN_EIG_RATIO * eig_aa[-1]) / n
    ridge = delta * np.eye(m)
    # supports per batch of each pass and columns per block of the outer-product
    # table, so that no array of the k x m, m x m or (m + 1) x (m + 1) matrices
    # a pass holds has more than _CERT_ENTRIES entries, nor the Fuchs point's
    # |a_l' w| (a Lawson batch's weights hold up to _CERT_CHUNK x n)
    block = max(1, _CERT_ENTRIES // (m * m))
    fuchs, lawson, exchange = (min(_CERT_CHUNK, max(1, _CERT_ENTRIES // size))
                               for size in (max(k * m, n), m * m, (m + 1) ** 2))
    # (positions, supports, sigma_min(A_S), (A_S' A_S)^-1 1) the Fuchs point left
    left = [(rest[:0], supports[:0], np.empty(0), np.empty((0, k, 1)))]
    for lo in range(0, len(rest), fuchs):
        live = rest[lo:lo + fuchs]
        sup = supports[live]
        a_s = cols[sup]  # (c, k, m)
        gram = a_s @ a_s.transpose(0, 2, 1)
        eig = np.linalg.eigvalsh(gram)
        solvable = eig[:, 0] > _CERT_MIN_EIG_RATIO * eig[:, -1]
        live, sup, a_s, gram = live[solvable], sup[solvable], a_s[solvable], gram[solvable]
        root = np.sqrt(eig[solvable, 0])
        # iterate 0, the Fuchs point w = A_S lam: M = I
        lam = np.linalg.solve(gram, np.ones((len(live), k, 1)))
        sure = _certify((a_s.transpose(0, 2, 1) @ lam)[:, :, 0], a, sup, root)[1]
        verdict[live[sure]] = 1
        left.append([v[~sure] for v in (live, sup, root, lam)])
    pool = []  # (positions, supports, sigma_min(A_S), reference sets) the Lawson steps left
    p = m - k + 1
    left = [np.concatenate(v) for v in zip(*left)]
    # a table that fits one block is the same in every Lawson step of the
    # sweep, so it is built once; past that, each step builds its blocks
    held = _outer_products(cols) if n <= block and len(left[0]) else None
    for lo in range(0, len(left[0]), lawson):
        live, sup, root, lam = (v[lo:lo + lawson] for v in left)
        a_s = cols[sup]
        # the Fuchs point's |a_l' w|, recomputed from its pooled lam, are the first weights
        corr = weights = _certify((a_s.transpose(0, 2, 1) @ lam)[:, :, 0], a, sup, root)[0]
        keep = np.ones(len(live), dtype=bool)
        for _ in range(_CERT_ITERS):
            weights /= weights.sum(axis=1, keepdims=True)
            # M = delta I + sum over blocks B of weights[:, B] @ (a_l a_l', l in B)
            mat = ridge
            for j in range(0, n, block):
                outer = _outer_products(cols[j:j + block]) if held is None else held
                term = (weights[:, j:j + block] @ outer).reshape(-1, m, m)
                term += mat
                mat = term
            x = np.linalg.solve(mat, a_s.transpose(0, 2, 1))
            lam = np.linalg.solve(a_s @ x, np.ones((len(live), k, 1)))
            w = (x @ lam)[:, :, 0]
            lam = lam[:, :, 0]
            corr, sure = _certify(w, a, sup, root)
            # A diag(omega) A' w; its dot with w is sum omega_l (a_l' w)^2
            mw = (mat @ w[:, :, None])[:, :, 0] - delta * w
            r = mw - (a_s * lam[:, :, None]).sum(axis=1)
            bound = 2.0 * lam.sum(axis=1) - (w * mw).sum(axis=1) - (r * r).sum(axis=1) / delta
            wrong = ~sure & independent & (bound > (1.0 + _CERT_MARGIN) ** 2)
            verdict[live[sure]] = 1
            verdict[live[wrong]] = -1
            keep = ~(sure | wrong)
            if not keep.any():
                break
            weights *= corr
            live, sup, a_s, root, weights = (v[keep] for v in (live, sup, a_s, root, weights))
        else:
            if p <= n - k:
                # the reference sets: the p largest |a_l' w| off the support,
                # copied so that the pool holds p columns of indices, not n
                corr = corr[keep]
                corr[np.arange(len(live))[:, None], sup] = -1.0
                pool.append((live, sup, root, np.argpartition(corr, n - p)[:, n - p:].copy()))
    if pool:
        at, sup, root, ref = (np.concatenate(part) for part in zip(*pool))
        reach = math.sqrt(n / eig_aa[0]) if independent else math.inf
        for lo in range(0, len(at), exchange):
            part = slice(lo, lo + exchange)
            verdict[at[part]] = _exchange(a, sup[part], root[part], ref[part], reach)
    return verdict


def evaluate_recovery(phi, subset, k, cfg=None, keep_trials=False):
    """Exact-recovery percentage of unit-magnitude k-sparse signals.

    cfg (a BpConfig) picks the supports, run in lexicographic order (see
    _supports).  For each support, plants x with ones on the support,
    measures y = A @ x through the column-normalized submatrix A (see
    the module docstring), and
    counts the trial as exact when basis pursuit reproduces x to within
    _EXACT_TOL (1e-4) in every entry.  The dual screen (see _dual_screen)
    decides most supports without an LP: a certified one is exact, with
    residual and error reported as 0.0; a refuted one is not, with
    residual and error NaN because no LP ran.  A support with an
    all-zero column is refuted before the screen batches anything.
    The screened outcomes are taken from the verdicts in bulk, and only
    the undecided supports go to basis pursuit, in support order: a
    solver failure marks the trial as not recovered (error inf), is
    counted in solver_failures, and the sweep goes on.  The LP trials
    share one warm-started model, built by the first of them (see the
    module docstring).  per_trial is assembled, in one pass, only when
    keep_trials: then it holds every TrialOutcome, and otherwise None.

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
    rows = extract_submatrix(phi, subset)
    n = rows.shape[1]
    whole = as_whole_number(k)
    if whole is None or not 1 <= whole < n:
        raise ValueError(f"sparsity k={k!r} must be an integer in [1, {n})")
    k = whole
    a = _unit_columns(rows)
    supports, sampled = _supports(n, k, cfg)
    verdicts = _dual_screen(a, supports)
    # the screen's verdicts in bulk, and the LP trials fill in their own
    # below; NaN where no LP ran
    recovered = verdicts > 0
    residual = np.full(len(supports), np.nan)
    residual[recovered] = 0.0
    err = residual.copy()
    bp = None  # built by the first trial that reaches an LP
    failures = 0
    for i in np.flatnonzero(verdicts == 0).tolist():
        x = np.zeros(n)
        x[supports[i]] = 1.0
        y = a @ x
        bp = bp or _BasisPursuit(a)
        try:
            xhat, residual[i] = bp.solve(y)
            err[i] = float(np.max(np.abs(xhat - x)))
            recovered[i] = err[i] <= _EXACT_TOL
        except SolverFailureError as exc:
            residual[i], err[i] = exc.residual, math.inf
            failures += 1
    trials = None
    if keep_trials:
        trials = list(map(TrialOutcome, map(tuple, supports.tolist()), recovered.tolist(),
                          residual.tolist(), err.tolist()))
    exact = int(np.count_nonzero(recovered))
    return RecoveryReport(
        total_trials=len(supports),
        exact_count=exact,
        accuracy_percent=100.0 * exact / len(supports),
        sampled=sampled,
        certified=int(np.count_nonzero(verdicts > 0)),
        refuted=int(np.count_nonzero(verdicts < 0)),
        solver_failures=failures,
        simplex_iterations=bp.simplex_iterations if bp else 0,
        per_trial=trials,
    )
