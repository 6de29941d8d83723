"""Projected-gradient selection of incoherent sensor rows.

Minimizes a smoothed version of the average squared column coherence of
the weighted matrix over relaxed selection weights z in the scaled
boxed-simplex {sum(z) = m, 0 <= z <= 1}.  The objective is expressed
through the weighted column Gram matrix

    G(z) = phi.T @ diag(z) @ phi,

summing (G_ij^2 + eps1) / (G_ii G_jj + eps2) over column pairs i < j; the
epsilons keep the ratio bounded when weighted column norms vanish.

Each step projects z - s * grad onto the set once and forms the Gram of
that end point p once.  The line search then backtracks along the segment
z + t (p - z), t = 1, 1/2, 1/4, ..., which stays feasible because the set
is convex.  G is linear in z, so the Gram of a segment point is
(1 - t) G(z) + t G(p): a backtrack costs one O(n^2) combination and one
objective pass, with no projection and no new Gram (monotone spectral
projected gradient, Birgin, Martinez & Raydan, SIAM J. Optim. 2000).

The reported subset is the best rounding seen along the descent path, not
the rounding of the final weights alone.  Fractional weights can null the
off-diagonal mass in ways no m-row subset can (spreading tiny weight over
many mutually orthogonal rows), so the final iterate's top-m rows may be
a poor subset even at a low objective value.  Scoring the actual rounded
candidates by their average column coherence closes that relaxation gap.
The best rounding usually appears within the first few steps, so the
descent stops once it has not improved for _PATIENCE accepted steps.
A run scores each distinct rounding once, across all of its restarts.

Each run_insense call allocates one _StepWork, a single block of n x n
and d x n arrays that every restart steps in, so a step allocates no
n x n or d x n array.  gram_matrix, _objective_from_gram and
weight_gradient write into it when handed one (keyword `work`) and
allocate as before without it.  An objective evaluation leaves its
den = diag diag' + eps2 and ratio = (G^2 + eps1) / den in the work,
tagged with its Gram.  The line search ends on the accepted candidate,
so the gradient of the next step is always taken at the Gram evaluated
last and starts from those arrays instead of forming them again.
"""

import numpy as np

from dataclasses import dataclass, field, replace

from .exceptions import NumericalFailureError
from .metrics import as_integer, as_sensing_matrix, mu_avg, validate_budget
from .projection import project_sbs
from .seeding import seeded_rng

INIT_MODES = ("uniform", "uniform-plus-jitter")
# line search: first trial step (and cap of every Barzilai-Borwein step),
# shrink factor of the segment fraction t per backtrack, and backtracks
# along the segment before the step counts as no descent
_LS_INIT_STEP = 1.0
_LS_SHRINK = 0.5
_MAX_BACKTRACKS = 50
# the descent stops when the relative objective change drops below _REL_TOL
_REL_TOL = 1e-7
_REL_FLOOR = 1e-30  # denominator floor for the relative-change stop rule
# accepted steps without a new best rounding before the descent stops
_PATIENCE = 10


@dataclass
class InsenseConfig:
    """Settings for run_insense.

    eps1/eps2 smooth the objective (eps2 < eps1 << 1) and must be finite,
    as must jitter_scale.  The run stops when the relative objective
    change drops below _REL_TOL (1e-7), when no step descends, when the
    best rounding has not improved for _PATIENCE (10) accepted steps, or
    after max_iters iterations; the result's stop_reason says which.
    max_iters, restarts and seed must be integers (bools are rejected).
    """

    eps1: float = 1e-9
    eps2: float = 1e-10
    max_iters: int = 5000
    init: str = "uniform"
    jitter_scale: float = 1e-3
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        for name in ("eps1", "eps2", "jitter_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.eps2 < self.eps1 < 1.0:
            raise ValueError(f"need 0 < eps2 < eps1 < 1, got {self.eps1}, {self.eps2}")
        as_integer(self.max_iters, "max_iters", least=1)
        as_integer(self.restarts, "restarts", least=1)
        as_integer(self.seed, "seed")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.jitter_scale < 0.0:
            raise ValueError("jitter_scale must be non-negative")


@dataclass
class SelectionResult:
    """Outcome of a selection run.

    subset holds the best rounded candidate along the descent path: at
    the start and after every accepted step, the current weights are
    rounded to their m largest entries (ties to the lower index) and the
    rounding is scored by the average column coherence of its submatrix.
    The lowest defined score wins, earliest iterate on ties;
    subset_iteration records where it occurred and subset_mu_avg its
    score.  When no visited rounding has a defined score (all of them
    leave zero columns), the final weights' rounding is kept and
    subset_mu_avg is None.

    stop_reason says why the descent ended: "rel_tol" (the relative
    objective change fell below _REL_TOL), "no_descent" (no trial
    step at resolvable sizes lowered the objective), "stalled" (_PATIENCE
    accepted steps passed without a new best rounding, counted from the
    last new best and only once some rounding has a defined score) or
    "max_iters" (the iteration cap).  converged is True for the first two
    only: a stalled run stops because its subset stopped improving, not
    because the objective settled.

    iterations, final_weights, final_objective and objective_trace
    describe the descent where it stopped.  A stalled run is an exact
    prefix of the run without the stall rule: the same trace up to its
    length, and final weights equal to that run's iterate at the same
    iteration.
    objective_evals counts the objective evaluations of the whole call,
    rejected line-search candidates and every restart included.  Only the
    first trial of a step forms a Gram matrix (over the nonzero weights of
    the projected point); each backtrack combines two Grams in O(n^2).
    """

    subset: np.ndarray
    final_weights: np.ndarray
    iterations: int
    final_objective: float
    objective_trace: list[float] = field(repr=False)
    stop_reason: str = "max_iters"
    subset_iteration: int = 0
    subset_mu_avg: float | None = None
    objective_evals: int = 0

    @property
    def converged(self):
        """True when the descent stopped on rel_tol or could not descend."""
        return self.stop_reason in ("rel_tol", "no_descent")


class _StepWork:
    """Work arrays of one run_insense call, shared by its restarts.

    One float64 block holds six n x n arrays and two d x n ones.  grams
    are three Gram slots: grams[0] holds the accepted iterate's Gram,
    gram_matrix writes into grams[1] and a backtrack into grams[2], and
    accept() swaps the slot of an accepted Gram into grams[0], so a write
    never lands on a Gram still in use.  product holds a Gram product
    before symmetrization and a backtrack's second term; den and ratio
    hold those of the last objective evaluation, which was on the Gram
    `source` (None once the gradient consumed them).  support and
    weighted hold a Gram's support rows and their weighted copy; the
    gradient's d x n product reuses support.  scores maps the bytes of a
    rounded subset to its mu_avg.
    """

    def __init__(self, d, n):
        square, rows = n * n, d * n
        block = np.empty(6 * square + 2 * rows)
        arrays = [block[i * square:(i + 1) * square].reshape(n, n) for i in range(6)]
        self.grams = arrays[:3]
        self.product, self.den, self.ratio = arrays[3:]
        self.support = block[6 * square:6 * square + rows].reshape(d, n)
        self.weighted = block[6 * square + rows:].reshape(d, n)
        self.source = None
        self.scores = {}

    def gram_slot(self):
        """grams[1], the slot a new Gram is written into."""
        self.source = None
        return self.grams[1]

    def segment(self, gram, gram_end, t):
        """The backtrack Gram (1 - t) gram + t gram_end, formed in grams[2]."""
        self.source = None
        cand = np.multiply(gram, 1.0 - t, out=self.grams[2])
        cand += np.multiply(gram_end, t, out=self.product)
        return cand

    def accept(self, gram):
        """Keep an accepted Gram: its slot becomes grams[0]."""
        for i in (1, 2):
            if self.grams[i] is gram:
                self.grams[0], self.grams[i] = gram, self.grams[0]


def gram_matrix(phi, z, *, work=None):
    """Weighted column Gram matrix phi.T @ diag(z) @ phi, symmetrized.

    Only the rows with a nonzero weight enter the product, so one call
    costs O(nnz(z) n^2) rather than O(d n^2); the projected weights of a
    descent are mostly exact zeros.  Any finite z gives the value of the
    dense formula, up to summation order.  With `work` (a run's
    _StepWork) the result is written into its Gram slot grams[1].
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (phi.shape[0],):
        raise ValueError(f"weights need shape ({phi.shape[0]},), got {z.shape}")
    rows = np.flatnonzero(z)
    support_out = weighted_out = product_out = gram_out = None
    if work is not None:
        support_out, weighted_out = work.support[: rows.size], work.weighted[: rows.size]
        product_out, gram_out = work.product, work.gram_slot()
    # rows are valid indices; mode="raise" would buffer `out` in a new array
    support = np.take(phi, rows, axis=0, out=support_out, mode="clip")
    weighted = np.multiply(z[rows, None], support, out=weighted_out)
    g = np.matmul(support.T, weighted, out=product_out)
    gram = np.add(g, g.T, out=gram_out)
    gram *= 0.5
    return gram


def _den_ratio(gram, eps1, eps2, work):
    """den = diag diag' + eps2 and ratio = (G^2 + eps1) / den, in work's arrays if given."""
    diag = np.diag(gram)
    den = np.outer(diag, diag, out=None if work is None else work.den)
    den += eps2
    ratio = np.square(gram, out=None if work is None else work.ratio)
    ratio += eps1
    ratio /= den
    return den, ratio


def _objective_from_gram(gram, eps1, eps2, *, work=None):
    den, ratio = _den_ratio(gram, eps1, eps2, work)
    if work is not None:
        work.source = gram
    # off-diagonal sum halves to the i < j pair sum
    return float((ratio.sum() - np.trace(ratio)) / 2.0)


def coherence_objective(phi, z, cfg=None):
    """Smoothed average-squared-coherence objective at weights `z`.

    Finite for any finite phi and any z in the box, including z = 0.
    """
    cfg = cfg or InsenseConfig()
    phi = as_sensing_matrix(phi)
    return _objective_from_gram(gram_matrix(phi, z), cfg.eps1, cfg.eps2)


def _gram_gradient(gram, eps1, eps2, work):
    # den and ratio of the last objective evaluation are reused only for
    # the very Gram array it was made on
    if work is not None and work.source is gram:
        den, ratio = work.den, work.ratio
    else:
        den, ratio = _den_ratio(gram, eps1, eps2, work)
    if work is not None:
        work.source = None  # den and ratio are overwritten below
    q = np.divide(ratio, den, out=ratio)
    np.fill_diagonal(q, 0.0)
    grad = np.divide(gram, den, out=den)
    np.fill_diagonal(grad, -(q @ np.diag(gram)))
    return grad


def gram_gradient(gram, cfg=None):
    """Gradient of the objective with respect to the Gram matrix, symmetrized.

    With den_ij = G_ii G_jj + eps2, off-diagonal entry (i, j) is
    G_ij / den_ij, half the derivative by the pair's G_ij, placed once on
    each side of the diagonal; diagonal entry (i, i) collects the effect
    of G_ii on every denominator it appears in,
    -sum_{l != i} G_ll (G_il^2 + eps1) / den_il^2.  The quadratic form
    x' H x of the result is the chain-rule derivative along x x'.
    """
    cfg = cfg or InsenseConfig()
    return _gram_gradient(np.asarray(gram, dtype=float), cfg.eps1, cfg.eps2, None)


def weight_gradient(phi, gram, cfg=None, *, work=None):
    """Chain-rule gradient with respect to the selection weights.

    Component i is the quadratic form of sensor row i against the Gram
    gradient; the d x d conjugation is never materialized.  With `work`
    the n x n and d x n steps run in its arrays, starting from the den
    and ratio of the last objective evaluation when that was on `gram`
    itself (unchanged since).
    """
    cfg = cfg or InsenseConfig()
    grad = _gram_gradient(np.asarray(gram, dtype=float), cfg.eps1, cfg.eps2, work)
    prod = np.matmul(phi, grad, out=None if work is None else work.support)
    prod *= phi
    return prod.sum(axis=1)


def _initial_weights(d, m, cfg, rng):
    z = np.full(d, m / d)
    if cfg.init == "uniform-plus-jitter" and cfg.jitter_scale > 0.0:
        z = z + cfg.jitter_scale * rng.standard_normal(d)
        z = project_sbs(z, m).z
    return z


def _round_to_subset(z, m):
    top = np.argsort(-z, kind="stable")[:m]
    return np.sort(top)


def _bb_step(dz, dg, last, cap):
    """Gradient step s of the point a line search projects: the BB step.

    dz and dg are the changes of the weights and of the gradient over the
    last accepted step; their BB1 ratio dz.dz / dz.dg is capped at `cap`.
    Without positive curvature along dz, or with a non-finite ratio, the
    search uses `last`, the step actually taken last time: s times the
    accepted segment fraction t.
    """
    curvature = float(dz @ dg)
    if curvature > 0.0:
        step = float(dz @ dz) / curvature
        if np.isfinite(step):
            return min(step, cap)
    return last


def _unit_rms_scale(phi):
    """phi times the power of four that puts its RMS entry in [0.5, 2).

    The smoothing constants eps1/eps2 are absolute, so the descent only
    behaves the same at every input scale when it always sees the matrix
    at one scale.  Scaling by a power of two is exact, and a matrix
    already in the band is returned unchanged.
    """
    peak = np.max(np.abs(phi))
    if peak == 0.0:
        return phi
    rms = peak * np.sqrt(np.mean((phi / peak) ** 2))
    exponent = 2 * (int(np.frexp(rms)[1]) // 2)
    return np.ldexp(phi, -exponent) if exponent else phi


def _score(phi, subset, scores):
    """mu_avg of the rows `subset` of phi, computed once per distinct subset."""
    key = subset.tobytes()
    if key not in scores:
        scores[key] = mu_avg(phi[subset])
    return scores[key]


def _run_single(phi, m, cfg, rng, work, callback=None):
    z = _initial_weights(phi.shape[0], m, cfg, rng)
    gram = gram_matrix(phi, z, work=work)
    f = _objective_from_gram(gram, cfg.eps1, cfg.eps2, work=work)
    if not np.isfinite(f):
        raise NumericalFailureError("objective non-finite at the initial point", iteration=0)
    work.accept(gram)
    trace = [f]
    evals = 1
    stop_reason = "max_iters"
    iterations = 0
    # best rounded candidate so far: (score, iteration, subset)
    subset = _round_to_subset(z, m)
    best = (_score(phi, subset, work.scores), 0, subset)
    step = _LS_INIT_STEP
    for iterations in range(1, cfg.max_iters + 1):
        grad = weight_gradient(phi, gram, cfg, work=work)
        if iterations > 1:
            step = _bb_step(z - z_prev, grad - grad_prev, step, _LS_INIT_STEP)
        # backtracks move along the segment from z to end (module docstring)
        end = project_sbs(z - step * grad, m).z
        gram_end = gram_matrix(phi, end, work=work)
        t, gram_cand = 1.0, gram_end
        for _ in range(_MAX_BACKTRACKS):
            f_cand = _objective_from_gram(gram_cand, cfg.eps1, cfg.eps2, work=work)
            evals += 1
            if not np.isfinite(f_cand):
                raise NumericalFailureError(
                    f"objective became non-finite at iteration {iterations}",
                    iteration=iterations,
                )
            if f_cand <= f:
                break
            t *= _LS_SHRINK
            gram_cand = work.segment(gram, gram_end, t)
        else:
            # no step at resolvable sizes descends; treat as converged
            stop_reason = "no_descent"
            break
        rel_change = abs(f_cand - f) / max(abs(f), _REL_FLOOR)
        step *= t
        z_prev, grad_prev = z, grad
        z = end if t == 1.0 else (1.0 - t) * z + t * end
        f, gram = f_cand, gram_cand
        work.accept(gram)
        trace.append(f)
        subset = _round_to_subset(z, m)
        # a rounding scored before repeats its score, which cannot beat best
        score = _score(phi, subset, work.scores)
        if score is not None and (best[0] is None or score < best[0]):
            best = (score, iterations, subset)
        if callback is not None:
            callback(iterations, z, f)
        if rel_change < _REL_TOL:
            stop_reason = "rel_tol"
            break
        # patience runs from the last new best, so only once a score is defined
        if best[0] is not None and iterations - best[1] >= _PATIENCE:
            stop_reason = "stalled"
            break
    score, subset_iteration, subset = best
    if score is None:
        # every visited rounding left zero columns; keep the final one
        subset_iteration, subset = iterations, _round_to_subset(z, m)
    return SelectionResult(
        subset=subset,
        final_weights=z,
        iterations=iterations,
        final_objective=f,
        objective_trace=trace,
        stop_reason=stop_reason,
        subset_iteration=subset_iteration,
        subset_mu_avg=score,
        objective_evals=evals,
    )


def run_insense(phi, m, cfg=None, callback=None):
    """Select `m` of the rows of `phi` by projected gradient descent.

    Parameters
    ----------
    phi : array_like, shape (d, n)
        Candidate sensor rows.
    m : int
        Number of rows to select, 1 <= m <= d.
    cfg : InsenseConfig, optional
        Algorithm settings; defaults are the standard protocol.
    callback : callable, optional
        Called as callback(iteration, z, objective) after every accepted
        step, for tracing or instrumentation.

    Returns
    -------
    SelectionResult

    Notes
    -----
    The descent runs on phi scaled by the power of two that puts its RMS
    entry in [0.5, 2), so the selection does not depend on the scale of
    phi; objective values and traces are those of the scaled matrix.
    With restarts > 1, restart 0 uses cfg.init and every later restart
    uses a jittered start (identical uniform restarts would be no-ops);
    restart r draws from the seeded stream (cfg.seed, r).  Restarts are
    compared the same way iterate candidates are: the subset with the
    lowest defined average column coherence wins, earliest restart on
    ties; if no restart produced a defined score, the lowest final
    objective wins.
    """
    cfg = cfg or InsenseConfig()
    phi = _unit_rms_scale(as_sensing_matrix(phi))
    m = validate_budget(m, phi.shape[0])
    work = _StepWork(*phi.shape)
    best = None
    best_key = None
    evals = 0
    for r in range(cfg.restarts):
        rng = seeded_rng(cfg.seed, r)
        run_cfg = cfg if r == 0 else replace(cfg, init="uniform-plus-jitter")
        result = _run_single(phi, m, run_cfg, rng, work, callback=callback)
        evals += result.objective_evals
        if result.subset_mu_avg is not None:
            key = (0, result.subset_mu_avg)
        else:
            key = (1, result.final_objective)
        if best is None or key < best_key:
            best, best_key = result, key
    best.objective_evals = evals
    return best
