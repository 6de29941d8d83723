"""Projected-gradient selection of incoherent sensor rows.

Minimizes a smoothed version of the average squared column coherence of
the weighted matrix over relaxed selection weights z in the scaled
boxed-simplex {sum(z) = m, 0 <= z <= 1}.  The objective is expressed
through the weighted column Gram matrix

    G(z) = phi.T @ diag(z) @ phi,

summing (G_ij^2 + _EPS1) / (G_ii G_jj + _EPS2) over column pairs i < j;
the two constants keep the ratio bounded when weighted column norms
vanish (a pair with a zero column reads _EPS1 / _EPS2).

Each step projects z - s * grad onto the set once and forms the Gram of
that end point p once.  The line search then backtracks along the segment
z + t (p - z), t = 1, 1/2, 1/4, ..., which stays feasible because the set
is convex.  G is linear in z, so the Gram of a segment point is
(1 - t) G(z) + t G(p), and halving t averages the last candidate's Gram
with G(z): a backtrack costs one O(n^2) in-place average and one
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
n x n or d x n array.  gram_matrix, _objective_from_gram, gram_gradient
and weight_gradient write into it when handed one (keyword `work`) and
return fresh arrays without it.  An objective evaluation leaves its
den = diag diag' + _EPS2 and ratio = (G^2 + _EPS1) / den in the work,
tagged with its Gram.  The line search ends on the accepted candidate,
so the gradient of the next step is always taken at the Gram evaluated
last and starts from those arrays instead of forming them again.
"""

import numpy as np

from dataclasses import dataclass, field
from numbers import Real

from .metrics import _unit_rms, as_integer, as_sensing_matrix, mu_avg, validate_budget
from .projection import project_sbs
from .seeding import seeded_rng

INIT_MODES = ("uniform", "uniform-plus-jitter")
# line search: first trial step (and cap of every Barzilai-Borwein step),
# and backtracks along the segment, each halving its fraction t, before
# the step counts as no descent
_LS_INIT_STEP = 1.0
_MAX_BACKTRACKS = 50
# the descent stops when the relative objective change drops below _REL_TOL
_REL_TOL = 1e-7
# accepted steps without a new best rounding before the descent stops
_PATIENCE = 10
# iteration cap of one descent
_MAX_ITERS = 5000
# smoothing constants of the objective's column-pair ratios; they are
# absolute, so run_insense scales phi to unit RMS first
_EPS1 = 1e-9
_EPS2 = 1e-10


@dataclass
class InsenseConfig:
    """Settings for run_insense.

    The run stops when the relative objective change drops below
    _REL_TOL (1e-7), when no step descends, when the best rounding has
    not improved for _PATIENCE (10) accepted steps, or after _MAX_ITERS
    (5000) iterations; the result's stop_reason says which.  restarts and
    seed must be integers (bools are rejected), and jitter_scale a finite
    non-negative real number (bools and strings are rejected).
    """

    init: str = "uniform"
    jitter_scale: float = 1e-3
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        scale = self.jitter_scale
        if isinstance(scale, bool) or not isinstance(scale, Real) or not 0.0 <= scale < np.inf:
            raise ValueError(f"jitter_scale must be finite and non-negative, got {scale!r}")
        as_integer(self.restarts, "restarts", least=1)
        as_integer(self.seed, "seed")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")


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
    "max_iters" (the _MAX_ITERS cap).  converged is True for the first two
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
    the projected point); each backtrack averages two Grams in O(n^2).
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

    One float64 block holds four n x n arrays and one d x n array.  grams
    are two Gram slots: grams[0] holds the accepted iterate's Gram, and
    grams[1] the candidate, which gram_matrix writes and each backtrack
    halves toward grams[0] in place; accept() swaps the two, so a write
    never lands on the accepted Gram.  den and ratio hold those of the
    last objective evaluation, which was on the Gram `source` (None once
    the gradient consumed them).  weighted holds a Gram's scaled support
    rows, and the gradient's d x n product reuses it.  scores maps the
    bytes of a rounded subset to its mu_avg.
    """

    def __init__(self, d, n):
        square = n * n
        block = np.empty(4 * square + d * n)
        arrays = [block[i * square:(i + 1) * square].reshape(n, n) for i in range(4)]
        self.grams = arrays[:2]
        self.den, self.ratio = arrays[2:]
        self.weighted = block[4 * square:].reshape(d, n)
        self.source = None
        self.scores = {}

    def gram_slot(self):
        """grams[1], the slot a new Gram is written into."""
        self.source = None
        return self.grams[1]

    def halve(self, gram):
        """The next backtrack's Gram (grams[1] + gram) / 2, formed in grams[1]."""
        self.source = None
        cand = self.grams[1]
        cand += gram
        cand *= 0.5
        return cand

    def accept(self, gram):
        """Keep an accepted Gram: grams[1] becomes grams[0]."""
        if gram is self.grams[1]:
            self.grams[0], self.grams[1] = gram, self.grams[0]


def gram_matrix(phi, z, *, work=None):
    """Weighted column Gram matrix phi.T @ diag(z) @ phi, exactly symmetric.

    Only the rows with a nonzero weight enter, so one call costs
    O(nnz(z) n^2) rather than O(d n^2); the projected weights of a
    descent are mostly exact zeros.  Those rows, each scaled by
    sqrt(z_r), form s, and the Gram is s.T @ s: numpy runs a product of
    an array with its own transpose as BLAS SYRK, which computes one
    triangle (half the multiply-adds of a general product) and mirrors
    it, so the result needs no symmetrizing pass.  phi is taken as a
    float array (a float64 array as it is).  Selection weights lie in
    [0, 1], so a NaN, infinite or negative weight raises ValueError.
    With `work` (a run's _StepWork) the scaled rows go into its weighted
    array and the result into its Gram slot grams[1].
    """
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (phi.shape[0],):
        raise ValueError(f"weights need shape ({phi.shape[0]},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("weights must be finite")
    if np.any(z < 0.0):
        raise ValueError(f"weights must be non-negative, got a minimum of {z.min():g}")
    rows = np.flatnonzero(z)
    scaled_out = gram_out = None
    if work is not None:
        scaled_out, gram_out = work.weighted[: rows.size], work.gram_slot()
    # rows are valid indices; mode="raise" would buffer `out` in a new array
    scaled = np.take(phi, rows, axis=0, out=scaled_out, mode="clip")
    scaled *= np.sqrt(z[rows])[:, None]
    # one array times its own transpose: numpy calls SYRK
    return np.matmul(scaled.T, scaled, out=gram_out)


def _den_ratio(gram, work):
    """den = diag diag' + _EPS2 and ratio = (G^2 + _EPS1) / den, in work's arrays if given."""
    diag = np.diag(gram)
    den = np.outer(diag, diag, out=None if work is None else work.den)
    den += _EPS2
    ratio = np.square(gram, out=None if work is None else work.ratio)
    ratio += _EPS1
    ratio /= den
    return den, ratio


def _objective_from_gram(gram, *, work=None):
    den, ratio = _den_ratio(gram, work)
    if work is not None:
        work.source = gram
    # off-diagonal sum halves to the i < j pair sum
    return float((ratio.sum() - np.trace(ratio)) / 2.0)


def coherence_objective(phi, z):
    """Smoothed average-squared-coherence objective at weights `z`.

    The value is that of phi scaled to unit RMS (see run_insense), so it
    does not depend on the scale of phi and is finite for any finite phi
    and any z in the box, including z = 0.  G(z) is positive
    semidefinite, so each column pair adds a term in (0, _EPS1 / _EPS2]
    and the value lies in (0, 5 n (n - 1)].  Weights must be finite and
    non-negative (see gram_matrix).
    """
    return _objective_from_gram(gram_matrix(_unit_rms(as_sensing_matrix(phi))[0], z))


def gram_gradient(gram, *, work=None):
    """Gradient of the objective with respect to the Gram matrix, symmetrized.

    With den_ij = G_ii G_jj + _EPS2, off-diagonal entry (i, j) is
    G_ij / den_ij, half the derivative by the pair's G_ij, placed once on
    each side of the diagonal; diagonal entry (i, i) collects the effect
    of G_ii on every denominator it appears in,
    -sum_{l != i} G_ll (G_il^2 + _EPS1) / den_il^2.  The quadratic form
    x' H x of the result is the chain-rule derivative along x x'.  With
    `work` the result is written into its den array, starting from the den
    and ratio of the last objective evaluation when that was on `gram`
    itself (unchanged since).
    """
    gram = np.asarray(gram, dtype=float)
    # den and ratio of the last objective evaluation are reused only for
    # the very Gram array it was made on
    if work is not None and work.source is gram:
        den, ratio = work.den, work.ratio
    else:
        den, ratio = _den_ratio(gram, work)
    if work is not None:
        work.source = None  # den and ratio are overwritten below
    q = np.divide(ratio, den, out=ratio)
    np.fill_diagonal(q, 0.0)
    grad = np.divide(gram, den, out=den)
    np.fill_diagonal(grad, -(q @ np.diag(gram)))
    return grad


def weight_gradient(phi, gram, *, work=None):
    """Chain-rule gradient with respect to the selection weights.

    Component i is the quadratic form of sensor row i against the Gram
    gradient; the d x d conjugation is never materialized.  With `work`
    the n x n and d x n steps run in its arrays (see gram_gradient).
    """
    grad = gram_gradient(gram, work=work)
    prod = np.matmul(phi, grad, out=None if work is None else work.weighted)
    return np.einsum("ij,ij->i", prod, phi)


def _round_to_subset(z, m):
    top = np.argsort(-z, kind="stable")[:m]
    return np.sort(top)


def _bb_step(dz, dg, last, cap):
    """Gradient step s of the point a line search projects: the BB step.

    dz and dg are the changes of the weights and of the gradient over the
    last accepted step; their BB1 ratio dz.dz / dz.dg is capped at `cap`.
    Without positive curvature along dz, or with a non-finite ratio, the
    search uses `last`, the step actually taken last time: s times the
    accepted segment fraction t.  Before the first step dz is zero, so the
    first search uses `last` as given.
    """
    curvature = float(dz @ dg)
    if curvature > 0.0:
        step = float(dz @ dz) / curvature
        if np.isfinite(step):
            return min(step, cap)
    return last


def _score(phi, subset, scores):
    """mu_avg of the rows `subset` of phi, computed once per distinct subset."""
    key = subset.tobytes()
    if key not in scores:
        scores[key] = mu_avg(phi[subset])
    return scores[key]


def _run_single(phi, m, z, work, callback=None):
    """One descent from the feasible weights `z`, at most _MAX_ITERS steps."""
    gram = gram_matrix(phi, z, work=work)
    f = _objective_from_gram(gram, work=work)
    work.accept(gram)
    trace = [f]
    evals = 1
    stop_reason = "max_iters"
    iterations = 0
    # best rounded candidate so far: (score, iteration, subset)
    subset = _round_to_subset(z, m)
    best = (_score(phi, subset, work.scores), 0, subset)
    # a zero dz keeps the first step at _LS_INIT_STEP
    step, z_prev, grad_prev = _LS_INIT_STEP, z, 0.0
    for iterations in range(1, _MAX_ITERS + 1):
        grad = weight_gradient(phi, gram, work=work)
        step = _bb_step(z - z_prev, grad - grad_prev, step, _LS_INIT_STEP)
        # backtracks move along the segment from z to end (module docstring)
        end = project_sbs(z - step * grad, m).z
        t, gram_cand = 1.0, gram_matrix(phi, end, work=work)
        for _ in range(_MAX_BACKTRACKS):
            f_cand = _objective_from_gram(gram_cand, work=work)
            evals += 1
            if f_cand <= f:
                break
            t *= 0.5
            gram_cand = work.halve(gram)
        else:
            # no step at resolvable sizes descends; treat as converged
            stop_reason = "no_descent"
            break
        # f > 0, as every objective is (see coherence_objective)
        rel_change = (f - f_cand) / f
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
    Every restart starts from the uniform point m/d.  Restart 0 jitters
    it when cfg.init is "uniform-plus-jitter", every later restart always
    (identical uniform restarts would be no-ops): restart r adds
    jitter_scale times standard normal draws from the seeded stream
    (cfg.seed, r) and projects back onto the set.  With jitter_scale 0
    every restart starts uniform.  Restarts are compared the same way
    iterate candidates are: the subset with the lowest defined average
    column coherence wins, earliest restart on ties; a restart without a
    defined score ranks after those with one, by its final objective.
    objective_evals sums the evaluations of every restart.
    """
    cfg = cfg or InsenseConfig()
    phi = _unit_rms(as_sensing_matrix(phi))[0]
    d = phi.shape[0]
    m = validate_budget(m, d)
    work = _StepWork(*phi.shape)
    results = []
    for r in range(cfg.restarts):
        z = np.full(d, m / d)
        if (r > 0 or cfg.init == "uniform-plus-jitter") and cfg.jitter_scale > 0.0:
            jitter = cfg.jitter_scale * seeded_rng(cfg.seed, r).standard_normal(d)
            z = project_sbs(z + jitter, m).z
        results.append(_run_single(phi, m, z, work, callback=callback))
    # min keeps the earliest of equal keys
    best = min(results, key=lambda res: (
        res.subset_mu_avg is None,
        res.final_objective if res.subset_mu_avg is None else res.subset_mu_avg,
    ))
    best.objective_evals = sum(res.objective_evals for res in results)
    return best
