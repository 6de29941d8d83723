"""Optimizer pieces: objective, gradients, descent, and subset tracking.

The objective and Gram oracles are explicit double loops; the gradient
oracle is central finite differences of the loop objective, so a shared
algebra mistake cannot cancel out.  The support-only Gram and the whole
descent built on it are also checked against the dense formula over all
rows.
"""

import collections
import dataclasses

import numpy as np
import pytest

import insense.optimizer as optimizer
from insense import (
    EnsembleSpec,
    InfeasibleConstraintError,
    InsenseConfig,
    NumericalFailureError,
    SelectionResult,
    coherence_objective,
    generate,
    gram_gradient,
    gram_matrix,
    mu_avg,
    run_insense,
    weight_gradient,
)
from insense.projection import BOX_TOL, SUM_TOL, project_sbs
from insense.seeding import seeded_rng


def _objective_loop(phi, z, eps1, eps2):
    """Objective by explicit loops over columns and pairs."""
    d, n = phi.shape
    g = np.zeros((n, n))
    for k in range(d):
        g += z[k] * np.outer(phi[k], phi[k])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += (g[i, j] ** 2 + eps1) / (g[i, i] * g[j, j] + eps2)
    return total


def _fd_gradient(phi, z, cfg, h=1e-6):
    grad = np.empty(z.size)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        grad[i] = (coherence_objective(phi, zp, cfg) - coherence_objective(phi, zm, cfg)) / (2 * h)
    return grad


def test_gram_matrix_matches_outer_sum():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((20, 5))
    mask = rng.uniform(size=20) < 0.3
    weights = (
        rng.uniform(0.0, 1.0, 20),  # dense
        np.where(mask, rng.uniform(size=20), 0.0),  # sparse
        np.where(mask, rng.uniform(-1.0, 1.0, 20), 0.0),  # negative entries
    )
    for z in weights:
        expected = sum(z[k] * np.outer(phi[k], phi[k]) for k in range(20))
        np.testing.assert_allclose(gram_matrix(phi, z), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(gram_matrix(phi, np.zeros(20)), np.zeros((5, 5)))


def test_gram_matrix_rejects_misshaped_weights():
    phi = np.ones((6, 3))
    for z in (np.ones(5), np.ones(7), np.ones((6, 1)), np.float64(1.0)):
        with pytest.raises(ValueError):
            gram_matrix(phi, z)


def _dense_gram(phi, z, *, work=None):
    """phi.T @ diag(z) @ phi over every row, zero weights included.

    With a run's work arrays the result goes where gram_matrix puts its own.
    """
    g = phi.T @ (np.asarray(z, dtype=float)[:, None] * phi)
    return np.multiply(0.5, g + g.T, out=None if work is None else work.gram_slot())


# Each case carries its pinned objective evaluations, subset and subset
# iteration.
@pytest.mark.parametrize(
    "spec, m, cfg, evals, subset, subset_iteration",
    [
        (EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10), 10,
         InsenseConfig(init="uniform-plus-jitter", seed=0), 14, list(range(10)), 1),
        (EnsembleSpec("identity-gaussian", d=100, n=50, seed=0), 10,
         InsenseConfig(init="uniform-plus-jitter", restarts=3, seed=0), 69,
         [52, 60, 66, 70, 72, 79, 93, 97, 98, 99], 2),
        (EnsembleSpec("gaussian", d=60, n=60, seed=0), 20, InsenseConfig(seed=0), 14,
         [0, 2, 5, 6, 9, 12, 20, 24, 29, 34, 37, 38, 40, 41, 43, 45, 46, 48, 53, 58], 1),
    ],
    ids=["uniform-gaussian", "identity-gaussian", "gaussian"],
)
def test_descent_matches_dense_gram_reference(
    monkeypatch, spec, m, cfg, evals, subset, subset_iteration
):
    phi = generate(spec)
    fast = run_insense(phi, m, cfg)
    assert fast.subset.tolist() == subset
    assert fast.subset_iteration == subset_iteration
    assert fast.objective_evals == evals
    assert np.all(np.diff(fast.objective_trace) <= 0.0)
    monkeypatch.setattr(optimizer, "gram_matrix", _dense_gram)
    dense = run_insense(phi, m, cfg)
    np.testing.assert_array_equal(fast.subset, dense.subset)
    assert fast.subset_iteration == dense.subset_iteration
    assert fast.iterations == dense.iterations
    assert fast.objective_evals == dense.objective_evals
    assert fast.subset_mu_avg == dense.subset_mu_avg
    np.testing.assert_allclose(fast.objective_trace, dense.objective_trace, rtol=1e-12, atol=0.0)


def _reference_descent(phi, m, cfg):
    """run_insense with a step of fresh arrays, as before the work arrays.

    Every Gram, objective and backtrack combination allocates its arrays,
    den is np.outer(diag, diag) + eps2, the gradient is the full
    gram_gradient, and every rounding is scored.  Returns the reported
    restart's (subset, subset_iteration, subset_mu_avg, final_weights,
    trace, stop_reason), the evaluations and the steps over all restarts.
    """

    def gram_of(z):
        rows = np.flatnonzero(z)
        support = phi[rows]
        g = support.T @ (z[rows, None] * support)
        return 0.5 * (g + g.T)

    def objective(gram):
        diag = np.diag(gram)
        ratio = (np.square(gram) + cfg.eps1) / (np.outer(diag, diag) + cfg.eps2)
        return float((ratio.sum() - np.trace(ratio)) / 2.0)

    def gradient(gram):
        prod = phi @ gram_gradient(gram, cfg)
        prod *= phi
        return prod.sum(axis=1)

    phi = optimizer._unit_rms_scale(phi)
    best, evals, steps = None, 0, 0
    for r in range(cfg.restarts):
        run_cfg = cfg if r == 0 else dataclasses.replace(cfg, init="uniform-plus-jitter")
        z = optimizer._initial_weights(phi.shape[0], m, run_cfg, seeded_rng(cfg.seed, r))
        gram = gram_of(z)
        f = objective(gram)
        trace, stop_reason = [f], "max_iters"
        evals += 1
        subset = optimizer._round_to_subset(z, m)
        found = (mu_avg(phi[subset]), 0, subset)
        step = optimizer._LS_INIT_STEP
        for iterations in range(1, cfg.max_iters + 1):
            grad = gradient(gram)
            if iterations > 1:
                step = optimizer._bb_step(z - z_prev, grad - grad_prev, step, optimizer._LS_INIT_STEP)
            end = project_sbs(z - step * grad, m).z
            gram_end = gram_of(end)
            t, gram_cand = 1.0, gram_end
            for _ in range(optimizer._MAX_BACKTRACKS):
                f_cand = objective(gram_cand)
                evals += 1
                if f_cand <= f:
                    break
                t *= optimizer._LS_SHRINK
                gram_cand = (1.0 - t) * gram + t * gram_end
            else:
                stop_reason = "no_descent"
                break
            steps += 1
            rel_change = abs(f_cand - f) / max(abs(f), optimizer._REL_FLOOR)
            step *= t
            z_prev, grad_prev = z, grad
            z = end if t == 1.0 else (1.0 - t) * z + t * end
            f, gram = f_cand, gram_cand
            trace.append(f)
            subset = optimizer._round_to_subset(z, m)
            score = mu_avg(phi[subset])
            if score is not None and (found[0] is None or score < found[0]):
                found = (score, iterations, subset)
            if rel_change < optimizer._REL_TOL:
                stop_reason = "rel_tol"
                break
            if found[0] is not None and iterations - found[1] >= optimizer._PATIENCE:
                stop_reason = "stalled"
                break
        key = (0, found[0]) if found[0] is not None else (1, f)
        if best is None or key < best[0]:
            best = (key, (found[2], found[1], found[0], z, trace, stop_reason))
    return best[1], evals, steps


@pytest.mark.parametrize(
    "spec, m, cfg",
    [
        (EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10), 10,
         InsenseConfig(init="uniform-plus-jitter", seed=0)),
        (EnsembleSpec("identity-gaussian", d=100, n=50, seed=0), 10,
         InsenseConfig(init="uniform-plus-jitter", restarts=3, seed=0)),
        (EnsembleSpec("gaussian", d=60, n=60, seed=0), 20, InsenseConfig(seed=0)),
    ],
    ids=["uniform-gaussian", "identity-gaussian", "gaussian"],
)
def test_descent_in_work_arrays_matches_the_fresh_array_reference(spec, m, cfg):
    phi = generate(spec)
    got = run_insense(phi, m, cfg)
    (subset, subset_iteration, score, final_weights, trace, stop_reason), evals, steps = (
        _reference_descent(phi, m, cfg)
    )
    np.testing.assert_array_equal(got.subset, subset)
    assert got.subset_iteration == subset_iteration
    assert got.subset_mu_avg == score
    assert got.final_weights.tobytes() == final_weights.tobytes()
    assert got.objective_trace == trace
    assert got.stop_reason == stop_reason
    assert got.objective_evals == evals
    if cfg.restarts > 1:
        # some steps backtracked, so the combined Grams were compared too
        assert evals > steps + cfg.restarts


def test_gradient_reuses_den_and_ratio_only_of_its_own_gram():
    rng = np.random.default_rng(53)
    cfg = InsenseConfig()
    phi = rng.standard_normal((30, 20))
    z1, z2 = rng.uniform(0.0, 1.0, 30), np.where(rng.uniform(size=30) < 0.5, 0.4, 0.0)
    work = optimizer._StepWork(30, 20)
    expected = weight_gradient(phi, gram_matrix(phi, z2), cfg)
    # the work holds den/ratio of the Gram of z1, the gradient is asked at z2's
    gram1 = gram_matrix(phi, z1, work=work)
    np.testing.assert_array_equal(gram1, gram_matrix(phi, z1))
    optimizer._objective_from_gram(gram1, cfg.eps1, cfg.eps2, work=work)
    other = gram_matrix(phi, z2)
    np.testing.assert_array_equal(weight_gradient(phi, other, cfg, work=work), expected)
    # den/ratio of z1's Gram, then z2's Gram written over it in the same slot
    optimizer._objective_from_gram(gram1, cfg.eps1, cfg.eps2, work=work)
    gram2 = gram_matrix(phi, z2, work=work)
    assert gram2 is gram1
    np.testing.assert_array_equal(weight_gradient(phi, gram2, cfg, work=work), expected)
    # den/ratio of the Gram itself are reused, with the same bits
    f = optimizer._objective_from_gram(gram2, cfg.eps1, cfg.eps2, work=work)
    assert f == coherence_objective(phi, z2, cfg)
    assert work.source is gram2
    np.testing.assert_array_equal(weight_gradient(phi, gram2, cfg, work=work), expected)
    assert work.source is None


def _restart_paths(phi, m, cfg):
    """run_insense plus the accepted iterates (z, f) of each restart."""
    paths = []

    def record(iteration, z, f):
        if iteration == 1:
            paths.append([])
        paths[-1].append((z.copy(), f))

    result = run_insense(phi, m, cfg, callback=record)
    assert len(paths) == cfg.restarts
    return result, paths


@pytest.mark.parametrize(
    "ensemble, m, cfg",
    [
        (dict(kind="uniform-gaussian", d=200, n=200, gaussian_rows=10), 10,
         dict(init="uniform-plus-jitter")),
        (dict(kind="identity-gaussian", d=100, n=50), 10,
         dict(init="uniform-plus-jitter", restarts=3)),
        (dict(kind="gaussian", d=60, n=60), 20, {}),
        (dict(kind="gaussian", d=100, n=100), 20, {}),
    ],
    ids=["uniform-gaussian", "identity-gaussian", "gaussian-60", "gaussian-100"],
)
def test_early_stop_is_a_prefix_of_the_full_descent(monkeypatch, ensemble, m, cfg):
    for seed in range(10):
        phi = generate(EnsembleSpec(**ensemble, seed=seed))
        run_cfg = InsenseConfig(seed=seed, **cfg)
        early, early_paths = _restart_paths(phi, m, run_cfg)
        with monkeypatch.context() as patch:
            # patience past max_iters: the descent without the stall rule
            patch.setattr(optimizer, "_PATIENCE", run_cfg.max_iters + 1)
            full, full_paths = _restart_paths(phi, m, run_cfg)
        assert full.stop_reason != "stalled"
        np.testing.assert_array_equal(early.subset, full.subset)
        assert early.subset_iteration == full.subset_iteration
        assert early.subset_mu_avg == full.subset_mu_avg
        assert early.objective_trace == full.objective_trace[: len(early.objective_trace)]
        assert early.objective_evals <= full.objective_evals
        for short, long in zip(early_paths, full_paths):
            assert len(short) <= len(long)
            for (z_short, f_short), (z_long, f_long) in zip(short, long):
                np.testing.assert_array_equal(z_short, z_long)
                assert f_short == f_long
        # the reported weights are the full run's iterate at the same iteration
        full_iterate = [p[early.iterations - 1][0] for p in full_paths if len(p) >= early.iterations]
        assert any(np.array_equal(early.final_weights, z) for z in full_iterate)
        if early.stop_reason == "stalled":
            # patience runs from the reported restart's last new best
            assert early.iterations == early.subset_iteration + optimizer._PATIENCE
            assert early.iterations < full.iterations


def _uncoverable_matrix():
    """40 x 16, each row nonzero in 3 columns: 5 rows cover at most 15 columns."""
    rng = np.random.default_rng(1)
    phi = np.zeros((40, 16))
    for i in range(40):
        cols = rng.choice(16, 3, replace=False)
        phi[i, cols] = rng.standard_normal(3)
    assert np.all(np.any(phi != 0.0, axis=0))
    return phi


def test_stop_reasons(monkeypatch):
    phi = generate(EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10))
    capped = run_insense(phi, 10, InsenseConfig(max_iters=1))
    assert (capped.stop_reason, capped.converged, capped.iterations) == ("max_iters", False, 1)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_REL_TOL", 0.5)
        loose = run_insense(phi, 10)
    assert (loose.stop_reason, loose.converged) == ("rel_tol", True)
    # the best rounding turns up at iteration 1; patience runs from there
    stalled = run_insense(phi, 10, InsenseConfig(init="uniform-plus-jitter", seed=0))
    assert stalled.stop_reason == "stalled"
    assert stalled.converged is False
    assert stalled.subset_iteration == 1
    assert stalled.iterations == 1 + optimizer._PATIENCE
    # no rounding ever has a defined score, so the stall rule never starts
    blind = run_insense(_uncoverable_matrix(), 5)
    assert blind.subset_mu_avg is None
    assert blind.stop_reason == "rel_tol"
    assert blind.iterations > optimizer._PATIENCE
    assert blind.subset_iteration == blind.iterations


def _objective_turns_at(monkeypatch, after, value):
    """The objective reads value(f) from the first evaluation after accepted step `after` on.

    With after=0 the turn comes right after the evaluation at the start.
    """
    state = {"turned": after == 0, "evals": 0}
    true_objective = optimizer._objective_from_gram

    def objective(gram, eps1, eps2, **kwargs):
        state["evals"] += 1
        f = true_objective(gram, eps1, eps2, **kwargs)
        return value(f) if state["turned"] and state["evals"] > 1 else f

    def callback(iteration, z, f):
        state["z"], state["f"], state["evals_then"] = z.copy(), f, state["evals"]
        state["turned"] = iteration >= after

    monkeypatch.setattr(optimizer, "_objective_from_gram", objective)
    return state, callback


@pytest.mark.parametrize("after", [0, 2])
def test_no_descent_when_every_trial_is_rejected(monkeypatch, after):
    phi = generate(EnsembleSpec("gaussian", d=60, n=60, seed=0))
    # finite, and above every objective the descent has seen
    state, callback = _objective_turns_at(monkeypatch, after, lambda f: np.finfo(float).max)
    result = run_insense(phi, 20, callback=callback)
    assert (result.stop_reason, result.converged) == ("no_descent", True)
    assert result.iterations == after + 1
    assert len(result.objective_trace) == after + 1
    assert np.all(np.diff(result.objective_trace) <= 0.0)
    # the failed step tried every backtrack and moved nothing
    assert result.objective_evals == state.get("evals_then", 1) + optimizer._MAX_BACKTRACKS
    if after:
        np.testing.assert_array_equal(result.final_weights, state["z"])
        assert result.final_objective == state["f"]
    else:
        np.testing.assert_array_equal(result.final_weights, np.full(60, 20 / 60))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_objective_mid_descent_raises(monkeypatch, bad):
    phi = generate(EnsembleSpec("gaussian", d=60, n=60, seed=0))
    _, callback = _objective_turns_at(monkeypatch, 2, lambda f: bad)
    with pytest.raises(NumericalFailureError) as failure:
        run_insense(phi, 20, callback=callback)
    assert failure.value.iteration == 3


def test_hot_layers_are_called_by_module_name(monkeypatch):
    # per-layer tracing wraps these module-global names of insense.optimizer
    calls = collections.Counter()
    scored = []
    for name in ("gram_matrix", "weight_gradient", "project_sbs", "mu_avg"):

        def counted(*args, _name=name, _fn=getattr(optimizer, name), **kwargs):
            calls[_name] += 1
            if _name == "mu_avg":
                scored.append(args[0].tobytes())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    phi = np.random.default_rng(47).standard_normal((20, 8))
    one = run_insense(phi, 5, InsenseConfig(init="uniform-plus-jitter", seed=3))
    assert min(calls.values()) > 0 and len(calls) == 4
    # one Gram and one projection for the start and one of each per step;
    # backtracks along the projected segment need neither
    assert calls["gram_matrix"] == calls["project_sbs"] == one.iterations + 1
    assert calls["weight_gradient"] == one.iterations
    assert one.objective_evals > calls["gram_matrix"]
    # one score for the start and at most one per accepted step, none for
    # a rounding scored before
    assert calls["mu_avg"] <= len(one.objective_trace)
    assert len(set(scored)) == len(scored)
    calls.clear()
    scored.clear()
    three = run_insense(phi, 5, InsenseConfig(init="uniform-plus-jitter", seed=3, restarts=3))
    # the counts cover every restart, not only the one reported
    assert calls["gram_matrix"] == calls["project_sbs"] == calls["weight_gradient"] + 3
    assert calls["gram_matrix"] > one.iterations + 1
    assert three.objective_evals > one.objective_evals
    # a run scores each distinct rounding once, across its restarts too
    assert len(set(scored)) == len(scored)


def test_bb_step_branches():
    dz = np.array([1.0, 0.0])
    # positive curvature: the ratio dz.dz / dz.dg
    assert optimizer._bb_step(dz, np.array([4.0, 1.0]), 0.3, 1.0) == 0.25
    # a ratio above the cap gives the cap
    assert optimizer._bb_step(dz, np.array([0.5, 0.0]), 0.3, 1.0) == 1.0
    # no positive curvature: the last accepted step
    assert optimizer._bb_step(dz, np.array([0.0, 2.0]), 0.3, 1.0) == 0.3
    assert optimizer._bb_step(dz, np.array([-1.0, 0.0]), 0.3, 1.0) == 0.3
    # a non-finite ratio: the last accepted step
    assert optimizer._bb_step(np.array([1e154, 0.0]), np.array([1e-160, 0.0]), 0.3, 1.0) == 0.3
    assert optimizer._bb_step(np.array([np.inf, 1.0]), np.array([1.0, 1.0]), 0.3, 1.0) == 0.3
    assert optimizer._bb_step(dz, np.array([np.nan, 0.0]), 0.3, 1.0) == 0.3


@pytest.mark.parametrize(
    "ensemble, cfg, fixed_step_mean, segment_mean",
    [
        (dict(kind="uniform-gaussian", d=200, n=200, gaussian_rows=10),
         dict(init="uniform-plus-jitter"), 0.3166013795066921, 0.3166013795066921),
        (dict(kind="identity-gaussian", d=100, n=50),
         dict(init="uniform-plus-jitter", restarts=3), 0.3059926554990031, 0.30384157166262304),
    ],
    ids=["uniform-gaussian", "identity-gaussian"],
)
def test_subset_quality_holds_against_fixed_step_search(
    ensemble, cfg, fixed_step_mean, segment_mean
):
    # the mean subset mu_avg over seeds 0-9 (m=10): fixed_step_mean when
    # every line search started at _LS_INIT_STEP and re-projected each
    # backtrack, segment_mean with BB steps and backtracks along the segment
    scores = [
        run_insense(generate(EnsembleSpec(**ensemble, seed=seed)), 10,
                    InsenseConfig(seed=seed, **cfg)).subset_mu_avg
        for seed in range(10)
    ]
    # no worse than the fixed-step search, up to rounding
    assert np.mean(scores) <= fixed_step_mean * (1.0 + 1e-12)
    assert np.mean(scores) == pytest.approx(segment_mean, rel=5e-3)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(7)
    cfg = InsenseConfig()
    for _ in range(10):
        d, n = int(rng.integers(2, 10)), int(rng.integers(2, 9))
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.0, 1.0, d)
        expected = _objective_loop(phi, z, cfg.eps1, cfg.eps2)
        assert coherence_objective(phi, z, cfg) == pytest.approx(expected, rel=1e-10)


def test_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    cfg = InsenseConfig()
    for _ in range(20):
        d, n = int(rng.integers(2, 9)), int(rng.integers(2, 8))
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.1, 0.9, d)
        grad = weight_gradient(phi, gram_matrix(phi, z), cfg)
        fd = _fd_gradient(phi, z, cfg)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


def _triangular_gram_gradient(gram, cfg):
    """Upper-triangular Gram gradient, the pair derivative 2 G_ij / den_ij above the diagonal."""
    diag = np.diag(gram)
    den = np.outer(diag, diag) + cfg.eps2
    grad = np.triu(2.0 * gram / den, k=1)
    diag_terms = -(diag[None, :] * (gram**2 + cfg.eps1)) / den**2
    np.fill_diagonal(diag_terms, 0.0)
    np.fill_diagonal(grad, diag_terms.sum(axis=1))
    return grad


def test_gram_gradient_is_symmetric_with_the_triangular_quadratic_forms():
    rng = np.random.default_rng(61)
    cfg = InsenseConfig()
    for d, n in ((6, 4), (40, 30), (200, 200)):
        phi = rng.standard_normal((d, n))
        gram = gram_matrix(phi, rng.uniform(0.0, 1.0, d))
        before = gram.copy()
        sym = gram_gradient(gram, cfg)
        np.testing.assert_array_equal(gram, before)  # the in-place steps work on copies
        np.testing.assert_array_equal(sym, sym.T)
        tri = _triangular_gram_gradient(gram, cfg)
        np.testing.assert_allclose(np.diag(sym), np.diag(tri), rtol=1e-12, atol=0.0)
        expected = np.einsum("ij,ij->i", phi @ tri, phi)
        got = weight_gradient(phi, gram, cfg)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * scale)


def test_objective_is_bit_identical_to_the_one_expression_form():
    rng = np.random.default_rng(67)
    cfg = InsenseConfig()
    # few columns leave few terms, so a rounding change in one term shows
    sizes = [(3, 2)] * 20 + [(5, 3)] * 20 + [(40, 30), (200, 200)]
    for d, n in sizes:
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.0, 1.0, d)
        gram = gram_matrix(phi, z)
        diag = np.diag(gram)
        ratio = (gram**2 + cfg.eps1) / (np.outer(diag, diag) + cfg.eps2)
        expected = float((ratio.sum() - np.trace(ratio)) / 2.0)
        assert coherence_objective(phi, z, cfg) == expected


def test_gram_gradient_diagonal_sign():
    # raising a diagonal entry grows denominators, so the objective falls
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((6, 4))
    g = gram_matrix(phi, np.full(6, 0.5))
    diag = np.diag(gram_gradient(g))
    assert np.all(diag < 0.0)


def test_duplicate_rows_get_identical_gradients():
    rng = np.random.default_rng(17)
    phi = rng.standard_normal((5, 4))
    phi[3] = phi[1]
    z = np.full(5, 0.6)
    grad = weight_gradient(phi, gram_matrix(phi, z))
    assert grad[1] == pytest.approx(grad[3], abs=1e-12)


def test_trace_descends_and_iterates_stay_feasible():
    rng = np.random.default_rng(19)
    for _ in range(8):
        d, n = int(rng.integers(4, 16)), int(rng.integers(3, 10))
        m = int(rng.integers(1, d))
        phi = rng.standard_normal((d, n))
        seen = []

        def watch(iteration, z, f):
            seen.append((iteration, z.copy(), f))

        result = run_insense(phi, m, InsenseConfig(seed=1), callback=watch)
        trace = np.asarray(result.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert result.final_objective == trace[-1]
        for iteration, z, f in seen:
            assert abs(z.sum() - m) <= SUM_TOL
            assert z.min() >= -BOX_TOL and z.max() <= 1.0 + BOX_TOL
        assert [it for it, _, _ in seen][: len(seen)] == list(range(1, len(seen) + 1))


@pytest.mark.parametrize(
    "ensemble, m, cfg",
    [
        (dict(kind="identity-gaussian", d=100, n=50), 10,
         dict(init="uniform-plus-jitter", restarts=3)),
        (dict(kind="gaussian", d=100, n=100), 20, {}),
    ],
    ids=["identity-gaussian", "gaussian-100"],
)
def test_reported_objective_matches_a_fresh_evaluation(ensemble, m, cfg):
    # the descent carries its Gram matrix from step to step; every accepted
    # iterate's objective must equal the one computed from its weights
    for seed in range(10):
        phi = generate(EnsembleSpec(**ensemble, seed=seed))
        run_cfg = InsenseConfig(seed=seed, **cfg)
        scaled = optimizer._unit_rms_scale(phi)
        seen = []
        result = run_insense(phi, m, run_cfg, callback=lambda it, z, f: seen.append((z.copy(), f)))
        assert len(seen) > 0
        for z, f in seen:
            assert f == pytest.approx(coherence_objective(scaled, z, run_cfg), rel=1e-12, abs=0.0)
            assert abs(z.sum() - m) <= SUM_TOL
            assert z.min() >= -BOX_TOL and z.max() <= 1.0 + BOX_TOL
        assert result.final_objective == pytest.approx(
            coherence_objective(scaled, result.final_weights, run_cfg), rel=1e-12, abs=0.0
        )


def test_run_is_deterministic():
    rng = np.random.default_rng(23)
    phi = rng.standard_normal((12, 6))
    cfg = InsenseConfig(init="uniform-plus-jitter", jitter_scale=0.5, restarts=3, seed=4)
    a = run_insense(phi, 4, cfg)
    b = run_insense(phi, 4, cfg)
    np.testing.assert_array_equal(a.subset, b.subset)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    assert a.objective_trace == b.objective_trace
    assert a.subset_iteration == b.subset_iteration


def test_subset_shape_and_score():
    rng = np.random.default_rng(29)
    phi = rng.standard_normal((10, 5))
    result = run_insense(phi, 3)
    assert isinstance(result, SelectionResult)
    assert result.subset.shape == (3,)
    assert np.all(np.diff(result.subset) > 0)
    assert 0 <= result.subset_iteration <= result.iterations
    # the tracked score is the coherence of the reported subset
    assert result.subset_mu_avg == pytest.approx(mu_avg(phi[result.subset]))


def test_tracked_subset_no_worse_than_final_rounding():
    rng = np.random.default_rng(31)
    for _ in range(5):
        phi = rng.standard_normal((14, 6))
        result = run_insense(phi, 5, InsenseConfig(seed=2))
        final_round = np.sort(np.argsort(-result.final_weights, kind="stable")[:5])
        final_score = mu_avg(phi[final_round])
        if result.subset_mu_avg is not None and final_score is not None:
            assert result.subset_mu_avg <= final_score + 1e-12


def test_full_budget_selects_everything():
    rng = np.random.default_rng(37)
    phi = rng.standard_normal((5, 4))
    result = run_insense(phi, 5)
    np.testing.assert_array_equal(result.subset, np.arange(5))


def test_selection_does_not_depend_on_the_scale_of_phi():
    # eps1/eps2 are absolute, so the descent sees phi at a fixed RMS scale
    phi = generate(EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10))
    base = run_insense(phi, 10)
    for scale in (1e-8, 1e-4, 1e4, 1e150):
        result = run_insense(phi * scale, 10)
        np.testing.assert_array_equal(result.subset, base.subset)
        assert result.subset_mu_avg == pytest.approx(base.subset_mu_avg, rel=1e-12)
    for scale in (2.0**-40, 2.0**60):
        # power-of-two scales are exact, so the whole descent repeats bit for bit
        result = run_insense(phi * scale, 10)
        np.testing.assert_array_equal(result.subset, base.subset)
        np.testing.assert_array_equal(result.final_weights, base.final_weights)
        assert result.objective_trace == base.objective_trace
        assert result.subset_mu_avg == base.subset_mu_avg


def test_restarts_use_their_own_streams():
    rng = np.random.default_rng(41)
    phi = rng.standard_normal((15, 6))
    cfg1 = InsenseConfig(init="uniform-plus-jitter", jitter_scale=2.0, restarts=1, seed=9)
    cfg5 = InsenseConfig(init="uniform-plus-jitter", jitter_scale=2.0, restarts=5, seed=9)
    one = run_insense(phi, 4, cfg1)
    five = run_insense(phi, 4, cfg5)
    # more restarts can only improve the tracked score
    assert five.subset_mu_avg <= one.subset_mu_avg + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        InsenseConfig(eps1=1e-10, eps2=1e-9)
    with pytest.raises(ValueError):
        InsenseConfig(max_iters=0)
    with pytest.raises(ValueError):
        InsenseConfig(max_iters=2.5)
    with pytest.raises(ValueError):
        InsenseConfig(init="random")
    with pytest.raises(ValueError):
        InsenseConfig(jitter_scale=-0.1)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=0)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=1.5)
    # bools are Integral and fractions used to truncate; both are refused
    for name in ("max_iters", "restarts", "seed"):
        for value in (True, np.bool_(True), 2.7, 2.0, "2"):
            with pytest.raises(ValueError, match=name):
                InsenseConfig(**{name: value})
    assert InsenseConfig(max_iters=np.int64(3), restarts=np.int32(2), seed=-4).seed == -4
    # JSON configs can carry NaN and Infinity
    for name in ("eps1", "eps2", "jitter_scale"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=name):
                InsenseConfig(**{name: value})


def test_input_validation():
    with pytest.raises(ValueError):
        run_insense(np.ones(4), 1)
    with pytest.raises(InfeasibleConstraintError):
        run_insense(np.ones((4, 3)), 5)
