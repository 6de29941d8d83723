"""Optimizer pieces: objective, gradients, descent, and subset tracking.

The objective and Gram oracles are explicit double loops; the gradient
oracle is central finite differences of the loop objective, so a shared
algebra mistake cannot cancel out.  The support-only Gram and the whole
descent built on it are also checked against the dense formula over all
rows.
"""

import collections
import tracemalloc

import numpy as np
import pytest

import insense.optimizer as optimizer
from insense import (
    EnsembleSpec,
    InfeasibleConstraintError,
    InsenseConfig,
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


def _objective_loop(phi, z):
    """Objective by explicit loops over columns and pairs, smoothed by 1e-9 and 1e-10."""
    d, n = phi.shape
    g = np.zeros((n, n))
    for k in range(d):
        g += z[k] * np.outer(phi[k], phi[k])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += (g[i, j] ** 2 + 1e-9) / (g[i, i] * g[j, j] + 1e-10)
    return total


def _fd_gradient(phi, z, h=1e-6):
    grad = np.empty(z.size)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        grad[i] = (coherence_objective(phi, zp) - coherence_objective(phi, zm)) / (2 * h)
    return grad


def test_gram_matrix_matches_outer_sum():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((20, 5))
    mask = rng.uniform(size=20) < 0.3
    weights = (
        rng.uniform(0.0, 1.0, 20),  # dense
        np.where(mask, rng.uniform(size=20), 0.0),  # sparse
    )
    for z in weights:
        expected = sum(z[k] * np.outer(phi[k], phi[k]) for k in range(20))
        np.testing.assert_allclose(gram_matrix(phi, z), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(gram_matrix(phi, np.zeros(20)), np.zeros((5, 5)))


def test_gram_matrix_is_exactly_symmetric_with_and_without_work():
    rng = np.random.default_rng(59)
    phi = rng.standard_normal((60, 40))
    work = optimizer._StepWork(60, 40)
    mask = rng.uniform(size=60) < 0.6
    weights = (
        np.where(mask, rng.uniform(size=60), 0.0),  # a descent's weights
        np.eye(60)[7],  # one row
    )
    for z in weights:
        fresh = gram_matrix(phi, z)
        np.testing.assert_array_equal(fresh, fresh.T)
        np.testing.assert_array_equal(gram_matrix(phi, z, work=work), fresh)
        np.testing.assert_allclose(fresh, phi.T @ (z[:, None] * phi), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(gram_matrix(phi, np.zeros(60), work=work), np.zeros((40, 40)))


def test_gram_matrix_rejects_misshaped_weights():
    phi = np.ones((6, 3))
    for z in (np.ones(5), np.ones(7), np.ones((6, 1)), np.float64(1.0)):
        with pytest.raises(ValueError):
            gram_matrix(phi, z)
    # selection weights lie in [0, 1]: negative and mixed-sign weights are refused
    for z in (np.full(6, -0.5), np.array([0.5, -1e-300, 0.0, 1.0, 0.2, 0.0])):
        with pytest.raises(ValueError, match="non-negative"):
            gram_matrix(phi, z)
        with pytest.raises(ValueError, match="non-negative"):
            coherence_objective(phi, z)


def test_gram_matrix_rejects_non_finite_weights():
    # was a NaN objective: a NaN weight passes z < 0 and enters the support
    phi = generate(EnsembleSpec("gaussian", d=6, n=4, seed=0))
    for bad in (np.nan, np.inf, -np.inf):
        z = np.array([0.5, bad, 0.0, 1.0, 0.2, 0.0])
        with pytest.raises(ValueError, match="finite"):
            gram_matrix(phi, z)
        with pytest.raises(ValueError, match="finite"):
            coherence_objective(phi, z)


def test_gram_matrix_takes_a_nested_list():
    # was AttributeError: 'list' object has no attribute 'shape'
    phi = generate(EnsembleSpec("gaussian", d=6, n=4, seed=0))
    z = np.array([0.5, 0.1, 0.0, 1.0, 0.2, 0.0])
    np.testing.assert_array_equal(gram_matrix(phi.tolist(), z), gram_matrix(phi, z))


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
    a Gram is s.T @ s over the support rows scaled by sqrt(z), a
    backtrack's Gram averages the last candidate's with the accepted one,
    den is np.outer(diag, diag) + _EPS2, the gradient is the full
    gram_gradient, and every rounding is scored.  Each restart starts from the uniform point m/d, jittered and
    projected for restart r > 0 or init "uniform-plus-jitter" when
    jitter_scale > 0.  Returns the reported restart's (subset,
    subset_iteration, subset_mu_avg, final_weights, trace, stop_reason),
    the evaluations and the steps over all restarts.
    """

    def gram_of(z):
        rows = np.flatnonzero(z)
        scaled = np.sqrt(z[rows, None]) * phi[rows]
        return scaled.T @ scaled

    def objective(gram):
        diag = np.diag(gram)
        ratio = (np.square(gram) + optimizer._EPS1) / (np.outer(diag, diag) + optimizer._EPS2)
        return float((ratio.sum() - np.trace(ratio)) / 2.0)

    def gradient(gram):
        return np.einsum("ij,ij->i", phi @ gram_gradient(gram), phi)

    phi = optimizer._unit_rms(phi)[0]
    best, evals, steps = None, 0, 0
    for r in range(cfg.restarts):
        z = np.full(phi.shape[0], m / phi.shape[0])
        if (r > 0 or cfg.init == "uniform-plus-jitter") and cfg.jitter_scale > 0.0:
            jitter = cfg.jitter_scale * seeded_rng(cfg.seed, r).standard_normal(z.size)
            z = project_sbs(z + jitter, m).z
        gram = gram_of(z)
        f = objective(gram)
        trace, stop_reason = [f], "max_iters"
        evals += 1
        subset = optimizer._round_to_subset(z, m)
        found = (mu_avg(phi[subset]), 0, subset)
        step = optimizer._LS_INIT_STEP
        for iterations in range(1, optimizer._MAX_ITERS + 1):
            grad = gradient(gram)
            if iterations > 1:
                step = optimizer._bb_step(z - z_prev, grad - grad_prev, step, optimizer._LS_INIT_STEP)
            end = project_sbs(z - step * grad, m).z
            t, gram_cand = 1.0, gram_of(end)
            for _ in range(optimizer._MAX_BACKTRACKS):
                f_cand = objective(gram_cand)
                evals += 1
                if f_cand <= f:
                    break
                t *= 0.5
                gram_cand = (gram_cand + gram) * 0.5
            else:
                stop_reason = "no_descent"
                break
            steps += 1
            rel_change = (f - f_cand) / f
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
    phi = rng.standard_normal((30, 20))
    z1, z2 = rng.uniform(0.0, 1.0, 30), np.where(rng.uniform(size=30) < 0.5, 0.4, 0.0)
    work = optimizer._StepWork(30, 20)
    expected = weight_gradient(phi, gram_matrix(phi, z2))
    # the work holds den/ratio of the Gram of z1, the gradient is asked at z2's
    gram1 = gram_matrix(phi, z1, work=work)
    np.testing.assert_array_equal(gram1, gram_matrix(phi, z1))
    optimizer._objective_from_gram(gram1, work=work)
    other = gram_matrix(phi, z2)
    np.testing.assert_array_equal(weight_gradient(phi, other, work=work), expected)
    # den/ratio of z1's Gram, then z2's Gram written over it in the same slot
    optimizer._objective_from_gram(gram1, work=work)
    gram2 = gram_matrix(phi, z2, work=work)
    assert gram2 is gram1
    np.testing.assert_array_equal(weight_gradient(phi, gram2, work=work), expected)
    # den/ratio of the Gram itself are reused, with the same bits
    f = optimizer._objective_from_gram(gram2, work=work)
    assert f == coherence_objective(phi, z2)
    assert work.source is gram2
    np.testing.assert_array_equal(weight_gradient(phi, gram2, work=work), expected)
    assert work.source is None


def _traced_peak(call):
    """Peak bytes traced while `call` runs, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_layers_in_work_arrays_allocate_no_square_array():
    # the module docstring's promise: with a run's work arrays no layer of
    # a step allocates an n x n array; numpy's ufunc buffers stay below that
    d = n = 200
    rng = np.random.default_rng(71)
    phi = rng.standard_normal((d, n))
    work = optimizer._StepWork(d, n)
    z = np.where(rng.uniform(size=d) < 0.7, rng.uniform(size=d), 0.0)
    gram = gram_matrix(phi, z, work=work)
    work.accept(gram)
    peaks = {"gram": _traced_peak(lambda: gram_matrix(phi, z, work=work))}
    end = work.grams[1]
    peaks["objective"] = _traced_peak(lambda: optimizer._objective_from_gram(end, work=work))
    peaks["gradient"] = _traced_peak(lambda: weight_gradient(phi, gram, work=work))
    peaks["halve"] = _traced_peak(lambda: work.halve(gram))
    assert all(peak < 8 * n * n for peak in peaks.values()), peaks
    # the work itself is one block: two Gram slots, den, ratio and weighted
    assert work.grams[0].base is work.weighted.base
    assert work.weighted.base.size == 4 * n * n + d * n


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
            # patience past _MAX_ITERS: the descent without the stall rule
            patch.setattr(optimizer, "_PATIENCE", optimizer._MAX_ITERS + 1)
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
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_MAX_ITERS", 1)
        capped = run_insense(phi, 10)
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


def test_restarts_without_a_score_report_the_lowest_final_objective():
    # no 5-row rounding has a defined score, so the final objectives decide
    result, paths = _restart_paths(_uncoverable_matrix(), 5, InsenseConfig(restarts=3, seed=4))
    assert result.subset_mu_avg is None
    finals = [path[-1][1] for path in paths]
    assert result.final_objective == min(finals)
    # restart 2 wins, not the first one run
    assert finals.index(min(finals)) == 2
    np.testing.assert_array_equal(result.final_weights, paths[2][-1][0])


def test_restarts_without_jitter_repeat_the_first_descent():
    phi = generate(EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10))
    one = run_insense(phi, 10, InsenseConfig(jitter_scale=0.0, seed=0))
    three = run_insense(phi, 10, InsenseConfig(jitter_scale=0.0, seed=0, restarts=3))
    np.testing.assert_array_equal(three.subset, one.subset)
    np.testing.assert_array_equal(three.final_weights, one.final_weights)
    assert three.objective_trace == one.objective_trace
    assert (three.iterations, three.subset_iteration) == (one.iterations, one.subset_iteration)
    assert three.subset_mu_avg == one.subset_mu_avg
    # every restart is counted, each the same uniform descent
    assert (one.objective_evals, three.objective_evals) == (13, 39)


def _objective_turns_at(monkeypatch, after):
    """The objective reads the largest float from the first evaluation after step `after` on.

    With after=0 the turn comes right after the evaluation at the start.
    """
    state = {"turned": after == 0, "evals": 0}
    true_objective = optimizer._objective_from_gram

    def objective(gram, **kwargs):
        state["evals"] += 1
        f = true_objective(gram, **kwargs)
        return np.finfo(float).max if state["turned"] and state["evals"] > 1 else f

    def callback(iteration, z, f):
        state["z"], state["f"], state["evals_then"] = z.copy(), f, state["evals"]
        state["turned"] = iteration >= after

    monkeypatch.setattr(optimizer, "_objective_from_gram", objective)
    return state, callback


@pytest.mark.parametrize("after", [0, 2])
def test_no_descent_when_every_trial_is_rejected(monkeypatch, after):
    phi = generate(EnsembleSpec("gaussian", d=60, n=60, seed=0))
    # finite, and above every objective the descent has seen
    state, callback = _objective_turns_at(monkeypatch, after)
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
    for _ in range(10):
        d, n = int(rng.integers(2, 10)), int(rng.integers(2, 9))
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.0, 1.0, d)
        expected = _objective_loop(phi, z)
        assert coherence_objective(phi, z) == pytest.approx(expected, rel=1e-10)


def test_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d, n = int(rng.integers(2, 9)), int(rng.integers(2, 8))
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.1, 0.9, d)
        grad = weight_gradient(phi, gram_matrix(phi, z))
        fd = _fd_gradient(phi, z)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


def _triangular_gram_gradient(gram):
    """Upper-triangular Gram gradient, the pair derivative 2 G_ij / den_ij above the diagonal."""
    diag = np.diag(gram)
    den = np.outer(diag, diag) + optimizer._EPS2
    grad = np.triu(2.0 * gram / den, k=1)
    diag_terms = -(diag[None, :] * (gram**2 + optimizer._EPS1)) / den**2
    np.fill_diagonal(diag_terms, 0.0)
    np.fill_diagonal(grad, diag_terms.sum(axis=1))
    return grad


def test_gram_gradient_is_symmetric_with_the_triangular_quadratic_forms():
    rng = np.random.default_rng(61)
    for d, n in ((6, 4), (40, 30), (200, 200)):
        phi = rng.standard_normal((d, n))
        gram = gram_matrix(phi, rng.uniform(0.0, 1.0, d))
        before = gram.copy()
        sym = gram_gradient(gram)
        np.testing.assert_array_equal(gram, before)  # the in-place steps work on copies
        np.testing.assert_array_equal(sym, sym.T)
        tri = _triangular_gram_gradient(gram)
        np.testing.assert_allclose(np.diag(sym), np.diag(tri), rtol=1e-12, atol=0.0)
        expected = np.einsum("ij,ij->i", phi @ tri, phi)
        got = weight_gradient(phi, gram)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * scale)


def test_objective_is_bit_identical_to_the_one_expression_form():
    rng = np.random.default_rng(67)
    # few columns leave few terms, so a rounding change in one term shows
    sizes = [(3, 2)] * 20 + [(5, 3)] * 20 + [(40, 30), (200, 200)]
    for d, n in sizes:
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.0, 1.0, d)
        gram = gram_matrix(phi, z)
        diag = np.diag(gram)
        ratio = (gram**2 + optimizer._EPS1) / (np.outer(diag, diag) + optimizer._EPS2)
        expected = float((ratio.sum() - np.trace(ratio)) / 2.0)
        assert coherence_objective(phi, z) == expected


def test_gram_gradient_diagonal_sign():
    # raising a diagonal entry grows denominators, so the objective falls
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((6, 4))
    g = gram_matrix(phi, np.full(6, 0.5))
    diag = np.diag(gram_gradient(g))
    assert np.all(diag < 0.0)


def test_smoothing_constants_keep_their_values_and_roles():
    assert (optimizer._EPS1, optimizer._EPS2) == (1e-9, 1e-10)
    # a pair with an all-zero column reads _EPS1 / _EPS2, whatever the weights
    phi = np.array([[1.0, 0.0], [2.0, 0.0]])
    for z in (np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.zeros(2)):
        assert coherence_objective(phi, z) == optimizer._EPS1 / optimizer._EPS2 == 10.0
    # values of the objective and gradient from when the constants were
    # InsenseConfig fields; a change of either constant by 10 % moves the
    # gradient by more than 1e-11, relative, and the tolerance allows only
    # for BLAS rounding
    phi = np.array([[1.0, 0.0, 2.0], [2.0, 0.0, -1.0], [0.5, 0.0, 1.0]])
    assert coherence_objective(phi, np.array([0.3, 0.9, 0.6])) == pytest.approx(
        20.074074074164848, rel=1e-13, abs=0.0)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((6, 5))
    z = rng.uniform(0.0, 1.0, 6)
    expected = [0.7624789597954735, -0.09189553137314366, 0.5896091388109681,
                -0.38725622232761797, -0.4013596433688667, -1.8016986422050423]
    np.testing.assert_allclose(weight_gradient(phi, gram_matrix(phi, z)), expected,
                               rtol=1e-13, atol=0.0)


def _bound_cases():
    """Matrices at the edges of the objective's range, with a budget each."""
    base = np.random.default_rng(0).standard_normal((8, 5))
    zero, twin, apart = base.copy(), base.copy(), base.copy()
    zero[:, 1] = 0.0
    twin[:, 3] = twin[:, 0]
    apart[:, 0] *= 1e-150
    apart[:, 1] *= 1e150
    cases = {"zero-column": zero, "duplicate-column": twin, "columns-1e-150-and-1e150": apart,
             "one-row": base[:1], "two-columns": base[:, :2],
             "scaled-1e-200": base * 1e-200, "scaled-1e200": base * 1e200}
    return {name: (phi, (phi.shape[0] + 1) // 2) for name, phi in cases.items()}


@pytest.mark.parametrize("case", sorted(_bound_cases()))
def test_objective_stays_positive_and_within_the_smoothing_ceiling(case):
    # G(z) is positive semidefinite, so G_ij^2 <= G_ii G_jj and each pair's
    # (G_ij^2 + _EPS1) / (G_ii G_jj + _EPS2) lies in (0, _EPS1 / _EPS2 = 10]:
    # every objective is positive and at most 5 n (n - 1), which is why the
    # descent needs no guard against a zero or non-finite value
    phi, m = _bound_cases()[case]
    d, n = phi.shape
    bound = 5 * n * (n - 1)
    uniform, vertex = np.full(d, m / d), np.zeros(d)
    vertex[:m] = 1.0
    jitter = seeded_rng(0, 1).standard_normal(d)
    jittered = project_sbs(uniform + 0.3 * jitter, m).z
    for z in (uniform, vertex, np.zeros(d), jittered):
        f = coherence_objective(phi, z)
        assert 0.0 < f <= bound * (1.0 + 1e-12), (z, f)
    # all weights zero: every pair sits at the ceiling
    assert coherence_objective(phi, np.zeros(d)) == bound
    for cfg in (InsenseConfig(), InsenseConfig(init="uniform-plus-jitter", restarts=2)):
        trace = np.array(run_insense(phi, m, cfg).objective_trace)
        assert np.all(trace > 0.0) and np.all(trace <= bound * (1.0 + 1e-12)), trace


def test_objective_does_not_depend_on_the_scale_of_phi():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((6, 4))
    z = rng.uniform(0.0, 1.0, 6)
    unit = coherence_objective(phi, z)
    # an even power of two is the scaling the unit-RMS step undoes exactly
    for power in range(-600, 601, 2):
        assert coherence_objective(np.ldexp(phi, power), z) == unit, power
    # squares of these entries used to overflow to NaN or underflow to the
    # smoothing ceiling; other scales land within a factor 4 of unit RMS, and
    # the absolute smoothing constants move the value by about _EPS1 / G^2
    for scale in (1e-200, 1e-160, 1e100, 1e200):
        assert coherence_objective(phi * scale, z) == pytest.approx(unit, rel=1e-8, abs=0.0)


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
        seen = []
        result = run_insense(phi, m, run_cfg, callback=lambda it, z, f: seen.append((z.copy(), f)))
        assert len(seen) > 0
        # coherence_objective, like the descent, evaluates phi at unit RMS
        for z, f in seen:
            assert f == pytest.approx(coherence_objective(phi, z), rel=1e-12, abs=0.0)
            assert abs(z.sum() - m) <= SUM_TOL
            assert z.min() >= -BOX_TOL and z.max() <= 1.0 + BOX_TOL
        assert result.final_objective == pytest.approx(
            coherence_objective(phi, result.final_weights), rel=1e-12, abs=0.0
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
    # _EPS1/_EPS2 are absolute, so the descent sees phi at a fixed RMS scale
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


@pytest.mark.parametrize(
    "ensemble",
    [
        dict(kind="uniform-gaussian", d=200, n=200),
        dict(kind="identity-gaussian", d=100, n=50),
        dict(kind="gaussian", d=100, n=50),
    ],
    ids=["uniform-gaussian", "identity-gaussian", "gaussian"],
)
def test_selection_follows_the_symmetries_of_the_objective(ensemble):
    # a column permutation or column sign flips leave the objective and
    # every rounding's score unchanged, and a row permutation permutes the
    # weights along; the default init "uniform" with one restart draws no
    # jitter, which would be tied to row positions
    for seed in range(4):
        phi = generate(EnsembleSpec(**ensemble, seed=seed))
        d, n = phi.shape
        rng = np.random.default_rng(seed)
        base = run_insense(phi, 10).subset
        np.testing.assert_array_equal(run_insense(phi[:, rng.permutation(n)], 10).subset, base)
        np.testing.assert_array_equal(run_insense(phi * rng.choice([-1.0, 1.0], n), 10).subset, base)
        rows = rng.permutation(d)
        # row i of phi[rows] is row rows[i] of phi
        np.testing.assert_array_equal(np.sort(rows[run_insense(phi[rows], 10).subset]), base)


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
    # the iteration cap is the constant _MAX_ITERS, not a setting
    with pytest.raises(TypeError, match="max_iters"):
        InsenseConfig(max_iters=5)
    with pytest.raises(ValueError):
        InsenseConfig(init="random")
    with pytest.raises(ValueError):
        InsenseConfig(jitter_scale=-0.1)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=0)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=1.5)
    # bools are Integral and fractions used to truncate; both are refused
    for name in ("restarts", "seed"):
        for value in (True, np.bool_(True), 2.7, 2.0, "2"):
            with pytest.raises(ValueError, match=name):
                InsenseConfig(**{name: value})
    assert InsenseConfig(restarts=np.int32(2), seed=-4).seed == -4
    # JSON configs can carry NaN and Infinity
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="jitter_scale"):
            InsenseConfig(jitter_scale=value)
    # a bool is not a scale, and a string used to fail inside numpy's comparison
    for value in (True, np.bool_(True), "0.1", None):
        with pytest.raises(ValueError, match="jitter_scale"):
            InsenseConfig(jitter_scale=value)
    assert InsenseConfig(jitter_scale=np.float32(0.5)).jitter_scale == 0.5
    assert InsenseConfig(jitter_scale=2).jitter_scale == 2


def test_input_validation():
    with pytest.raises(ValueError):
        run_insense(np.ones(4), 1)
    with pytest.raises(InfeasibleConstraintError):
        run_insense(np.ones((4, 3)), 5)
