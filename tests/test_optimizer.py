"""Optimizer pieces: objective, gradients, descent, and subset tracking.

The objective and Gram oracles are explicit double loops; the gradient
oracle is central finite differences of the loop objective, so a shared
algebra mistake cannot cancel out.
"""

import numpy as np
import pytest

from insense import (
    InfeasibleConstraintError,
    InsenseConfig,
    SelectionResult,
    coherence_objective,
    gram_gradient,
    gram_matrix,
    mu_avg,
    run_insense,
    weight_gradient,
)
from insense.projection import BOX_TOL, SUM_TOL


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
    phi = rng.standard_normal((7, 5))
    z = rng.uniform(0.0, 1.0, 7)
    expected = sum(z[k] * np.outer(phi[k], phi[k]) for k in range(7))
    np.testing.assert_allclose(gram_matrix(phi, z), expected, atol=1e-12)


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
        InsenseConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        InsenseConfig(max_iters=0)
    with pytest.raises(ValueError):
        InsenseConfig(max_iters=2.5)
    with pytest.raises(ValueError):
        InsenseConfig(ls_shrink=1.0)
    with pytest.raises(ValueError):
        InsenseConfig(ls_init_step=0.0)
    with pytest.raises(ValueError):
        InsenseConfig(init="random")
    with pytest.raises(ValueError):
        InsenseConfig(jitter_scale=-0.1)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=0)
    with pytest.raises(ValueError):
        InsenseConfig(restarts=1.5)


def test_input_validation():
    with pytest.raises(ValueError):
        run_insense(np.ones(4), 1)
    with pytest.raises(InfeasibleConstraintError):
        run_insense(np.ones((4, 3)), 5)
