"""Baseline selectors against independent reimplementations, and the registry."""

import itertools
import math

import numpy as np
import pytest

from insense import (
    EnsembleSpec,
    ExhaustiveLimitError,
    InsenseConfig,
    InsenseError,
    frame_potential,
    generate,
    mu_avg,
    run_insense,
    select_exhaustive_mu_avg,
    select_fp_greedy,
    select_random,
)
from insense.baselines import EXHAUSTIVE_LIMIT
from insense.experiment import SELECTORS, configure


def _greedy_loop(phi, m):
    """Worst-out greedy by recomputing the full frame potential each round."""
    alive = list(range(phi.shape[0]))
    while len(alive) > m:
        best_idx, best_fp = None, None
        for pos, row in enumerate(alive):
            rest = [r for r in alive if r != row]
            fp = frame_potential(phi[rest])
            if best_fp is None or fp < best_fp:
                best_idx, best_fp = pos, fp
        alive.pop(best_idx)
    return np.asarray(alive)


def test_random_is_seeded_and_valid():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((9, 4))
    a = select_random(phi, 4, seed=5)
    b = select_random(phi, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4,)
    assert np.all(np.diff(a) > 0)
    assert a.min() >= 0 and a.max() < 9
    assert not np.array_equal(a, select_random(phi, 4, seed=6))


def test_random_covers_rows_uniformly():
    phi = np.ones((5, 3))
    counts = np.zeros(5)
    for seed in range(2000):
        counts[select_random(phi, 1, seed=seed)[0]] += 1
    freq = counts / 2000.0
    assert np.all(np.abs(freq - 0.2) < 0.05)


def test_fp_greedy_matches_recompute_loop():
    rng = np.random.default_rng(2)
    for _ in range(6):
        phi = rng.standard_normal((12, 6))
        m = int(rng.integers(2, 10))
        np.testing.assert_array_equal(select_fp_greedy(phi, m), _greedy_loop(phi, m))


def test_fp_greedy_drops_the_duplicate_first():
    # rows 0 and 1 are identical; ties resolve to dropping the lower index
    phi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(select_fp_greedy(phi, 2), [1, 2])


def test_fp_greedy_zeroes_frame_potential_on_orthogonal_block():
    spec = EnsembleSpec("identity-gaussian", d=40, n=20, seed=0)
    phi = generate(spec)
    subset = select_fp_greedy(phi, 10)
    assert frame_potential(phi[subset]) == pytest.approx(0.0, abs=1e-12)
    # orthogonal rows exist only in the identity block
    assert subset.max() < 20


def test_exhaustive_matches_plain_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = rng.standard_normal((8, 5))
        subset = select_exhaustive_mu_avg(phi, 3)
        vals = {
            combo: mu_avg(phi[list(combo)])
            for combo in itertools.combinations(range(8), 3)
        }
        best = min(vals, key=lambda c: math.inf if vals[c] is None else vals[c])
        np.testing.assert_array_equal(subset, best)


def test_exhaustive_prefers_defined_scores():
    # row 0 alone leaves a zero column; row 1 alone does not
    phi = np.array([[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(select_exhaustive_mu_avg(phi, 1), [1])


def test_exhaustive_refuses_oversized_enumerations():
    phi = np.ones((30, 3))
    assert math.comb(30, 15) > EXHAUSTIVE_LIMIT
    with pytest.raises(ExhaustiveLimitError):
        select_exhaustive_mu_avg(phi, 15)


def test_dispatch_matches_direct_calls():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((8, 4))

    def registry(method, seed=0, **options):
        return SELECTORS[method].run(phi, 3, seed, configure(method, options))

    np.testing.assert_array_equal(registry("random", seed=7)[0], select_random(phi, 3, seed=7))
    np.testing.assert_array_equal(registry("fp-greedy")[0], select_fp_greedy(phi, 3))
    np.testing.assert_array_equal(
        registry("exhaustive-mu-avg")[0], select_exhaustive_mu_avg(phi, 3)
    )
    assert all(registry(m)[1] is None for m in ("random", "fp-greedy", "exhaustive-mu-avg"))
    # the cap on the enumeration is a constant, not an option
    with pytest.raises(InsenseError, match="unknown options"):
        registry("exhaustive-mu-avg", exhaustive_limit=10)
    subset, result = registry("insense", seed=7, restarts=2)
    direct = run_insense(phi, 3, InsenseConfig(seed=7, restarts=2))
    np.testing.assert_array_equal(subset, direct.subset)
    np.testing.assert_array_equal(result.final_weights, direct.final_weights)


def test_config_rejects_unknown_method():
    assert set(SELECTORS) == {"insense", "random", "fp-greedy", "exhaustive-mu-avg"}
    for method in ("genetic", ["random"], None):
        with pytest.raises(InsenseError, match="unknown selector method"):
            configure(method, {})
    with pytest.raises(InsenseError, match="unknown options"):
        configure("fp-greedy", {"exhaustive_limit": 5})
    # fixed constants of the line search and stop rule, no longer settings
    for name in ("rel_tol", "ls_shrink", "ls_init_step", "max_iters"):
        with pytest.raises(InsenseError, match="unknown options"):
            configure("insense", {name: 0.5})
    for method, options in (
        ("insense", {"restarts": 0}),
        ("insense", {"restarts": True}),
        ("insense", {"restarts": 1.5}),
        ("insense", {"init": "zeros"}),
    ):
        with pytest.raises(InsenseError, match="bad options"):
            configure(method, options)
    # the cap on an exhaustive search was an option once
    for value in ("abc", 0, True):
        with pytest.raises(InsenseError, match="unknown options"):
            configure("exhaustive-mu-avg", {"exhaustive_limit": value})
