"""Seed plumbing: reproducibility and stream independence."""

import numpy as np
import pytest

from insense import derive_seed, select_random, seeded_rng


def test_same_key_same_draws():
    a = seeded_rng(42).standard_normal(16)
    b = seeded_rng(42).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_multi_part_keys_are_ordered():
    a = seeded_rng(1, 2).standard_normal(8)
    b = seeded_rng(2, 1).standard_normal(8)
    c = seeded_rng(1, 2).standard_normal(8)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


def test_negative_seed_folds_to_u64():
    # -1 and 2**64 - 1 are the same key after masking
    a = seeded_rng(-1).standard_normal(4)
    b = seeded_rng(2**64 - 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_derive_seed_deterministic_and_in_range():
    s = derive_seed(7, 0, 3)
    assert s == derive_seed(7, 0, 3)
    assert 0 <= s < 2**64
    assert s != derive_seed(7, 0, 4)
    assert s != derive_seed(7, 1, 3)


def test_derived_streams_differ_from_parent():
    parent = seeded_rng(11).standard_normal(8)
    child = seeded_rng(derive_seed(11)).standard_normal(8)
    assert not np.array_equal(parent, child)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        seeded_rng()
    with pytest.raises(ValueError):
        derive_seed()


@pytest.mark.parametrize("key", [1.5, 2.0, True, np.bool_(False), "3", None])
def test_non_integer_keys_are_rejected(key):
    # 1.5 used to draw the seed-1 stream
    with pytest.raises(ValueError, match="integer"):
        seeded_rng(key)
    with pytest.raises(ValueError, match="integer"):
        derive_seed(7, key)


def test_numpy_integer_keys_match_python_ints():
    np.testing.assert_array_equal(seeded_rng(np.int64(-1), np.uint64(3)).random(4),
                                  seeded_rng(-1, 3).random(4))


def test_fractional_selection_seed_is_rejected():
    # seed=2.7 used to give the seed-2 rows
    phi = np.random.default_rng(0).standard_normal((12, 4))
    with pytest.raises(ValueError, match="seed"):
        select_random(phi, 4, seed=2.7)
