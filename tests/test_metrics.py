"""Matrix quality metrics against hand values and brute-force loops."""

import math
import warnings

import numpy as np
import pytest

import insense.metrics as metrics
from insense import (
    InfeasibleConstraintError,
    InvalidSubsetError,
    condition_number,
    evaluate_recovery,
    extract_submatrix,
    frame_potential,
    metric_report,
    mu_avg,
    mu_max,
)
from insense.metrics import as_integer, as_sensing_matrix, validate_budget, validate_subset


def _coherence_loop(phi):
    """Pairwise coherences by explicit loops, no linear algebra shortcuts."""
    d, n = phi.shape
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            ni = math.sqrt(sum(phi[r, i] ** 2 for r in range(d)))
            nj = math.sqrt(sum(phi[r, j] ** 2 for r in range(d)))
            dot = sum(phi[r, i] * phi[r, j] for r in range(d))
            vals.append(abs(dot) / (ni * nj))
    return vals


def test_identity_is_perfectly_incoherent():
    eye = np.eye(4)
    assert mu_avg(eye) == 0.0
    assert mu_max(eye) == 0.0
    assert frame_potential(eye) == 0.0
    assert condition_number(eye) == pytest.approx(1.0)


def test_hand_value_two_by_two():
    # columns (1,0) and (1,1): coherence 1/sqrt(2); rows (1,1),(0,1): FP 1
    phi = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert mu_avg(phi) == pytest.approx(1.0 / math.sqrt(2))
    assert mu_max(phi) == pytest.approx(1.0 / math.sqrt(2))
    assert frame_potential(phi) == pytest.approx(1.0)
    assert frame_potential(phi[:1]) == 0.0  # one row has no pair of rows
    # CN is the golden ratio squared for this matrix
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert condition_number(phi) == pytest.approx(golden**2)


def test_parallel_columns_cap_at_one():
    phi = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
    assert mu_avg(phi) == pytest.approx(1.0)
    assert mu_max(phi) == pytest.approx(1.0)


def test_against_bruteforce_loops():
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = rng.standard_normal((6, 8))
        vals = _coherence_loop(phi)
        assert mu_avg(phi) == pytest.approx(math.sqrt(np.mean(np.square(vals))), rel=1e-12)
        assert mu_max(phi) == pytest.approx(max(vals), rel=1e-12)
        fp = sum(
            (phi[i] @ phi[j]) ** 2 for i in range(6) for j in range(i + 1, 6)
        )
        assert frame_potential(phi) == pytest.approx(fp, rel=1e-12)
        s = np.linalg.svd(phi, compute_uv=False)
        assert condition_number(phi) == pytest.approx(s[0] / s[-1], rel=1e-12)


def _coherence_reference(phi):
    """The coherence array as computed before the pair positions were cached."""
    norms = np.linalg.norm(phi, axis=0)
    unit = phi / norms
    gram = unit.T @ unit
    return np.minimum(np.abs(gram[np.triu_indices(phi.shape[1], k=1)]), 1.0)


def test_cached_pair_positions_keep_the_coherences_bit_for_bit():
    rng = np.random.default_rng(43)
    # each size is scored three times, so later calls reuse the cached
    # positions, and sizes come back, so the cache also refills
    for n in (2, 3, 7, 50, 3, 200, 7, 50):
        phi = rng.standard_normal((int(rng.integers(1, 12)), n))
        phi[:, 0] = phi[:, 1]  # one pair at coherence 1, up to rounding
        ref = _coherence_reference(phi)
        assert mu_avg(phi) == float(np.sqrt(np.mean(ref**2)))
        assert mu_max(phi) == float(np.max(ref))
        report = metric_report(phi)
        assert (report.mu_avg, report.mu_max) == (mu_avg(phi), mu_max(phi))
    # the cached positions cannot be changed by a caller
    with pytest.raises(ValueError):
        metrics._pair_positions(7)[0] = 1


def test_zero_column_undefines_coherence():
    phi = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    assert mu_avg(phi) is None
    assert mu_max(phi) is None
    assert mu_max(phi[:, [0, 1]]) is None
    # the unaffected pair still has a value
    assert mu_avg(phi[:, [0, 2]]) is not None and mu_max(phi[:, [0, 2]]) is not None
    report = metric_report(phi)
    assert report.mu_avg is None and report.mu_max is None
    assert report.frame_potential == pytest.approx(frame_potential(phi))
    # an all-zero matrix is left unscaled
    zero = metric_report(np.zeros((3, 3)))
    assert (zero.mu_avg, zero.mu_max, zero.frame_potential, zero.condition_number) == (
        None, None, 0.0, None)


def test_rank_deficiency_undefines_condition_number():
    phi = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert condition_number(phi) is None


def test_metric_report_matches_parts():
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((5, 7))
    report = metric_report(phi)
    assert report.mu_avg == mu_avg(phi)
    assert report.mu_max == mu_max(phi)
    assert report.frame_potential == frame_potential(phi)
    assert report.condition_number == condition_number(phi)


def test_metrics_are_invariant_under_permutations_and_column_sign_flips():
    # every metric is a function of the column pairs or the singular values,
    # which a row or column permutation and a column sign flip leave alone
    rng = np.random.default_rng(43)
    for d, n in ((10, 40), (40, 80), (30, 20)):
        phi = rng.standard_normal((d, n))
        transformed = (
            phi[rng.permutation(d)],
            phi[:, rng.permutation(n)],
            phi * rng.choice([-1.0, 1.0], n),
        )
        for metric in (mu_avg, mu_max, frame_potential, condition_number):
            expected = metric(phi)
            for other in transformed:
                assert metric(other) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_extract_submatrix_copies_selected_rows():
    phi = np.arange(12.0).reshape(4, 3)
    sub = extract_submatrix(phi, [1, 3])
    np.testing.assert_array_equal(sub, phi[[1, 3]])
    sub[0, 0] = -99.0
    assert phi[1, 0] == 3.0


def test_subset_validation_errors():
    with pytest.raises(InvalidSubsetError):
        validate_subset([], 5)
    with pytest.raises(InvalidSubsetError):
        validate_subset([0, 0], 5)
    with pytest.raises(InvalidSubsetError):
        validate_subset([3, 1], 5)
    with pytest.raises(InvalidSubsetError):
        validate_subset([0, 5], 5)
    with pytest.raises(InvalidSubsetError):
        validate_subset([-1], 5)
    with pytest.raises(InvalidSubsetError):
        validate_subset([[0, 1]], 5)


def test_fractional_and_bool_indices_are_rejected():
    phi = np.arange(12.0).reshape(4, 3)
    # [0.5, 2.7] used to be truncated to rows 0 and 2
    for bad in ([0.5, 2.7], np.array([0.0, 2.5]), [False, True], [0, True],
                [np.bool_(False), 2], [0, np.nan], [0, np.inf], ["0", "2"]):
        with pytest.raises(InvalidSubsetError):
            extract_submatrix(phi, bad)
    for whole in ([1.0, 3.0], np.array([1, 3], dtype=np.int32), [np.int64(1), 3]):
        np.testing.assert_array_equal(extract_submatrix(phi, whole), phi[[1, 3]])
        assert validate_subset(whole, 4).tolist() == [1, 3]


def test_integer_settings_share_one_rule():
    assert as_integer(3, "x") == 3
    assert type(as_integer(np.int64(3), "x", least=3)) is int
    assert as_integer(-2, "x") == -2
    for bad in (True, np.bool_(True), 3.0, 2.5, np.nan, "3", None):
        with pytest.raises(ValueError, match="x must be an integer"):
            as_integer(bad, "x")
    with pytest.raises(ValueError, match="x must be at least 1"):
        as_integer(0, "x", least=1)


def test_budget_validation_errors():
    assert validate_budget(3, 5) == 3
    assert validate_budget(np.int64(5), 5) == 5
    assert validate_budget(3.0, 5) == 3 and type(validate_budget(3.0, 5)) is int
    for bad in (0, -2, 6, 2.5, True, np.bool_(True), np.nan, np.inf, -np.inf, "3"):
        with pytest.raises(InfeasibleConstraintError):
            validate_budget(bad, 5)


def test_matrix_validation_errors():
    with pytest.raises(ValueError):
        as_sensing_matrix(np.ones(4))
    with pytest.raises(ValueError):
        as_sensing_matrix(np.ones((3, 1)))
    with pytest.raises(ValueError):
        as_sensing_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_metrics_and_sweeps_do_not_depend_on_the_scale():
    # rows 0-9 of a gaussian 60 x 40 at k = 2: unless the metrics see the
    # matrix at unit RMS, and the sweep each column at a unit largest entry,
    # the column norms overflow from 1e154 (every column becomes 0) and
    # underflow below 1e-160, and the frame potential overflows with a
    # warning from 1e150
    phi = np.random.default_rng(0).standard_normal((60, 40))[:10]
    report = metric_report(phi)
    sweep = evaluate_recovery(phi, np.arange(10), 2, keep_trials=True)
    assert round(report.mu_avg, 5) == 0.31882 and round(sweep.accuracy_percent, 2) == 93.21
    counts = (sweep.exact_count, sweep.certified, sweep.refuted, sweep.simplex_iterations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in (-200, -170, -160, -100, -1, 1, 100, 150, 153, 154, 160, 200):
            scale = 10.0**exponent
            got = metric_report(phi * scale)
            assert got.mu_avg == pytest.approx(report.mu_avg, rel=1e-12)
            assert got.mu_max == pytest.approx(report.mu_max, rel=1e-12)
            assert got.condition_number == pytest.approx(report.condition_number, rel=1e-9)
            # 0 below the float range and inf above it
            fp = report.frame_potential * scale * scale * scale * scale
            assert got.frame_potential == pytest.approx(fp, rel=1e-12)
            again = evaluate_recovery(phi * scale, np.arange(10), 2)
            assert (again.exact_count, again.certified, again.refuted,
                    again.simplex_iterations) == counts
        # a power of two changes no bit
        for exponent in (-600, -101, 100, 600):
            scaled = np.ldexp(phi, exponent)
            got = metric_report(scaled)
            assert (got.mu_avg, got.mu_max) == (report.mu_avg, report.mu_max)
            assert evaluate_recovery(scaled, np.arange(10), 2, keep_trials=True) == sweep
            if abs(exponent) < 200:
                assert got.frame_potential == math.ldexp(report.frame_potential, 4 * exponent)
        # column gains from 2^300 down to 2^-675, whose squares underflow at any
        # one scale of the whole matrix, change no bit of the sweep either
        gained = np.ldexp(phi, 300 - 25 * np.arange(40))
        assert evaluate_recovery(gained, np.arange(10), 2, keep_trials=True) == sweep
