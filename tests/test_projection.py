"""Scaled boxed-simplex projection against independent oracles.

The bisection oracle below is deliberately reimplemented here (not imported
from the package) so the fast scan in projection.py is checked against a
second derivation of the same multiplier equation.  A generic SLSQP solve
of the underlying least-distance problem covers a handful of instances
from a third direction, and an exact rational breakpoint search covers
inputs up to |y| = 1e15, where a float bisection cannot serve as oracle.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from insense import InfeasibleConstraintError, project_sbs
from insense.projection import BOX_TOL, SUM_TOL


def _oracle_project(y, m, steps=200):
    """Projection via bisection on sum(clip(y + lam, 0, 1)) = m."""
    lo = -float(np.max(y))
    hi = 1.0 - float(np.min(y))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(y + mid, 0.0, 1.0).sum() < m:
            lo = mid
        else:
            hi = mid
    return np.clip(y + 0.5 * (lo + hi), 0.0, 1.0)


def _random_instance(rng):
    d = int(rng.integers(1, 51))
    scale = 10.0 ** rng.integers(-3, 4)
    y = scale * rng.standard_normal(d)
    m = int(rng.integers(1, d + 1))
    return y, m


def _exact_project(y, m):
    """Projection in exact rationals: walk the breakpoints of the clamped sum.

    f(lam) = sum_i clamp(y_i + lam, 0, 1) is piecewise linear and
    non-decreasing with kinks at -y_i and 1 - y_i; f(lam) = m is solved on the
    first segment whose right end reaches m, by linear interpolation.
    """
    ys = [Fraction(float(v)) for v in y]
    target = Fraction(m)

    def clamped_sum(lam):
        return sum(min(max(v + lam, 0), 1) for v in ys)

    kinks = sorted({-v for v in ys} | {1 - v for v in ys})
    lo, f_lo = kinks[0], clamped_sum(kinks[0])
    for hi in kinks[1:]:
        f_hi = clamped_sum(hi)
        if f_hi >= target:
            lam = lo + (hi - lo) * (target - f_lo) / (f_hi - f_lo)
            return np.array([float(min(max(v + lam, 0), 1)) for v in ys])
        lo, f_lo = hi, f_hi
    raise AssertionError("budget above the clamped sum's range")


def test_matches_exact_rational_oracle_at_every_scale():
    # Prefix sums over the raw input cancel digits here: summed unshifted,
    # the first misses the budget by 0.125 and the second by 1.2e-8.
    cases = [
        (np.array([1e15 + 0.5, 1e15 + 0.1]), 1),
        (np.array([-153307276.233]), 0.219),
    ]
    rng = np.random.default_rng(43)
    for _ in range(400):
        d = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(0, 15)
        if rng.random() < 0.5:
            y = scale * rng.standard_normal(d)  # spread
        else:
            y = rng.standard_normal(d) + scale * rng.choice([-1.0, 1.0])  # offset
        if rng.random() < 0.5:
            m = int(rng.integers(1, d + 1))
        else:
            m = float(rng.uniform(0.05, d))
        cases.append((y, m))
    for y, m in cases:
        z = project_sbs(y, m).z
        np.testing.assert_allclose(z, _exact_project(y, m), rtol=0, atol=1e-12)
        assert abs(z.sum() - m) <= SUM_TOL
        assert z.min() >= -BOX_TOL and z.max() <= 1.0 + BOX_TOL


def test_multiplier_and_boundary_counts_describe_z():
    rng = np.random.default_rng(47)
    vertices = 0
    for _ in range(300):
        y, m = _random_instance(rng)
        res = project_sbs(y, m)
        np.testing.assert_allclose(np.clip(y + res.lam, 0.0, 1.0), res.z, atol=1e-9)
        assert res.k0 == np.count_nonzero(res.z == 0.0)
        assert res.k1 == np.count_nonzero(res.z == 1.0)
        vertices += res.k0 + res.k1 == y.size
    assert vertices > 0  # the separating multiplier is checked too


def test_matches_bisection_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        y, m = _random_instance(rng)
        z = project_sbs(y, m).z
        np.testing.assert_allclose(z, _oracle_project(y, m), atol=1e-8)


def test_output_is_feasible():
    rng = np.random.default_rng(23)
    for _ in range(300):
        y, m = _random_instance(rng)
        z = project_sbs(y, m).z
        assert abs(z.sum() - m) <= SUM_TOL
        assert z.min() >= -BOX_TOL and z.max() <= 1.0 + BOX_TOL


def test_idempotence():
    rng = np.random.default_rng(29)
    for _ in range(100):
        y, m = _random_instance(rng)
        z = project_sbs(y, m).z
        np.testing.assert_allclose(project_sbs(z, m).z, z, atol=1e-9)


def test_nonexpansive():
    # projections onto convex sets cannot increase distances
    rng = np.random.default_rng(31)
    for _ in range(100):
        y, m = _random_instance(rng)
        b = y + rng.standard_normal(y.size)
        za = project_sbs(y, m).z
        zb = project_sbs(b, m).z
        assert np.linalg.norm(za - zb) <= np.linalg.norm(y - b) + 1e-12


def test_against_generic_qp_solver():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        y = 3.0 * rng.standard_normal(d)
        m = int(rng.integers(1, d + 1))
        res = minimize(
            lambda z: 0.5 * np.sum((z - y) ** 2),
            x0=np.full(d, m / d),
            jac=lambda z: z - y,
            bounds=[(0.0, 1.0)] * d,
            constraints=[{"type": "eq", "fun": lambda z: z.sum() - m}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        np.testing.assert_allclose(project_sbs(y, m).z, res.x, atol=1e-6)


def test_fractional_budget():
    y = np.array([0.2, 0.2, 0.2])
    z = project_sbs(y, 1.2).z
    np.testing.assert_allclose(z, [0.4, 0.4, 0.4], atol=1e-12)


def test_hand_case_hits_vertex():
    z = project_sbs(np.array([2.0, 0.5, -1.0]), 1).z
    np.testing.assert_allclose(z, [1.0, 0.0, 0.0], atol=1e-9)


def test_feasible_point_is_fixed():
    y = np.array([0.5, 1.0, 0.0, 0.5])
    np.testing.assert_allclose(project_sbs(y, 2).z, y, atol=1e-12)


def test_full_budget_returns_ones():
    res = project_sbs(np.array([-5.0, 0.3, 9.0]), 3)
    np.testing.assert_array_equal(res.z, np.ones(3))
    assert res.k1 == 3


def test_budget_errors():
    y = np.array([0.3, -0.2, 0.9, 0.1])
    # "1" through np.array([1.0]) used to raise a bare TypeError from the
    # range comparison, and a 0-d bool array was read as a budget of 1
    for bad in (0.0, -1.0, 4.5, True, np.True_, "1", None, 1 + 0j, np.array([1.0]),
                np.array(True)):
        with pytest.raises(InfeasibleConstraintError, match="budget m="):
            project_sbs(y, bad)
    # real scalars and 0-d arrays are budgets
    expected = project_sbs(y, 2).z
    for good in (2.0, np.int64(2), np.float32(2.0), np.array(2), np.array(2.0)):
        np.testing.assert_array_equal(project_sbs(y, good).z, expected)


def test_input_errors():
    with pytest.raises(ValueError):
        project_sbs(np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        project_sbs(np.array([]), 1)
    with pytest.raises(ValueError):
        project_sbs(np.array([1.0, np.inf]), 1)
