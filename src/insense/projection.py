"""Euclidean projection onto the scaled boxed-simplex (SBS)

    { z : sum(z) = m,  0 <= z_i <= 1 }.

The set is convex, so the projection is unique and has the closed form
z_i = clamp(y_i + lam, 0, 1) for a single multiplier lam.  Because
sum_i clamp(y_i + lam, 0, 1) is non-decreasing in lam, the coordinates
that clamp to 0 are a prefix of the sorted input and the ones that clamp
to 1 are a suffix; both boundary sets are found by scanning candidate
multipliers with prefix sums (O(d log d) total), after which lam follows
from the budget on the interior coordinates.

The scan runs on a shifted and clipped copy of the sorted input, so it is
exact at every scale of y.  Shifting by the ceil(m)-th largest entry puts
the multiplier of the shifted problem in (0, 1]: the clamped sum is at most
ceil(m) - 1 < m at 0 and at least ceil(m) >= m at 1.  Entries at or beyond
+-1 then clamp the same way whatever their size, so clipping them to
[-1, 1] changes no output, and every prefix sum stays within d in magnitude
instead of cancelling digits of a large offset.
"""

import math

import numpy as np

from dataclasses import dataclass

from .exceptions import InfeasibleConstraintError

SUM_TOL = 1e-8  # allowed |sum(z) - m| on output
BOX_TOL = 1e-10  # allowed box violation on output


@dataclass
class ProjectionResult:
    """Projected point plus the multiplier and boundary-set bookkeeping.

    k0 and k1 count the coordinates clamped to 0 and 1; the remaining
    d - k0 - k1 coordinates sit strictly inside the box (up to rounding).
    """

    z: np.ndarray
    lam: float
    k0: int
    k1: int


def _clamp_sum(ys, prefix, thresholds):
    """sum_i clamp(ys_i - t, 0, 1) for each threshold t, given sorted ys."""
    lo = np.searchsorted(ys, thresholds, side="right")
    hi = np.searchsorted(ys, thresholds + 1.0, side="left")
    mid = prefix[hi] - prefix[lo] - (hi - lo) * thresholds
    return mid + (ys.size - hi)


def project_sbs(y, m):
    """Project `y` onto {z : sum(z) = m, 0 <= z <= 1}.

    Parameters
    ----------
    y : array_like, shape (d,)
        Finite point to project.
    m : float
        Budget, 0 < m <= d.  Non-integer budgets are accepted.

    Returns
    -------
    ProjectionResult
        z is the unique Euclidean projection; lam the equality multiplier
        (one representative value when a whole interval is valid).  z is
        exact up to rounding at every scale of y; lam is found for the
        shifted input and loses the digits that the shift back rounds off.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("cannot project a non-finite point")
    d = y.size
    if not 0.0 < m <= d:
        raise InfeasibleConstraintError(f"budget m={m} outside (0, {d}]")
    if m == d:
        # the feasible set is the single vertex of all ones
        return ProjectionResult(z=np.ones(d), lam=1.0 - float(np.min(y)), k0=0, k1=d)

    # Stable sort so ties keep original order in the bookkeeping below.
    # Then shift by the ceil(m)-th largest entry and clip (module docstring).
    order = np.argsort(y, kind="stable")
    shift = y[order[d - math.ceil(m)]]
    ys = np.clip(y[order] - shift, -1.0, 1.0)
    prefix = np.concatenate(([0.0], np.cumsum(ys)))

    # Both boundary scans in one pass over 2d thresholds.
    # k0 = largest k with sum_i clamp(ys_i - ys_k, 0, 1) >= m:
    # those k smallest coordinates clamp to 0.
    # Mirrored scan for the coordinates that clamp to 1: the k-th largest
    # coordinate clamps when sum_i clamp(ys_i - (ys_(k) - 1), 0, 1) <= m.
    sums = _clamp_sum(ys, prefix, np.concatenate((ys, ys[::-1] - 1.0)))
    hits0 = np.nonzero(sums[:d] >= m)[0]
    k0 = int(hits0[-1]) + 1 if hits0.size else 0
    hits1 = np.nonzero(sums[d:] <= m)[0]
    k1 = int(hits1[-1]) + 1 if hits1.size else 0

    interior = d - k0 - k1
    z_sorted = np.empty(d)
    z_sorted[:k0] = 0.0
    z_sorted[d - k1 :] = 1.0

    if interior > 0:
        lam = (m - k1 - (prefix[d - k1] - prefix[k0])) / interior
        z_sorted[k0 : d - k1] = np.clip(ys[k0 : d - k1] + lam, 0.0, 1.0)
    else:
        # vertex solution; any multiplier separating the two blocks is valid
        lam = 0.5 * ((1.0 - ys[d - k1]) + (-ys[k0 - 1]))

    z = np.empty(d)
    z[order] = z_sorted
    return ProjectionResult(z=z, lam=float(lam - shift), k0=k0, k1=k1)
