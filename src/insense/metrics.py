"""Sensing-matrix quality metrics.

A sensing matrix is a dense 2-D float array with d rows (sensors) and n
columns (signal atoms).  Coherence metrics look at column pairs, the frame
potential at row pairs.  A metric that is meaningless for the given matrix
(zero column, zero singular value) is reported as None rather than raising.
"""

import numpy as np

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

from .exceptions import InfeasibleConstraintError, InvalidSubsetError

# A column (or singular value) at or below this fraction of the largest one
# counts as zero, which flips the affected metric to undefined.
ZERO_RTOL = 1e-12


def as_sensing_matrix(phi):
    """Validate `phi` and return it as a float64 matrix.

    Requires a finite 2-D array with at least one row and two columns
    (coherence needs at least one column pair).
    """
    a = np.asarray(phi, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"sensing matrix must be 2-D, got shape {a.shape}")
    d, n = a.shape
    if d < 1 or n < 2:
        raise ValueError(f"sensing matrix needs >= 1 row and >= 2 columns, got {d}x{n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("sensing matrix contains non-finite entries")
    return a


def validate_subset(indices, d):
    """Check that `indices` is a strictly increasing list of whole numbers in [0, d).

    Entries pass as as_whole_number accepts them (3 and 3.0, numpy
    integers); bools and fractions are rejected, never truncated.
    """
    shape = np.shape(indices)
    if len(shape) != 1 or shape[0] == 0:
        raise InvalidSubsetError("subset must be a non-empty 1-D index list")
    whole = [as_whole_number(i) for i in indices]
    if None in whole:
        raise InvalidSubsetError(f"subset indices must be whole numbers, got {indices!r}")
    idx = np.asarray(whole, dtype=int)
    if np.any(idx < 0) or np.any(idx >= d):
        raise InvalidSubsetError(f"subset indices out of range for d={d}: {idx.tolist()}")
    if idx.size > 1 and np.any(np.diff(idx) <= 0):
        raise InvalidSubsetError(
            f"subset indices must be strictly increasing without duplicates: {idx.tolist()}"
        )
    return idx


def as_whole_number(value):
    """`value` as an int when it is a finite whole number, else None.

    Accepts Python and numpy integers and integral floats such as 3.0;
    rejects bools, fractions, NaN, infinities and strings.
    """
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def as_integer(value, what, least=None):
    """`value` as an int when it is an integer setting of at least `least`.

    Python and numpy integers pass; bools, floats (even 3.0) and strings
    raise a ValueError naming the setting `what`.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return int(value)


def validate_budget(m, d):
    """Check that `m` is an integer row budget with 1 <= m <= d; return it as an int."""
    whole = as_whole_number(m)
    if whole is None:
        raise InfeasibleConstraintError(f"row budget must be an integer, got {m!r}")
    if not 1 <= whole <= d:
        raise InfeasibleConstraintError(f"row budget m={whole} outside [1, {d}]")
    return whole


def extract_submatrix(phi, indices):
    """Return the rows of `phi` selected by `indices`, in that order."""
    phi = as_sensing_matrix(phi)
    idx = validate_subset(indices, phi.shape[0])
    return phi[idx]


@lru_cache(maxsize=1)
def _pair_positions(n):
    """Flat positions of the i < j entries of an n x n matrix, row by row (read-only).

    A selection scores subsets of one n, so only the last n is kept: the
    array holds n (n - 1) / 2 int64 entries, 16 MB at n = 2000.
    """
    flat = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    flat.flags.writeable = False
    return flat


def _unit_rms(phi):
    """phi / 2^e and e, for the even e that puts the RMS entry of phi / 2^e in [0.5, 2).

    Scaling by a power of two is exact, so a quantity that does not depend
    on the scale of phi comes out the same, bit for bit, from the scaled
    matrix, and far from 1 it no longer overflows or underflows on the way:
    the coherences and the descent, whose smoothing constants _EPS1/_EPS2
    (insense.optimizer) are absolute.  phi itself comes back, uncopied,
    when e = 0 (a zero phi included).
    """
    peak = np.max(np.abs(phi))
    if peak == 0.0:
        return phi, 0
    rms = peak * np.sqrt(np.mean((phi / peak) ** 2))
    exponent = 2 * (int(np.frexp(rms)[1]) // 2)
    return (np.ldexp(phi, -exponent) if exponent else phi), exponent


def _coherence_values(unit):
    """Upper-triangle column coherences as a flat array, or None if undefined.

    unit is at unit RMS (see _unit_rms), so that no column norm leaves the
    float range; the exhaustive baseline passes row subsets of such a matrix.
    """
    norms = np.linalg.norm(unit, axis=0)
    if np.any(norms <= ZERO_RTOL * norms.max()):
        return None
    unit = unit / norms
    gram = unit.T @ unit
    c = gram.take(_pair_positions(unit.shape[1]))
    np.abs(c, out=c)
    return np.minimum(c, 1.0, out=c)


def _rms(c):
    return None if c is None else float(np.sqrt(np.mean(c**2)))


def _largest(c):
    return None if c is None else float(np.max(c))


def mu_avg(phi):
    """Root-mean-square coherence over all column pairs, or None if any column is zero."""
    return _rms(_coherence_values(_unit_rms(as_sensing_matrix(phi))[0]))


def mu_max(phi):
    """Largest pairwise column coherence, or None if any column is zero."""
    return _largest(_coherence_values(_unit_rms(as_sensing_matrix(phi))[0]))


def _potential(unit, exponent):
    """Frame potential of unit * 2^exponent, for unit at unit RMS (see _unit_rms).

    Summed at unit RMS and scaled back exactly, so a potential past the
    float range is inf, without an overflow warning.
    """
    if unit.shape[0] < 2:
        return 0.0
    r = unit @ unit.T
    with np.errstate(over="ignore"):
        return float(np.ldexp((np.sum(r * r) - np.sum(np.diag(r) ** 2)) / 2.0, 4 * exponent))


def frame_potential(phi):
    """Sum of squared inner products over distinct row pairs (0 for one row).

    inf past the float range, without an overflow warning (see _potential).
    """
    return _potential(*_unit_rms(as_sensing_matrix(phi)))


def condition_number(phi):
    """Ratio of largest to smallest singular value, or None if rank deficient."""
    phi = as_sensing_matrix(phi)
    s = np.linalg.svd(phi, compute_uv=False)
    if s[-1] <= ZERO_RTOL * s[0]:
        return None
    return float(s[0] / s[-1])


@dataclass
class MetricReport:
    """Quality metrics of one (sub)matrix; None marks an undefined metric."""

    mu_avg: float | None
    mu_max: float | None
    frame_potential: float
    condition_number: float | None


def metric_report(phi):
    """All four quality metrics of `phi` in one report."""
    phi = as_sensing_matrix(phi)
    unit, exponent = _unit_rms(phi)
    coherences = _coherence_values(unit)  # one Gram for both coherence metrics
    return MetricReport(
        mu_avg=_rms(coherences),
        mu_max=_largest(coherences),
        frame_potential=_potential(unit, exponent),
        condition_number=condition_number(phi),
    )
