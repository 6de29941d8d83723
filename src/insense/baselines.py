"""Reference selectors the experiments compare against.

Uniform-random selection, a worst-out greedy frame-potential minimizer,
and an exhaustive minimum-coherence search for tiny instances.
"""

import itertools
import math

import numpy as np

from .exceptions import ExhaustiveLimitError
from .metrics import _rms_coherence, _unit_rms, as_sensing_matrix, validate_budget
from .seeding import seeded_rng

EXHAUSTIVE_LIMIT = 1_000_000  # cap on the subsets one exhaustive search visits


def select_random(phi, m, seed=0):
    """Uniform sample of m distinct row indices, sorted ascending."""
    phi = as_sensing_matrix(phi)
    d = phi.shape[0]
    m = validate_budget(m, d)
    rng = seeded_rng(seed)
    return np.sort(rng.choice(d, size=m, replace=False))


def select_fp_greedy(phi, m):
    """Worst-out greedy frame-potential minimization.

    Starts from all d rows and repeatedly drops the row whose removal
    lowers the frame potential of the remainder the most (ties to the
    lower index) until m rows remain.
    """
    phi = as_sensing_matrix(phi)
    d = phi.shape[0]
    m = validate_budget(m, d)
    sq = (phi @ phi.T) ** 2
    np.fill_diagonal(sq, 0.0)
    # contrib[i] = row i's total squared overlap with the surviving rows;
    # removing i lowers the frame potential by exactly contrib[i], and a
    # removed row's is -inf, so it is never picked again
    contrib = sq.sum(axis=1)
    alive = np.ones(d, dtype=bool)
    for _ in range(d - m):
        worst = np.argmax(contrib)  # argmax keeps the lowest index on ties
        alive[worst] = False
        contrib -= sq[:, worst]
        contrib[worst] = -np.inf
    return np.nonzero(alive)[0]


def select_exhaustive_mu_avg(phi, m):
    """Minimum-mu_avg subset by full enumeration over (d choose m) subsets.

    Subsets with undefined coherence (a zero column) rank last; ties keep
    the lexicographically first subset.  Refuses instances whose subset
    count exceeds EXHAUSTIVE_LIMIT.
    """
    phi = _unit_rms(as_sensing_matrix(phi))[0]  # so that each subset is scored as it is
    d = phi.shape[0]
    m = validate_budget(m, d)
    total = math.comb(d, m)
    if total > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"({d} choose {m}) = {total} exceeds the limit {EXHAUSTIVE_LIMIT}"
        )
    best_subset = None
    best_val = math.inf
    for combo in itertools.combinations(range(d), m):
        val = _rms_coherence(phi[list(combo)])
        key = math.inf if val is None else val
        if best_subset is None or key < best_val:
            best_subset, best_val = combo, key
    return np.asarray(best_subset, dtype=int)

