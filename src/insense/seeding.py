"""Seed plumbing for every stochastic piece of the package.

All randomness flows through numpy's PCG64 via default_rng.  Independent
streams (trials, restarts, sampling) are keyed by an integer tuple fed to
SeedSequence, so any fixed key reproduces the same draws on any platform.
Seeds are folded into the unsigned 64-bit range first, which lets callers
pass arbitrary signed integers; anything else (a bool, a fraction such
as 1.5, a string) raises a ValueError rather than being truncated.
"""

import numpy as np

from .metrics import as_integer

_MASK64 = (1 << 64) - 1


def _key(streams):
    return [as_integer(s, "seed") & _MASK64 for s in streams]


def seeded_rng(*streams):
    """Generator for the stream keyed by the given integers (order matters)."""
    if not streams:
        raise ValueError("need at least one stream key")
    return np.random.default_rng(_key(streams))


def derive_seed(*streams):
    """Deterministic unsigned 64-bit child seed for the keyed stream.

    Use when a plain integer seed must be recorded or handed to another
    component; seeded_rng(*streams) and seeded_rng(derive_seed(*streams))
    are both deterministic but draw from different streams.
    """
    if not streams:
        raise ValueError("need at least one stream key")
    ss = np.random.SeedSequence(_key(streams))
    return int(ss.generate_state(1, np.uint64)[0])
