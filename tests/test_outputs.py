"""The selector's outputs over a fixed battery, pinned by one hash.

A change that should leave the selector's choices alone (a refactor, a
faster kernel) must keep this hash.  Each of the 200 runs contributes its
subset, stop reason, objective evaluations and iterations; weights and
traces are left out, so rounding in the last bits does not move the hash
unless it moves a decision.  The selection does not depend on the number
of BLAS threads, so the hash holds at any OPENBLAS_NUM_THREADS.
"""

import hashlib
import json

from insense import EnsembleSpec, InsenseConfig, generate, run_insense

_JITTERED = "uniform-plus-jitter"
# (ensemble, m, config settings); the ensemble and the config take seed s
_CASES = [
    (dict(kind="uniform-gaussian", d=200, n=200), 10, dict(init=_JITTERED)),
    (dict(kind="identity-gaussian", d=100, n=50), 10, dict(init=_JITTERED, restarts=3)),
    (dict(kind="gaussian", d=60, n=60), 20, {}),
    (dict(kind="bernoulli01", d=60, n=40), 12, dict(restarts=2)),
    (dict(kind="uniform01", d=80, n=30), 8, dict(init=_JITTERED, jitter_scale=2.5, restarts=5)),
]
_SEEDS = range(40)


def _digest(rows):
    return hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:16]


def test_selector_battery_outputs_are_pinned():
    rows = []
    for seed in _SEEDS:
        for ensemble, m, settings in _CASES:
            phi = generate(EnsembleSpec(**ensemble, seed=seed))
            res = run_insense(phi, m, InsenseConfig(seed=seed, **settings))
            rows.append([res.subset.tolist(), res.stop_reason, res.objective_evals, res.iterations])
    # the subsets alone, so a failure tells a moved subset from a moved count
    assert _digest([row[0] for row in rows]) == "061a73665d721ba1"
    assert _digest(rows) == "dac3109fbcf58045"
