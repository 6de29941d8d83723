"""The selector's and the sweep's outputs over fixed batteries, each pinned by one hash.

A change that should leave the selector's choices or the screen's
verdicts alone (a refactor, a faster kernel) must keep these hashes.
Each of the 200 selector runs contributes its subset, stop reason,
objective evaluations and iterations; weights and traces are left out,
so rounding in the last bits does not move the hash unless it moves a
decision.  Each of the 14 sweeps contributes its trial, certified and
refuted counts and its dual-screen verdicts.  Neither output depends on
the number of BLAS threads, so the hashes hold at any
OPENBLAS_NUM_THREADS.
"""

import hashlib
import json

import numpy as np

import insense.recovery as recovery
from insense import (
    BpConfig,
    EnsembleSpec,
    InsenseConfig,
    evaluate_recovery,
    generate,
    run_insense,
    select_fp_greedy,
)

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


def _all_rows(ensemble, cfg):
    phi = generate(EnsembleSpec(**ensemble, seed=1))
    return phi, np.arange(phi.shape[0]), cfg


def _insense_rows(kind, d, n, cfg):
    phi = generate(EnsembleSpec(kind, d=d, n=n, seed=0))
    return phi, run_insense(phi, 10).subset, cfg


def _row_copied():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(10, 30))
    phi[9] = phi[0] + 1e-3 * rng.normal(size=30)
    return phi, np.arange(10), BpConfig()


def _fp_greedy_rows():
    phi = generate(EnsembleSpec("identity-gaussian", d=100, n=50, seed=0))
    return phi, select_fp_greedy(phi, 10), BpConfig()


_G10 = dict(kind="gaussian", d=10, n=40)
# name -> (phi, subset, cfg); k is the name's last field
_SWEEPS = {
    "gaussian-10x40-k2": lambda: _all_rows(_G10, BpConfig()),
    "gaussian-10x40-k3": lambda: _all_rows(_G10, BpConfig(5, 300)),
    "gaussian-10x40-k5": lambda: _all_rows(_G10, BpConfig(5, 300)),
    "ig100-insense-k2": lambda: _insense_rows("identity-gaussian", 100, 50, BpConfig()),
    "ig100-fp-greedy-k2": _fp_greedy_rows,
    "ug200-insense-k2": lambda: _insense_rows("uniform-gaussian", 200, 200, BpConfig(3, 1000)),
    "ug200-insense-k3": lambda: _insense_rows("uniform-gaussian", 200, 200, BpConfig(3, 500)),
    "gaussian-40x80-k10": lambda: _all_rows(dict(kind="gaussian", d=40, n=80), BpConfig(0, 300)),
    "gaussian-64x128-k10": lambda: _all_rows(
        dict(kind="gaussian", d=64, n=128), BpConfig(0, 300)),
    "gaussian-400x400-k2": lambda: _all_rows(
        dict(kind="gaussian", d=400, n=400), BpConfig(0, 500)),
    "gaussian-20x12-k3": lambda: _all_rows(dict(kind="gaussian", d=20, n=12), BpConfig()),
    "signed-bernoulli-10x40-k2": lambda: _all_rows(
        dict(kind="bernoulli01", d=10, n=40, signed=True), BpConfig(1, 300)),
    "bernoulli-12x60-k3": lambda: _all_rows(
        dict(kind="bernoulli01", d=12, n=60), BpConfig(1, 600)),
    "row-copied-1e-3-k2": _row_copied,
}


def test_sweep_battery_screen_outputs_are_pinned():
    # the screen's counts and verdicts; LP verdicts and exact_count follow
    # the HiGHS version, so they stay out
    rows = []
    for name, case in _SWEEPS.items():
        phi, subset, cfg = case()
        k = int(name.rsplit("-k", 1)[1])
        report = evaluate_recovery(phi, subset, k, cfg)
        supports = recovery._supports(phi.shape[1], k, cfg)[0]
        verdicts = recovery._dual_screen(recovery._unit_columns(phi[subset]), supports)
        verdict_digest = hashlib.sha1(verdicts.tobytes()).hexdigest()[:16]
        rows.append([name, report.total_trials, report.certified, report.refuted, verdict_digest])
    assert _digest(rows) == "227050c64cbb3e9d"
