"""Acceptance gate: one behavioral criterion per test, one verdict line each.

Every test prints "[acceptance] <name>: PASS|FAIL (<detail>)" on the
real stdout (bypassing capture) before asserting, so a full run always
shows the per-criterion scoreboard.  Oracles used here are local to this
file and independent of the package internals they check.
"""

import itertools
import math
import time

import numpy as np

from insense import (
    BpConfig,
    EnsembleSpec,
    InsenseConfig,
    block_layout,
    coherence_objective,
    evaluate_recovery,
    frame_potential,
    generate,
    gram_matrix,
    mu_avg,
    project_sbs,
    run_insense,
    select_exhaustive_mu_avg,
    select_fp_greedy,
    select_random,
    solve_bp,
    weight_gradient,
)


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- gradient against central finite differences ------------------------------


def _fd_gradient(phi, z, h=1e-6):
    grad = np.zeros(z.size)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        grad[i] = (coherence_objective(phi, zp) - coherence_objective(phi, zm)) / (2 * h)
    return grad


def test_gradient_oracle(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        phi = rng.standard_normal((d, n))
        z = rng.uniform(0.0, 1.0, size=d)
        analytic = weight_gradient(phi, gram_matrix(phi, z))
        fd = _fd_gradient(phi, z)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _verdict(capsys, "gradient-oracle", ok, f"max rel err {worst:.3g}, {elapsed:.2f}s")


# -- projection against a long bisection --------------------------------------


def _oracle_project(y, m, steps=200):
    # sum(clip(y - lam, 0, 1)) is non-increasing in lam; bracket and bisect
    lo, hi = float(y.min()) - 1.5, float(y.max()) + 0.5
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(y - mid, 0.0, 1.0).sum() >= m:
            lo = mid
        else:
            hi = mid
    return np.clip(y - 0.5 * (lo + hi), 0.0, 1.0)


def test_projection_oracle(capsys):
    rng = np.random.default_rng(211)
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for d in range(1, 51):
        for m in range(1, d + 1):
            scale = (0.1, 1.0, 10.0)[checks % 3]
            y = scale * rng.standard_normal(d)
            if checks % 3 == 2:
                y = np.round(y, 1)  # repeated values stress the tie handling
            z = project_sbs(y, m).z
            worst = max(worst, float(np.max(np.abs(z - _oracle_project(y, m)))))
            assert abs(z.sum() - m) <= 1e-8
            assert z.min() >= -1e-10 and z.max() <= 1.0 + 1e-10
            z2 = project_sbs(z, m).z
            worst = max(worst, float(np.max(np.abs(z2 - z))))
            other = y + 0.5 * rng.standard_normal(d)
            gap = np.linalg.norm(project_sbs(other, m).z - z)
            assert gap <= np.linalg.norm(other - y) + 1e-12
            checks += 1
    elapsed = time.perf_counter() - start
    ok = checks == 1275 and worst <= 1e-8 and elapsed < 10.0
    _verdict(
        capsys,
        "projection-oracle",
        ok,
        f"{checks} instances, max dev {worst:.3g}, {elapsed:.2f}s",
    )


# -- descent produces monotone objectives and feasible iterates ---------------


def test_monotone_feasible_descent(capsys):
    rng = np.random.default_rng(33)
    worst_rise = -np.inf
    worst_sum = 0.0
    for i in range(50):
        d = int(rng.integers(3, 16))
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, d + 1))
        phi = rng.standard_normal((d, n))
        iterates = []
        result = run_insense(
            phi, m, InsenseConfig(seed=i), callback=lambda it, z, f: iterates.append(z)
        )
        trace = np.asarray(result.objective_trace)
        worst_rise = max(worst_rise, float(np.diff(trace).max()) if trace.size > 1 else 0.0)
        for z in iterates + [result.final_weights]:
            worst_sum = max(worst_sum, abs(float(z.sum()) - m))
            assert z.min() >= -1e-10 and z.max() <= 1.0 + 1e-10
    ok = worst_rise <= 0.0 and worst_sum <= 1e-8
    _verdict(
        capsys,
        "monotone-descent",
        ok,
        f"max objective rise {worst_rise:.3g}, max budget dev {worst_sum:.3g}",
    )


# -- near-optimality on exhaustively searchable instances ---------------------


def test_near_optimal_on_small_instances(capsys):
    start = time.perf_counter()
    hits = 0
    worst_ratio = 0.0
    for i in range(20):
        phi = generate(EnsembleSpec("uniform01", d=8, n=6, seed=3000 + i))
        best = select_exhaustive_mu_avg(phi, 3)
        opt = mu_avg(phi[best])
        cfg = InsenseConfig(init="uniform-plus-jitter", jitter_scale=2.5, restarts=5, seed=i)
        got = mu_avg(phi[run_insense(phi, 3, cfg).subset])
        ratio = got / opt
        worst_ratio = max(worst_ratio, ratio)
        hits += ratio <= 1.05 + 1e-12
    elapsed = time.perf_counter() - start
    ok = hits >= 18 and elapsed < 60.0
    _verdict(
        capsys,
        "near-optimal-small",
        ok,
        f"{hits}/20 within 5% of exhaustive, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s",
    )


# -- identity-over-gaussian ensemble: selection and recovery quality ----------


def test_identity_gaussian_benchmark(capsys):
    start = time.perf_counter()
    gaussian_only = 0
    mus, accs, greedy_accs = [], [], []
    greedy_fp_ok = True
    for seed in range(10):
        spec = EnsembleSpec("identity-gaussian", d=100, n=50, seed=seed)
        phi = generate(spec)
        lo, hi = block_layout(spec)["gaussian"]
        subset = run_insense(
            phi, 10, InsenseConfig(init="uniform-plus-jitter", restarts=3, seed=seed)
        ).subset
        gaussian_only += int(subset.min() >= lo and subset.max() < hi)
        mus.append(mu_avg(phi[subset]))
        accs.append(evaluate_recovery(phi, subset, 2).accuracy_percent)
        greedy = select_fp_greedy(phi, 10)
        greedy_fp_ok &= abs(frame_potential(phi[greedy])) <= 1e-12
        greedy_accs.append(evaluate_recovery(phi, greedy, 2).accuracy_percent)
    mu_mean = float(np.mean(mus))
    acc_mean = float(np.mean(accs))
    greedy_mean = float(np.mean(greedy_accs))
    elapsed = time.perf_counter() - start
    ok = (
        gaussian_only >= 9
        and 0.28 <= mu_mean <= 0.34
        and acc_mean >= 85.0
        and greedy_fp_ok
        and 2.0 <= greedy_mean <= 8.0
        and elapsed < 1800.0
    )
    _verdict(
        capsys,
        "identity-gaussian-benchmark",
        ok,
        f"gaussian-only {gaussian_only}/10, mu {mu_mean:.4f}, bp {acc_mean:.2f}%, "
        f"greedy fp zero {greedy_fp_ok}, greedy bp {greedy_mean:.2f}%, {elapsed:.0f}s",
    )


# -- gaussian-over-uniform ensemble: selection and sampled recovery -----------


def test_uniform_gaussian_benchmark(capsys):
    start = time.perf_counter()
    all_gaussian = 0
    mus, accs = [], []
    for seed in range(10):
        spec = EnsembleSpec("uniform-gaussian", d=200, n=200, seed=seed, gaussian_rows=10)
        phi = generate(spec)
        lo, hi = block_layout(spec)["gaussian"]
        subset = run_insense(
            phi, 10, InsenseConfig(init="uniform-plus-jitter", seed=seed)
        ).subset
        all_gaussian += int(np.all((subset >= lo) & (subset < hi)))
        mus.append(mu_avg(phi[subset]))
        report = evaluate_recovery(phi, subset, 2, BpConfig(seed=seed, sample_cap=10000))
        assert report.sampled and report.total_trials == 10000
        accs.append(report.accuracy_percent)
    mu_mean = float(np.mean(mus))
    acc_mean = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    ok = (
        all_gaussian >= 9
        and 0.30 <= mu_mean <= 0.34
        and 50.0 <= acc_mean <= 67.0
        and elapsed < 3600.0
    )
    _verdict(
        capsys,
        "uniform-gaussian-benchmark",
        ok,
        f"all-gaussian {all_gaussian}/10, mu {mu_mean:.4f}, bp {acc_mean:.2f}%, {elapsed:.0f}s",
    )


# -- square gaussian matrices: tracks the random baseline across budgets ------


def test_coherence_tracks_random_baseline(capsys):
    budgets = (5, 10, 15, 20, 25, 30)
    ins = {m: [] for m in budgets}
    rnd = {m: [] for m in budgets}
    for trial in range(20):
        phi = generate(EnsembleSpec("gaussian", d=100, n=100, seed=trial))
        for m in budgets:
            ins[m].append(mu_avg(phi[run_insense(phi, m, InsenseConfig(seed=trial)).subset]))
            rnd[m].append(mu_avg(phi[select_random(phi, m, seed=trial)]))
    gaps = {m: float(np.mean(ins[m])) - float(np.mean(rnd[m])) for m in budgets}
    worst_abs = max(abs(g) for g in gaps.values())
    worst_rise = max(gaps.values())
    ok = worst_abs <= 0.05 and worst_rise <= 0.01
    detail = ", ".join(f"m={m}: {g:+.4f}" for m, g in gaps.items())
    _verdict(capsys, "coherence-vs-random-trend", ok, detail)


# -- basis pursuit: feasibility, l1 witness, enumeration oracle ---------------


def _enumerate_min_l1(a, y, feas_tol=1e-8, tie_tol=1e-8):
    """Minimum-l1 solution by support enumeration; (solution, unique)."""
    m, n = a.shape
    candidates = []
    for size in range(m + 1):
        for support in itertools.combinations(range(n), size):
            if size == 0:
                if float(np.max(np.abs(y), initial=0.0)) <= feas_tol:
                    candidates.append(np.zeros(n))
                continue
            cols = a[:, support]
            sol, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if float(np.max(np.abs(cols @ sol - y))) > feas_tol:
                continue
            x = np.zeros(n)
            x[list(support)] = sol
            candidates.append(x)
    norms = [float(np.abs(c).sum()) for c in candidates]
    vmin = min(norms)
    survivors = [c for c, v in zip(candidates, norms) if v <= vmin + tie_tol]
    distinct = []
    for c in survivors:
        if all(float(np.max(np.abs(c - u))) > tie_tol for u in distinct):
            distinct.append(c)
    return distinct[0], len(distinct) == 1


def test_bp_solver_soundness(capsys):
    rng = np.random.default_rng(909)
    worst_residual = 0.0
    worst_excess = -np.inf
    for _ in range(500):
        a = rng.standard_normal((10, 20))
        x = np.zeros(20)
        x[rng.choice(20, size=2, replace=False)] = rng.standard_normal(2)
        y = a @ x
        xhat = solve_bp(a, y)
        worst_residual = max(worst_residual, float(np.max(np.abs(a @ xhat - y))))
        worst_excess = max(worst_excess, float(np.abs(xhat).sum() - np.abs(x).sum()))
    witness_ok = worst_residual <= 1e-8 and worst_excess <= 1e-6

    compared = 0
    worst_gap = 0.0
    for _ in range(50):
        a = rng.standard_normal((6, 12))
        x = np.zeros(12)
        x[rng.choice(12, size=2, replace=False)] = rng.standard_normal(2)
        oracle, unique = _enumerate_min_l1(a, a @ x)
        if not unique:
            continue
        compared += 1
        worst_gap = max(worst_gap, float(np.max(np.abs(solve_bp(a, a @ x) - oracle))))
    oracle_ok = compared >= 10 and worst_gap <= 1e-6
    ok = witness_ok and oracle_ok
    _verdict(
        capsys,
        "bp-soundness",
        ok,
        f"max residual {worst_residual:.3g}, max l1 excess {worst_excess:.3g}, "
        f"oracle matches {compared}/50 unique, max gap {worst_gap:.3g}",
    )
