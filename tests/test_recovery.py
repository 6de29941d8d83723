"""Basis pursuit and the recovery sweep against enumeration oracles."""

import dataclasses
import itertools
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

import insense.recovery as recovery
from insense import (
    BpConfig,
    EnsembleSpec,
    InvalidSubsetError,
    SolverFailureError,
    evaluate_recovery,
    generate,
    run_insense,
    select_fp_greedy,
    solve_bp,
)
from insense.recovery import _supports, _unrank


def _unrank_combination(rank, n, k):
    """rank-th size-k subset of range(n) in lexicographic order, one
    binomial at a time: the oracle for the vectorised _unrank."""
    out = []
    x = 0
    for remaining in range(k, 0, -1):
        while math.comb(n - x - 1, remaining - 1) <= rank:
            rank -= math.comb(n - x - 1, remaining - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _min_l1_by_enumeration(a, y, max_support, feas_tol=1e-9):
    """All exact-fit solutions on supports of size <= max_support.

    Returns (best_l1, candidates at the optimum, deduplicated).  Every
    vertex of the basis pursuit feasible optimum has such a support, so a
    unique survivor is the unique minimizer.
    """
    m, n = a.shape
    scale = max(np.linalg.norm(y), 1.0)
    candidates = []
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(n), size):
            sub = a[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ coef - y) > feas_tol * scale:
                continue
            x = np.zeros(n)
            x[list(support)] = coef
            candidates.append(x)
    best = min(np.abs(x).sum() for x in candidates)
    at_best = [x for x in candidates if np.abs(x).sum() <= best + 1e-9]
    distinct = []
    for x in at_best:
        if not any(np.max(np.abs(x - seen)) <= 1e-8 for seen in distinct):
            distinct.append(x)
    return best, distinct


def _linprog_bp(a, y):
    """Reference basis pursuit: one cold linprog solve."""
    n = a.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y, bounds=(0, None),
                  method="highs")
    assert res.success
    return res.x[:n] - res.x[n:]


def _unique_bp_optimum(a, x):
    """Whether x is the only minimum-l1 point of {z : a @ z = a @ x}.

    Exact test (Zhang, Yin & Cheng 2015): the support columns are
    independent and some dual w with a_S' w = sign(x_S) has |a_j' w| < 1
    off the support; the LP below maximizes that margin t over w.
    """
    on = np.abs(x) > 1e-9
    if np.linalg.matrix_rank(a[:, on]) < on.sum():
        return False
    m = a.shape[0]
    off = a[:, ~on].T
    ones = np.ones((off.shape[0], 1))
    res = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.block([[off, ones], [-off, ones]]),
        b_ub=np.ones(2 * off.shape[0]),
        A_eq=np.hstack([a[:, on].T, np.zeros((on.sum(), 1))]),
        b_eq=np.sign(x[on]),
        bounds=[(None, None)] * m + [(None, 1.0)],
        method="highs",
    )
    return res.success and -res.fun > 1e-7


def _sweep_vs_linprog(a, k, cfg):
    """Trial by trial: the warm-started sweep model against cold linprog solves.

    Verdicts must agree; solutions must agree to 1e-6 unless the
    reference optimum is not unique.  Returns (trials, trials that agree).
    """
    n = a.shape[1]
    supports = list(map(tuple, _supports(n, k, cfg)[0].tolist()))
    report = evaluate_recovery(a, np.arange(a.shape[0]), k, cfg, keep_trials=True)
    assert [t.support for t in report.per_trial] == supports
    bp = recovery._BasisPursuit(a)
    close = 0
    for support, trial in zip(supports, report.per_trial):
        x = np.zeros(n)
        x[list(support)] = 1.0
        y = a @ x
        ref = _linprog_bp(a, y)
        assert trial.recovered == (np.max(np.abs(ref - x)) <= recovery._EXACT_TOL)
        if np.max(np.abs(bp.solve(y)[0] - ref)) <= 1e-6:
            close += 1
        else:
            assert not _unique_bp_optimum(a, ref), support
    return len(supports), close


def test_sweep_matches_linprog_reference():
    rng = np.random.default_rng(11)
    a = recovery._unit_columns(rng.standard_normal((10, 40)))
    total, close = _sweep_vs_linprog(a, 2, BpConfig())
    assert total == math.comb(40, 2) and close >= 0.9 * total
    total, close = _sweep_vs_linprog(a, 3, BpConfig(seed=5, sample_cap=300))
    assert total == 300 and close >= 0.9 * total


def _gaussian_10x40():
    return recovery._unit_columns(np.random.default_rng(11).standard_normal((10, 40)))


def _identity_gaussian_selection():
    phi = generate(EnsembleSpec("identity-gaussian", d=100, n=50, seed=0))
    return phi, run_insense(phi, 10).subset


def _uniform_gaussian_selection():
    phi = generate(EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0, gaussian_rows=10))
    return phi, run_insense(phi, 10).subset


def _gaussian_40x80():
    # all 40 rows, as a recover run without a selection
    return recovery._unit_columns(np.random.default_rng(120).standard_normal((40, 80)))


_SCREENED_SWEEPS = {
    "gaussian-10x40-k2": lambda: (_gaussian_10x40(), np.arange(10), 2, BpConfig()),
    "gaussian-10x40-k3-sampled": lambda: (_gaussian_10x40(), np.arange(10), 3,
                                          BpConfig(seed=5, sample_cap=300)),
    "gaussian-10x40-k4-sampled": lambda: (_gaussian_10x40(), np.arange(10), 4,
                                          BpConfig(seed=5, sample_cap=300)),
    "gaussian-10x40-k5-sampled": lambda: (_gaussian_10x40(), np.arange(10), 5,
                                          BpConfig(seed=5, sample_cap=300)),
    "identity-gaussian-100x50-k2": lambda: (*_identity_gaussian_selection(), 2, BpConfig()),
    "uniform-gaussian-200x200-k2-sampled": lambda: (*_uniform_gaussian_selection(), 2,
                                                    BpConfig(seed=3, sample_cap=1000)),
    # past 32 rows; the screen leaves one of its trials to the LP
    "gaussian-40x80-k10-sampled": lambda: (_gaussian_40x80(), np.arange(40), 10,
                                           BpConfig(sample_cap=300)),
}

# sweeps the screen decides in full, exchange rounds included: (certified, refuted)
_FULLY_DECIDED = {
    "gaussian-10x40-k2": (718, 62),
    "gaussian-10x40-k3-sampled": (177, 123),
    "gaussian-10x40-k4-sampled": (69, 231),
    "gaussian-10x40-k5-sampled": (20, 280),
    "identity-gaussian-100x50-k2": (1091, 134),
    "uniform-gaussian-200x200-k2-sampled": (589, 411),
}

# sweeps that still reach HiGHS: a case above, and the screen settings that
# leave some of its trials undecided
_LP_SWEEPS = {
    "gaussian-10x40-k2-without-exchange": ("gaussian-10x40-k2", {"_EXCHANGE_ROUNDS": 0}),
    "uniform-gaussian-200x200-k2-sampled-without-exchange": (
        "uniform-gaussian-200x200-k2-sampled", {"_EXCHANGE_ROUNDS": 0}),
}


def _no_lp_model(a):
    raise AssertionError("a sweep without LP trials built the LP model")


def _lp_only(monkeypatch):
    monkeypatch.setattr(recovery, "_dual_screen",
                        lambda a, supports: np.zeros(len(supports), dtype=np.int8))


@pytest.mark.parametrize("case", sorted(_SCREENED_SWEEPS) + sorted(_LP_SWEEPS))
def test_certified_sweep_matches_unscreened_verdicts(case, monkeypatch):
    base, settings = _LP_SWEEPS.get(case, (case, {}))
    phi, rows, k, cfg = _SCREENED_SWEEPS[base]()
    with monkeypatch.context() as patch:
        for name, value in settings.items():
            patch.setattr(recovery, name, value)
        screened = evaluate_recovery(phi, rows, k, cfg, keep_trials=True)
    _lp_only(monkeypatch)
    plain = evaluate_recovery(phi, rows, k, cfg, keep_trials=True)
    assert plain.certified == plain.refuted == 0
    assert screened.certified > 0 and screened.refuted > 0
    if case in _FULLY_DECIDED:
        assert (screened.certified, screened.refuted) == _FULLY_DECIDED[case]
        assert screened.simplex_iterations == 0
    else:
        assert screened.certified + screened.refuted < screened.total_trials
        assert screened.simplex_iterations > 0
    assert screened.exact_count == plain.exact_count
    assert screened.solver_failures == plain.solver_failures == 0
    assert screened.simplex_iterations < plain.simplex_iterations
    for got, ref in zip(screened.per_trial, plain.per_trial, strict=True):
        assert got.support == ref.support
        assert got.recovered == ref.recovered, got.support


def _dependent_row_sweep(case):
    """(phi, rows, k, cfg) of a sweep on linearly dependent or nearly dependent rows."""
    rng = np.random.default_rng(0)
    if case == "all-zero-rows":
        phi = rng.standard_normal((10, 20))
        phi[:4] = 0.0
        return phi, np.arange(4), 2, BpConfig()
    # linearly dependent rows
    if case == "duplicated-row":
        phi = rng.standard_normal((10, 30))
        phi[9] = phi[0]
        return phi, np.arange(10), 2, BpConfig()
    if case == "more-rows-than-columns":
        return rng.standard_normal((20, 12)), np.arange(20), 3, BpConfig()
    if case == "combined-rows":
        phi = rng.standard_normal((12, 40))
        phi[10], phi[11] = phi[0] - 2.0 * phi[3], 0.5 * phi[1] + phi[2]
        return phi, np.arange(12), 2, BpConfig()
    # a row this far from a copy: dependent to the screen's refutations, not
    # to its certificates or to the LP
    noise = float(case.removeprefix("row-copied-with-noise-"))
    phi = rng.standard_normal((10, 30))
    phi[9] = phi[0] + noise * rng.standard_normal(30)
    return phi, np.arange(10), 2, BpConfig()


@pytest.mark.parametrize("case", [
    "all-zero-rows", "duplicated-row", "more-rows-than-columns",
    "combined-rows", "row-copied-with-noise-1e-3", "row-copied-with-noise-1e-5",
    "row-copied-with-noise-1e-6", "row-copied-with-noise-1e-7"])
def test_fallback_screen_keeps_the_fuchs_verdicts(case, monkeypatch):
    # dependent rows take the screen's one path: it keeps every verdict of
    # the Fuchs point, adds certificates, and refutes nothing it cannot
    # prove without independent rows
    phi, rows, k, cfg = _dependent_row_sweep(case)
    a = recovery._unit_columns(phi[rows])
    supports = _supports(phi.shape[1], k, cfg)[0]
    eig = np.linalg.eigvalsh(a @ a.T)
    assert eig[0] <= recovery._CERT_MIN_EIG_RATIO * eig[-1]
    verdicts = recovery._dual_screen(a, supports)
    with monkeypatch.context() as patch:
        # the Fuchs point alone
        patch.setattr(recovery, "_CERT_ITERS", 0)
        patch.setattr(recovery, "_EXCHANGE_ROUNDS", 0)
        fuchs = recovery._dual_screen(a, supports)
    decided = fuchs != 0
    np.testing.assert_array_equal(verdicts[decided], fuchs[decided])
    # and decides some of the supports the Fuchs point leaves
    assert (verdicts == 0).sum() < (fuchs == 0).sum() or fuchs.all()
    # only a support with an all-zero column is refuted
    np.testing.assert_array_equal(verdicts < 0, (~a.any(axis=0))[supports].any(axis=1))
    with monkeypatch.context() as patch:
        if case == "all-zero-rows":
            # A A' = 0: every support is refuted, and no LP model is built
            patch.setattr(recovery, "_BasisPursuit", _no_lp_model)
        screened = evaluate_recovery(phi, rows, k, cfg, keep_trials=True)
    _lp_only(monkeypatch)
    plain = evaluate_recovery(phi, rows, k, cfg, keep_trials=True)
    assert screened.certified == np.count_nonzero(verdicts > 0)
    assert screened.refuted == np.count_nonzero(verdicts < 0)
    # at 1e-7 whether a warm-started LP fails depends on the trials before it
    # (7 failures without the screen, 5 with it), so there only the trials
    # both sweeps solved are compared
    if case != "row-copied-with-noise-1e-7":
        assert screened.solver_failures == plain.solver_failures == 0
    for got, ref in zip(screened.per_trial, plain.per_trial, strict=True):
        assert got.support == ref.support
        if math.inf not in (got.linf_error, ref.linf_error):
            assert got.recovered == ref.recovered, got.support


def test_fully_decided_sweep_builds_no_lp_model(monkeypatch):
    monkeypatch.setattr(recovery, "_BasisPursuit", _no_lp_model)
    phi, rows, k, cfg = _SCREENED_SWEEPS["gaussian-10x40-k3-sampled"]()
    report = evaluate_recovery(phi, rows, k, cfg)
    assert report.certified + report.refuted == report.total_trials == 300
    assert report.exact_count == 177 and report.simplex_iterations == 0
    # more rows than columns: the Lawson steps certify every support
    phi = generate(EnsembleSpec("gaussian", d=20, n=12, seed=0))
    report = evaluate_recovery(phi, np.arange(20), 3)
    assert report.certified == report.exact_count == report.total_trials == 220
    assert report.simplex_iterations == 0


def test_exchange_rounds_only_add_verdicts(monkeypatch):
    a = _gaussian_10x40()
    supports = np.array(list(itertools.combinations(range(40), 2)))
    verdicts = recovery._dual_screen(a, supports)
    monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", 0)
    lawson = recovery._dual_screen(a, supports)
    decided = lawson != 0
    np.testing.assert_array_equal(verdicts[decided], lawson[decided])
    assert (verdicts[~decided] == 1).any() and (verdicts[~decided] == -1).any()


def _screen_input(case):
    """(a, supports) that a sweep of a _SCREENED_SWEEPS case screens."""
    phi, rows, k, cfg = _SCREENED_SWEEPS[case]()
    return recovery._unit_columns(phi[rows]), _supports(phi.shape[1], k, cfg)[0]


@pytest.mark.parametrize("case", sorted(_SCREENED_SWEEPS))
def test_rank_one_updates_match_a_fresh_inverse_every_round(case, monkeypatch):
    a, supports = _screen_input(case)
    verdicts = recovery._dual_screen(a, supports)
    with monkeypatch.context() as patch:
        # every rank-one update of an exchange inverse becomes a fresh inverse
        patch.setattr(recovery, "_EXCHANGE_REFRESH", 1)
        np.testing.assert_array_equal(recovery._dual_screen(a, supports), verdicts)
    # the exchange rounds decided some of these supports
    monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", 0)
    assert (recovery._dual_screen(a, supports) == 0).sum() > (verdicts == 0).sum()


@pytest.mark.parametrize("case", sorted(_SCREENED_SWEEPS))
def test_screen_verdicts_do_not_depend_on_the_support_order(case):
    a, supports = _screen_input(case)
    order = np.random.default_rng(24).permutation(len(supports))
    np.testing.assert_array_equal(recovery._dual_screen(a, supports[order]),
                                  recovery._dual_screen(a, supports)[order])


def test_exchange_verdicts_hold_for_an_inexact_dual(monkeypatch):
    # bias lam in (lam, mu), the last column of every inverse the exchange
    # takes of its bordered matrices [[A_S, -A_J], [0, sigma']] (the rank-one
    # updates carry it on): its residual must keep every refutation sound
    a = _gaussian_10x40()
    supports = np.array(list(itertools.combinations(range(40), 2)))
    inv = np.linalg.inv

    def biased(x):
        out = inv(x)
        lam = out[..., :2, -1]
        lam += 0.05 * np.where(lam.sum(axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv", biased)
        verdicts = recovery._dual_screen(a, supports)
    _lp_only(monkeypatch)
    plain = evaluate_recovery(a, np.arange(10), 2, keep_trials=True)
    recovered = np.array([t.recovered for t in plain.per_trial])
    assert recovered[verdicts > 0].all()
    assert not recovered[verdicts < 0].any()


@pytest.mark.parametrize("case", ["square"])
def test_exchange_is_skipped_without_enough_off_support_columns(case, monkeypatch):
    # a reference set takes p = m - k + 1 off-support columns; with m = n
    # there are only n - k < p (and so with any m > n)
    phi, k = np.random.default_rng(23).standard_normal((8, 8)), 2
    supports = np.array(list(itertools.combinations(range(phi.shape[1]), k)))

    def boom(*args):
        raise AssertionError("exchange rounds ran")

    monkeypatch.setattr(recovery, "_CERT_ITERS", 0)  # leaves supports undecided
    monkeypatch.setattr(recovery, "_exchange", boom)
    assert (recovery._dual_screen(recovery._unit_columns(phi), supports) == 0).any()


def test_degenerate_reference_sets_leave_only_their_support_undecided(monkeypatch):
    a = _gaussian_10x40().copy()
    a[:, 37] = a[:, 36]  # a repeated column
    a[:, 34] = a[:, 33] = a[:, 32]  # three copies: [A_S, -A_J] drops to rank m - 1
    supports = np.array(list(itertools.combinations(range(20), 2)))
    lost = [s for s in supports.tolist()
            if np.abs(_linprog_bp(a, a[:, s].sum(axis=1))).sum() < 2.0 - 1e-6]
    sup = np.array(lost[:2] + supports.tolist())
    ref = np.tile(np.arange(20, 29), (len(sup), 1))
    ref[0, -2:] = [36, 37]
    ref[1, -3:] = [32, 33, 34]
    root = np.sqrt(np.linalg.eigvalsh(a.T[sup] @ a.T[sup].transpose(0, 2, 1))[:, 0])
    reach = math.sqrt(40 / np.linalg.eigvalsh(a @ a.T)[0])
    verdicts = recovery._exchange(a, sup, root, ref, reach)
    assert verdicts[0] <= 0 and verdicts[1] == 0
    # the rest of the batch is decided as it would be without those two
    np.testing.assert_array_equal(
        verdicts[2:], recovery._exchange(a, sup[2:], root[2:], ref[2:], reach))
    assert (verdicts[2:] == 1).any() and (verdicts[2:] == -1).any()
    # in its first round the repeated column's dual is the difference of its
    # copies, with 1'lam = 0, and no w certifies a support that is not recovered
    monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", 1)
    assert recovery._exchange(a, sup[:2], root[:2], ref[:2], reach).tolist() == [0, 0]


@pytest.mark.parametrize("signed, counts", [(True, (217, 0, 270)), (False, (252, 2, 280))])
def test_singular_exchange_inverses_raise_no_warnings(signed, counts):
    # discrete entries make some bordered matrices singular; the non-finite
    # inverses they leave end their rounds quietly, with the same verdicts
    phi = generate(EnsembleSpec("bernoulli01", d=10, n=40, seed=0, signed=signed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate_recovery(phi, np.arange(10), 2, BpConfig(sample_cap=300))
    assert (report.certified, report.refuted, report.exact_count) == counts
    assert report.solver_failures == 0


@pytest.mark.parametrize("noise", [0.0, 1e-13])
def test_singular_bordered_matrix_ends_its_rounds(noise, monkeypatch):
    # three (nearly) equal columns in J: [A_S, -A_J] loses rank, so every
    # [[A_S, -A_J], [0, sigma']] is singular, exactly (LAPACK refuses it, and
    # its inverse is NaN) or up to 1e-13 (a finite inverse far past the limit)
    a = _gaussian_10x40().copy()
    a[:, 34] = a[:, 33] = a[:, 32]
    a[:, 33] += noise * a[:, 0]
    sup, ref = np.array([[0, 1]]), np.array([[20, 21, 22, 23, 24, 25, 32, 33, 34]])
    root = np.sqrt(np.linalg.eigvalsh(a.T[sup] @ a.T[sup].transpose(0, 2, 1))[:, 0])
    reach = math.sqrt(40 / np.linalg.eigvalsh(a @ a.T)[0])
    rounds = []
    certify = recovery._certify

    def counted(w, *args):
        rounds.append(len(w))
        return certify(w, *args)

    monkeypatch.setattr(recovery, "_certify", counted)
    assert recovery._exchange(a, sup, root, ref, reach).tolist() == [0]
    assert rounds == [1]


def test_screen_memory_does_not_grow_with_the_rows_squared():
    # an n x m^2 table of outer products alone would take 64 MB at m = n = 200
    a = recovery._unit_columns(np.random.default_rng(22).standard_normal((200, 200)))
    supports = np.array(list(itertools.combinations(range(200), 2))[:2000])
    tracemalloc.start()
    try:
        recovery._dual_screen(a, supports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_screen_memory_past_32_rows_follows_the_entry_budget(monkeypatch):
    # all 64 rows: the Fuchs point leaves 406 of these supports undecided, and
    # the Lawson steps and exchange rounds that decide them hold their m x m
    # matrices in a few arrays of at most _CERT_ENTRIES entries each; at 2^16
    # entries the n x m^2 outer-product table alone would take 8 of them
    a = recovery._unit_columns(np.random.default_rng(2).standard_normal((64, 128)))
    supports = _supports(128, 10, BpConfig(sample_cap=500))[0]
    monkeypatch.setattr(recovery, "_CERT_ENTRIES", 2**16)
    tracemalloc.start()
    try:
        verdicts = recovery._dual_screen(a, supports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * recovery._CERT_ENTRIES
    monkeypatch.setattr(recovery, "_CERT_ITERS", 0)
    monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", 0)
    fuchs = recovery._dual_screen(a, supports)
    assert (fuchs == 0).sum() == 406 and (verdicts == 0).sum() <= 1
    decided = fuchs != 0
    np.testing.assert_array_equal(verdicts[decided], fuchs[decided])


# (matrix, k, cfg, most supports of one verdict checked: past that many, a
# seeded sample of them)
_ORACLE_SWEEPS = [
    pytest.param(_gaussian_10x40, 2, BpConfig(), None, id="2-cfg0"),
    pytest.param(_gaussian_10x40, 3, BpConfig(seed=5, sample_cap=300), None, id="3-cfg1"),
    # past 32 rows: 296 certified, 3 refuted
    pytest.param(_gaussian_40x80, 10, BpConfig(sample_cap=300), 100, id="all-rows-40x80-k10"),
]


def _screened(make, k, cfg, most, verdict):
    """(a, the supports the screen gives this verdict, or a sample of most of them)."""
    a = make()
    supports = _supports(a.shape[1], k, cfg)[0]
    picked = supports[recovery._dual_screen(a, supports) == verdict]
    assert len(picked) > 0
    if most is not None and len(picked) > most:
        picked = picked[np.random.default_rng(26).choice(len(picked), most, replace=False)]
    return a, picked


@pytest.mark.parametrize("make, k, cfg, most", _ORACLE_SWEEPS)
def test_certified_trials_have_a_unique_bp_optimum(make, k, cfg, most):
    a, certified = _screened(make, k, cfg, most, 1)
    for support in certified:
        x = np.zeros(a.shape[1])
        x[support] = 1.0
        assert _unique_bp_optimum(a, x), support


@pytest.mark.parametrize("make, k, cfg, most", _ORACLE_SWEEPS)
def test_refuted_trials_have_a_smaller_l1_optimum(make, k, cfg, most):
    # a refutation claims 1_S is not a minimizer: cold linprog must beat ||1_S||_1 = k
    a, refuted = _screened(make, k, cfg, most, -1)
    for support in refuted:
        x = np.zeros(a.shape[1])
        x[support] = 1.0
        assert np.abs(_linprog_bp(a, a @ x)).sum() < k - 1e-7, support


def test_degenerate_supports_are_never_certified():
    a = recovery._unit_columns(np.random.default_rng(13).standard_normal((6, 10)))
    a[:, 3] = a[:, 1]  # a repeated column
    a[:, 5] = 0.0  # a zero column
    supports = np.array(list(itertools.combinations(range(10), 2)))
    verdicts = recovery._dual_screen(a, supports)
    zero = np.array([5 in s for s in supports.tolist()])
    repeated = np.array([{1, 3} <= set(s) for s in supports.tolist()])
    assert (verdicts[zero] == -1).all()
    assert (verdicts[repeated] == 0).all()
    assert (verdicts[~zero & ~repeated] == 1).any()
    for support in supports[zero]:
        # basis pursuit leaves the zero column's entry at 0
        x = np.zeros(10)
        x[support] = 1.0
        assert _linprog_bp(a, a @ x)[5] == 0.0
    # more support columns than rows: A_S'A_S is singular
    wide = np.array(list(itertools.combinations(range(10), 7)))
    verdicts = recovery._dual_screen(a, wide)
    zero = np.array([5 in s for s in wide.tolist()])
    assert (verdicts[zero] == -1).all() and (verdicts[~zero] == 0).all()


def _eigvalsh_batches(monkeypatch):
    """Record the diagonal of every batch that np.linalg.eigvalsh gets."""
    batches = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(mats):
        if mats.ndim == 3:
            batches.append(np.diagonal(mats, axis1=1, axis2=2).copy())
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return batches


def test_zero_column_supports_reach_no_batch(monkeypatch):
    phi = np.random.default_rng(12).standard_normal((10, 40))
    phi[:, [3, 17, 30]] = 0.0
    batches = _eigvalsh_batches(monkeypatch)
    report = evaluate_recovery(phi, np.arange(10), 2, keep_trials=True)
    zero = np.array([bool({3, 17, 30} & set(t.support)) for t in report.per_trial])
    # the diagonal of A_S'A_S is 0 exactly where A_S has a zero column
    assert batches and all((diag > 0.0).all() for diag in batches)
    assert sum(len(diag) for diag in batches) == np.count_nonzero(~zero) == 666
    assert report.refuted >= zero.sum() == 114
    assert not any(t.recovered for t, z in zip(report.per_trial, zero) if z)
    # every support has a zero column: no batch at all, every trial refuted
    batches.clear()
    phi[:4] = 0.0
    report = evaluate_recovery(phi, np.arange(4), 2, keep_trials=True)
    assert batches == []
    assert report.refuted == report.total_trials == math.comb(40, 2)
    assert report.exact_count == report.certified == 0
    assert all(math.isnan(t.residual) and math.isnan(t.linf_error) for t in report.per_trial)


def test_certificate_does_not_depend_on_the_chunk_size(monkeypatch):
    # past 32 rows: the default budget holds M's whole outer-product table and
    # batches of 163 supports; room for 7 matrices of 40 x 40 splits the table
    # into 12 blocks of 7 columns and the supports into batches of 7
    a, supports = _screen_input("gaussian-40x80-k10-sampled")
    assert recovery._CERT_ENTRIES // 40**2 >= 80
    whole = recovery._dual_screen(a, supports)
    with monkeypatch.context() as patch:
        patch.setattr(recovery, "_CERT_ENTRIES", 7 * 40**2)
        np.testing.assert_array_equal(recovery._dual_screen(a, supports), whole)
    assert set(whole.tolist()) == {-1, 0, 1}
    a = _gaussian_10x40()
    supports = np.array(list(itertools.combinations(range(40), 2)))
    # the exchange rounds decide every support; without them some stay undecided
    for rounds, outcomes in [(recovery._EXCHANGE_ROUNDS, {-1, 1}), (0, {-1, 0, 1})]:
        monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", rounds)
        whole = recovery._dual_screen(a, supports)
        with monkeypatch.context() as patch:
            patch.setattr(recovery, "_CERT_CHUNK", 7)
            np.testing.assert_array_equal(recovery._dual_screen(a, supports), whole)
        assert set(whole.tolist()) == outcomes


def test_iteration_limited_sweep_has_no_false_positives(monkeypatch):
    # warm starts from the basis an iteration-limited solve left behind;
    # without the exchange rounds the screen leaves trials to the LP
    monkeypatch.setattr(recovery, "_EXCHANGE_ROUNDS", 0)
    rng = np.random.default_rng(12)
    phi = rng.standard_normal((10, 40))
    rows = np.arange(10)
    with monkeypatch.context() as patch:
        patch.setattr(recovery, "_SIMPLEX_ITERATION_LIMIT", 3)
        limited = evaluate_recovery(phi, rows, 2, keep_trials=True)
    full = evaluate_recovery(phi, rows, 2, keep_trials=True)
    assert full.certified + full.refuted < full.total_trials
    assert limited.solver_failures > 0 and full.solver_failures == 0
    for lim, ref in zip(limited.per_trial, full.per_trial):
        assert lim.support == ref.support
        assert ref.recovered or not lim.recovered


def test_identity_system_returns_rhs():
    y = np.array([0.3, -1.2, 0.0, 4.0])
    np.testing.assert_allclose(solve_bp(np.eye(4), y), y, atol=1e-8)


def test_square_system_has_single_feasible_point():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    np.testing.assert_allclose(solve_bp(a, a @ x), x, atol=1e-7)


def test_planted_sparse_signal_recovers():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 20))
    x = np.zeros(20)
    x[[3, 11]] = 1.0
    xhat = solve_bp(a, a @ x)
    assert np.max(np.abs(xhat - x)) <= 1e-4


def test_l1_never_exceeds_planted_witness():
    rng = np.random.default_rng(2)
    for _ in range(60):
        a = rng.standard_normal((6, 12))
        x = np.zeros(12)
        x[rng.choice(12, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
        y = a @ x
        xhat = solve_bp(a, y)
        assert np.linalg.norm(a @ xhat - y) <= recovery._FEAS_TOL
        assert np.abs(xhat).sum() <= np.abs(x).sum() + 1e-6


def test_matches_support_enumeration_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(30):
        a = rng.standard_normal((5, 9))
        x = np.zeros(9)
        x[rng.choice(9, 2, replace=False)] = 1.0
        y = a @ x
        best, distinct = _min_l1_by_enumeration(a, y, max_support=5)
        xhat = solve_bp(a, y)
        assert np.abs(xhat).sum() <= best + 1e-6
        if len(distinct) == 1:
            np.testing.assert_allclose(xhat, distinct[0], atol=1e-6)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("case", ["gaussian", "identity-rows", "zero-column"])
def test_split_csc_matches_scipy_sparse(case):
    rng = np.random.default_rng(21)
    if case == "gaussian":
        a = rng.standard_normal((7, 12))
    elif case == "identity-rows":
        a = np.eye(12)[[0, 3, 4, 9]]
    else:
        a = rng.standard_normal((5, 9))
        a[:, 4] = 0.0
        a[2, 6] = 0.0
    start, index, value = recovery._split_csc(a)
    ref = csc_array(np.hstack([a, -a]))
    for got, want in [(start, ref.indptr), (index, ref.indices), (value, ref.data)]:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # HiGHS takes the arrays as they are and holds the same entries
    lp = recovery._highs.HighsLp()
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
    assert list(lp.a_matrix_.start_) == start.tolist()
    assert list(lp.a_matrix_.index_) == index.tolist()
    assert list(lp.a_matrix_.value_) == value.tolist()


def test_solver_input_errors():
    with pytest.raises(ValueError):
        solve_bp(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        solve_bp(np.ones((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        solve_bp(np.array([[np.nan, 1.0]]), np.ones(1))
    with pytest.raises(ValueError):
        solve_bp(np.eye(2), np.array([np.inf, 1.0]))


def test_iteration_limit_is_a_solver_failure(monkeypatch):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 20))
    monkeypatch.setattr(recovery, "_SIMPLEX_ITERATION_LIMIT", 1)
    with pytest.raises(SolverFailureError, match="Iteration limit"):
        solve_bp(a, a @ rng.standard_normal(20))


def test_inconsistent_system_is_a_solver_failure():
    with pytest.raises(SolverFailureError, match="Infeasible"):
        solve_bp(np.ones((2, 2)), np.array([1.0, 2.0]))


def test_sweep_on_identity_rows_counts_covered_pairs():
    # only pairs inside the covered columns can come back; the count is exact
    phi = np.vstack([np.eye(8), np.random.default_rng(4).standard_normal((8, 8))])
    report = evaluate_recovery(phi, np.arange(5), 2)
    assert report.total_trials == math.comb(8, 2)
    assert report.exact_count == math.comb(5, 2)
    assert report.accuracy_percent == pytest.approx(100.0 * math.comb(5, 2) / math.comb(8, 2))
    assert not report.sampled


def test_sweep_full_identity_is_perfect():
    report = evaluate_recovery(np.eye(6), np.arange(6), 1)
    assert report.accuracy_percent == 100.0
    assert report.total_trials == 6


def test_sweep_ignores_column_scaling():
    # power-of-two column scales normalize away bit-exactly
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((8, 12))
    scales = 2.0 ** rng.integers(-3, 4, size=12)
    base = evaluate_recovery(phi, np.arange(8), 2, keep_trials=True)
    scaled = evaluate_recovery(phi * scales, np.arange(8), 2, keep_trials=True)
    assert base.exact_count == scaled.exact_count
    for t_base, t_scaled in zip(base.per_trial, scaled.per_trial):
        assert t_base.support == t_scaled.support
        assert t_base.recovered == t_scaled.recovered


def test_sweep_samples_above_the_cap():
    rng = np.random.default_rng(6)
    phi = rng.standard_normal((6, 30))
    cfg = BpConfig(seed=9, sample_cap=40)
    a = evaluate_recovery(phi, np.arange(6), 3, cfg, keep_trials=True)
    assert a.sampled and a.total_trials == 40
    b = evaluate_recovery(phi, np.arange(6), 3, cfg, keep_trials=True)
    assert [t.support for t in a.per_trial] == [t.support for t in b.per_trial]
    assert a.exact_count == b.exact_count
    c = evaluate_recovery(phi, np.arange(6), 3, BpConfig(seed=10, sample_cap=40), keep_trials=True)
    assert [t.support for t in a.per_trial] != [t.support for t in c.per_trial]


def test_sampled_supports_are_distinct_and_sorted():
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((4, 25))
    report = evaluate_recovery(phi, np.arange(4), 2, BpConfig(sample_cap=50), keep_trials=True)
    supports = [t.support for t in report.per_trial]
    assert len(set(supports)) == len(supports) == 50
    assert supports == sorted(supports)


def test_solver_failure_marks_trial_and_continues(monkeypatch):
    # a sweep whose undecided trials reach the LP, and every LP fails
    def boom(self, y):
        raise SolverFailureError("forced failure", residual=1.0)

    monkeypatch.setattr(recovery._BasisPursuit, "solve", boom)
    phi = np.random.default_rng(12).standard_normal((10, 40))
    phi[:, 3] = phi[:, 1]  # supports holding one copy cannot be decided without an LP
    report = evaluate_recovery(phi, np.arange(10), 2, keep_trials=True)
    verdicts = recovery._dual_screen(
        recovery._unit_columns(phi), np.array([t.support for t in report.per_trial]))
    assert report.certified == np.count_nonzero(verdicts > 0)
    assert report.refuted == np.count_nonzero(verdicts < 0)
    assert 0 < report.solver_failures == report.total_trials - report.certified - report.refuted
    assert report.exact_count == report.certified
    assert report.simplex_iterations == 0
    for trial, verdict in zip(report.per_trial, verdicts):
        if verdict > 0:
            assert trial.recovered and trial.residual == trial.linf_error == 0.0
        elif verdict < 0:
            assert not trial.recovered
            assert math.isnan(trial.residual) and math.isnan(trial.linf_error)
        else:
            assert not trial.recovered and math.isinf(trial.linf_error)
            assert trial.residual == 1.0


def _per_trial_loop(phi, subset, k, cfg):
    """The sweep one trial at a time: the oracle for evaluate_recovery's
    bulk outcomes.  Screened trials read their verdict, and the undecided
    ones share one lazily built _BasisPursuit, solved in support order."""
    a = recovery._unit_columns(phi[subset])
    n = a.shape[1]
    supports, sampled = _supports(n, k, cfg)
    verdicts = recovery._dual_screen(a, supports)
    bp = None
    trials = []
    exact = failures = 0
    for support, verdict in zip(map(tuple, supports.tolist()), verdicts.tolist()):
        if verdict:
            recovered = verdict > 0
            residual = err = 0.0 if recovered else math.nan
        else:
            x = np.zeros(n)
            x[list(support)] = 1.0
            y = a @ x
            bp = bp or recovery._BasisPursuit(a)
            try:
                xhat, residual = bp.solve(y)
                err = float(np.max(np.abs(xhat - x)))
                recovered = err <= recovery._EXACT_TOL
            except SolverFailureError as exc:
                residual, err, recovered = exc.residual, math.inf, False
                failures += 1
        exact += recovered
        trials.append(recovery.TrialOutcome(support, bool(recovered), residual, err))
    total = len(supports)
    return recovery.RecoveryReport(
        total_trials=total, exact_count=exact, accuracy_percent=100.0 * exact / total,
        sampled=sampled, certified=int(np.count_nonzero(verdicts > 0)),
        refuted=int(np.count_nonzero(verdicts < 0)), solver_failures=failures,
        simplex_iterations=bp.simplex_iterations if bp else 0, per_trial=trials)


def _fp_greedy_identity_gaussian():
    phi = generate(EnsembleSpec("identity-gaussian", d=100, n=50, seed=0))
    return phi, select_fp_greedy(phi, 10), 2, BpConfig()


# sweeps with LP trials, with solver failures, and with zero-column supports
_BULK_SWEEPS = {
    # +-1 entries: degenerate exchange rounds leave 59 of the 300 trials to the LP
    "signed-bernoulli-10x40-k2": lambda: (
        generate(EnsembleSpec("bernoulli01", d=10, n=40, seed=1, signed=True)), np.arange(10),
        2, BpConfig(seed=1, sample_cap=300)),
    "row-copied-with-noise-1e-7": lambda: _dependent_row_sweep("row-copied-with-noise-1e-7"),
    "identity-gaussian-100x50-fp-greedy": _fp_greedy_identity_gaussian,
}


@pytest.mark.parametrize("case", sorted(_BULK_SWEEPS))
def test_bulk_outcomes_match_the_per_trial_loop(case):
    phi, subset, k, cfg = _BULK_SWEEPS[case]()
    report = evaluate_recovery(phi, subset, k, cfg, keep_trials=True)
    ref = _per_trial_loop(phi, subset, k, cfg)
    # repr compares NaN fields too, and float fields to the last bit
    assert repr(dataclasses.replace(report, per_trial=None)) == repr(
        dataclasses.replace(ref, per_trial=None))
    assert len(report.per_trial) == len(ref.per_trial)
    for got, want in zip(report.per_trial, ref.per_trial):
        assert repr(got) == repr(want)
        # a trial no LP ran for holds math.nan itself, so equal sweeps compare equal
        assert (got.residual is math.nan) == (want.residual is math.nan)
        assert type(got.recovered) is bool
        assert type(got.support) is tuple and all(type(i) is int for i in got.support)
        assert all(type(v) is float for v in (got.residual, got.linf_error))
    if case.startswith("signed"):
        assert report.simplex_iterations > 0
    elif case.startswith("row-copied"):
        assert report.solver_failures > 0
    else:
        assert report.refuted == 1180
    lean = evaluate_recovery(phi, subset, k, cfg)
    assert lean.per_trial is None
    assert repr(lean) == repr(dataclasses.replace(report, per_trial=None))


def test_supports_sample_when_the_count_overflows_int64():
    assert math.comb(2000, 12) >= 2**63
    cfg = BpConfig(seed=3, sample_cap=5)
    drawn, sampled = _supports(2000, 12, cfg)
    supports = list(map(tuple, drawn.tolist()))
    assert sampled and len(set(supports)) == len(supports) == 5
    assert supports == sorted(supports)
    assert all(len(s) == 12 and list(s) == sorted(set(s)) and 0 <= s[0] and s[-1] < 2000
               for s in supports)
    again, sampled = _supports(2000, 12, cfg)
    assert sampled and again.tolist() == drawn.tolist()


def test_support_draws_below_the_int64_limit_are_pinned():
    # one draw of ranks, for C(12, 3) = 220 as for C(200, 5) ~ 2.5e9
    drawn, sampled = _supports(12, 3, BpConfig(seed=1, sample_cap=4))
    assert sampled and drawn.tolist() == [[2, 3, 6], [2, 4, 8], [4, 5, 7], [6, 10, 11]]
    drawn, sampled = _supports(200, 5, BpConfig(seed=0, sample_cap=3))
    assert sampled and drawn.tolist() == [
        [26, 48, 49, 91, 127], [36, 51, 128, 160, 179], [62, 92, 138, 151, 180]]


def test_support_draw_memory_follows_the_cap_not_the_count():
    # C(40, 5) = 658 008 ranks: holding all of them would take over 5 MB
    tracemalloc.start()
    try:
        _supports(40, 5, BpConfig(seed=5, sample_cap=300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sampled_supports_are_uniform():
    # 110 of the 220 supports per seed: each is drawn 200 +- 10 times over
    # 400 seeds, and the bounds sit 6 standard deviations out
    drawn = np.concatenate(
        [_supports(12, 3, BpConfig(seed=seed, sample_cap=110))[0] for seed in range(400)])
    _, counts = np.unique(drawn, axis=0, return_counts=True)
    assert len(counts) == math.comb(12, 3) and 140 <= counts.min() and counts.max() <= 260
    # 300 supports of C(30, 4) per seed: each column is in 4/30 of them
    drawn = np.concatenate(
        [_supports(30, 4, BpConfig(seed=seed, sample_cap=300))[0] for seed in range(200)])
    counts = np.bincount(drawn.ravel(), minlength=30)
    assert np.all(np.abs(counts - 8000) <= 450), counts


def test_unrank_matches_lexicographic_order():
    combos = list(itertools.combinations(range(7), 3))
    np.testing.assert_array_equal(_unrank(np.arange(len(combos)), 7, 3), combos)


@pytest.mark.parametrize("n, k, draws",
                         [(12, 3, None), (200, 5, 400), (2000, 5, 200), (70, 64, 100)])
def test_vectorised_unrank_matches_one_rank_at_a_time(n, k, draws):
    total = math.comb(n, k)
    if draws is None:
        ranks = np.arange(total)
    else:
        # the extreme ranks, then uniform draws; C(2000, 5) is ~2.6e14, and
        # C(70, 64) is small while C(70, 35) on its way is past int64
        drawn = np.random.default_rng(n).integers(total, size=draws)
        ranks = np.sort(np.r_[0, total - 1, drawn])
    got = _unrank(ranks, n, k)
    assert got.shape == (len(ranks), k)
    assert [tuple(row) for row in got.tolist()] == [
        _unrank_combination(int(r), n, k) for r in ranks]


def test_report_serialization():
    report = evaluate_recovery(np.eye(3), np.arange(3), 1, keep_trials=True)
    payload = report.to_dict()
    assert payload["accuracy_percent"] == 100.0
    assert payload["exact_count"] == payload["total_trials"] == 3
    assert payload["solver_failures"] == 0
    assert payload["certified"] == report.certified == 3
    assert payload["refuted"] == report.refuted == 0
    assert payload["simplex_iterations"] == report.simplex_iterations == 0
    assert "per_trial" not in payload
    assert [t.support for t in report.per_trial] == [(0,), (1,), (2,)]
    assert all(t.recovered and t.residual == t.linf_error == 0.0 for t in report.per_trial)
    # a sweep with LP trials: the iterations of every HiGHS run are summed
    phi = np.random.default_rng(12).standard_normal((10, 40))
    phi[:, 3] = phi[:, 1]
    report = evaluate_recovery(phi, np.arange(10), 2)
    payload = report.to_dict()
    assert payload["refuted"] == report.refuted > 0
    assert payload["simplex_iterations"] == report.simplex_iterations > 0


def test_config_validation():
    with pytest.raises(ValueError):
        BpConfig(sample_cap=0)
    # bools are Integral and fractions used to fail mid-sweep or truncate
    for name in ("seed", "sample_cap"):
        for value in (True, np.bool_(True), 2.5, 2.0, "2"):
            with pytest.raises(ValueError, match=name):
                BpConfig(**{name: value})
    assert BpConfig(seed=np.int64(-3), sample_cap=np.int32(5)).sample_cap == 5


def test_fractional_subset_is_rejected():
    # was truncated to rows 0, 1 and 2
    with pytest.raises(InvalidSubsetError):
        evaluate_recovery(np.eye(4), [0.2, 1.9, 2.5], 1)
    with pytest.raises(InvalidSubsetError):
        evaluate_recovery(np.eye(4), [False, True, 2], 1)
    whole = evaluate_recovery(np.eye(4), [0.0, 1.0, 2.0], 1, keep_trials=True)
    ref = evaluate_recovery(np.eye(4), [0, 1, 2], 1, keep_trials=True)
    assert whole == ref


def test_report_equality_survives_a_round_trip():
    # refuted trials carry NaN residuals and errors, which a pickle round
    # trip turns into distinct float objects
    phi = np.random.default_rng(11).standard_normal((10, 40))
    report = evaluate_recovery(phi, np.arange(10), 2, keep_trials=True)
    assert report.refuted > 0
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and not copy != report
    # equality still sees every field and every trial
    assert dataclasses.replace(copy, exact_count=copy.exact_count + 1) != report
    trials = list(copy.per_trial)
    refuted = next(i for i, t in enumerate(trials) if math.isnan(t.residual))
    trials[refuted] = trials[refuted]._replace(residual=0.0)
    assert dataclasses.replace(copy, per_trial=trials) != report
    assert dataclasses.replace(copy, per_trial=None) != report
    with pytest.raises(TypeError):
        hash(report)


def test_sparsity_bounds():
    with pytest.raises(ValueError):
        evaluate_recovery(np.eye(3), np.arange(3), 0)
    with pytest.raises(ValueError):
        evaluate_recovery(np.eye(3), np.arange(3), 3)


def test_sparsity_must_be_an_integer():
    phi = np.vstack([np.eye(8), np.random.default_rng(4).standard_normal((8, 8))])
    base = evaluate_recovery(phi, np.arange(5), 2)
    for k in (np.int64(2), 2.0):
        report = evaluate_recovery(phi, np.arange(5), k)
        assert report.exact_count == base.exact_count
        assert report.total_trials == base.total_trials
    for bad in (True, np.bool_(True), 2.5, np.nan, np.inf, "2"):
        with pytest.raises(ValueError, match="sparsity"):
            evaluate_recovery(phi, np.arange(5), bad)
