"""The three benchmark workloads and the checks on their outputs.

Each workload draws its inputs from the workload seed, runs one operation
at a time in a closed loop (one client, the next operation starts when the
previous one has finished), and records what the program returned so the
harness can check it and digest it.

select-ug200    one run_insense per fresh uniform-gaussian 200x200 draw
                (10 Gaussian rows), m=10, jittered start, one restart, then
                metric_report of the subset, after one warm-up selection
                in set-up: selector-bound, recovery idle.
recover-ug200   rounds of k=2 sampled evaluate_recovery sweeps, 200 trials
                through each of three insense subsets chosen during set-up;
                only the sampling seed varies per sweep: recovery-bound,
                selector idle.
pipeline-ig100  an `insense benchmark` config run through insense.cli.main:
                one identity-gaussian 100x50 trial, insense (restarts=3,
                jitter) and fp-greedy at m=10, a k=2 full-enumeration sweep
                of 1225 supports per selector, CSV and JSON outputs.

An operation is timed on the harness's speed.Speed clock, which scales it
to a fixed host speed; selector steps and BP solves tick the clock, so a
long operation is timed in segments, each scaled by the host's speed
around it.  Calls go through attribute lookups on the insense
modules at call time, so the tracer's wrappers see them.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import statistics

import numpy as np

import insense
import insense.cli
from spans import Patches, find_original

M = 10
UG_SPEC = {"kind": "uniform-gaussian", "d": 200, "n": 200, "gaussian_rows": 10}
SETUP_SUBSETS = 3  # each recover-ug200 operation sweeps every one of these subsets
SWEEP_TRIALS = 200
# Called every few milliseconds in the hot loops (one selector step, one BP
# trial): each call ticks the clock, which splits long operations there.
PACED = ("weight_gradient", "solve_bp")


def stream_seed(seed, *keys):
    """Seed of the input stream keyed by (workload seed, *keys)."""
    ss = np.random.SeedSequence([int(seed) % 2**64, *keys])
    return int(ss.generate_state(1, np.uint64)[0])


def subset_problem(subset, d, m=M):
    """Why `subset` is not m sorted, distinct row indices in [0, d), or None."""
    idx = [int(i) for i in subset]
    if len(idx) != m:
        return f"size {len(idx)} != {m}"
    if any(b <= a for a, b in zip(idx, idx[1:])):
        return f"not sorted and unique: {idx}"
    if idx[0] < 0 or idx[-1] >= d:
        return f"out of range [0, {d}): {idx}"
    return None


def _ticking(fn, clock):
    def ticking(*args, **kwargs):
        clock.tick()
        return fn(*args, **kwargs)

    return ticking


def _ug200(seed):
    spec = insense.EnsembleSpec(seed=seed, **UG_SPEC)
    return insense.generate(spec)


def _select(phi, seed):
    cfg = insense.InsenseConfig(init="uniform-plus-jitter", seed=seed, restarts=1)
    return insense.run_insense(phi, M, cfg)


class Workload:
    """Shared bookkeeping: attempted and failed operations, subset checks."""

    digest_ops = 1  # outputs of this many first operations go into the digest

    def __init__(self, seed, out_dir, modules):
        self.seed = seed
        self.out_dir = out_dir
        self.modules = modules
        self.attempted = 0
        self.failed = 0
        self.subset_errors = []
        self.outputs = []  # one JSON-ready record per operation, for the digest

    def check_subset(self, subset, d):
        problem = subset_problem(subset, d)
        if problem is not None:
            self.subset_errors.append(problem)
            self.failed += 1
        return problem is None

    def band(self, name, value, lo, hi):
        """A check that `value` lies in [lo, hi]; a miss counts as a failed operation."""
        ok = value is not None and lo <= value <= hi
        self.failed += not ok
        shown = "none" if value is None else f"{value:.4f}"
        return name, ok, f"{shown} in [{lo}, {hi}]"

    def subset_check(self, count):
        detail = f"{count} subsets" if not self.subset_errors else self.subset_errors[0]
        return "subsets-valid", not self.subset_errors, detail

    def prepare(self):
        """Set-up work done before the timed loop."""

    @contextlib.contextmanager
    def paced(self, clock):
        """Tick `clock` before every call of the PACED functions inside the block."""
        patches = Patches()
        for name in PACED:
            original = find_original(name, self.modules)
            if original is not None:
                patches.replace(original, _ticking(original, clock), self.modules)
        try:
            yield
        finally:
            patches.restore()

    def layer_counts(self):
        """Per-layer values the harness measures outside the tracer."""
        return {"cli.cells": 0, "cli.cell_errors": 0, "cli.output_bytes": 0}


class SelectUg200(Workload):
    digest_ops = 8

    def __init__(self, seed, out_dir, modules):
        super().__init__(seed, out_dir, modules)
        self.mus = []

    def prepare(self):
        # A warm-up selection on a set-up draw: lazy initialisation finishes
        # before timing, and set-up time is not left to interpreter import
        # alone, which drifts with the host's file cache far more than
        # computation does.
        s = stream_seed(self.seed, 1, 0)
        phi = _ug200(s)
        self.check_subset(_select(phi, s).subset, phi.shape[0])

    def op(self, i, clock):
        s = stream_seed(self.seed, 0, i)
        phi = _ug200(s)
        with self.paced(clock):
            clock.start()
            result = _select(phi, s)
            elapsed = clock.stop()
        self.attempted += 1
        if self.check_subset(result.subset, phi.shape[0]):
            report = insense.metric_report(phi[result.subset])
            if report.mu_avg is None:
                self.failed += 1
            else:
                self.mus.append(report.mu_avg)
        self.outputs.append([int(j) for j in result.subset])
        return elapsed

    def checks(self):
        mu = statistics.fmean(self.mus) if self.mus else None
        return [self.subset_check(self.attempted), self.band("mu-band", mu, 0.30, 0.34)]

    def metrics(self, op_times):
        return {
            "select_s_p50": (percentile(op_times, 0.50), "s"),
            "select_s_p75": (percentile(op_times, 0.75), "s"),
            "subset_mu_avg": (statistics.fmean(self.mus) if self.mus else None, "ratio"),
        }


class RecoverUg200(Workload):
    digest_ops = 4  # the set-up subsets and three rounds

    def __init__(self, seed, out_dir, modules):
        super().__init__(seed, out_dir, modules)
        self.cases = []  # (phi, subset) chosen during set-up
        self.mus = []
        self.trials = 0
        self.exact = 0
        self.sweep_problems = []

    def prepare(self):
        for j in range(SETUP_SUBSETS):
            s = stream_seed(self.seed, 1, j)
            phi = _ug200(s)
            subset = _select(phi, s).subset
            if self.check_subset(subset, phi.shape[0]):
                self.cases.append((phi, subset))
                self.mus.append(insense.mu_avg(phi[subset]))
        self.outputs.append([[int(j) for j in subset] for _, subset in self.cases])

    def op(self, i, clock):
        """One round: a sweep through each set-up subset."""
        cfgs = [insense.BpConfig(seed=stream_seed(self.seed, 0, i, j), sample_cap=SWEEP_TRIALS)
                for j in range(len(self.cases))]
        reports = []
        with self.paced(clock):
            clock.start()
            for (phi, subset), cfg in zip(self.cases, cfgs):
                reports.append(insense.evaluate_recovery(phi, subset, 2, cfg, keep_trials=True))
            elapsed = clock.stop()
        exact = []
        for j, report in enumerate(reports):
            self.attempted += report.total_trials
            self.trials += report.total_trials
            self.exact += report.exact_count
            # a solver failure is folded into "not recovered"; its error is inf
            self.failed += sum(1 for t in report.per_trial if math.isinf(t.linf_error))
            if report.total_trials != SWEEP_TRIALS or not report.sampled:
                self.sweep_problems.append(f"sweep {i}.{j}: {report.total_trials} trials")
            exact.append(report.exact_count)
        self.outputs.append(exact)
        return elapsed

    def exact_pct(self):
        return 100.0 * self.exact / self.trials if self.trials else None

    def checks(self):
        detail = self.sweep_problems[0] if self.sweep_problems else f"{self.trials} trials"
        return [
            self.subset_check(SETUP_SUBSETS),
            ("sweeps-sampled", not self.sweep_problems, detail),
            self.band("bp-band", self.exact_pct(), 50.0, 67.0),
        ]

    def metrics(self, op_times):
        return {
            "bp_trials_per_s": (SETUP_SUBSETS * SWEEP_TRIALS * len(op_times) / sum(op_times)
                                if op_times else None, "1/s"),
            "bp_exact_pct": (self.exact_pct(), "%"),
            "subset_mu_avg": (statistics.fmean(self.mus) if self.mus else None, "ratio"),
        }


class PipelineIg100(Workload):
    digest_ops = 1

    def __init__(self, seed, out_dir, modules):
        super().__init__(seed, out_dir, modules)
        self.run_dir = out_dir / f"pipeline-seed{seed}"
        self.codes = []
        self.cells = 0
        self.cell_errors = []
        self.mus = []
        self.bp = {"insense": [], "fp-greedy": []}
        self.trials = 0
        self.output_bytes = 0

    def config(self, i):
        return {
            "matrix": {"kind": "identity-gaussian", "d": 100, "n": 50},
            "seed": stream_seed(self.seed, 0, i),
            "trials": 1,
            "budgets": [M],
            "sparsities": [2],
            "selectors": [
                {"method": "insense", "restarts": 3, "init": "uniform-plus-jitter"},
                {"method": "fp-greedy"},
            ],
            "formats": ["csv", "json"],
            "output_dir": "results",
        }

    def _count_failures(self, patches):
        """Make every sweep keep its trials and count the solver failures.

        The engine calls evaluate_recovery without keep_trials, and a
        solver failure then only lowers the exact count; with the trials
        kept, a failed trial shows as an infinite error.
        """
        current = find_original("evaluate_recovery", self.modules)
        if current is None:
            return
        workload = self

        def counted(*args, **kwargs):
            kwargs["keep_trials"] = True
            report = current(*args, **kwargs)
            workload.trials += report.total_trials
            workload.failed += sum(1 for t in report.per_trial if math.isinf(t.linf_error))
            return report

        patches.replace(current, counted, self.modules)

    def op(self, i, clock):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        path = self.run_dir / "config.json"
        path.write_text(json.dumps(self.config(i)), encoding="utf-8")
        patches = Patches()
        self._count_failures(patches)
        trials_before = self.trials
        try:
            with contextlib.redirect_stdout(io.StringIO()), self.paced(clock):
                clock.start()
                code = insense.cli.main(["benchmark", "--config", str(path)])
                elapsed = clock.stop()
        finally:
            patches.restore()
        self.codes.append(code)
        rows = self._read_results()
        self.attempted += len(rows) + (self.trials - trials_before)
        self.failed += int(code != 0)
        self.outputs.append([[r["selector"], r["subset"], r["bp_acc_k2"]] for r in rows])
        return elapsed

    def _read_results(self):
        results = self.run_dir / "results"
        csv_path, json_path = results / "results.csv", results / "summary.json"
        if not csv_path.is_file() or not json_path.is_file():
            self.cell_errors.append("missing results.csv or summary.json")
            return []
        self.output_bytes += csv_path.stat().st_size + json_path.stat().st_size
        json.loads(json_path.read_text(encoding="utf-8"))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = list(csv.DictReader(lines))
        for row in rows:
            self.cells += 1
            if row["error"]:
                self.cell_errors.append(f"{row['selector']}: {row['error']}")
                self.failed += 1
                continue
            self.check_subset(row["subset"].split(";"), 100)
            bp = float(row["bp_acc_k2"])
            self.bp.setdefault(row["selector"], []).append(bp)
            # fp-greedy keeps identity rows and leaves zero columns: mu_avg is
            # undefined and its cell is empty, which is expected
            if row["selector"] == "insense":
                self.mus.append(float(row["mu_avg"]))
        return rows

    def checks(self):
        mean = {k: statistics.fmean(v) if v else None for k, v in self.bp.items()}
        errors = self.cell_errors or [f"exit code {c}" for c in self.codes if c != 0]
        return [
            self.subset_check(self.cells),
            ("cells-ok", not errors, errors[0] if errors else f"{self.cells} cells"),
            self.band("mu-band", statistics.fmean(self.mus) if self.mus else None, 0.28, 0.34),
            self.band("bp-band", mean["insense"], 85.0, math.inf),
            self.band("fp-greedy-bp-band", mean["fp-greedy"], 2.0, 8.0),
        ]

    def metrics(self, op_times):
        bp = self.bp["insense"]
        return {
            "experiment_s": (percentile(op_times, 0.50), "s"),
            "subset_mu_avg": (statistics.fmean(self.mus) if self.mus else None, "ratio"),
            "bp_exact_pct": (statistics.fmean(bp) if bp else None, "%"),
            "bp_exact_pct_fp_greedy": (statistics.fmean(self.bp["fp-greedy"])
                                       if self.bp["fp-greedy"] else None, "%"),
        }

    def layer_counts(self):
        return {
            "cli.cells": self.cells,
            "cli.cell_errors": len(self.cell_errors),
            "cli.output_bytes": self.output_bytes,
        }


def percentile(values, q):
    """Linearly interpolated q-quantile of `values` (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


WORKLOADS = {
    "select-ug200": SelectUg200,
    "recover-ug200": RecoverUg200,
    "pipeline-ig100": PipelineIg100,
}
