"""In-memory span tracing of the insense layers, from outside the package.

The tracer wraps public functions of the insense modules at every place an
``insense.*`` module binds them (the defining module, re-exports in
``insense/__init__.py`` and ``from .x import f`` imports elsewhere), so a
call is caught whichever binding it goes through.  Each call becomes one
span: name, operation id, parent span, start and end.  Spans stay in memory
and are written as JSON lines when the benchmark ends.

A target that no longer exists (a renamed or removed function) is reported
as missing; the metrics derived from it come out as ``None`` and the run
goes on.
"""

import contextlib
import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time
from collections import defaultdict


def _gram_gflop(phi, *args, **kwargs):
    # computed, not measured: 2*d*n^2 flops for phi.T @ (z * phi)
    d, n = phi.shape
    return 2.0 * d * n * n / 1e9


def _selection_stats(result):
    frac = result.subset_iteration / result.iterations if result.iterations else 0.0
    return frac, int((result.final_weights != 0).sum())


def _sweep_trials(report):
    return report.total_trials


# (span name, function name, modules whose binding is wrapped, or None for
#  every insense module that binds the function, work counter taking the
#  call's arguments, summary kept of each result)
TARGETS = (
    ("datagen.generate", "generate", None, None, None),
    ("optimizer.run", "run_insense", None, None, _selection_stats),
    ("optimizer.gradient", "weight_gradient", None, None, None),
    ("optimizer.gram", "gram_matrix", None, _gram_gflop, None),
    # only the rounding score of the selector, not mu_avg calls elsewhere
    ("optimizer.round_score", "mu_avg", ("insense.optimizer",), None, None),
    ("projection", "project_sbs", None, None, None),
    ("metrics.report", "metric_report", None, None, None),
    ("baselines.fp_greedy", "select_fp_greedy", None, None, None),
    ("baselines.random", "select_random", None, None, None),
    ("baselines.exhaustive", "select_exhaustive_mu_avg", None, None, None),
    ("recovery.sweep", "evaluate_recovery", None, None, _sweep_trials),
    ("recovery.bp_solve", "solve_bp", None, None, None),
    ("cli.main", "main", ("insense.cli",), None, None),
)


def insense_modules():
    """Every importable insense.* module, imported now so none is missed."""
    import insense

    for info in pkgutil.walk_packages(insense.__path__, "insense."):
        importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "insense" or name.startswith("insense."))}


def find_original(func_name, modules, only=None):
    """The insense function called `func_name`, preferring its defining module."""
    found = []
    for mod_name in (only or sorted(modules)):
        obj = getattr(modules.get(mod_name), func_name, None)
        if callable(obj) and str(getattr(obj, "__module__", "")).startswith("insense"):
            found.append(obj)
    for obj in found:
        if obj.__module__ in modules and getattr(modules[obj.__module__], func_name, None) is obj:
            return obj
    return found[0] if found else None


class Patches:
    """Replaces module bindings of a function and puts them back on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, original, replacement, modules, only=None):
        """Point every binding of `original` in `modules` at `replacement`."""
        for mod_name, mod in modules.items():
            if only is not None and mod_name not in only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class Tracer:
    """Span recorder; `active(op)` wraps the targets for one operation."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # dicts: id, parent, op, name, start, end, error
        self.work = defaultdict(float)
        self.kept = defaultdict(list)
        self._stack = []
        self._op = None
        self.missing = []
        self._wrappers = []
        for span_name, func_name, only, work, keep in TARGETS:
            original = find_original(func_name, modules, only)
            if original is None:
                self.missing.append(span_name)
                continue
            self._wrappers.append((original, self._wrap(span_name, original, work, keep), only))

    def _wrap(self, name, fn, work, keep):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, work, keep)

        return traced

    def call(self, name, fn, args, kwargs, work=None, keep=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self._op, "name": name, "start": 0.0, "end": 0.0, "error": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        if work is not None:
            self.work[name] += work(*args, **kwargs)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if keep is not None:
            self.kept[name].append(keep(result))
        return result

    @contextlib.contextmanager
    def active(self, op):
        """Trace every target call made for operation `op` inside the block."""
        patches = Patches()
        self._op = op
        try:
            for original, wrapper, only in self._wrappers:
                patches.replace(original, wrapper, self.modules, only)
            yield self
        finally:
            patches.restore()
            self._op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def check_span_tree(spans):
    """Problems with the tree: children outside parents, negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        parent = by_id.get(span["parent"])
        if span["parent"] is not None and parent is None:
            problems.append(f"span {span['id']} has unknown parent {span['parent']}")
        elif parent is not None and not (parent["start"] <= span["start"]
                                         and span["end"] <= parent["end"]):
            problems.append(f"span {span['id']} lies outside its parent {parent['id']}")
    for span_id, value in self_times(spans).items():
        if value < 0.0:
            problems.append(f"span {span_id} has negative self time {value:.3g}")
    return problems


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, harness):
    """Per-layer metrics from the traced spans; None marks a missing target.

    `harness` supplies the values the harness measures itself (trace.*,
    cli.cells, cli.cell_errors, cli.output_bytes).  Ratios whose base is
    zero on a workload read 0.
    """
    count = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    failures = 0
    selfs = self_times(tracer.spans)
    for span in tracer.spans:
        name, dt = span["name"], span["end"] - span["start"]
        count[name] += 1
        total[name] += dt
        own[name] += selfs[span["id"]]
        durations[name].append(dt)
        if name == "recovery.bp_solve" and span["error"] == "SolverFailureError":
            failures += 1
    runs = tracer.kept["optimizer.run"]
    bp = durations["recovery.bp_solve"]
    out = {
        "datagen.generate_calls": count["datagen.generate"],
        "datagen.generate_s": total["datagen.generate"],
        "optimizer.run_s": total["optimizer.run"],
        "optimizer.self_s": own["optimizer.run"],
        "optimizer.gradient_calls": count["optimizer.gradient"],
        "optimizer.gradient_s": total["optimizer.gradient"],
        "optimizer.gram_evals": count["optimizer.gram"],
        "optimizer.gram_s": total["optimizer.gram"],
        "optimizer.gram_evals_per_step": _ratio(count["optimizer.gram"],
                                                count["optimizer.gradient"]),
        "optimizer.gram_gflop": tracer.work["optimizer.gram"],
        "optimizer.gram_gflops": _ratio(tracer.work["optimizer.gram"],
                                        total["optimizer.gram"]),
        "optimizer.round_score_calls": count["optimizer.round_score"],
        "optimizer.round_score_s": total["optimizer.round_score"],
        "optimizer.best_iter_frac": statistics.fmean(r[0] for r in runs) if runs else 0.0,
        "optimizer.weights_nnz_mean": statistics.fmean(r[1] for r in runs) if runs else 0.0,
        "projection.calls": count["projection"],
        "projection.s": total["projection"],
        "metrics.report_calls": count["metrics.report"],
        "metrics.report_s": total["metrics.report"],
        "baselines.calls": sum(count[n] for n in count if n.startswith("baselines.")),
        "baselines.fp_greedy_s": total["baselines.fp_greedy"],
        "recovery.sweeps": count["recovery.sweep"],
        "recovery.sweep_s": total["recovery.sweep"],
        "recovery.sweep_self_s": own["recovery.sweep"],
        "recovery.bp_solves": len(bp),
        "recovery.bp_solve_s": total["recovery.bp_solve"],
        "recovery.bp_solve_ms_p50": 1000.0 * statistics.median(bp) if bp else 0.0,
        "recovery.lp_per_trial": _ratio(len(bp), sum(tracer.kept["recovery.sweep"])),
        "recovery.solver_failures": failures,
        "cli.self_s": own["cli.main"],
        **harness,
    }
    for missing in tracer.missing:
        for name in out:
            if name.startswith(_SOURCES.get(missing, ())):
                out[name] = None
    return out


# span name -> prefixes of the metrics it feeds, for reporting missing targets
_SOURCES = {
    "datagen.generate": ("datagen.",),
    "optimizer.run": ("optimizer.run_s", "optimizer.self_s", "optimizer.best_iter_frac",
                      "optimizer.weights_nnz_mean"),
    "optimizer.gradient": ("optimizer.gradient_", "optimizer.gram_evals_per_step"),
    "optimizer.gram": ("optimizer.gram_",),
    "optimizer.round_score": ("optimizer.round_score_",),
    "projection": ("projection.",),
    "metrics.report": ("metrics.",),
    "baselines.fp_greedy": ("baselines.calls", "baselines.fp_greedy_s"),
    "baselines.random": ("baselines.calls",),
    "baselines.exhaustive": ("baselines.calls",),
    "recovery.sweep": ("recovery.sweep", "recovery.lp_per_trial"),
    "recovery.bp_solve": ("recovery.bp_", "recovery.lp_per_trial", "recovery.solver_failures"),
    "cli.main": ("cli.self_s",),
}
