"""Selector registry and the benchmark experiment engine.

SELECTORS is the one place that names the selection methods and the
options each takes.  The engine sweeps (trial, selector, budget) cells of
a config: resolve_config() checks it, run_benchmark() returns the rows,
write_outputs() writes results.csv and summary.json.
"""

import csv
import json
import os
import time

import numpy as np

from dataclasses import asdict, fields, replace
from typing import Callable, NamedTuple

from .baselines import select_exhaustive_mu_avg, select_fp_greedy, select_random
from .datagen import EnsembleSpec, block_layout, generate, load_matrix
from .exceptions import InsenseError
from .metrics import MetricReport, as_integer, extract_submatrix, metric_report
from .optimizer import InsenseConfig, run_insense
from .recovery import BpConfig, evaluate_recovery
from .seeding import derive_seed

_SUMMARY_COLUMNS = (*(f.name for f in fields(MetricReport)), "gaussian_ratio", "time_s")
_CONFIG_KEYS = {
    "matrix",
    "seed",
    "trials",
    "budgets",
    "sparsities",
    "selectors",
    "sample_cap",
    "formats",
    "output_dir",
}
_ENSEMBLE_KEYS = {f.name for f in fields(EnsembleSpec)} - {"seed"}


class Selector(NamedTuple):
    """A selection method: the option names it takes, build(**options)
    returning its settings (TypeError/ValueError on a bad value), and
    run(phi, m, seed, settings) returning (subset, SelectionResult or None).
    """

    options: frozenset
    build: Callable
    run: Callable


# Runners look the selectors up by module-level name at call time, so a
# rebinding of those names (a tracer, a test double) reaches every run.
def _insense(phi, m, seed, cfg):
    result = run_insense(phi, m, replace(cfg, seed=seed))
    return result.subset, result


def _random(phi, m, seed, _):
    return select_random(phi, m, seed=seed), None


def _fp_greedy(phi, m, seed, _):
    return select_fp_greedy(phi, m), None


def _exhaustive(phi, m, seed, _):
    return select_exhaustive_mu_avg(phi, m), None


SELECTORS = {
    # seeds are derived by the caller, never set as an option
    "insense": Selector(
        frozenset(f.name for f in fields(InsenseConfig)) - {"seed"}, InsenseConfig, _insense
    ),
    "random": Selector(frozenset(), lambda: None, _random),
    "fp-greedy": Selector(frozenset(), lambda: None, _fp_greedy),
    "exhaustive-mu-avg": Selector(frozenset(), lambda: None, _exhaustive),
}


def configure(method, options):
    """Settings of selector `method` built from the `options` dict.

    Raises InsenseError for an unknown method or option and for an option
    value the method rejects.
    """
    if not isinstance(method, str) or method not in SELECTORS:
        raise InsenseError(f"unknown selector method {method!r}")
    unknown = set(options) - SELECTORS[method].options
    if unknown:
        raise InsenseError(f"unknown options for {method}: {sorted(unknown)}")
    try:
        return SELECTORS[method].build(**options)
    except (TypeError, ValueError) as exc:
        raise InsenseError(f"bad options for {method}: {exc}") from None


def _options(entry):
    """The options of a selector entry: every key but its method and name."""
    return {k: v for k, v in entry.items() if k not in ("method", "name")}


def _distinct_positive(values, what):
    if not isinstance(values, list):
        raise InsenseError(f"config '{what}' must be a list")
    values = [as_integer(v, what, least=1) for v in values]
    if len(set(values)) != len(values):
        raise InsenseError(f"duplicate {what}: {values}")
    return values


def _path(value, what, base_dir):
    """Config path `value` under `base_dir`; os.path.join keeps an absolute one as it is."""
    if not isinstance(value, str):
        raise InsenseError(f"{what} must be a path, got {value!r}")
    return os.path.join(base_dir, value)


def resolve_config(raw, base_dir=".", output_dir="."):
    """Validate a benchmark config and fill in defaults.

    Paths inside the config resolve relative to `base_dir`; `output_dir`
    is used when the config names none.  Every selector's settings are
    built here, and the matrix entry goes through EnsembleSpec's checks,
    so a bad option or shape fails before any cell runs.  A bad config
    raises InsenseError, or ValueError for a top-level count or seed that
    is not an integer.  The returned dict is a config in the same format,
    with every default filled in and every path absolute: selector entries
    stay flat {"method", "name", **options} dicts, and resolve_config
    returns it unchanged.  It is what gets embedded in every output file,
    so the embedded config re-runs to the same numbers (wall-clock columns
    aside) and writes to the same output_dir.
    """
    if not isinstance(raw, dict):
        raise InsenseError("config root must be a JSON object")
    extra = set(raw) - _CONFIG_KEYS
    if extra:
        raise InsenseError(f"unknown config keys: {sorted(extra)}")

    matrix = raw.get("matrix")
    if not isinstance(matrix, dict) or ("file" in matrix) == ("kind" in matrix):
        raise InsenseError("config 'matrix' must hold either 'file' or 'kind'")
    unknown = set(matrix) - ({"file"} if "file" in matrix else _ENSEMBLE_KEYS)
    if unknown:
        raise InsenseError(f"unknown matrix keys: {sorted(unknown)}")
    if "file" in matrix:
        matrix = {"file": _path(matrix["file"], "matrix 'file'", base_dir)}
    else:
        try:
            matrix = asdict(EnsembleSpec(**matrix))
        except (TypeError, ValueError) as exc:
            raise InsenseError(f"bad matrix: {exc}") from None
        del matrix["seed"]  # the per-trial seeds are derived from the top-level seed

    selectors = raw.get("selectors")
    if not isinstance(selectors, list) or not selectors:
        raise InsenseError("config must list at least one selector")
    resolved = []
    labels = set()
    for entry in selectors:
        if not isinstance(entry, dict) or "method" not in entry:
            raise InsenseError("each selector entry needs a 'method'")
        method = entry["method"]
        options = _options(entry)
        configure(method, options)
        label = entry.get("name", method)
        if not isinstance(label, str):
            raise InsenseError(f"selector name must be a string, got {label!r}")
        if label in labels:
            raise InsenseError(f"duplicate selector name {label!r}")
        labels.add(label)
        resolved.append({"method": method, "name": label, **options})

    budgets = _distinct_positive(raw.get("budgets"), "budgets")
    if not budgets:
        raise InsenseError("config must list at least one budget")
    sparsities = _distinct_positive(raw.get("sparsities", []), "sparsities")
    formats = raw.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats or any(
        f not in ("csv", "json") for f in formats
    ):
        raise InsenseError("formats must be a non-empty subset of ['csv', 'json']")

    if raw.get("output_dir") is not None:
        output_dir = _path(raw["output_dir"], "output_dir", base_dir)
    return {
        "matrix": matrix,
        "seed": as_integer(raw.get("seed", 0), "seed"),
        "trials": as_integer(raw.get("trials", 1), "trials", least=1),
        "budgets": budgets,
        "sparsities": sparsities,
        "selectors": resolved,
        "sample_cap": as_integer(
            raw.get("sample_cap", BpConfig.sample_cap), "sample_cap", least=1
        ),
        "formats": sorted(set(formats)),
        "output_dir": output_dir,
    }


def _columns(cfg):
    """The results.csv columns, which are also the keys of every row."""
    head = ["trial", "selector", "m", *_SUMMARY_COLUMNS[:-1]]
    return head + [f"bp_acc_k{k}" for k in cfg["sparsities"]] + ["time_s", "subset", "error"]


def _benchmark_cell(cfg, phi, layout, trial, s_idx, selector, settings, m_idx, m):
    """Run one (trial, selector, budget) cell; failures land in the error column."""
    row = {**dict.fromkeys(_columns(cfg)), "trial": trial, "selector": selector["name"], "m": m}
    # stream tags: 0 = matrix draw, 1 = selector, 2 = recovery sampling
    sel_seed = derive_seed(cfg["seed"], 1, trial, s_idx, m_idx)
    try:
        start = time.perf_counter()
        subset, _ = SELECTORS[selector["method"]].run(phi, m, sel_seed, settings)
        row["time_s"] = time.perf_counter() - start
    except (InsenseError, ValueError) as exc:
        row["error"] = f"select: {exc}"
        return row
    row["subset"] = [int(i) for i in subset]
    row.update(asdict(metric_report(extract_submatrix(phi, subset))))
    if layout is not None and "gaussian" in layout:
        lo, hi = layout["gaussian"]
        inside = sum(1 for i in row["subset"] if lo <= i < hi)
        row["gaussian_ratio"] = 100.0 * inside / len(row["subset"])
    for k_idx, k in enumerate(cfg["sparsities"]):
        # same supports for every selector at a given (trial, m, k)
        rec_cfg = BpConfig(
            seed=derive_seed(cfg["seed"], 2, trial, m_idx, k_idx),
            sample_cap=cfg["sample_cap"],
        )
        try:
            rec = evaluate_recovery(phi, subset, k, rec_cfg)
        except (InsenseError, ValueError) as exc:
            row["error"] = f"recover k={k}: {exc}"
            continue
        row[f"bp_acc_k{k}"] = rec.accuracy_percent
    return row


def run_benchmark(cfg):
    """Every (trial, selector, budget) cell of a resolved config, as row dicts.

    Rows come in trial, then selector, then budget order.  A selector or
    recovery failure lands in the row's `error` column instead of raising.
    """
    settings = [configure(s["method"], _options(s)) for s in cfg["selectors"]]
    matrix = cfg["matrix"]
    file_phi = load_matrix(matrix["file"]) if "file" in matrix else None
    rows = []
    for trial in range(cfg["trials"]):
        if file_phi is not None:
            phi, layout = file_phi, None
        else:
            spec = EnsembleSpec(**matrix, seed=derive_seed(cfg["seed"], 0, trial))
            phi, layout = generate(spec), block_layout(spec)
        for s_idx, selector in enumerate(cfg["selectors"]):
            for m_idx, m in enumerate(cfg["budgets"]):
                rows.append(
                    _benchmark_cell(
                        cfg, phi, layout, trial, s_idx, selector, settings[s_idx], m_idx, m
                    )
                )
    return rows


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


def _mean_std(values):
    present = [v for v in values if v is not None]
    if not present:
        return {"mean": None, "std": None, "count": 0}
    arr = np.asarray(present, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std, "count": int(arr.size)}


def _summarize(cfg, rows):
    """Per (selector, budget) mean/std/count aggregates of the rows."""
    cells = []
    for selector in cfg["selectors"]:
        for m in cfg["budgets"]:
            group = [r for r in rows if r["selector"] == selector["name"] and r["m"] == m]
            cell = {
                "selector": selector["name"],
                "m": m,
                "trials": len(group),
                "failures": sum(1 for r in group if r["error"] is not None),
            }
            for column in _SUMMARY_COLUMNS:
                cell[column] = _mean_std([r[column] for r in group])
            cell["bp_accuracy"] = {
                str(k): _mean_std([r[f"bp_acc_k{k}"] for r in group]) for k in cfg["sparsities"]
            }
            cells.append(cell)
    return cells


def write_outputs(cfg, rows):
    """Write results.csv and/or summary.json into the config's output_dir.

    Returns {"csv": path or None, "json": path or None}.
    """
    os.makedirs(cfg["output_dir"], exist_ok=True)
    columns = _columns(cfg)
    paths = {"csv": None, "json": None}
    if "csv" in cfg["formats"]:
        path = os.path.join(cfg["output_dir"], "results.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(cfg, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(row[c]) for c in columns])
        paths["csv"] = path
    if "json" in cfg["formats"]:
        path = os.path.join(cfg["output_dir"], "summary.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"config": cfg, "cells": _summarize(cfg, rows)}, fh, indent=2, sort_keys=True
            )
            fh.write("\n")
        paths["json"] = path
    return paths
