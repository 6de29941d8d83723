"""Command-line interface for sensor selection experiments.

Subcommands
-----------
generate   draw a synthetic ensemble matrix and write it to CSV
select     run a selector on a matrix and write the chosen rows as JSON
metrics    report coherence and frame quality numbers for a matrix
recover    run the planted-signal recovery protocol on selected rows
benchmark  sweep (trial, selector, budget) cells from a JSON config

All row and column indices in inputs and outputs are 0-based.  Exit
codes: 0 on success, 1 on runtime failures (bad files, infeasible
problems, solver errors, a scipy without the HiGHS binding), 2 on usage
errors.  The INSENSE_OUTDIR environment variable supplies the default
output directory.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

from .datagen import KINDS, EnsembleSpec, generate, load_matrix, manifest, save_matrix
from .exceptions import InsenseError
from .experiment import SELECTORS, configure, resolve_config, run_benchmark, write_outputs
from .metrics import as_whole_number, extract_submatrix, metric_report
from .optimizer import INIT_MODES, InsenseConfig, SelectionResult
from .recovery import BpConfig, evaluate_recovery

OUTDIR_ENV = "INSENSE_OUTDIR"


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _index_list(text):
    try:
        indices = sorted(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError("duplicate indices in subset")
    if indices[0] < 0:
        raise argparse.ArgumentTypeError("negative index in subset")
    return indices


def _dump(payload, path=None):
    """Pretty-print a JSON payload to stdout, optionally also to a file."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _outdir(args):
    path = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(path, exist_ok=True)
    return path


def _add_source_flags(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", metavar="FILE", help="CSV file, one row per sensor")
    source.add_argument("--ensemble", choices=KINDS, help="draw a synthetic matrix instead")
    _add_ensemble_flags(parser)


def _add_ensemble_flags(parser):
    parser.add_argument("--d", type=_positive_int, help="rows (ensemble only)")
    parser.add_argument("--n", type=_positive_int, help="columns (ensemble only)")
    parser.add_argument(
        "--gaussian-rows",
        type=_positive_int,
        default=EnsembleSpec.gaussian_rows,
        help=f"Gaussian block height of uniform-gaussian (default {EnsembleSpec.gaussian_rows})",
    )
    parser.add_argument(
        "--signed", action="store_true", help="draw bernoulli01 entries from {-1,+1}"
    )


def _add_subset_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--subset",
        type=_index_list,
        metavar="I,J,...",
        help="rows to keep, 0-based; sorted before use",
    )
    group.add_argument(
        "--selection", metavar="FILE", help="JSON file from 'select'; its 'indices' are used"
    )


def _resolve_spec(args):
    # flag combinations that argparse alone cannot express
    if args.d is None or args.n is None:
        build_parser().error("--ensemble requires --d and --n")
    try:
        return EnsembleSpec(
            args.ensemble,
            d=args.d,
            n=args.n,
            seed=args.seed,
            gaussian_rows=args.gaussian_rows,
            signed=args.signed,
        )
    except ValueError as exc:
        build_parser().error(str(exc))


def _load_phi(args):
    """Return (matrix, source-description) from --matrix or --ensemble flags."""
    if args.matrix is not None:
        return load_matrix(args.matrix), {"file": args.matrix}
    spec = _resolve_spec(args)
    return generate(spec), {"ensemble": dataclasses.asdict(spec)}


def _resolve_subset(args):
    """The sorted --subset or --selection indices, or None; the callee validates them."""
    if args.selection is not None:
        with open(args.selection, encoding="utf-8") as fh:
            payload = json.load(fh)
        indices = payload.get("indices") if isinstance(payload, dict) else None
        if not isinstance(indices, list) or not indices:
            raise InsenseError(f"no 'indices' list in {args.selection}")
        subset = [as_whole_number(i) for i in indices]
        if None in subset:
            raise InsenseError(f"non-integer entries in 'indices' of {args.selection}")
        subset.sort()
        return subset
    return args.subset


def cmd_generate(args):
    spec = _resolve_spec(args)
    phi = generate(spec)
    info = manifest(spec)
    default_name = f"{spec.kind}_{spec.d}x{spec.n}_seed{spec.seed}.csv"
    out = args.out or os.path.join(_outdir(args), default_name)
    save_matrix(out, phi, header=json.dumps(info, sort_keys=True))
    _dump({"file": out, "manifest": info})
    return 0


def cmd_select(args):
    phi, source = _load_phi(args)
    # the options are the option flags given; configure rejects one the
    # method does not take
    names = set().union(*(s.options for s in SELECTORS.values()))
    options = {k: v for k, v in vars(args).items() if k in names and v is not None}
    settings = configure(args.method, options)
    start = time.perf_counter()
    subset, result = SELECTORS[args.method].run(phi, args.m, args.seed, settings)
    elapsed = time.perf_counter() - start
    # the descent fields of the result, or None for a method without descent
    descent = dict.fromkeys([f.name for f in dataclasses.fields(SelectionResult)] + ["converged"])
    if result is not None:
        descent = {**dataclasses.asdict(result), "converged": result.converged,
                   "final_weights": result.final_weights.tolist()}
    del descent["subset"]
    descent["weights"] = descent.pop("final_weights")
    payload = {
        "matrix": source,
        "method": args.method,
        "m": args.m,
        "seed": args.seed,
        "options": options,
        "indices": [int(i) for i in subset],
        **descent,
        "time_s": elapsed,
    }
    out = args.out or os.path.join(_outdir(args), "selection.json")
    _dump(payload, out)
    return 0


def cmd_metrics(args):
    phi, source = _load_phi(args)
    subset = _resolve_subset(args)
    sub = phi if subset is None else extract_submatrix(phi, subset)
    payload = {
        "matrix": source,
        "subset": subset,
        "rows": sub.shape[0],
        "cols": sub.shape[1],
        **dataclasses.asdict(metric_report(sub)),
    }
    _dump(payload, args.out)
    return 0


def cmd_recover(args):
    phi, source = _load_phi(args)
    subset = _resolve_subset(args)
    if subset is None:
        subset = list(range(phi.shape[0]))
    cfg = BpConfig(seed=args.seed, sample_cap=args.sample_cap)
    report = evaluate_recovery(phi, subset, args.k, cfg)
    payload = {
        "matrix": source,
        "subset": subset,
        "k": args.k,
        "seed": args.seed,
        "sample_cap": args.sample_cap,
        **report.to_dict(),
    }
    _dump(payload, args.out)
    return 0


def cmd_benchmark(args):
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    fallback_dir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    cfg = resolve_config(raw, base_dir, fallback_dir)
    rows = run_benchmark(cfg)
    paths = write_outputs(cfg, rows)
    _dump({"cells": len(rows), "csv": paths["csv"], "json": paths["json"]})
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="insense",
        description=(
            "Sensor selection by smoothed average-coherence minimization, "
            "with baseline selectors and a sparse-recovery benchmark."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("generate", help="draw a synthetic matrix and write it to CSV")
    p.add_argument("--ensemble", choices=KINDS, required=True)
    _add_ensemble_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (default: derived name in the output dir)")
    p.add_argument("--outdir", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("select", help="run a selector and write the chosen rows as JSON")
    _add_source_flags(p)
    p.add_argument("--m", type=_positive_int, required=True, help="number of rows to keep")
    p.add_argument("--method", choices=tuple(SELECTORS), default="insense")
    p.add_argument("--seed", type=int, default=0)
    # no defaults here: InsenseConfig holds them, and only flags given become options
    insense_only = "insense only (default {})".format
    p.add_argument("--restarts", type=_positive_int, help=insense_only(InsenseConfig.restarts))
    p.add_argument("--init", choices=INIT_MODES, help=insense_only(InsenseConfig.init))
    p.add_argument("--out", help="output JSON path (default: selection.json in the output dir)")
    p.add_argument("--outdir", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("metrics", help="report quality metrics for a matrix or submatrix")
    _add_source_flags(p)
    _add_subset_flags(p)
    p.add_argument("--seed", type=int, default=0, help="ensemble seed")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("recover", help="planted-signal recovery rate for selected rows")
    _add_source_flags(p)
    _add_subset_flags(p)
    p.add_argument("--k", type=_positive_int, required=True, help="planted sparsity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sample-cap",
        type=_positive_int,
        default=BpConfig.sample_cap,
        help=f"max supports; larger support counts are sampled (default {BpConfig.sample_cap})",
    )
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("benchmark", help="sweep (trial, selector, budget) cells from a config")
    p.add_argument("--config", required=True, metavar="FILE", help="JSON experiment config")
    p.add_argument("--outdir", help=f"fallback output directory (default: ${OUTDIR_ENV} or '.')")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except (InsenseError, OSError, ValueError, ImportError) as exc:
        # ImportError: a scipy without the HiGHS binding, met at the first LP
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
