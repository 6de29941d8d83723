"""Benchmark harness for insense: one workload per run, closed loop, one client.

Run from the root of a checkout (no install needed; the package is loaded
from src/):

    python3 perfbench/run.py --workload select-ug200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets up the workload three times and reports the median as setup_s
(each time: importing insense in a fresh interpreter, plus the workload's
own set-up), then runs operations for --seconds and checks the outputs.
Every end-to-end time it reports is scaled to a fixed host speed by a
reference kernel timed around it (see speed.py); the raw wall times are
printed too.  Per-layer times are the spans' raw times.
It prints the environment, every end-to-end metric with its unit, the
output checks and a digest of the outputs, and as its last line one JSON
object with the metrics that BENCHMARK.json names.

With --trace 1, every other operation (the first included) runs with the
insense layers wrapped in spans (see spans.py); the last line then holds
the per-layer metrics, the spans go to perfbench/out/ as JSON lines, and
trace.overhead_pct compares the traced operations' median time with the
untraced ones'.  End-to-end numbers come from runs with --trace 0.

The exit code is 1 when an output check fails and 2 when the insense
sources are not there.
"""

import os

# Pinned before numpy loads: a second BLAS thread gave no gain on two shared
# cores and changes the selector's final weights bitwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("select-ug200", "recover-ug200", "pipeline-ig100")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import insense.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_import():
    """Seconds a fresh interpreter takes to import insense."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def show(value):
    if value is None:
        return "missing"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(args):
    """Each workload in its own process, in turn; the worst exit code wins."""
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, done.returncode)
    return worst


def run(args, spec):
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import spans
    import speed
    import workloads

    modules = spans.insense_modules()
    tracer = spans.Tracer(modules) if args.trace else None
    OUT.mkdir(exist_ok=True)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    cls = workloads.WORKLOADS[args.workload]
    clock = speed.Speed()
    setup_s, setup_raw = [], []
    for r in range(SETUP_REPEATS):
        workload = cls(args.seed, OUT, modules)
        traced = tracer is not None and r == SETUP_REPEATS - 1
        clock.fine = not traced
        import_s = probe_import()
        import_scaled = clock.scale(import_s)
        with tracer.active("setup") if traced else contextlib.nullcontext():
            with workload.paced(clock):
                clock.start()
                workload.prepare()
                prepare_scaled = clock.stop()
        if not traced:
            setup_s.append(import_scaled + prepare_scaled)
            setup_raw.append(import_s + clock.raw_s)

    times = {False: [], True: []}
    raw_times = []
    harness_counts = defaultdict(int)
    errors = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or (args.trace and i < 2):
        traced = bool(args.trace) and i % 2 == 0
        clock.fine = not traced
        try:
            if traced:
                before = workload.layer_counts()
                with tracer.active(i):
                    elapsed = tracer.call("op", workload.op, (i, clock), {})
                for name, value in workload.layer_counts().items():
                    harness_counts[name] += value - before[name]
            else:
                elapsed = workload.op(i, clock)
        except Exception:  # the run reports the failed operation and stops
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            break
        if not traced:
            raw_times.append(clock.raw_s)
        times[traced].append(elapsed)
        i += 1

    untraced = times[False]
    checks = workload.checks()
    checks.append(("ops-completed", not errors,
                   errors[-1].strip().splitlines()[-1] if errors else f"{i} operations"))
    attempted = max(1, workload.attempted + len(errors))
    failed = workload.failed + len(errors)
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s_p50": (workloads.percentile(untraced, 0.50), "s"),
        "op_s_p75": (workloads.percentile(untraced, 0.75), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **workload.metrics(untraced),
        "ops_failed_pct": (100.0 * failed / attempted, "%"),
    }
    for name, (value, unit) in e2e.items():
        n = f" (n={len(untraced)})" if name.startswith(("op_s", "select_s", "experiment")) else ""
        print(f"metric {name} {show(value)} {unit}{n}")
    print(f"raw setup_s {show(statistics.median(setup_raw))} s, op_s_p50 "
          f"{show(workloads.percentile(raw_times, 0.50))} s; reference kernel median "
          f"{show(clock.median_raw())} s, scaled to {speed.REF_S} s")
    for name, ok, detail in checks:
        print(f"check {name} {'PASS' if ok else 'FAIL'} ({detail})")
    shown = workload.outputs[:workload.digest_ops]
    digest = hashlib.sha256(json.dumps(shown).encode()).hexdigest()[:16]
    print(f"digest {digest} (first {len(shown)} of {len(workload.outputs)} output records)")

    wanted = spec["end_to_end"]
    values = {name: value for name, (value, _) in e2e.items()}
    if tracer is not None:
        overhead = None
        if times[True] and untraced:
            overhead = 100.0 * (statistics.median(times[True]) / statistics.median(untraced) - 1)
        layer = spans.layer_metrics(tracer, {**harness_counts, "trace.ops": len(times[True]),
                                             "trace.overhead_pct": overhead})
        for metric in spec["per_layer"]:
            print(f"layer {metric['name']} {show(layer.get(metric['name']))} {metric['unit']}")
        if tracer.missing:
            print("missing targets: " + ", ".join(tracer.missing))
        problems = spans.check_span_tree(tracer.spans)
        print(f"span-tree {'ok' if not problems else problems[0]} ({len(tracer.spans)} spans)")
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.dump(path)
        print(f"spans {path.relative_to(ROOT)}")
        wanted, values = spec["per_layer"], layer

    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "insense" / "__init__.py").is_file():
        print(f"error: insense sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
