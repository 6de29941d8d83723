"""Fast smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the span tree of a traced run is well formed, that a vanished trace
target is reported as missing instead of failing, that the speed clock
scales each segment by the reference times around it, and that the
harness refuses to run without the insense sources.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# end-to-end metrics the untraced select-ug200 run prints besides the JSON ones
SELECT_LINES = ("setup_s", "peak_rss_mb", "select_s_p50", "select_s_p75", "subset_mu_avg",
                "ops_failed_pct")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _printed(stdout, kind):
    """name -> (value, unit) of the `kind` lines ("metric" or "layer")."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == kind:
            out[parts[1]] = (parts[2], parts[3])
    return out


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    done = _run("--workload", "select-ug200", "--seed", "987", "--seconds", "1", "--trace", "0")
    result = _result(done)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) and v["value"] > 0
               for v in result["metrics"].values())
    printed = _printed(done.stdout, "metric")
    for name in list(want) + list(SELECT_LINES):
        assert name in printed and printed[name][0] != "missing", name
    assert printed["setup_s"][1] == "s" and printed["ops_failed_pct"][1] == "%"
    assert any(line.startswith("env ") for line in done.stdout.splitlines())
    assert any(line.startswith("digest ") for line in done.stdout.splitlines())


def test_traced_run_reports_layers_and_a_well_formed_span_tree():
    done = _run("--workload", "select-ug200", "--seed", "987", "--seconds", "1", "--trace", "1")
    result = _result(done)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = _printed(done.stdout, "layer")
    assert {k: unit for k, (_, unit) in printed.items()} == want
    assert all(value != "missing" for value, _ in printed.values())
    assert result["metrics"]["optimizer.gram_evals"]["value"] > 0
    assert result["metrics"]["trace.ops"]["value"] >= 1

    path = HERE / "out" / "select-ug200-seed987.spans.jsonl"
    tree = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert tree and spans.check_span_tree(tree) == []
    assert all(value >= 0.0 for value in spans.self_times(tree).values())
    names = {s["id"]: s["name"] for s in tree}
    grams = [s for s in tree if s["name"] == "optimizer.gram"]
    assert grams and all(names[s["parent"]] == "optimizer.run" for s in grams)


def _tiny_benchmark(tmp):
    import insense.cli

    config = {
        "matrix": {"kind": "identity-gaussian", "d": 16, "n": 8},
        "trials": 1,
        "budgets": [4],
        "sparsities": [1],
        "selectors": [{"method": "insense"}, {"method": "fp-greedy"}],
        "output_dir": str(tmp),
    }
    path = tmp / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with open(os.devnull, "w", encoding="utf-8") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            assert insense.cli.main(["benchmark", "--config", str(path)]) == 0
        finally:
            sys.stdout = saved


def test_cli_spans_nest_and_bindings_are_restored():
    import insense.optimizer

    tmp = HERE / "out" / "smoke-cli"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    original = insense.optimizer.gram_matrix
    tracer = spans.Tracer(spans.insense_modules())
    with tracer.active(0):
        assert insense.optimizer.gram_matrix is not original
        _tiny_benchmark(tmp)
    assert insense.optimizer.gram_matrix is original
    assert tracer.missing == [] and spans.check_span_tree(tracer.spans) == []
    by_id = {s["id"]: s for s in tracer.spans}
    for span in tracer.spans:
        if span["name"] == "recovery.bp_solve":
            sweep = by_id[span["parent"]]
            assert sweep["name"] == "recovery.sweep"
            assert by_id[sweep["parent"]]["name"] == "cli.main"
    layer = spans.layer_metrics(tracer, {})
    assert layer["recovery.lp_per_trial"] == 1.0 and layer["cli.self_s"] >= 0.0
    assert layer["baselines.calls"] == 1


def test_vanished_target_is_reported_missing(monkeypatch):
    import insense

    renamed = [t if t[1] != "gram_matrix" else (t[0], "gram_matrix_gone") + t[2:]
               for t in spans.TARGETS]
    monkeypatch.setattr(spans, "TARGETS", tuple(renamed))
    tracer = spans.Tracer(spans.insense_modules())
    assert tracer.missing == ["optimizer.gram"]
    phi = insense.generate(insense.EnsembleSpec("gaussian", d=12, n=6, seed=1))
    with tracer.active(0):
        insense.run_insense(phi, 3)
    layer = spans.layer_metrics(tracer, {})
    assert layer["optimizer.gram_evals"] is None and layer["optimizer.gram_gflops"] is None
    assert layer["optimizer.gradient_calls"] > 0


def test_clock_scales_each_segment_by_the_reference_around_it(monkeypatch):
    import speed

    now = [0.0]
    refs = iter(r * speed.REF_S for r in (2.0, 4.0, 1.0, 3.0))
    monkeypatch.setattr(speed, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(speed.Speed, "sample", lambda self: next(refs))
    clock = speed.Speed()
    clock.start()
    now[0] += 1.0
    clock.tick()  # a 1 s segment, between references 2 and 4
    now[0] += 0.5 * speed.SEGMENT_S
    clock.tick()  # too short to split
    now[0] += 1.0 - 0.5 * speed.SEGMENT_S
    assert clock.stop() == pytest.approx(1 / 3 + 1 / 2.5)
    assert clock.raw_s == pytest.approx(2.0)

    clock.fine = False  # one segment, between references 1 and 3
    clock.start()
    now[0] += 1.0
    clock.split()
    now[0] += 1.0
    assert clock.stop() == pytest.approx(1.0)
    assert clock.raw_s == pytest.approx(2.0)


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = _run("--workload", "select-ug200", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    assert done.returncode != 0 and done.stdout.strip() == ""
