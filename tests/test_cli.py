"""CLI subcommands end to end through main(argv).

Usage mistakes must exit with status 2 (raised by argparse as
SystemExit), runtime failures with 1 (returned), and successes with 0.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import insense
from insense import InsenseError, experiment, load_matrix, save_matrix
from insense.cli import build_parser, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(insense.__file__)))


def _run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_generate_writes_csv_with_manifest_header(capsys, tmp_path):
    out = tmp_path / "phi.csv"
    code, payload = _run(
        capsys,
        ["generate", "--ensemble", "identity-gaussian", "--d", "20", "--n", "10",
         "--seed", "3", "--out", str(out)],
    )
    assert code == 0
    assert payload["file"] == str(out)
    assert payload["manifest"]["blocks"]["gaussian"] == [10, 20]
    header = out.read_text().splitlines()[0]
    assert header.startswith("# ")
    assert json.loads(header[2:])["spec"]["seed"] == 3
    phi = load_matrix(out)
    assert phi.shape == (20, 10)
    np.testing.assert_array_equal(phi[:10], np.eye(10))


def test_generate_default_name_lands_in_outdir(capsys, tmp_path):
    code, payload = _run(
        capsys,
        ["generate", "--ensemble", "gaussian", "--d", "6", "--n", "4",
         "--outdir", str(tmp_path)],
    )
    assert code == 0
    assert payload["file"] == str(tmp_path / "gaussian_6x4_seed0.csv")
    assert (tmp_path / "gaussian_6x4_seed0.csv").exists()


def test_outdir_env_var_is_the_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("INSENSE_OUTDIR", str(tmp_path))
    code, payload = _run(
        capsys, ["generate", "--ensemble", "gaussian", "--d", "5", "--n", "3"]
    )
    assert code == 0
    assert payload["file"] == str(tmp_path / "gaussian_5x3_seed0.csv")


def test_select_metrics_recover_round_trip(capsys, tmp_path):
    selection = tmp_path / "selection.json"
    code, payload = _run(
        capsys,
        ["select", "--ensemble", "identity-gaussian", "--d", "20", "--n", "10",
         "--m", "3", "--seed", "1", "--out", str(selection)],
    )
    assert code == 0
    assert payload["method"] == "insense"
    assert len(payload["indices"]) == 3
    assert payload["indices"] == sorted(payload["indices"])
    assert payload["iterations"] >= 1
    assert payload["stop_reason"] in ("rel_tol", "no_descent", "stalled", "max_iters")
    assert payload["converged"] == (payload["stop_reason"] in ("rel_tol", "no_descent"))
    # the start and at least one line-search candidate per iteration
    assert payload["objective_evals"] > payload["iterations"]
    assert payload["time_s"] >= 0.0
    assert json.loads(selection.read_text())["indices"] == payload["indices"]

    code, metrics = _run(
        capsys,
        ["metrics", "--ensemble", "identity-gaussian", "--d", "20", "--n", "10",
         "--seed", "1", "--selection", str(selection)],
    )
    assert code == 0
    assert metrics["subset"] == payload["indices"]
    assert metrics["rows"] == 3 and metrics["cols"] == 10

    code, recovery = _run(
        capsys,
        ["recover", "--ensemble", "identity-gaussian", "--d", "20", "--n", "10",
         "--seed", "1", "--selection", str(selection), "--k", "1"],
    )
    assert code == 0
    assert recovery["total_trials"] == 10
    assert 0.0 <= recovery["accuracy_percent"] <= 100.0
    # k=1 and no two columns parallel: every trial carries a certificate
    assert recovery["certified"] == recovery["exact_count"] == 10
    assert recovery["refuted"] == recovery["solver_failures"] == 0
    assert recovery["simplex_iterations"] == 0  # no trial reached an LP

    # the screen decides every trial of this sweep, so no LP runs
    code, recovery = _run(
        capsys, ["recover", "--ensemble", "gaussian", "--d", "10", "--n", "40", "--k", "2"])
    assert code == 0
    decided = recovery["certified"] + recovery["refuted"]
    assert recovery["certified"] > 0 and recovery["refuted"] > 0
    assert decided == recovery["total_trials"] == 780
    assert recovery["exact_count"] == recovery["certified"]
    assert recovery["simplex_iterations"] == recovery["solver_failures"] == 0

    # on +-1 entries degenerate exchange rounds leave some trials to the LP
    code, recovery = _run(
        capsys, ["recover", "--ensemble", "bernoulli01", "--signed", "--d", "10", "--n", "40",
                 "--k", "2", "--sample-cap", "300", "--seed", "1"])
    assert code == 0
    decided = recovery["certified"] + recovery["refuted"]
    assert recovery["certified"] > 0
    assert decided < recovery["total_trials"] == 300
    assert recovery["simplex_iterations"] > 0 and recovery["solver_failures"] == 0


def test_select_random_is_reproducible(capsys, tmp_path):
    argv = ["select", "--ensemble", "gaussian", "--d", "15", "--n", "6",
            "--m", "5", "--method", "random", "--seed", "8",
            "--out", str(tmp_path / "s.json")]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first["indices"] == second["indices"]
    assert first["weights"] is None
    assert first["stop_reason"] is None


_IG_SOURCE = ["--ensemble", "identity-gaussian", "--d", "20", "--n", "10", "--seed", "2"]
_IG_MATRIX = {"ensemble": {"d": 20, "gaussian_rows": 10, "kind": "identity-gaussian", "n": 10,
                           "seed": 2, "signed": False}}
# select payloads on identity-gaussian 20x10 at seed 2, m = 4, all but time_s
# and options; recorded before the experiment layer lost its restated fields
_PINNED_SELECT = {
    "insense": {
        "converged": False, "final_objective": 1.4362244905051682, "indices": [9, 13, 17, 18],
        "iterations": 11, "m": 4, "matrix": _IG_MATRIX, "method": "insense",
        "objective_evals": 19,
        "objective_trace": [
            3.3890181544605786, 3.1127831699796733, 2.7036873777657373, 2.532486723050326,
            2.4597451227660745, 2.414390562376399, 2.221811632534849, 2.162315175052642,
            1.605808289229019, 1.5529905463742137, 1.4970560302966067, 1.4362244905051682,
        ],
        "seed": 2, "stop_reason": "stalled", "subset_iteration": 1,
        "subset_mu_avg": 0.5073458652302714,
        "weights": [
            0.15757398428314517, 0.4425869780619582, 0.3868388883026083, 0.17256993321477213,
            0.20858559688963452, 0.4311009047508251, 0.2105153073616829, 0.1158289236881234,
            0.2814393669054848, 0.5152819570181306, 0.04206517609747248, 0.14421314378189187,
            0.01585392854746357, 0.2580646578545925, 0.044767695802884235, 0.04360901183035868,
            0.044554578111344396, 0.11796145500652784, 0.16117159469209086, 0.2054169177990086,
        ],
    },
    "fp-greedy": {
        "converged": None, "final_objective": None, "indices": [0, 6, 7, 8], "iterations": None,
        "m": 4, "matrix": _IG_MATRIX, "method": "fp-greedy", "objective_evals": None,
        "objective_trace": None, "seed": 2, "stop_reason": None, "subset_iteration": None,
        "subset_mu_avg": None, "weights": None,
    },
}


def test_select_and_metrics_payloads_are_pinned(capsys, tmp_path):
    for method, pinned in _PINNED_SELECT.items():
        out = tmp_path / f"{method}.json"
        code, payload = _run(
            capsys, ["select", *_IG_SOURCE, "--m", "4", "--method", method, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == payload
        assert payload.pop("time_s") >= 0.0
        del payload["options"]
        assert _same(payload, pinned), method

    code, payload = _run(
        capsys, ["metrics", *_IG_SOURCE, "--selection", str(tmp_path / "insense.json")])
    assert code == 0
    assert _same(payload, {
        "cols": 10, "condition_number": 3.62117999866527, "frame_potential": 3.597448923275415,
        "matrix": _IG_MATRIX, "mu_avg": 0.5073458652302714, "mu_max": 0.9927752919515729,
        "rows": 4, "subset": [9, 13, 17, 18],
    })


def test_select_options_are_the_flags_given(capsys, tmp_path):
    argv = ["select", *_IG_SOURCE, "--m", "4", "--out", str(tmp_path / "s.json")]
    _, payload = _run(capsys, argv)
    assert payload["options"] == {}
    _, payload = _run(capsys, [*argv, "--restarts", "2", "--init", "uniform-plus-jitter"])
    assert payload["options"] == {"restarts": 2, "init": "uniform-plus-jitter"}
    # a select payload's method and options make a benchmark selector entry
    cfg = experiment.resolve_config(_benchmark_config(
        "out", {"kind": "identity-gaussian", "d": 20, "n": 10}))
    cfg["selectors"] = [{"method": payload["method"], **payload["options"]}]
    experiment.resolve_config(cfg)

    # flags the method does not take were dropped without a word
    for method, flags, unknown in (("random", ["--restarts", "5"], "['restarts']"),
                                   ("fp-greedy", ["--max-iters", "3", "--init", "uniform"],
                                    "['init', 'max_iters']")):
        capsys.readouterr()
        assert main([*argv, "--method", method, *flags]) == 1
        assert capsys.readouterr().err == f"error: unknown options for {method}: {unknown}\n"


def test_selected_subset_does_not_depend_on_blas_threads(tmp_path):
    # final_weights may differ in the last bits between thread counts
    # (BLAS reduction order); the chosen rows must not
    subsets = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"selection_{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "insense.cli", "select", "--ensemble", "uniform-gaussian",
             "--d", "400", "--n", "300", "--m", "12", "--max-iters", "200", "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
        subsets.append(json.loads(out.read_text())["indices"])
    assert subsets[0] == subsets[1]


def test_recover_square_system_is_perfect(capsys):
    code, payload = _run(
        capsys,
        ["recover", "--ensemble", "gaussian", "--d", "6", "--n", "6", "--k", "1"],
    )
    assert code == 0
    assert payload["accuracy_percent"] == 100.0
    assert payload["solver_failures"] == 0


def test_metrics_on_matrix_file_with_subset(capsys, tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(path, np.eye(4))
    code, payload = _run(
        capsys, ["metrics", "--matrix", str(path), "--subset", "2,0"]
    )
    assert code == 0
    assert payload["subset"] == [0, 2]
    assert payload["mu_avg"] is None  # two identity rows leave zero columns


def test_usage_errors_exit_2():
    _usage_error(["select", "--ensemble", "gaussian", "--d", "5", "--n", "4", "--m", "0"])
    _usage_error(["select", "--ensemble", "gaussian", "--m", "2"])  # no --d/--n
    _usage_error(["select", "--ensemble", "identity-gaussian", "--d", "10", "--n", "6",
                  "--m", "2"])  # bad block shape
    _usage_error(["metrics"])  # no source at all
    _usage_error(["metrics", "--ensemble", "gaussian", "--d", "4", "--n", "3",
                  "--subset", "1,1"])  # duplicate indices


def test_runtime_errors_exit_1(capsys, tmp_path):
    code, _ = _run(capsys, ["metrics", "--matrix", str(tmp_path / "missing.csv")])
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(
        capsys,
        ["recover", "--ensemble", "gaussian", "--d", "5", "--n", "4",
         "--selection", str(bad), "--k", "1"],
    )
    assert code == 1

    code, _ = _run(
        capsys,
        ["metrics", "--ensemble", "gaussian", "--d", "5", "--n", "4", "--subset", "0,9"],
    )
    assert code == 1

    code, _ = _run(
        capsys,
        ["select", "--ensemble", "gaussian", "--d", "40", "--n", "5", "--m", "20",
         "--method", "exhaustive-mu-avg"],
    )
    assert code == 1


@pytest.mark.parametrize(
    "content",
    ["[1, 2, 3]", "3", "null", '{"indices": [0, 2.7]}', '{"indices": [0, true]}',
     '{"indices": ["1", 2]}'],
    ids=["list-root", "number-root", "null-root", "fraction", "bool", "string"],
)
def test_selection_file_must_hold_integer_indices(capsys, tmp_path, content):
    selection = tmp_path / "selection.json"
    selection.write_text(content)
    source = ["--ensemble", "gaussian", "--d", "5", "--n", "4", "--selection", str(selection)]
    for argv in (["metrics", *source], ["recover", *source, "--k", "1"]):
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def _benchmark_config(output_dir, matrix=None):
    return {
        "matrix": matrix or {"kind": "gaussian", "d": 12, "n": 8},
        "seed": 5,
        "trials": 2,
        "budgets": [4, 6],
        "sparsities": [1],
        "selectors": [
            {"method": "insense", "name": "ins", "max_iters": 60},
            {"method": "random"},
            {"method": "fp-greedy"},
        ],
        "sample_cap": 28,
        "output_dir": output_dir,
    }


# results.csv of _benchmark_config("..."), every column but time_s; recorded
# before the engine moved out of the CLI into insense.experiment (trial,
# selector, m, subset, bp_acc_k1) and before the experiment layer lost its
# restated defaults and field lists (the rest)
_PINNED_HEADER = ["trial", "selector", "m", "mu_avg", "mu_max", "frame_potential",
                  "condition_number", "gaussian_ratio", "bp_acc_k1", "subset", "error"]
_PINNED_ROWS = [
    ("0", "ins", "4", 0.4262730036238113, 0.8667493657800536, 4.820500666543609,
     1.7770174399553735, 100.0, 100.0, "1;6;10;11", ""),
    ("0", "ins", "6", 0.332481741907111, 0.7184703234265613, 34.07766896620588,
     4.422534683964039, 100.0, 100.0, "0;1;6;7;10;11", ""),
    ("0", "random", "4", 0.523962314478297, 0.9640030981529503, 36.18575181923886,
     3.1486728280146665, 100.0, 100.0, "1;4;9;11", ""),
    ("0", "random", "6", 0.41037001461310285, 0.8700964425065014, 85.71323869758828,
     6.772738300025112, 100.0, 100.0, "0;4;8;9;10;11", ""),
    ("0", "fp-greedy", "4", 0.426961615339601, 0.8773073957698068, 2.482230413108738,
     1.7275545372254348, 100.0, 100.0, "4;6;10;11", ""),
    ("0", "fp-greedy", "6", 0.340252387191964, 0.799946462384171, 26.971811004743117,
     4.728932905008145, 100.0, 100.0, "0;1;4;6;10;11", ""),
    ("1", "ins", "4", 0.405092643704914, 0.7874842558056375, 22.11127328703543,
     2.1130566767927434, 100.0, 100.0, "0;1;2;3", ""),
    ("1", "ins", "6", 0.3534033500106534, 0.8254540140970039, 60.75175037031542,
     3.409767215114055, 100.0, 100.0, "0;3;4;7;9;10", ""),
    ("1", "random", "4", 0.4558579664844034, 0.859513809372003, 83.91936775084565,
     2.5687371891485027, 100.0, 100.0, "4;6;7;11", ""),
    ("1", "random", "6", 0.4395967832268617, 0.7339469015047676, 342.46344724673753,
     7.555735016087622, 100.0, 100.0, "2;5;6;7;8;11", ""),
    ("1", "fp-greedy", "4", 0.42004455444516436, 0.9706743966908119, 5.579294990120204,
     2.0303212177422014, 100.0, 100.0, "0;7;8;9", ""),
    ("1", "fp-greedy", "6", 0.3093550536051025, 0.8382537186405542, 31.96878583889699,
     3.490813799586147, 100.0, 100.0, "0;3;7;8;9;10", ""),
]


def _same(actual, pinned):
    """actual equals pinned, floats (or their CSV text) to a relative 1e-9:
    BLAS builds may differ in the last bits."""
    if isinstance(pinned, float):
        return actual is not None and math.isclose(float(actual), pinned, rel_tol=1e-9)
    if isinstance(pinned, (list, tuple)):
        return len(actual) == len(pinned) and all(map(_same, actual, pinned))
    if isinstance(pinned, dict):
        return actual.keys() == pinned.keys() and all(_same(actual[k], pinned[k]) for k in pinned)
    return type(actual) is type(pinned) and actual == pinned


def _read_results(path, drop_time=True):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    if drop_time:
        t = header.index("time_s")
        header = header[:t] + header[t + 1 :]
        body = [r[:t] + r[t + 1 :] for r in body]
    return header, body


def test_benchmark_outputs_and_reproducibility(capsys, tmp_path):
    for name in ("a", "b"):
        cfg_path = tmp_path / f"cfg_{name}.json"
        cfg_path.write_text(json.dumps(_benchmark_config(f"out_{name}")))
        code, payload = _run(capsys, ["benchmark", "--config", str(cfg_path)])
        assert code == 0
        assert payload["cells"] == 12

    header_a, rows_a = _read_results(tmp_path / "out_a" / "results.csv")
    header_b, rows_b = _read_results(tmp_path / "out_b" / "results.csv")
    assert header_a == header_b
    assert rows_a == rows_b  # identical runs modulo wall-clock
    assert len(rows_a) == 12
    assert all(row[header_a.index("error")] == "" for row in rows_a)
    assert header_a == _PINNED_HEADER
    assert _same(rows_a, _PINNED_ROWS)

    summary = json.loads((tmp_path / "out_a" / "summary.json").read_text())
    cells = summary["cells"]
    assert len(cells) == 6  # 3 selectors x 2 budgets
    for cell in cells:
        assert cell["trials"] == 2 and cell["failures"] == 0
        assert cell["mu_avg"]["count"] == 2
        assert cell["bp_accuracy"]["1"]["count"] == 2

    summary_b = json.loads((tmp_path / "out_b" / "summary.json").read_text())

    def strip_volatile(cells):
        return [{k: v for k, v in c.items() if k != "time_s"} for c in cells]

    assert strip_volatile(cells) == strip_volatile(summary_b["cells"])


def test_experiment_api_rows_match_cli_csv(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_benchmark_config("out")))
    code, _ = _run(capsys, ["benchmark", "--config", str(cfg_path)])
    assert code == 0
    header, cli_rows = _read_results(tmp_path / "out" / "results.csv")

    cfg = experiment.resolve_config(_benchmark_config("unused"), str(tmp_path))
    assert cfg["output_dir"] == str(tmp_path / "unused")
    assert experiment.resolve_config(cfg) == cfg  # a resolved config is a config
    rows = experiment.run_benchmark(cfg)
    assert not (tmp_path / "unused").exists()  # running writes nothing

    def cell(value):
        if value is None:
            return ""
        return ";".join(map(str, value)) if isinstance(value, list) else str(value)

    assert [[cell(row[c]) for c in header] for row in rows] == cli_rows


def test_failed_cells_land_in_the_error_column():
    # C(40, 20) exceeds the exhaustive limit; k = 8 is no sparsity on 8 columns
    cfg = experiment.resolve_config({
        "matrix": {"kind": "gaussian", "d": 40, "n": 8},
        "budgets": [4, 20],
        "sparsities": [1, 8],
        "selectors": [{"method": "exhaustive-mu-avg"}, {"method": "random"}],
        "sample_cap": 5,
    })
    rows = experiment.run_benchmark(cfg)
    assert [(r["selector"], r["m"]) for r in rows] == [
        ("exhaustive-mu-avg", 4), ("exhaustive-mu-avg", 20), ("random", 4), ("random", 20)
    ]
    failed = rows.pop(1)
    assert failed["error"].startswith("select: (40 choose 20)")
    assert failed["subset"] is None and failed["bp_acc_k1"] is None
    for row in rows:  # every other cell runs, up to the sweep that raises
        assert row["error"].startswith("recover k=8: ")
        assert len(row["subset"]) == row["m"] and row["mu_avg"] is not None
        assert row["bp_acc_k1"] is not None and row["bp_acc_k8"] is None


def test_embedded_config_reruns_to_the_same_rows(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_benchmark_config("out")))
    code, _ = _run(capsys, ["benchmark", "--config", str(cfg_path)])
    assert code == 0
    results = tmp_path / "out" / "results.csv"
    embedded = results.read_text().splitlines()[0][2:]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert json.loads(embedded) == summary["config"]
    header, rows = _read_results(results)
    results.unlink()

    # from another directory: the embedded output_dir is absolute
    again = tmp_path / "elsewhere"
    again.mkdir()
    (again / "cfg.json").write_text(embedded)
    code, payload = _run(capsys, ["benchmark", "--config", str(again / "cfg.json")])
    assert code == 0
    assert payload["csv"] == str(results)
    assert results.read_text().splitlines()[0][2:] == embedded
    assert _read_results(results) == (header, rows)


def test_formats_pick_the_files_written(tmp_path):
    for formats, written in ((["csv"], "results.csv"), (["json"], "summary.json")):
        raw = dict(_benchmark_config(formats[0]), budgets=[4], formats=formats)
        cfg = experiment.resolve_config(raw, str(tmp_path))
        paths = experiment.write_outputs(cfg, experiment.run_benchmark(cfg))
        assert sorted(os.listdir(tmp_path / formats[0])) == [written]
        path = str(tmp_path / formats[0] / written)
        assert paths == {"csv": None, "json": None, formats[0]: path}


def _fresh_process(argv, outdir):
    """stdout payload of argv run as `python -m insense.cli` in a new interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, INSENSE_OUTDIR=str(outdir))
    done = subprocess.run([sys.executable, "-m", "insense.cli", *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout)


def test_one_process_runs_select_then_benchmark(capsys, tmp_path, monkeypatch):
    # the parser is built once per process, here during the first call, and
    # INSENSE_OUTDIR is still read per call
    build_parser.cache_clear()
    config = _benchmark_config(None)
    del config["output_dir"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    select = ["select", "--ensemble", "identity-gaussian", "--d", "20", "--n", "10",
              "--m", "4", "--seed", "2"]
    bench = ["benchmark", "--config", str(cfg_path)]
    runs = [(select, tmp_path / "first"), (bench, tmp_path / "second")]
    payloads = []
    for argv, outdir in runs:
        monkeypatch.setenv("INSENSE_OUTDIR", str(outdir))
        code, payload = _run(capsys, argv)
        assert code == 0
        payloads.append(payload)
    assert build_parser.cache_info().misses == 1
    assert payloads[0]["indices"] == json.loads(
        (tmp_path / "first" / "selection.json").read_text())["indices"]
    assert payloads[1]["csv"] == str(tmp_path / "second" / "results.csv")
    assert not (tmp_path / "first" / "results.csv").exists()
    assert not (tmp_path / "second" / "selection.json").exists()
    rows = _read_results(tmp_path / "second" / "results.csv")
    # a new interpreter per run gives the same payloads and files
    fresh = [_fresh_process(argv, outdir) for argv, outdir in runs]
    for payload in (payloads[0], fresh[0]):
        del payload["time_s"]
    assert fresh == payloads
    assert _read_results(tmp_path / "second" / "results.csv") == rows


def test_benchmark_reads_matrix_file_relative_to_config(capsys, tmp_path):
    rng = np.random.default_rng(2)
    save_matrix(tmp_path / "phi.csv", rng.standard_normal((10, 6)))
    cfg_path = tmp_path / "cfg.json"
    cfg = _benchmark_config("out_file", matrix={"file": "phi.csv"})
    cfg["budgets"] = [4]
    cfg_path.write_text(json.dumps(cfg))
    code, payload = _run(capsys, ["benchmark", "--config", str(cfg_path)])
    assert code == 0
    assert payload["cells"] == 6
    header, rows = _read_results(tmp_path / "out_file" / "results.csv")
    # no ensemble layout, so the block-ratio column stays empty
    assert all(row[header.index("gaussian_ratio")] == "" for row in rows)


def test_resolve_config_checks_the_matrix_as_an_ensemble_spec(tmp_path):
    cfg = experiment.resolve_config(_benchmark_config(
        "out", {"kind": "bernoulli01", "d": 12, "n": 8, "signed": True}))
    assert cfg["matrix"] == {"kind": "bernoulli01", "d": 12, "n": 8, "gaussian_rows": 10,
                             "signed": True}
    for matrix, message in (
        ({"kind": "gaussian", "d": 12, "n": 8, "sed": 3}, "unknown matrix keys: ['sed']"),
        ({"file": "m.csv", "signed": False}, "unknown matrix keys: ['signed']"),
        ({"kind": "gaussian", "d": 12, "n": 8, "seed": 3}, "unknown matrix keys: ['seed']"),
        ({"kind": "identity-gaussian", "d": 12, "n": 8}, "d = 2n"),
        ({"kind": "uniform-gaussian", "d": 12, "n": 8, "gaussian_rows": 12}, "gaussian_rows < d"),
        ({"kind": "gaussian", "d": 0, "n": 8}, "d >= 1"),
        ({"kind": "gaussian", "d": 12}, "n"),
        ({"kind": "gaussian", "d": 12, "n": 8.0}, "n must be an integer"),
        ({"kind": "bernoulli01", "d": 12, "n": 8, "signed": 1}, "signed"),
    ):
        with pytest.raises(InsenseError, match=re.escape(message)):
            experiment.resolve_config(_benchmark_config("out", matrix), str(tmp_path))
    assert not (tmp_path / "out").exists()


def test_benchmark_config_errors_exit_1(capsys, tmp_path):
    variants = []
    base = _benchmark_config("out")
    broken = dict(base, typo=1)
    variants.append(broken)
    variants.append(dict(base, matrix={"kind": "gaussian", "file": "x.csv"}))
    variants.append(dict(base, selectors=[{"method": "warp"}]))
    variants.append(dict(base, selectors=[{"method": ["insense"]}]))
    variants.append(dict(base, selectors=[{"method": "random", "seed": 1}]))
    # former InsenseConfig fields: ls_c was never read, the others are constants now
    for name, value in (("ls_c", 1e-4), ("rel_tol", 1e-7), ("ls_shrink", 0.5),
                        ("ls_init_step", 1.0)):
        variants.append(dict(base, selectors=[{"method": "insense", name: value}]))
    # option values are checked before any cell runs
    variants.append(dict(base, selectors=[{"method": "insense", "max_iters": 0}]))
    variants.append(dict(base, selectors=[{"method": "insense", "max_iters": 2.5}]))
    variants.append(dict(base, selectors=[{"method": "insense", "restarts": True}]))
    variants.append(dict(base, selectors=[{"method": "insense", "init": "zeros"}]))
    # json writes and reads these as NaN and Infinity
    variants.append(dict(base, selectors=[{"method": "insense", "eps1": float("nan")}]))
    variants.append(dict(base, selectors=[{"method": "insense", "jitter_scale": float("inf")}]))
    variants.append(
        dict(base, selectors=[{"method": "exhaustive-mu-avg", "exhaustive_limit": "abc"}])
    )
    # true was read as a limit of 1
    variants.append(
        dict(base, selectors=[{"method": "exhaustive-mu-avg", "exhaustive_limit": True}])
    )
    variants.append(dict(base, selectors=[{"method": "random", "name": ["a"]}]))
    variants.append(
        dict(base, selectors=[{"method": "random", "name": "r"},
                              {"method": "fp-greedy", "name": "r"}])
    )
    variants.append(dict(base, budgets=[]))
    variants.append(dict(base, budgets=[4, 4]))
    variants.append(dict(base, budgets=[4.5]))  # was truncated to 4
    variants.append(dict(base, matrix={"kind": "bernoulli01", "d": 12, "n": 8,
                                       "signed": "false"}))  # was read as true
    # misspelled matrix keys were ignored, and the shape was checked only by
    # run_benchmark
    variants.append(dict(base, matrix={"kind": "gaussian", "d": 12, "n": 8,
                                       "gaussian_row": 4, "sed": 3}))
    variants.append(dict(base, matrix={"file": "m.csv", "d": 12}))
    variants.append(dict(base, matrix={"kind": "gaussian", "d": 0, "n": 8}))
    variants.append(dict(base, matrix={"kind": "gaussian", "n": 8}))
    variants.append(dict(base, matrix={"kind": "gaussian", "d": 12.5, "n": 8}))
    variants.append(dict(base, matrix={"kind": "identity-gaussian", "d": 12, "n": 8}))
    variants.append(dict(base, matrix={"kind": "uniform-gaussian", "d": 12, "n": 8,
                                       "gaussian_rows": 12}))
    variants.append(dict(base, matrix={"kind": "warp", "d": 12, "n": 8}))
    variants.append(dict(base, sparsities=[1, 1]))
    variants.append(dict(base, trials=[2]))
    variants.append(dict(base, sample_cap=0))
    variants.append(dict(base, sample_cap=True))  # was a sweep of one trial
    variants.append(dict(base, sample_cap=2.5))
    variants.append(dict(base, formats=5))
    variants.append(dict(base, output_dir=5))
    variants.append([base])  # the root is not an object
    variants.append(dict(base, budgets=4))
    variants.append(dict(base, matrix={"file": 5}))
    variants.append(dict(base, selectors=[]))
    variants.append(dict(base, selectors=[{"name": "r"}]))
    for i, cfg in enumerate(variants):
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["benchmark", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1, f"variant {i} should fail"
        assert err.startswith("error: "), f"variant {i}: {err!r}"
        assert not (tmp_path / "out").exists(), f"variant {i} ran cells"
