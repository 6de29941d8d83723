"""Package surface: the exported names and the import graph."""

import os
import subprocess
import sys

import pytest

import insense

SRC = os.path.dirname(os.path.dirname(os.path.abspath(insense.__file__)))
HIGHS = "scipy.optimize._highspy._core"


def test_every_exported_name_resolves():
    assert len(insense.__all__) == len(set(insense.__all__))
    missing = [name for name in insense.__all__ if not hasattr(insense, name)]
    assert missing == []


def _run(code, *first_on_path):
    path = os.pathsep.join(filter(None, [*first_on_path, SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


def test_experiment_imports_without_the_cli():
    code = "import sys, insense.experiment; sys.exit('insense.cli' in sys.modules)"
    done = _run(code)
    assert done.returncode == 0, done.stderr


# selection, metrics and a 200-trial uniform-gaussian 200x200 sweep that the
# dual screen decides in full (certified + refuted == 200: no LP trial)
_SCREENED_WORK = """
import sys, numpy as np
import insense.cli
from insense import BpConfig, EnsembleSpec, evaluate_recovery, generate, metric_report, run_insense
phi = generate(EnsembleSpec("uniform-gaussian", d=200, n=200, seed=0))
subset = run_insense(phi, 10).subset
metric_report(phi[subset])
report = evaluate_recovery(phi, subset, 2, BpConfig(sample_cap=200))
assert report.certified + report.refuted == report.total_trials == 200, report
"""

# one solve_bp against linprog on the same split LP
_MATCHES_LINPROG = """
from insense import solve_bp
from scipy.optimize import linprog
a = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 1.0], [2.0, 0.0, 1.0, 1.0]])
y = a @ np.array([0.0, 1.5, 0.0, -2.0])
res = linprog(np.ones(8), A_eq=np.hstack([a, -a]), b_eq=y, bounds=(0, None))
assert res.success, res.message
np.testing.assert_allclose(solve_bp(a, y), res.x[:4] - res.x[4:], atol=1e-9)
"""


def test_numpy_only_until_the_first_lp(tmp_path):
    # no scipy module is loaded by importing insense, by selection, metrics,
    # a sweep without LP trials or `insense select`; the first solve_bp
    # imports the HiGHS binding
    code = "\n".join([
        _SCREENED_WORK,
        f"argv = ['select', '--ensemble', 'uniform-gaussian', '--d', '200', '--n', '200',"
        f" '--m', '10', '--out', {str(tmp_path / 'payload.json')!r}]",
        "assert insense.cli.main(argv) == 0",
        "loaded = [m for m in sys.modules if m.startswith('scipy')]",
        "assert loaded == [], loaded",
        "insense.solve_bp(np.eye(2), np.ones(2))",
        f"assert {HIGHS!r} in sys.modules",
        _MATCHES_LINPROG,
    ])
    done = _run(code)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("insense_first", [True, False])
def test_highs_binding_is_shared_with_scipy_optimize(insense_first):
    # whichever comes first, the first LP or an import of scipy.optimize, the
    # LP model is built from the one module that scipy.optimize holds
    imports = [
        "import insense.recovery\ninsense.recovery.solve_bp(np.eye(2), np.ones(2))",
        "import scipy.optimize",
    ]
    code = "\n".join([
        "import sys, numpy as np",
        *(imports if insense_first else imports[::-1]),
        f"core = sys.modules[{HIGHS!r}]",
        "assert core is insense.recovery._highs_binding() is scipy.optimize._highspy._core",
        "assert type(insense.recovery._BasisPursuit(np.eye(2))._highs) is core._Highs",
        _MATCHES_LINPROG,
    ])
    done = _run(code)
    assert done.returncode == 0, done.stderr


def test_import_fails_loudly_without_the_highs_binding(tmp_path):
    # on a scipy without the binding (a stub 1.14), insense imports and sweeps
    # without LP trials run; the first LP raises an ImportError that names the
    # binding, and the CLI reports it as one error line with exit code 1
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text("__version__ = '1.14.0'\n")
    code = "\n".join([
        _SCREENED_WORK,
        "try:",
        "    insense.solve_bp(np.eye(2), np.ones(2))",
        "except ImportError as exc:",
        "    print(exc)",
        "else:",
        "    raise AssertionError('solve_bp ran without the HiGHS binding')",
    ])
    done = _run(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert HIGHS in done.stdout and "scipy >= 1.15" in done.stdout

    argv = ["recover", "--ensemble", "bernoulli01", "--signed", "--d", "10", "--n", "40",
            "--k", "2", "--sample-cap", "300", "--seed", "1"]
    done = _run(f"import sys, insense.cli\nsys.exit(insense.cli.main({argv!r}))", str(tmp_path))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert HIGHS in done.stderr and "scipy >= 1.15" in done.stderr
