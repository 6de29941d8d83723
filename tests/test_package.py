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


def test_cli_imports_without_scipy_optimize_or_sparse():
    code = (
        "import sys, insense.cli\n"
        "assert 'scipy.optimize' not in sys.modules and 'scipy.sparse' not in sys.modules\n"
        "loaded = [m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.sparse'))]\n"
        f"assert all(m.startswith({HIGHS!r}) for m in loaded), loaded"
    )
    done = _run(code)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("insense_first", [True, False])
def test_highs_binding_is_shared_with_scipy_optimize(insense_first):
    # the binding is registered as soon as insense is imported, and a later
    # scipy.optimize import (or an earlier one) holds the same module object
    imports = [
        f"import insense.recovery\nassert sys.modules[{HIGHS!r}] is insense.recovery._highs",
        "from scipy.optimize import linprog",
    ]
    code = "\n".join([
        "import sys, numpy as np",
        *(imports if insense_first else imports[::-1]),
        "from insense import solve_bp",
        f"assert sys.modules[{HIGHS!r}] is insense.recovery._highs",
        "a = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 1.0], [2.0, 0.0, 1.0, 1.0]])",
        "y = a @ np.array([0.0, 1.5, 0.0, -2.0])",
        "res = linprog(np.ones(8), A_eq=np.hstack([a, -a]), b_eq=y, bounds=(0, None))",
        "assert res.success, res.message",
        "np.testing.assert_allclose(solve_bp(a, y), res.x[:4] - res.x[4:], atol=1e-9)",
    ])
    done = _run(code)
    assert done.returncode == 0, done.stderr


def test_import_fails_loudly_without_the_highs_binding(tmp_path):
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text("__version__ = '1.14.0'\n")
    done = _run("import insense", str(tmp_path))
    assert done.returncode != 0
    assert "ImportError" in done.stderr and HIGHS in done.stderr and "scipy >= 1.15" in done.stderr
