"""Package surface: the exported names and the import graph."""

import os
import subprocess
import sys

import insense

SRC = os.path.dirname(os.path.dirname(os.path.abspath(insense.__file__)))


def test_every_exported_name_resolves():
    assert len(insense.__all__) == len(set(insense.__all__))
    missing = [name for name in insense.__all__ if not hasattr(insense, name)]
    assert missing == []


def test_experiment_imports_without_the_cli():
    code = "import sys, insense.experiment; sys.exit('insense.cli' in sys.modules)"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
