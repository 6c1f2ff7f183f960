"""Importing the package loads nothing outside the standard library, and
importing the command line builds no argument parser.

The package declares no runtime dependencies, and the benchmark's setup
time includes this import.  A fresh interpreter without ``site`` (whose
``.pth`` hooks may load third-party modules of their own) imports
``kohnert`` from ``src`` and lists every module it then holds; with no
site-packages on its path, a third-party import fails outright.  The
parser of ``kohnert.cli.main`` is built on its first call, so a fresh
interpreter counts the parsers built by the import and by one call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LIST_MODULES = "import json, sys, kohnert; print(json.dumps(sorted(sys.modules)))"


def test_import_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", LIST_MODULES], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = {name.split(".")[0] for name in json.loads(run.stdout)}
    assert "kohnert" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"kohnert", "__main__"} == set()


COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import kohnert.cli
print(len(built))
kohnert.cli.main(["poly", "--key", "2"])
print(built[0])
"""


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", COUNT_PARSERS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["0", '{"n": 1, "terms": [{"exps": [2], "coef": 1}]}',
                                       "kohnert"]
