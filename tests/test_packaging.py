"""The package keeps `dependencies = []`: importing it loads only the
standard library."""

import json
import os
import pathlib
import subprocess
import sys

import subintegral

# The probe runs with -S, so that no site hook loads a package before it
# starts, and puts the installed packages back on the path by hand, so that
# the package could still import one.
PROBE = """
import importlib, json, pkgutil, site, sys
sys.path += site.getsitepackages()
before = set(sys.modules)
import subintegral
for info in pkgutil.iter_modules(subintegral.__path__):
    importlib.import_module("subintegral." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library():
    src = str(pathlib.Path(subintegral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "subintegral" in loaded
    assert loaded - {"subintegral"} <= set(sys.stdlib_module_names)
