"""The package keeps `dependencies = []`: importing it loads only the
standard library.  Layered modules import only the package modules below
them."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


# Standard-library modules that the CLI used to load at start-up and no
# longer needs: dataclasses (with inspect) built its records, typing served
# annotations, and importlib.resources is read only by the worked examples.
SLOW_AT_IMPORT = ["dataclasses", "inspect", "typing", "importlib.resources"]
STARTUP_PROBE = """
import json, sys
import subintegral.cli
print(json.dumps([name for name in sys.argv[1:] if name in sys.modules]))
"""


def test_cli_import_leaves_slow_modules_unloaded():
    src = str(pathlib.Path(subintegral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, *SLOW_AT_IMPORT], env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == []


# The package modules each module may import.  The arc layer, double
# description and the parser stand on the ideals and polynomials alone: no
# linear algebra and no reductions.
LAYERS = {
    "arcs": {"errors", "ideals", "poly"},
    "newton": {"errors", "ideals", "poly"},
    "parser": {"errors", "ideals", "poly"},
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layering(module):
    path = pathlib.Path(subintegral.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "subintegral":
                continue
            name = (node.module or "").removeprefix("subintegral").lstrip(".")
            if name:
                package.add(name.split(".")[0])
            else:
                package.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "subintegral":
                    package.add(parts[1] if len(parts) > 1 else "subintegral")
    assert package and package <= LAYERS[module]
