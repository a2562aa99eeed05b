"""Every layer that the benchmark's traced run wraps still exists.

`bench/tracing.py` lists its targets as (module, attribute path, span name)
in `TARGETS`, and reports a missing one only on standard error, so a
deleted or renamed function would silently drop a per-layer metric.  The
list is read from the file's source, without importing the benchmark.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Wrapped by the tracer but gone since the closure box scan was replaced by
# the staircase walk; the benchmark still lists it.
KNOWN_STALE = {("closure", "_scan_box")}


def trace_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = trace_targets()
    assert targets
    missing = []
    for module, path, _ in targets:
        if (module, path) in KNOWN_STALE:
            continue
        obj = importlib.import_module(f"subintegral.{module}")
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_arc_module_keeps_its_cache_info():
    # The tracer's arcs.module wrapper reads cache_info at install to split
    # module lookups into hits and misses; without it a traced run fails.
    targets = {(module, path) for module, path, _ in trace_targets()}
    assert ("arcs", "_ideal_arc_module") in targets
    arcs = importlib.import_module("subintegral.arcs")
    info = arcs._ideal_arc_module.cache_info()
    assert info.hits >= 0 and info.misses >= 0
