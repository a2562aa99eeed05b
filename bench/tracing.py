"""Spans and counts for the traced run, recorded from the benchmark's side.

The program is not edited.  Each traced function is replaced by a wrapper at
every place a caller looks it up: on its class for methods, and in the
globals of every module of the package that bound the same function object
at import (the CLI and sibling modules import names directly).

A span holds a name, a start, an end, its parent span and the query it
belongs to.  Self time (span minus the time of its child spans) and call
counts are accumulated as spans close; the span records themselves are kept
in memory for the first traced round only and written out when the run ends.
The wrappers can be unbound again, so that traced and untraced rounds can
alternate in one process.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (module, attribute path, span name).  A span name of None records counts
# at that boundary without opening a span.
TARGETS = [
    ("poly", "SparsePoly.compose", "poly.compose"),
    ("poly", "SparsePoly.__mul__", "poly.mul"),
    ("poly", "SparsePoly.__pow__", "poly.mul"),
    ("arcs", "pullback", "arcs.pullback"),
    ("arcs", "ideal_pair_membership", "arcs.membership"),
    ("arcs", "_ideal_arc_module", "arcs.module"),
    ("arcs", "refute_star_membership", None),
    ("linalg", "Echelon.add_row", "linalg.add_row"),
    ("linalg", "Echelon.contains", "linalg.contains"),
    ("linalg", "solve_sparse", "linalg.solve"),
    ("newton", "extreme_rays", "newton.extreme_rays"),
    ("newton", "rees_valuations", "newton.rees_valuations"),
    ("closure", "integral_closure", "closure.integral_closure"),
    ("closure", "i_greater", "closure.i_greater"),
    ("closure", "in_integral_closure", "closure.membership"),
    ("closure", "in_i_greater", "closure.membership"),
    ("closure", "_scan_box", None),
    ("ideals", "MonomialIdeal.colength", "ideals.colength"),
    ("ideals", "MonomialIdeal.power", "ideals.power"),
    ("rrs", "search_at", "rrs.search_at"),
    ("rrs", "construct_from_igt", "rrs.construct"),
    ("rrs", "verify_failure", "rrs.verify"),
    ("cover", "deep_roots", "cover.deep_roots"),
    ("reductions", "star_of_min_reduction", "reductions.star"),
    ("reductions", "dim_i_mod_igt", "reductions.dim_igt"),
    ("reductions", "multiplicity", "reductions.multiplicity"),
    ("parser", "parse", "parser.parse"),
    ("cli", "run", "cli.run"),
]


def _count_hook(name):
    """Extra counts taken at a boundary: fn(tracer, args, result)."""
    if name == "linalg.add_row":
        def hook(tr, args, result):
            tr.count("linalg.add_row.useful", 1 if result else 0)
        return hook
    if name == "linalg.solve":
        def hook(tr, args, result):
            equations = args[0]
            tr.count("linalg.solve.equations", len(equations))
            tr.count("linalg.solve.unknowns", len({k for row, _ in equations for k in row}))
        return hook
    if name == "arcs.membership":
        def hook(tr, args, result):
            tr.count("arcs.pairs", 1)
        return hook
    if name == "_scan_box":
        def hook(tr, args, result):
            ideal, slack = args[0], args[1]
            points = 1
            for k in ideal.axis_degrees():
                points *= int(k) + slack + 1
            tr.count("closure.box_points", points)
        return hook
    if name == "refute_star_membership":
        def hook(tr, args, result):
            tr.count("arcs.witnesses", 0 if result is None else 1)
        return hook
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = {}
        self.self_ns = {}
        self.counts = {}
        self.stack = []  # [name id, start ns, child ns, span id]
        self.query = -1
        self.keep = False
        self.next_span = 0
        self.spans = {k: array("q") for k in ("query", "span", "parent", "name", "start", "end")}
        self.missing = []
        self.bindings = []  # (owner, attribute, original, wrapper)

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid):
        sid = self.next_span
        self.next_span += 1
        self.stack.append([nid, perf_counter_ns(), 0, sid])

    def close(self):
        end = perf_counter_ns()
        nid, start, child, sid = self.stack.pop()
        dur = end - start
        self.calls[nid] = self.calls.get(nid, 0) + 1
        self.self_ns[nid] = self.self_ns.get(nid, 0) + dur - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if self.keep:
            rec = self.spans
            for key, value in (("query", self.query), ("span", sid), ("parent", parent),
                               ("name", nid), ("start", start), ("end", end)):
                rec[key].append(value)

    def wrap(self, name, original, hook):
        tracer = self
        nid = self.name_id(name) if name else None

        if name is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(tracer, args, result)
                return result
        elif name == "arcs.module":
            info = original.cache_info

            def wrapper(*args, **kwargs):
                before = info().misses
                tracer.open(nid)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                miss = info().misses - before
                tracer.count("arcs.module.cache_misses", miss)
                tracer.count("arcs.module.cache_hits", 1 - miss)
                return result
        else:
            def wrapper(*args, **kwargs):
                tracer.open(nid)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if hook is not None:
                    hook(tracer, args, result)
                return result
        wrapper.__wrapped__ = original
        return wrapper

    def install(self, package):
        """Wrap every target of the loaded package (e.g. 'subintegral')."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, path, span in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self.wrap(span, original, _count_hook(span or attr))
            if owner_name:
                self.bindings.append((owner, attr, original, wrapper))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self.bindings.append((m, key, original, wrapper))
        self.enable(True)

    def enable(self, on):
        """Bind the wrappers (on) or the program's own functions (off)."""
        for owner, attr, original, wrapper in self.bindings:
            setattr(owner, attr, wrapper if on else original)

    def query_span(self, qid):
        self.query = qid
        self.open(self.name_id("query"))

    def snapshot(self):
        """Counts so far: calls per span name plus the boundary counts."""
        out = {f"{self.names[i]}.calls": n for i, n in self.calls.items()}
        out.update(self.counts)
        return out

    def self_seconds(self):
        return {f"{self.names[i]}.self_s": ns / 1e9 for i, ns in self.self_ns.items()}

    def write(self, path):
        rec = self.spans
        with open(path, "w", encoding="utf-8") as out:
            out.write("query\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(rec["span"])):
                out.write(
                    f"{rec['query'][i]}\t{rec['span'][i]}\t{rec['parent'][i]}\t"
                    f"{self.names[rec['name'][i]]}\t{rec['start'][i]}\t{rec['end'][i]}\n"
                )
