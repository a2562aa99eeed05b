"""Built-in worked examples with pinned expectations.

The two classical two-variable examples shipped in data/worked_examples.json
exercise most of the library end to end: Newton polyhedron, Rees valuations,
integral closure, i_greater, core via the colon formula, parameter
reductions, star closures and their intersections, and the reduction
classification.  The runner recomputes every value and diffs it against the
pinned expectation, reporting each mismatch by path.
"""

from __future__ import annotations

import json

from .closure import i_greater, integral_closure
from .ideals import MonomialIdeal
from .newton import newton_polyhedron, rees_valuations
from .parser import parse_ideal_text, parse_poly_text
from .poly import monomial_string
from .reductions import (
    PolyIdeal,
    classify_reductions,
    core_via_colon,
    dim_i_mod_igt,
    intersect_star_two,
    is_reduction_parameter,
    multiplicity,
    star_of_min_reduction,
)


def render_ideal(I: MonomialIdeal, names) -> list[str]:
    return [monomial_string(g, names) for g in I.sorted_gens()]


class ExamplesReport:
    """The recomputed values of each example, and one line per mismatch."""

    __slots__ = ("results", "diffs")

    def __init__(self, results: dict, diffs: list[str] | None = None):
        self.results = results
        self.diffs = [] if diffs is None else diffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.results, self.diffs) == (other.results, other.diffs)

    def __repr__(self) -> str:
        return f"ExamplesReport(results={self.results!r}, diffs={self.diffs!r})"

    @property
    def ok(self) -> bool:
        return not self.diffs


def _load_expectations(path: str | None) -> dict:
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # Only this reader needs the package data, so the slow import of
    # importlib.resources waits until a run of the examples reads it.
    from importlib import resources

    data = resources.files("subintegral").joinpath("data/worked_examples.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _compute_check(key: str, expect: object, I: MonomialIdeal, ring) -> object:
    names = tuple(ring)
    if key == "newton":
        np = newton_polyhedron(I)
        return {
            "vertices": [list(v) for v in np.vertices],
            "bounded_facets": [
                {"normal": list(f.normal), "value": f.value}
                for f in np.bounded_facets()
            ],
        }
    if key == "rees_valuations":
        return [
            {"weight": list(v.weight), "value": v.value_on_ideal}
            for v in rees_valuations(I)
        ]
    if key == "integral_closure":
        return render_ideal(integral_closure(I), names)
    if key == "i_greater":
        return render_ideal(i_greater(I), names)
    if key == "core":
        J = parse_ideal_text(expect["reduction"], ring)
        return {
            "reduction": expect["reduction"],
            "generators": render_ideal(core_via_colon(I, J), names),
        }
    if key == "dim_i_mod_igt":
        return dim_i_mod_igt(I)
    if key == "classify_reductions":
        return classify_reductions(I).value
    if key == "star_members":
        out = []
        for entry in expect:
            J = parse_ideal_text(entry["reduction"], ring)
            h = parse_poly_text(entry["element"], ring)
            star = star_of_min_reduction(J, I)
            out.append(
                {
                    "reduction": entry["reduction"],
                    "element": entry["element"],
                    "member": star.contains(h),
                }
            )
        return out
    if key == "colength_of":
        J = parse_ideal_text(expect["ideal"], ring)
        return {"ideal": expect["ideal"], "value": J.colength()}
    if key == "multiplicity":
        return multiplicity(I)
    if key == "parameter_reductions":
        out = []
        for entry in expect:
            J = parse_ideal_text(entry["ideal"], ring)
            if isinstance(J, MonomialIdeal):
                J = PolyIdeal.from_monomial(J)
            out.append(
                {"ideal": entry["ideal"], "is_reduction": is_reduction_parameter(J, I)}
            )
        return out
    if key == "intersect_star":
        j1 = parse_ideal_text(expect["j1"], ring)
        j2 = parse_ideal_text(expect["j2"], ring)
        if isinstance(j1, MonomialIdeal):
            j1 = PolyIdeal.from_monomial(j1)
        if isinstance(j2, MonomialIdeal):
            j2 = PolyIdeal.from_monomial(j2)
        quotient = intersect_star_two(j1, j2, I)
        return {
            "j1": expect["j1"],
            "j2": expect["j2"],
            "basis": [row.to_string(names) for row in quotient.basis_rows()],
        }
    raise KeyError(f"unknown expectation key {key!r}")


def _diff(path: str, expected: object, got: object, out: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected value {got[key]!r}")
            elif key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                _diff(f"{path}.{key}", expected[key], got[key], out)
        return
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            out.append(f"{path}: expected {len(expected)} entries, got {len(got)}")
            return
        for i, (e, g) in enumerate(zip(expected, got)):
            _diff(f"{path}[{i}]", e, g, out)
        return
    if expected != got:
        out.append(f"{path}: expected {expected!r}, got {got!r}")


def run_worked_examples(expect_path: str | None = None) -> ExamplesReport:
    """Recompute both built-in examples and diff against the pinned data."""
    data = _load_expectations(expect_path)
    results: dict = {}
    diffs: list[str] = []
    for example in data["examples"]:
        name = example["name"]
        ring = tuple(example["ring"])
        ideal = parse_ideal_text(example["ideal"], ring)
        if not isinstance(ideal, MonomialIdeal):
            diffs.append(f"{name}: the example ideal must be monomial")
            continue
        computed = {}
        for key, wanted in example["expect"].items():
            try:
                computed[key] = _compute_check(key, wanted, ideal, ring)
            except Exception as exc:  # surfaced as a diff, not a crash
                computed[key] = f"<error: {exc}>"
        results[name] = computed
        _diff(name, example["expect"], computed, diffs)
    return ExamplesReport(results=results, diffs=diffs)
