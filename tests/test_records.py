"""Value records: each is a standard-library namedtuple or a plain class with
__slots__.  Each keeps equality by value, the Name(field=value, ...) repr and
its validation; the immutable ones also hash by value and refuse field
assignment."""

from fractions import Fraction

import pytest

from subintegral.arcs import (
    ArcPair,
    ArcSampler,
    LocalArc,
    ProbeOutcome,
    Refutation,
    SubmodulePair,
)
from subintegral.cli import Options
from subintegral.cover import MonicHypersurface, from_rrs
from subintegral.errors import DimensionMismatch
from subintegral.examples import ExamplesReport
from subintegral.ideals import MonomialIdeal
from subintegral.newton import Facet, NewtonPolyhedron, ReesValuation, newton_polyhedron
from subintegral.parser import Token, parse
from subintegral.poly import SparsePoly
from subintegral.reductions import PolyIdeal, star_of_min_reduction
from subintegral.rrs import RRSSystem, construct_from_igt


def mono(*e):
    return SparsePoly.monomial(e)


def t_arc(*coeffs):
    return LocalArc(tuple(SparsePoly(1, {(1,): Fraction(c)}) for c in coeffs))


I = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])
J = MonomialIdeal(2, [(2, 0), (0, 3)])
SYSTEM = construct_from_igt(mono(2, 1), I)
PAIR = ArcPair(t_arc(1, 1), t_arc(1, -1))


# Name -> (field names, a thunk that builds the same record anew).
RECORDS = {
    "Facet": (("normal", "value", "bounded"), lambda: Facet((3, 2), 6, True)),
    "NewtonPolyhedron": (
        ("nvars", "vertices", "facets"),
        lambda: NewtonPolyhedron(*newton_polyhedron(I)),
    ),
    "ReesValuation": (("weight", "value_on_ideal"), lambda: ReesValuation((3, 2), 6)),
    "RRSSystem": (("q", "coeffs"), lambda: RRSSystem(SYSTEM.q, SYSTEM.coeffs)),
    "LocalArc": (("components",), lambda: t_arc(1, -1)),
    "ArcPair": (("first", "second"), lambda: ArcPair(t_arc(1, 1), t_arc(1, -1))),
    "SubmodulePair": (
        ("rank", "inner", "outer"),
        lambda: SubmodulePair(1, ((mono(1, 0),),), ((mono(0, 1),),)),
    ),
    "ArcSampler": (
        ("seed", "count", "weight_bound", "coeff_set"),
        lambda: ArcSampler(seed=4, count=60),
    ),
    "Refutation": (("pair", "index"), lambda: Refutation(PAIR, 5)),
    "ProbeOutcome": (("index", "refutation"), lambda: ProbeOutcome(0, Refutation(PAIR, 5))),
    "MonicHypersurface": (("space_vars", "poly", "degree"), lambda: from_rrs(SYSTEM)),
    "PolyIdeal": (("nvars", "gens"), lambda: PolyIdeal(2, (mono(2, 0) + mono(1, 1),))),
    "StarOfReduction": (
        ("reduction", "ideal", "igt", "order", "quotient"),
        lambda: star_of_min_reduction(J, I),
    ),
    "Token": (("kind", "text", "line", "column"), lambda: Token("name", "x", 1, 9)),
    "Options": (("seed", "budget", "trunc"), lambda: Options(seed=7, budget=3)),
    "Request": (
        ("command", "ring", "ideals", "polys", "subcommand"),
        lambda: parse("ring QQ[x,y]; rrs search (x*y) in (x^2, y^2)")[0],
    ),
    "ExamplesReport": (("results", "diffs"), lambda: ExamplesReport({"a": 1}, ["a: x"])),
}

# Hashable by value: all but Request (it holds lists), StarOfReduction (its
# TruncatedQuotient hashes by identity) and the mutable ExamplesReport.
HASHABLE = set(RECORDS) - {"StarOfReduction", "Request", "ExamplesReport"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_by_value(name):
    fields, make = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    if name == "StarOfReduction":  # its TruncatedQuotient compares by identity
        b = type(a)(*(getattr(a, f) for f in fields))
    assert a is not b and a == b and not a != b
    if name in HASHABLE:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    fields, make = RECORDS[name]
    record = make()
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({body})"


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"ExamplesReport"}))
def test_fields_cannot_be_assigned(name):
    fields, make = RECORDS[name]
    record = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_examples_report_stays_mutable():
    report = ExamplesReport({})
    assert report.ok and report.diffs == []
    report.diffs.append("x: differs")
    assert not report.ok
    with pytest.raises(TypeError):
        hash(report)


def test_local_arc_reads_its_cached_data():
    a = t_arc(1, -1)
    assert a.series == (((1, 1),), ((1, -1),)) and a.orders == (1, 1)
    assert a != t_arc(1, 1) and a != a.components


def test_validation_still_raises():
    with pytest.raises(ValueError):
        RRSSystem(1, SYSTEM.coeffs[:1])
    with pytest.raises(ValueError):
        SubmodulePair(2, ((mono(1, 0),),), ())
    with pytest.raises(ValueError):
        LocalArc((SparsePoly(1, {(0,): 1, (1,): 1}),))
    with pytest.raises(ValueError):
        LocalArc((mono(1, 0),))
    with pytest.raises(DimensionMismatch):
        ArcPair(t_arc(1, 1), t_arc(1))
    with pytest.raises(ValueError):
        PolyIdeal(2, ())
    with pytest.raises(DimensionMismatch):
        PolyIdeal(2, (SparsePoly.monomial((1,)),))
    with pytest.raises(ValueError):
        MonicHypersurface(1, SparsePoly.monomial((1, 2)), 2)
