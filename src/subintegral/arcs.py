"""Arc-pair relative-closure tests for the pair of a monomial ideal.

The relative closure of a pair of modules M inside N of r-tuples is tested
along r local arcs, one per slot.  A local arc sends each ambient variable
to a univariate polynomial in t with zero constant term; pulling back along
the arcs reduces membership of h to

    pullback(h) in span(pullback(M)) + t * span(pullback(N))

over power series in t.  The paper brings in such pairs to state its
valuative criterion for the weak subintegral closure I*, through one pair
per ideal; that pair is the case implemented here.  The general test,
elimination over truncated series, is kept in tests/oracles.py as the
independent check of the path below.

The pair of an ideal I is its diagonal module {(g, g)} inside the slotwise
sum {(g, 0), (0, g)}, tested at (h, h).  Its t * N block is the full
product z^(e+1) x z^(f+1), where e and f are the pullback orders of I along
the two arcs.  Working in series mod t^(e+1) times series mod t^(f+1)
therefore decides membership exactly; a failing arc pair is a certificate
that h is not weakly subintegral over I.  The sampling refuter can only
refute, never certify: a clean run over the whole budget is inconclusive.

In that quotient the diagonal module is a subspace of Q^2, a line or the
whole plane.  Every generator g pulls back to order >= e along the first
arc and >= f along the second, so t * (g, g) vanishes in the quotient and
(g, g) itself leaves only its coefficients (a_g, b_g) at (t^e, t^f).  The
image is therefore the Q-span of the pairs (a_g, b_g).  It is never zero
when e and f are finite: the generator that attains e has a_g != 0.  So
(h, h) is in the module exactly when neither pullback of h has a term
below t^e (resp. t^f) and (h_e, h_f) lies in that span, which for a line
of slope s is the one product h_f = s * h_e.  No elimination is needed.

The refuter walks one table per (ideal, sampler) whose row k holds pair k
of the shared stream with the module (e, f, slope) of the ideal along it.
A query looks the table up once and decides every row with the exponents
of h read once; whether h vanishes above the ideal's order along an arc
depends only on the arc's component orders, so that test is made once per
distinct order tuple.  Rows are built as the first query reaches them and
kept for every later query on an equal ideal.
"""

from __future__ import annotations

import math
import random
import threading
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, UnsupportedIdeal
from .ideals import MonomialIdeal
from .poly import Exponent, SparsePoly


class LocalArc:
    """One univariate polynomial per ambient variable, each with zero
    constant term (so the maximal ideal maps into (t))."""

    # Read by every pullback and every arc-module lookup, so computed once:
    # each component as its (degree, coefficient) pairs, its t-order
    # (math.inf for a zero component), and the arc's hash.  The fields are
    # read through properties without setters, so an arc cannot change.
    __slots__ = ("_components", "_series", "_orders", "_hash")

    def __init__(self, components: tuple[SparsePoly, ...]):
        for c in components:
            if c.nvars != 1:
                raise ValueError("arc components are univariate polynomials")
            if c.coefficient((0,)) != 0:
                raise ValueError("arc components need zero constant term")
        series = tuple(tuple((d, c) for (d,), c in comp.items()) for comp in components)
        self._components = components
        self._series = series
        self._orders = tuple(min((d for d, _ in s), default=math.inf) for s in series)
        self._hash = hash(components)

    @property
    def components(self) -> tuple[SparsePoly, ...]:
        return self._components

    @property
    def series(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        return self._series

    @property
    def orders(self) -> tuple[int | float, ...]:
        return self._orders

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LocalArc(components={self._components!r})"

    @property
    def nvars(self) -> int:
        return len(self._components)

    @classmethod
    def zero(cls, nvars: int) -> "LocalArc":
        return cls(tuple(SparsePoly.zero(1) for _ in range(nvars)))

    @classmethod
    def monomial(cls, weights: Sequence[int], coeffs: Sequence) -> "LocalArc":
        """Arc with components coeff * t^weight (a zero coeff gives 0)."""
        comps = []
        for w, c in zip(weights, coeffs):
            if c == 0:
                comps.append(SparsePoly.zero(1))
            else:
                comps.append(SparsePoly(1, {(int(w),): Fraction(c)}))
        return cls(tuple(comps))

    def to_strings(self) -> list[str]:
        return [c.to_string(("t",)) for c in self._components]

    def __iter__(self):
        return iter(self._components)


class ArcPair(namedtuple("ArcPair", "first second")):
    """Two local arcs over the same ring, one per slot of a module pair."""

    __slots__ = ()

    def __new__(cls, first: LocalArc, second: LocalArc):
        if first.nvars != second.nvars:
            raise DimensionMismatch("arcs live over different rings")
        return super().__new__(cls, first, second)

    def to_json(self) -> dict:
        return {"first": self.first.to_strings(), "second": self.second.to_strings()}


def _truncated_product(
    a: dict, b: Iterable[tuple[int, Fraction]], order: int | float
) -> dict:
    """Product of a series {degree: coefficient} and a series given by its
    (degree, coefficient) pairs, with the terms of degree >= order dropped."""
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b:
            d = d1 + d2
            if d < order:
                out[d] = out.get(d, 0) + c1 * c2
    return out


def _monomial_order(exp: Sequence[int], orders: Sequence[int | float]) -> int | float:
    """t-order sum(k_i * ord(arc_i)) of x^exp along the arc; exact, since the
    leading coefficients multiply to a nonzero one.  A zero component makes
    it math.inf; a variable absent from x^exp adds nothing, even along a
    zero component (0 * math.inf would be nan)."""
    order = 0
    for k, o in zip(exp, orders):
        if k:
            order += k * o
    return order


def pullback(f: SparsePoly, arc: LocalArc, order: int | float = math.inf) -> SparsePoly:
    """f(arc(t)) mod t^order as a univariate polynomial; the exact pullback
    by default.  A monomial whose t-order reaches order is skipped without
    being expanded; the others are expanded from powers of the components
    truncated at order."""
    if f.nvars != arc.nvars:
        raise DimensionMismatch("polynomial and arc variable counts differ")
    comps, orders = arc.series, arc.orders
    powers: list[list[dict]] = [[{0: 1}] for _ in comps]
    total: dict = {}
    for exp, coeff in f.items():
        if _monomial_order(exp, orders) >= order:
            continue
        term = {0: coeff}
        for i, k in enumerate(exp):
            if k:
                table = powers[i]
                while len(table) <= k:
                    table.append(_truncated_product(table[-1], comps[i], order))
                term = _truncated_product(term, table[k].items(), order)
        for d, c in term.items():
            total[d] = total.get(d, 0) + c
    return SparsePoly._from_clean(1, {(d,): c for d, c in total.items() if c})


def pullback_order(f: SparsePoly, arc: LocalArc) -> int | float:
    """t-order of the pullback; math.inf when the pullback vanishes.  A
    monomial's order is read off the component orders; the terms of any
    other f may cancel, so its exact pullback is taken."""
    if f.nvars != arc.nvars:
        raise DimensionMismatch("polynomial and arc variable counts differ")
    if f.is_monomial():
        (exp, _), = f.items()
        return _monomial_order(exp, arc.orders)
    composed = pullback(f, arc)
    return math.inf if composed.is_zero else composed.min_degree()


# -- the ideal pair ---------------------------------------------------------------


@lru_cache(maxsize=65536)
def _ideal_arc_module(
    I: MonomialIdeal, arcs: ArcPair
) -> tuple[int | float, int | float, Fraction | None]:
    """Pullback orders (e, f) of I along the two arcs and, when both are
    finite, the diagonal module's image in the exact quotient
    (series mod t^(e+1)) x (series mod t^(f+1)): the slope s of the line
    {(x, s * x)} it spans in Q^2, or None when it is the whole plane.

    The image is the span of the leading-coefficient pairs (a_g, b_g) at
    (t^e, t^f), where a_g is 0 unless g attains e (and b_g likewise): a
    multiple t^k with k >= 1 of any generator's pair vanishes in the
    quotient.  The generator attaining e has a_g != 0, so the span is the
    line of slope b_g / a_g when every pair lies on it, else the plane."""
    first = [_monomial_order(g, arcs.first.orders) for g in I.gens]
    second = [_monomial_order(g, arcs.second.orders) for g in I.gens]
    e = min(first, default=math.inf)
    f = min(second, default=math.inf)
    if math.inf in (e, f):
        return e, f, None

    def lead(g: Exponent, arc: LocalArc, order: int) -> Fraction:
        return pullback(SparsePoly.monomial(g), arc, order + 1).coefficient((order,))

    pairs = [
        (
            lead(g, arcs.first, e) if a == e else 0,
            lead(g, arcs.second, f) if b == f else 0,
        )
        for g, a, b in zip(I.gens, first, second)
        if a == e or b == f
    ]
    a0, b0 = next(p for p in pairs if p[0])
    if any(a * b0 != b * a0 for a, b in pairs):
        return e, f, None
    return e, f, b0 / a0


def _vanishes_above(
    exps: Iterable[Exponent], orders: Sequence[int | float], bound: int | float
) -> bool:
    """Every monomial x^exp pulls back to 0 or to t-order > bound along an
    arc with these component orders."""
    for exp in exps:
        order = _monomial_order(exp, orders)
        if order <= bound and order != math.inf:
            return False
    return True


def _pair_holds(
    h: SparsePoly,
    exps: tuple[Exponent, ...],
    above: dict,
    arcs: ArcPair,
    e: int | float,
    f: int | float,
    slope: Fraction | None,
) -> bool:
    """Membership of (h, h) along one arc pair, given the module (e, f,
    slope) of the ideal I along it and the exponents of h.

    When every term of h pulls back to 0 or above t^e (resp. t^f), read off
    the arcs' component orders, h vanishes in the quotient and no pullback
    is taken.  The order of I along an arc, and so this test, depends on the
    arc only through its component orders, which few arcs of a stream
    differ in; `above` keeps the verdict per component-order tuple, for one
    h and one I.

    A dead slot (e or f is math.inf) needs no branch of its own: its module
    has slope None, its pullback at order math.inf + 1 is exact, and a
    nonzero one has a finite min_degree, never -1 or math.inf.  So the test
    below passes exactly when h pulls back to 0 along the dead arc and to
    order >= f (resp. e) along the live one."""
    first, second = arcs.first.orders, arcs.second.orders
    vanishes = above.get(first)
    if vanishes is None:
        vanishes = above[first] = _vanishes_above(exps, first, e)
    if vanishes:
        vanishes = above.get(second)
        if vanishes is None:
            vanishes = above[second] = _vanishes_above(exps, second, f)
        if vanishes:
            return True
    # Each pullback keeps the degrees up to e (resp. f); one below is outside.
    v1 = pullback(h, arcs.first, e + 1)
    v2 = pullback(h, arcs.second, f + 1)
    if v1.min_degree() not in (-1, e) or v2.min_degree() not in (-1, f):
        return False
    return slope is None or v2.coefficient((f,)) == slope * v1.coefficient((e,))


def ideal_pair_membership(h: SparsePoly, I: MonomialIdeal, arcs: ArcPair) -> bool:
    """Exact relative-closure membership of (h, h) for the pair of I along
    one arc pair, decided in the minimal exact quotient, a line or the plane
    in Q^2 (see the module docstring), from the module cached per (I, arc
    pair).  h and I must live over the arcs' ring; that is checked before
    the module is looked up, so no module of a mismatched pair is cached."""
    nvars = arcs.first.nvars
    if h.nvars != nvars or I.nvars != nvars:
        raise DimensionMismatch("polynomial, ideal and arc variable counts differ")
    e, f, slope = _ideal_arc_module(I, arcs)
    exps = tuple(exp for exp, _ in h.items())
    return _pair_holds(h, exps, {}, arcs, e, f, slope)


# -- deterministic arc-pair sampling ----------------------------------------------


# The sampled arcs: each component's weights are drawn from 1..3 (the second
# term of a two-term component may reach 5), its coefficients from these.
_WEIGHT_BOUND = 3
_COEFFS = (1, -1, 2, -2, 3)


class ArcSampler(namedtuple("ArcSampler", "seed count", defaults=(0, 200))):
    """Seed and length of a stream."""

    __slots__ = ()


def _t_arc(nvars: int) -> LocalArc:
    return LocalArc.monomial([1] * nvars, [1] * nvars)


def prefix_arc_pairs(nvars: int) -> list[ArcPair]:
    """Hand-picked pairs that open every sampling stream: degenerate pairs
    first, then the all-t arc against its single-sign flips."""
    ones = _t_arc(nvars)
    pairs = [
        ArcPair(ones, LocalArc.zero(nvars)),
        ArcPair(LocalArc.zero(nvars), ones),
    ]
    for i in range(nvars):
        weights = [1] * nvars
        coeffs = [0] * nvars
        coeffs[i] = 1
        axis = LocalArc.monomial(weights, coeffs)
        pairs.append(ArcPair(axis, axis))
    pairs.append(ArcPair(ones, ones))
    for i in range(nvars - 1, -1, -1):
        coeffs = [1] * nvars
        coeffs[i] = -1
        pairs.append(ArcPair(ones, LocalArc.monomial([1] * nvars, coeffs)))
    return pairs


def arc_pair_stream(nvars: int, sampler: ArcSampler) -> Iterable[ArcPair]:
    """Deterministic stream of `sampler.count` arc pairs: the fixed prefix,
    then monomial and two-term arcs driven by the seeded generator."""
    emitted = 0
    for pair in prefix_arc_pairs(nvars):
        if emitted >= sampler.count:
            return
        emitted += 1
        yield pair
    rng = random.Random(sampler.seed)

    def random_arc() -> LocalArc:
        comps = []
        for _ in range(nvars):
            shape = rng.randrange(6)
            if shape == 0 and nvars > 1:
                comps.append(SparsePoly.zero(1))
            elif shape == 5:
                w1 = rng.randint(1, _WEIGHT_BOUND)
                w2 = rng.randint(w1 + 1, _WEIGHT_BOUND + 2)
                c1 = rng.choice(_COEFFS)
                c2 = rng.choice(_COEFFS)
                comps.append(
                    SparsePoly(1, {(w1,): Fraction(c1), (w2,): Fraction(c2)})
                )
            else:
                w = rng.randint(1, _WEIGHT_BOUND)
                c = rng.choice(_COEFFS)
                comps.append(SparsePoly(1, {(w,): Fraction(c)}))
        return LocalArc(tuple(comps))

    while emitted < sampler.count:
        first = random_arc()
        style = rng.randrange(4)
        if style == 0:
            second = LocalArc.zero(nvars)
        elif style == 1:
            second = first
        else:
            second = random_arc()
        emitted += 1
        yield ArcPair(first, second)


class _DrawnOnce:
    """The items of one iterable, drawn on demand and kept.  Every iteration
    starts at item 0 and the iterable is drawn no further than its furthest
    reader went.  Items are drawn under the lock, so readers in several
    threads see the same items; items already drawn are read without it."""

    def __init__(self, items: Iterable):
        self._source = iter(items)
        self._drawn: list = []
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator:
        drawn = self._drawn
        index = 0
        while index < len(drawn) or self._draw(index):
            yield drawn[index]
            index += 1

    def _draw(self, index: int) -> bool:
        """Make item `index` exist; False when the iterable ends before it."""
        with self._lock:
            if index < len(self._drawn):
                return True
            item = next(self._source, None)
            if item is None:
                return False
            self._drawn.append(item)
            return True


@lru_cache(maxsize=8)
def _shared_stream(nvars: int, sampler: ArcSampler) -> _DrawnOnce:
    """One arc_pair_stream(nvars, sampler) shared by every query on it."""
    return _DrawnOnce(arc_pair_stream(nvars, sampler))


@lru_cache(maxsize=256)
def _module_table(I: MonomialIdeal, sampler: ArcSampler) -> _DrawnOnce:
    """The rows (arcs, e, f, slope) of I along the shared stream, one per
    pair, with the module from _ideal_arc_module; one table per (ideal,
    sampler), shared by every query on it."""
    return _DrawnOnce(
        (arcs, *_ideal_arc_module(I, arcs)) for arcs in _shared_stream(I.nvars, sampler)
    )


class Refutation(namedtuple("Refutation", "pair index")):
    """A failing arc pair, and its index in the stream: a certificate of
    non-membership in the weak subintegral closure."""

    __slots__ = ()


def refute_star_membership(
    h: SparsePoly, I: MonomialIdeal, sampler: ArcSampler | None = None
) -> Refutation | None:
    """Search the deterministic arc-pair stream for a membership failure of
    (h, h) against the pair of I.  Returns the first refuting pair, or None
    (inconclusive).  The modules of I come from its table, looked up once
    per query, and each pair is decided as in ideal_pair_membership."""
    if I.is_zero or not I.finite_colength:
        raise UnsupportedIdeal("refutation needs a finite-colength ideal")
    if h.nvars != I.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    exps = tuple(exp for exp, _ in h.items())
    above: dict = {}
    table = _module_table(I, sampler or ArcSampler())
    for index, (arcs, e, f, slope) in enumerate(table):
        if not _pair_holds(h, exps, above, arcs, e, f, slope):
            return Refutation(pair=arcs, index=index)
    return None
