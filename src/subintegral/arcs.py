"""Arc-pair relative-closure tests.

A local arc sends each ambient variable to a univariate polynomial in t
with zero constant term.  Pulling a pair of modules (M, N) of r-tuples back
along r arcs (one per slot) reduces relative-closure membership

    pullback(h) in span(pullback(M)) + t * span(pullback(N))

to exact linear algebra over truncated power series.

For the distinguished pair attached to an ideal I - the diagonal module
{(g, g)} inside the slotwise sum {(g, 0), (0, g)} - the t * N block is the
full product z^(e+1) x z^(f+1), where e and f are the pullback orders of I
along the two arcs.  Working in series mod t^(e+1) times series mod t^(f+1)
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
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, TruncationTooSmall, UnsupportedIdeal
from .ideals import MonomialIdeal
from .linalg import Echelon, Row
from .newton import rees_valuations
from .poly import Exponent, SparsePoly
from .reductions import PolyIdeal


@dataclass(frozen=True, slots=True)
class LocalArc:
    """One univariate polynomial per ambient variable, each with zero
    constant term (so the maximal ideal maps into (t))."""

    components: Tuple[SparsePoly, ...]
    # Read by every pullback and every arc-module lookup, so computed once:
    # each component as its (degree, coefficient) pairs, its t-order
    # (math.inf for a zero component), and the arc's hash.
    series: Tuple[Tuple[Tuple[int, Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    orders: Tuple[int | float, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in self.components:
            if c.nvars != 1:
                raise ValueError("arc components are univariate polynomials")
            if c.coefficient((0,)) != 0:
                raise ValueError("arc components need zero constant term")
        series = tuple(
            tuple((d, c) for (d,), c in comp.items()) for comp in self.components
        )
        orders = tuple(min((d for d, _ in s), default=math.inf) for s in series)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_hash", hash(self.components))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.components)

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

    def to_strings(self) -> List[str]:
        return [c.to_string(("t",)) for c in self.components]

    def __iter__(self):
        return iter(self.components)


@dataclass(frozen=True, slots=True)
class ArcPair:
    first: LocalArc
    second: LocalArc
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.first.nvars != self.second.nvars:
            raise DimensionMismatch("arcs live over different rings")
        object.__setattr__(self, "_hash", hash((self.first, self.second)))

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter((self.first, self.second))

    def to_json(self) -> dict:
        return {"first": self.first.to_strings(), "second": self.second.to_strings()}


@dataclass(frozen=True)
class SubmodulePair:
    """Inner and outer generating tuples of rank-r submodules M inside N."""

    rank: int
    inner: Tuple[Tuple[SparsePoly, ...], ...]
    outer: Tuple[Tuple[SparsePoly, ...], ...]

    def __post_init__(self):
        for tup in self.inner + self.outer:
            if len(tup) != self.rank:
                raise ValueError("generator tuple has the wrong rank")


def _truncated_product(
    a: dict, b: Iterable[Tuple[int, Fraction]], order: int | float
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
    it math.inf."""
    return sum(k * o for k, o in zip(exp, orders) if k)


def pullback(f: SparsePoly, arc: LocalArc, order: int | float = math.inf) -> SparsePoly:
    """f(arc(t)) mod t^order as a univariate polynomial; the exact pullback
    by default.  A monomial whose t-order reaches order is skipped without
    being expanded; the others are expanded from powers of the components
    truncated at order."""
    if f.nvars != arc.nvars:
        raise DimensionMismatch("polynomial and arc variable counts differ")
    comps, orders = arc.series, arc.orders
    powers: List[List[dict]] = [[{0: 1}] for _ in comps]
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
    return SparsePoly(1, {(d,): c for d, c in total.items()})


def pullback_order(f: SparsePoly, arc: LocalArc) -> int | float:
    """t-order of the pullback; math.inf when the pullback vanishes.  A
    monomial's order is read off the component orders; the terms of any
    other f may cancel, so its exact pullback is taken."""
    if f.is_monomial():
        (exp, _), = f.items()
        return _monomial_order(exp, arc.orders)
    composed = pullback(f, arc)
    return math.inf if composed.is_zero else composed.min_degree()


def _series_row(
    tup: Sequence[SparsePoly], orders: Sequence[int], k: int = 0
) -> Row:
    """Echelon row of t^k * tup: slot s holds its pulled-back series mod
    t^orders[s], keyed (s, degree)."""
    row: Row = {}
    for s, (p, order) in enumerate(zip(tup, orders)):
        for (d,), c in p.items():
            if d + k < order:
                row[(s, d + k)] = c
    return row


def delta_pair_of_ideal(I: MonomialIdeal | PolyIdeal) -> SubmodulePair:
    """The diagonal module {(g, g)} inside the slotwise sum {(g,0), (0,g)}."""
    if isinstance(I, MonomialIdeal):
        gens = I.generator_polys()
        nvars = I.nvars
    else:
        gens = list(I.gens)
        nvars = I.nvars
    zero = SparsePoly.zero(nvars)
    inner = tuple((g, g) for g in gens)
    outer = tuple((g, zero) for g in gens) + tuple((zero, g) for g in gens)
    return SubmodulePair(rank=2, inner=inner, outer=outer)


# -- the general truncated test ---------------------------------------------------


def relative_membership(
    h_tuple: Sequence[SparsePoly],
    pair: SubmodulePair,
    arcs: ArcPair | Sequence[LocalArc],
    trunc: int | None = None,
) -> bool:
    """Decide pulled-back membership in M + t*N over truncated series.

    Slot s of every tuple is pulled back along arc s.  With trunc=None a
    truncation strictly above every pullback degree is chosen.  An explicit
    trunc must exceed the pullback order of every outer generator tuple
    (guard checked).  A False verdict is sound at any truncation; for the
    ideal pair from delta_pair_of_ideal a True verdict at the default
    truncation is exact as well.
    """
    arc_list = list(arcs)
    if len(arc_list) != pair.rank or len(h_tuple) != pair.rank:
        raise DimensionMismatch("rank, arcs, and target tuple must all agree")

    def pull(tup: Sequence[SparsePoly]) -> Tuple[SparsePoly, ...]:
        return tuple(pullback(tup[s], arc_list[s]) for s in range(pair.rank))

    pulled_inner = [pull(t) for t in pair.inner]
    pulled_outer = [pull(t) for t in pair.outer]
    target = pull(h_tuple)

    if trunc is None:
        degree = 1
        for tup in pulled_inner + pulled_outer + [target]:
            for p in tup:
                degree = max(degree, p.total_degree() + 1)
        trunc = degree + 1
    else:
        for tup in pulled_outer:
            order = min(
                (p.min_degree() for p in tup if not p.is_zero), default=math.inf
            )
            if order is not math.inf and trunc <= order:
                raise TruncationTooSmall(
                    f"truncation {trunc} does not exceed outer generator order {order}"
                )

    orders = (trunc,) * pair.rank
    ech = Echelon()
    for tups, shifts in (
        (pulled_inner, range(trunc)),
        (pulled_outer, range(1, trunc + 1)),
    ):
        for tup in tups:
            for k in shifts:
                row = _series_row(tup, orders, k)
                if row:
                    ech.add_row(row)
    return ech.contains(_series_row(target, orders))


# -- exact fast path for the ideal pair -------------------------------------------


@lru_cache(maxsize=65536)
def _ideal_arc_module(
    I: MonomialIdeal, arcs: ArcPair
) -> Tuple[int | float, int | float, Optional[Fraction]]:
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


def ideal_pair_membership(h: SparsePoly, I: MonomialIdeal, arcs: ArcPair) -> bool:
    """Exact relative-closure membership of (h, h) for the pair of I along
    one arc pair.  Equivalent to relative_membership on the ideal pair, but
    decided in the minimal exact quotient, a line or the plane in Q^2 (see
    the module docstring), cached per (I, arc pair)."""
    e, f, slope = _ideal_arc_module(I, arcs)
    if math.inf in (e, f):
        # A dead slot leaves no room at all: the target must vanish there,
        # and the live slot reduces to the valuative ideal-membership test.
        return (
            pullback(h, arcs.first, e).is_zero and pullback(h, arcs.second, f).is_zero
        )
    # Each pullback keeps the degrees up to e (resp. f); one below is outside.
    v1 = pullback(h, arcs.first, e + 1)
    v2 = pullback(h, arcs.second, f + 1)
    if v1.min_degree() not in (-1, e) or v2.min_degree() not in (-1, f):
        return False
    return slope is None or v2.coefficient((f,)) == slope * v1.coefficient((e,))


# -- deterministic arc-pair sampling ----------------------------------------------


@dataclass(frozen=True)
class ArcSampler:
    seed: int = 0
    count: int = 200
    weight_bound: int = 3
    coeff_set: Tuple[int, ...] = (1, -1, 2, -2, 3)


def _t_arc(nvars: int) -> LocalArc:
    return LocalArc.monomial([1] * nvars, [1] * nvars)


def prefix_arc_pairs(nvars: int) -> List[ArcPair]:
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
                w1 = rng.randint(1, sampler.weight_bound)
                w2 = rng.randint(w1 + 1, sampler.weight_bound + 2)
                c1 = rng.choice(sampler.coeff_set)
                c2 = rng.choice(sampler.coeff_set)
                comps.append(
                    SparsePoly(1, {(w1,): Fraction(c1), (w2,): Fraction(c2)})
                )
            else:
                w = rng.randint(1, sampler.weight_bound)
                c = rng.choice(sampler.coeff_set)
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
    """The pairs of one arc_pair_stream, drawn on demand and kept.  Every
    iteration starts at pair 0 and the stream is drawn no further than its
    furthest reader went.  Pairs are drawn and read under the lock, so
    readers in several threads see the same pairs."""

    def __init__(self, stream: Iterable[ArcPair]):
        self._source = iter(stream)
        self._drawn: List[ArcPair] = []
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[ArcPair]:
        index = 0
        while True:
            with self._lock:
                if index == len(self._drawn):
                    pair = next(self._source, None)
                    if pair is None:
                        return
                    self._drawn.append(pair)
                pair = self._drawn[index]
            yield pair
            index += 1


@lru_cache(maxsize=8)
def _shared_stream(nvars: int, sampler: ArcSampler) -> _DrawnOnce:
    """One arc_pair_stream(nvars, sampler) shared by every query on it."""
    return _DrawnOnce(arc_pair_stream(nvars, sampler))


@dataclass(frozen=True)
class Refutation:
    """A failing arc pair: a certificate of non-membership in the weak
    subintegral closure."""

    pair: ArcPair
    index: int


def refute_star_membership(
    h: SparsePoly, I: MonomialIdeal, sampler: ArcSampler | None = None
) -> Optional[Refutation]:
    """Search the deterministic arc-pair stream for a membership failure of
    (h, h) against the pair of I.  Returns the first refuting pair, or None
    (inconclusive)."""
    if I.is_zero or not I.finite_colength:
        raise UnsupportedIdeal("refutation needs a finite-colength ideal")
    for index, arcs in enumerate(_shared_stream(I.nvars, sampler or ArcSampler())):
        if not ideal_pair_membership(h, I, arcs):
            return Refutation(pair=arcs, index=index)
    return None


def sigma1_check(h: SparsePoly, J: MonomialIdeal) -> bool:
    """First valuative condition for the ideal-pair relative closure:
    v(h) >= v(J) for every Rees valuation of J."""
    vals = rees_valuations(J)
    return all(v.value(h) >= v.value_on_ideal for v in vals)


@dataclass(frozen=True)
class ProbeOutcome:
    index: int
    refutation: Optional[Refutation]

    @property
    def passes(self) -> bool:
        return self.refutation is None


def basic_facts_check(
    pair: SubmodulePair,
    probes: Sequence[Sequence[SparsePoly]],
    arc_pairs: Sequence[ArcPair] | None = None,
) -> List[ProbeOutcome]:
    """Run each probe tuple through a battery of arc pairs and record the
    first refuting pair, if any."""
    if arc_pairs is None:
        nvars = next(
            (p.nvars for tup in pair.inner + pair.outer for p in tup),
            probes[0][0].nvars if probes else 1,
        )
        battery = list(_shared_stream(nvars, ArcSampler(seed=0, count=40)))
    else:
        battery = list(arc_pairs)
    outcomes: List[ProbeOutcome] = []
    for idx, probe in enumerate(probes):
        refutation = None
        for j, arcs in enumerate(battery):
            if not relative_membership(tuple(probe), pair, arcs, trunc=None):
                refutation = Refutation(pair=arcs, index=j)
                break
        outcomes.append(ProbeOutcome(index=idx, refutation=refutation))
    return outcomes
