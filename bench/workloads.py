"""Seeded query rounds for the three workloads, and the check of each query.

A workload is a round: a list of queries, each one command-language program
for the CLI.  A run repeats its round, so every run attempts whole rounds of
the same queries and the failed share is the same in every run.  The seed
picks the inputs; the program sees only the program text.

Each family below draws its inputs from a narrow band, so that queries of
one family cost about the same and the percentiles sit inside a family, not
between two.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import checks

NAMES = ("x", "y", "z")
COEFFS = (1, -1, 2, -2, 3, -3)

# The arc budget of every relclose and classify query.
ARC_BUDGET = 100
# Ordinary queries finish in well under a second; the limit only stops a hang.
DEFAULT_LIMIT_S = 20.0
# zz-check queries of the classify round take under 0.03 s; the named
# deep-root fault never finishes, so it is stopped at this limit.
ZZ_LIMIT_S = 0.25


@dataclass(frozen=True)
class Query:
    family: str
    program: str
    flags: tuple = ()
    limit_s: float = DEFAULT_LIMIT_S
    # Data the check needs, kept as plain tuples: (nvars, gens, h terms, extra).
    nvars: int = 2
    gens: tuple = ()
    h: tuple = ()
    extra: object = None

    def argv(self):
        return ["--json", *self.flags, "-c", self.program]


# -- rendering --------------------------------------------------------------------


def mono_text(e):
    factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(NAMES, e) if k]
    return "*".join(factors) or "1"


def poly_text(terms):
    out = ""
    for coeff, e in terms:
        body = mono_text(e)
        mag = abs(coeff)
        frag = body if mag == 1 else f"{mag}*{body}"
        if not out:
            out = frag if coeff > 0 else "-" + frag
        else:
            out += (" + " if coeff > 0 else " - ") + frag
    return out


def ideal_text(gens):
    return "(" + ", ".join(mono_text(g) for g in gens) + ")"


def program(nvars, command, h_terms, gens):
    ring = f"ring QQ[{','.join(NAMES[:nvars])}]; "
    if h_terms:
        return ring + f"{command} ({poly_text(h_terms)}) in {ideal_text(gens)}"
    return ring + f"{command} {ideal_text(gens)}"


def make(family, nvars, command, gens, h_terms=(), flags=(), limit_s=DEFAULT_LIMIT_S, extra=None):
    gens = tuple(tuple(g) for g in gens)
    h_terms = tuple((c, tuple(e)) for c, e in h_terms)
    return Query(
        family=family,
        program=program(nvars, command, h_terms, gens),
        flags=tuple(flags),
        limit_s=limit_s,
        nvars=nvars,
        gens=gens,
        h=h_terms,
        extra=extra,
    )


def axes_gens(axes):
    n = len(axes)
    return [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(axes)]


def simplex_value(e, axes):
    return sum(Fraction(x, a) for x, a in zip(e, axes))


def _box(axes):
    out = [()]
    for a in axes:
        out = [p + (k,) for p in out for k in range(a + 1)]
    return out


def _members_above(axes, lo, hi, outside_ideal=False):
    """Monomials in the axis box with lo < sum e_i/a_i <= hi, optionally
    only those outside (x_1^a_1, .., x_n^a_n)."""
    return [
        e for e in _box(axes)
        if lo < simplex_value(e, axes) <= hi
        and not (outside_ideal and any(k >= a for k, a in zip(e, axes)))
    ]


def stratified(rng, pool, k):
    """One pick from each of k contiguous slices of pool: every round then
    covers the pool's cost range the same way, whatever the seed."""
    out = []
    for i in range(k):
        lo, hi = i * len(pool) // k, (i + 1) * len(pool) // k
        out.append(pool[rng.randrange(lo, max(hi, lo + 1))])
    return out


# -- refute -----------------------------------------------------------------------

# Axis degrees of the ideals of one round, fixed so that the round's cost
# does not depend on the seed; the seed places the mixed generator and picks
# the elements and coefficients.  The first REFUTE_SHARED_* ideals of each list
# are shared by REFUTE_PER_SHARED queries (the first cold, the rest warm); the
# others are queried once (cold).  Sorted by time a round is 8 refutations,
# 12 warm 3-variable, 24 warm 2-variable, 8 cold 3-variable and 10 cold
# 2-variable queries: the median falls inside the warm 2-variable queries and
# the 90th percentile inside the cold 2-variable ones.
REFUTE_AXES_2V = [(4, 5), (5, 4), (4, 6), (6, 4), (5, 5), (5, 6), (6, 5), (6, 6), (4, 6), (6, 4)]
REFUTE_AXES_3V = [(2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 3, 3)] * 2
REFUTE_SHARED_2V = 8
REFUTE_SHARED_3V = 4
REFUTE_PER_SHARED = 4
# Boundary monomials of (x^2k, y^2k) with odd exponents: refuted by the sixth
# prefix pair of the stream (the all-t arc against a sign flip).
REFUTE_BOUNDARY = 8
BOUNDARY_CASES = [(2 * k, e1) for k in (1, 2, 3, 4) for e1 in range(1, 2 * k, 2)]


def _refute_ideal(rng, axes, seen):
    """Pure powers plus, where one exists, a mixed generator strictly below
    the simplex sum e_i/a_i = 1 (so it is a vertex), unlike every ideal in
    `seen`."""
    candidates = [
        e for e in _box([a - 1 for a in axes])
        if sum(1 for k in e if k) >= 2 and simplex_value(e, axes) < 1
    ]
    rng.shuffle(candidates)
    gens = axes_gens(axes)
    for mixed in candidates:
        gens = axes_gens(axes)
        gens.insert(1, mixed)
        if tuple(gens) not in seen:
            break
    seen.add(tuple(gens))
    return gens


def _member_terms(rng, axes):
    """Two terms in (pure-power part of I)_>, hence in I* whatever else I has.
    Both come from the middle half of the pool ordered by degree, one below
    and one above its median, so that every element costs about the same to
    pull back."""
    pool = sorted(_members_above(axes, 1, len(axes)), key=lambda e: (sum(e), e))
    middle = pool[len(pool) // 4: 3 * len(pool) // 4]
    return [(rng.choice(COEFFS), e) for e in stratified(rng, middle, 2)]


def refute_round(seed):
    rng = random.Random(f"refute:{seed}")
    flags = ("--budget", str(ARC_BUDGET))
    queries, seen = [], set()
    for axes_list, n_shared in ((REFUTE_AXES_2V, REFUTE_SHARED_2V),
                                (REFUTE_AXES_3V, REFUTE_SHARED_3V)):
        for i, axes in enumerate(axes_list):
            gens = _refute_ideal(rng, axes, seen)
            shared = i < n_shared
            family = "relclose/shared" if shared else "relclose/fresh"
            for _ in range(REFUTE_PER_SHARED if shared else 1):
                h = _member_terms(rng, axes)
                queries.append(make(family, len(axes), "relclose", gens, h, flags))
    for a, e1 in stratified(rng, BOUNDARY_CASES, REFUTE_BOUNDARY):
        h = [(rng.choice(COEFFS), (e1, a - e1))]
        queries.append(make("relclose/boundary", 2, "relclose", axes_gens([a, a]), h, flags))
    rng.shuffle(queries)
    return queries


# -- staircase --------------------------------------------------------------------

# (family, count, axis-degree band, mixed generators).  The bands are set so
# that a query of every family costs about the same.  dim-igt walks every
# lattice point of the facet sum e_i/a_i = 1: with pairwise coprime degrees
# there are few, with equal degrees d there are ~d^2/2, so the round holds a
# fixed number of each and a seed cannot move the mix.
STAIRCASE_MIX = [
    ("iclose", 9, (95, 105), 2),
    ("igt", 9, (95, 105), 2),
    ("colength", 9, (140, 160), 3),
    ("dim-igt/coprime", 4, (600, 660), 2),
    ("dim-igt/equal", 2, (160, 180), 2),
    ("multiplicity", 6, (28, 32), 14),
]


def _staircase_2d(rng, axes, mixed_count):
    """(x^a, mixed.., y^b) with the mixed generators spread evenly along the
    x axis, on the line i/a + j/b = 4/5 up to rounding, so that every ideal
    of a command has a staircase of the same shape."""
    a, b = axes
    gens = [(a, 0)]
    for k in range(1, mixed_count + 1):
        i = k * a // (mixed_count + 1) + rng.randint(-1, 1)
        gens.append((i, max(1, int((Fraction(4, 5) - Fraction(i, a)) * b))))
    return gens + [(0, b)]


def _above_facet(rng, axes, count):
    """Mixed generators strictly above the facet sum e_i/a_i = 1: they leave
    the Newton polyhedron, hence e(I) and dim-igt, as for the pure powers."""
    out = set()
    while len(out) < count:
        e = tuple(rng.randint(0, a) for a in axes)
        if sum(1 for k in e if k) >= 2 and 1 < simplex_value(e, axes) < Fraction(8, 5):
            out.add(e)
    return sorted(out)


def staircase_round(seed):
    rng = random.Random(f"staircase:{seed}")
    queries = []
    for family, count, (lo, hi), mixed in STAIRCASE_MIX:
        cmd = family.split("/")[0]
        nvars = 2 if cmd in ("iclose", "igt", "colength") else 3
        for k in range(count):
            # Query k draws its degrees from the k-th slice of the band.
            step = (hi - lo) / count
            while True:
                axes = [rng.randint(int(lo + k * step), int(lo + (k + 1) * step))
                        for _ in range(nvars)]
                if family == "dim-igt/equal":
                    axes = [axes[0]] * nvars
                if family != "dim-igt/coprime" or all(
                    math.gcd(a, b) == 1 for i, a in enumerate(axes) for b in axes[i + 1:]
                ):
                    break
            if nvars == 2:
                gens = _staircase_2d(rng, axes, mixed)
            else:
                gens = axes_gens(axes) + _above_facet(rng, axes, mixed)
            queries.append(make(family, nvars, cmd, gens, extra=tuple(axes)))
    rng.shuffle(queries)
    return queries


# -- classify ---------------------------------------------------------------------

# Boundary monomials of ideals that are not minimal reductions of their
# closure; the bounded search certifies each at q = 1.  The mirror images
# (x <-> y) are added below.
CERTIFIED_CASES = [
    (((4, 0), (3, 1), (0, 4)), (2, 2)),
    (((4, 0), (2, 2), (1, 3), (0, 4)), (3, 1)),
    (((4, 0), (3, 1), (2, 3), (0, 4)), (2, 2)),
]
CERTIFIED_CASES += [(tuple(g[::-1] for g in gens)[::-1], e[::-1]) for gens, e in CERTIFIED_CASES]
# Elements of I_> with vbar >= 3/2, found by the bounded search at q = 1.
SEARCH_CASES = [((4, 4), (3, 3)), ((4, 5), (3, 4)), ((5, 4), (4, 3)), ((3, 6), (2, 5)),
                ((6, 3), (5, 2))]
# Generators of pure-power ideals: certified at q = 0 (a_1 = -h).
Q0_CASES = [((2, 2), (2, 0)), ((2, 2), (0, 2)), ((2, 3), (2, 0)), ((2, 3), (0, 3)),
            ((3, 3), (3, 0)), ((3, 4), (0, 4)), ((2, 4), (2, 0)), ((4, 4), (4, 0))]
# zz-check inputs whose certificate has q = 1 and whose deep-root search at
# the CLI's sample points is small (elements of I of low degree).
ZZ_CASES = [
    ((2, 2), (1, 2)), ((2, 2), (2, 1)), ((2, 4), (2, 2)), ((2, 4), (2, 3)),
    ((2, 3), (2, 2)), ((2, 3), (3, 1)), ((2, 3), (1, 3)), ((2, 2), (1, 3)),
    ((2, 2), (3, 1)), ((3, 3), (2, 3)), ((3, 3), (3, 2)), ((3, 4), (3, 2)),
]


def _igt_pool():
    """(axes, monomial) with the monomial outside I and in I_>, for pure-power
    ideals, ordered by vbar (and so by the certificate's q, which drives the
    cost).  The band keeps q <= 4 in 2 variables and q <= 2 in 3 variables,
    where construction and verification cost about the same."""
    pool = []
    for axes in [(a, b) for a in range(3, 7) for b in range(3, 7)]:
        pool += [(axes, e) for e in _members_above(axes, Fraction(4, 3) - Fraction(1, 100),
                                                   Fraction(5, 3), outside_ideal=True)]
    for axes in [(a, b, c) for a in (2, 3) for b in (2, 3) for c in (2, 3)]:
        pool += [(axes, e) for e in _members_above(axes, Fraction(3, 2) - Fraction(1, 100),
                                                   3, outside_ideal=True)]
    return sorted(pool, key=lambda p: (simplex_value(p[1], p[0]), p))


IGT_POOL = _igt_pool()

# Four cost bands, from cheap to dear: q = 0 certificates; constructed
# certificates and q = 1 surfaces; searched q = 1 certificates; searches
# that go on to q = 4 or to a larger degree.  Their counts put the median
# inside the second band and the 90th percentile inside the last.
CLASSIFY_MIX = [
    ("rrs-search/q0", 8),
    ("zz-check/q0", 8),
    ("classify/igt", 16),
    ("rrs-verify", 8),
    ("zz-check", 8),
    ("classify/certified", 8),
    ("classify/refuted", 4),
    ("rrs-search", 8),
]
# Named faults, the same in every round whatever the seed.  Both fail.
CLASSIFY_FAULTS = [
    # classify answers Unknown although I is generated by pure powers, so
    # I* = I + I_> decides NotInStar exactly.
    make("fault/unknown", 2, "classify", axes_gens([3, 3]), [(1, (2, 1))],
         ("--budget", str(ARC_BUDGET))),
    # The rational-root search of the deep-root check never finishes.
    make("fault/zz-hang", 2, "zz-check", axes_gens([2, 3]), [(1, (1, 2))],
         limit_s=ZZ_LIMIT_S),
]


def classify_round(seed):
    rng = random.Random(f"classify:{seed}")
    budget = ("--budget", str(ARC_BUDGET))
    queries = []
    for family, count in CLASSIFY_MIX:
        if family in ("classify/igt", "rrs-verify"):
            command = "classify" if family == "classify/igt" else "rrs verify"
            for axes, e in stratified(rng, IGT_POOL, count):
                h = [(rng.choice(COEFFS), e)]
                queries.append(make(family, len(axes), command, axes_gens(axes), h,
                                    budget if command == "classify" else ()))
        elif family == "classify/certified":
            for gens, e in stratified(rng, CERTIFIED_CASES, count):
                queries.append(make(family, 2, "classify", gens, [(rng.choice(COEFFS), e)], budget))
        elif family == "classify/refuted":
            for _ in range(count):
                h = [(rng.choice(COEFFS), (1, 1))]
                queries.append(make(family, 2, "classify", axes_gens([2, 2]), h, budget))
        elif family.startswith("rrs-search"):
            cases = Q0_CASES if family == "rrs-search/q0" else SEARCH_CASES
            for axes, e in stratified(rng, cases, count):
                h = [(rng.choice(COEFFS), e)]
                queries.append(make(family, 2, "rrs search", axes_gens(axes), h))
        else:
            cases = Q0_CASES if family == "zz-check/q0" else ZZ_CASES
            for axes, e in stratified(rng, cases, count):
                h = [(rng.choice((1, -1, 2, -2)), e)]
                queries.append(make(family, 2, "zz-check", axes_gens(axes), h,
                                    limit_s=ZZ_LIMIT_S))
    rng.shuffle(queries)
    return queries + CLASSIFY_FAULTS


ROUNDS = {"refute": refute_round, "staircase": staircase_round, "classify": classify_round}


# -- checks -------------------------------------------------------------------------


def _h_poly(q):
    return {tuple(e): Fraction(c) for c, e in q.h}


def check(q, exit_code, stdout):
    """None when the CLI's answer to q is right, else the reason it is not."""
    if exit_code is None:
        return "no report"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"unreadable report (exit {exit_code})"
    if "error" in report:
        return f"error {report['error'].get('code')}: {report['error'].get('message')}"
    if report.get("result") is None:
        return "report without a result"
    try:
        return _check_report(q, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _check_report(q, report):
    result = report["result"]
    names = NAMES[: q.nvars]
    gens = [tuple(g) for g in q.gens]
    family = q.family.split("/")[0]
    if family == "relclose":
        return _check_relclose(q, report, result, gens)
    if family in ("iclose", "igt"):
        got = sorted(checks.parse_monomial(s, names) for s in result["generators"])
        want = checks.staircase_2d(gens, strict=family == "igt")
        return None if got == want else f"{family} generators differ from the hull sweep"
    if family == "colength":
        want = checks.colength_2d(gens)
        return None if result["value"] == want else f"colength {result['value']} != {want}"
    if family == "dim-igt":
        return None if result["value"] == q.nvars else f"dim-igt {result['value']} != {q.nvars}"
    if family == "multiplicity":
        a, b, c = q.extra
        return None if result["value"] == a * b * c else f"multiplicity {result['value']} != {a * b * c}"
    if family in ("classify", "fault") and report["command"] == "classify":
        return _check_classify(q, report, result, gens, names)
    if family in ("rrs-search", "rrs-verify"):
        return _check_rrs(q, report, result, gens, names)
    if report["command"] == "zz-check":
        return _check_zz(q, report, result, gens, names)
    return f"no check for family {q.family}"


def _check_relclose(q, report, result, gens):
    h = _h_poly(q)
    witness = result.get("witness")
    if q.family == "relclose/boundary":
        if witness is None:
            return "boundary monomial not refuted"
        if not checks.witness_refutes(h, gens, witness):
            return "reported witness does not refute"
        return None
    if witness is not None:
        return "an element of I + I_> was refuted"
    if not report.get("inconclusive") or report.get("budget_used") != ARC_BUDGET:
        return "clean stream not reported as inconclusive over the full budget"
    return None


def _certificate(report, h, gens, names):
    certs = report.get("certificates") or []
    if len(certs) != 1:
        return None, "expected exactly one certificate"
    failure = checks.certificate_failure(h, gens, certs[0], names)
    return certs[0], failure


def _check_classify(q, report, result, gens, names):
    h = _h_poly(q)
    verdict = result.get("verdict")
    if checks.is_pure_power_ideal(gens):
        # J* = J + J_> for J generated by pure powers: membership is termwise.
        axes = checks.pure_powers(gens)
        in_star = all(
            checks.in_ideal(gens, e) or checks.above_simplex(e, axes) for e in h
        )
        in_igt = all(checks.above_simplex(e, axes) for e in h)
        want = "InStarViaIGreater" if in_igt else ("InStar" if in_star else "NotInStar")
        if want == "InStar":
            if verdict not in ("InStarViaIGreater", "CertifiedInStar"):
                return f"verdict {verdict}, element is in J + J_>"
        elif verdict != want:
            return f"verdict {verdict}, closed form of J + J_> says {want}"
    if verdict in ("InStarViaIGreater", "CertifiedInStar"):
        if verdict == "InStarViaIGreater" and not all(checks.term_in_igt(gens, e) for e in h):
            return "InStarViaIGreater for an element outside I_>"
        cert, failure = _certificate(report, h, gens, names)
        if failure:
            return failure
        if cert["q"] != result.get("q"):
            return "certificate q differs from the verdict's q"
        return None
    if verdict == "NotInStar":
        witnesses = report.get("witnesses") or []
        if len(witnesses) != 1 or not checks.witness_refutes(h, gens, witnesses[0]):
            return "NotInStar without a refuting witness"
        return None
    return f"verdict {verdict}"


def _check_rrs(q, report, result, gens, names):
    h = _h_poly(q)
    if q.family.startswith("rrs-search") and not result.get("found"):
        return "no certificate found for an element of I_>"
    if not result.get("verified"):
        return "certificate reported as not verified"
    if q.family == "rrs-verify" and not result.get("derivative_chain"):
        return "derivative chain reported as failing"
    cert, failure = _certificate(report, h, gens, names)
    if failure:
        return failure
    return None if cert["q"] == result["q"] else "certificate q differs from the result"


def _check_zz(q, report, result, gens, names):
    h = _h_poly(q)
    if "degree" not in result:
        return "no certificate surface"
    cert, failure = _certificate(report, h, gens, names)
    if failure:
        return failure
    if result["degree"] != 2 * cert["q"] + 1 or result["ell"] != cert["q"]:
        return "surface degree does not match the certificate"
    # A valid certificate puts h(x) on the deep locus, and a root of
    # multiplicity > N/2 is unique: both checks must pass.
    if not (result["graph_on_deep_locus"] and result["unique_deep_root"]):
        return "deep-locus checks failed for a valid certificate"
    return None
