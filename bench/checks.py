"""Output checks made apart from the program.

Nothing here imports the program.  Polynomials are dictionaries
{exponent tuple: Fraction}, parsed from the report strings with a parser of
the benchmark's own, and every fact a report states is recomputed here:

* 2-variable closures and I_> come from a lower-hull sweep of the generator
  exponents; pure-power ideals use closed forms (colength = prod a_i,
  multiplicity = n! * covolume = prod a_i, I_> = {sum e_i/a_i > 1}).
* Certificates are re-expanded with the benchmark's own polynomial product,
  and a_i in I^i is tested against explicit generator powers.
* Arc-pair witnesses are re-verified with a truncated pullback and a rank
  test over the rationals.

Each checker returns None when the report is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- polynomials ---------------------------------------------------------------


def parse_poly(text, names):
    """Parse the program's printed form: terms joined by ' + ' / ' - ',
    each an optional rational coefficient times name or name^k factors."""
    index = {n: i for i, n in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "0 - " + text[1:]
    chunks = text.replace(" - ", " + -").split(" + ")
    poly = {}
    for chunk in chunks:
        if chunk == "0":
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in chunk.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            exp[index[name]] += int(power) if power else 1
        key = tuple(exp)
        poly[key] = poly.get(key, 0) + coeff
        if poly[key] == 0:
            del poly[key]
    return poly


def parse_monomial(text, names):
    poly = parse_poly(text, names)
    if len(poly) != 1 or next(iter(poly.values())) != 1:
        raise ValueError(f"not a monic monomial: {text!r}")
    return next(iter(poly))


def pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def padd(a, b, factor=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + factor * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


# -- monomial ideals as exponent antichains -------------------------------------


def divides(g, e):
    return all(x <= y for x, y in zip(g, e))


def minimalize(exps):
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    kept = []
    for e in exps:
        if not any(divides(k, e) for k in kept):
            kept.append(e)
    return sorted(kept)


def in_ideal(gens, e):
    return any(divides(g, e) for g in gens)


def ideal_powers(gens, top):
    """Minimal generators of I^1 .. I^top, by repeated Minkowski sums."""
    powers = {1: minimalize(gens)}
    for i in range(2, top + 1):
        powers[i] = minimalize(
            tuple(x + y for x, y in zip(p, g)) for p in powers[i - 1] for g in gens
        )
    return powers


def pure_powers(gens):
    """Axis degrees (a_1, .., a_n) when the ideal contains a pure power of
    every variable, else None."""
    n = len(gens[0])
    axes = [None] * n
    for g in gens:
        support = [i for i, x in enumerate(g) if x]
        if len(support) == 1:
            i = support[0]
            axes[i] = g[i] if axes[i] is None else min(axes[i], g[i])
    return None if None in axes else axes


def is_pure_power_ideal(gens):
    return all(sum(1 for x in g if x) == 1 for g in gens)


def above_simplex(e, axes):
    """sum e_i / a_i > 1: the closed form of I_> for (x_1^a_1, .., x_n^a_n)."""
    return sum(Fraction(x, a) for x, a in zip(e, axes)) > 1


# -- the 2-variable lower hull ---------------------------------------------------


def bounded_facets_2d(gens):
    """Bounded edges of the Newton polygon as (w1, w2, value) with
    w1*i + w2*j >= value on the polygon."""
    pts = sorted(set(gens))
    chain = []
    for p in pts:
        # Keep only points that are not dominated in the staircase sense.
        if chain and p[1] >= chain[-1][1]:
            continue
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            # Pop chain[-1] unless it lies strictly below the segment
            # chain[-2] -> p (a convex, lower-left turn).
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    facets = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        w1, w2 = y1 - y2, x2 - x1
        g = math.gcd(w1, w2)
        w1, w2 = w1 // g, w2 // g
        facets.append((w1, w2, w1 * x1 + w2 * y1))
    return facets, chain


def _column_floor(facets, i, strict):
    """Least j with (i, j) on (strict: strictly above) every facet."""
    need = 0
    for w1, w2, value in facets:
        rest = value - w1 * i
        j = rest // w2 + 1 if strict else -((-rest) // w2)
        need = max(need, j)
    return need


def staircase_2d(gens, strict):
    """Minimal generators of the integral closure (strict=False) or of I_>
    (strict=True) of a finite-colength 2-variable monomial ideal."""
    facets, _ = bounded_facets_2d(gens)
    out, prev, i = [], None, 0
    while True:
        j = _column_floor(facets, i, strict)
        if prev is None or j < prev:
            out.append((i, j))
        if j == 0:
            return out
        prev, i = j, i + 1


def above_hull_2d(gens, e):
    """e strictly above every bounded facet: I_> of a 2-variable ideal."""
    facets, _ = bounded_facets_2d(gens)
    return all(w1 * e[0] + w2 * e[1] > value for w1, w2, value in facets)


def colength_2d(gens):
    axes = pure_powers(gens)
    total = 0
    for i in range(axes[0]):
        column = min(g[1] for g in gens if g[0] <= i)
        total += column
    return total


# -- the benchmark's own view of I_> -------------------------------------------------


def term_in_igt(gens, e):
    if is_pure_power_ideal(gens):
        return above_simplex(e, pure_powers(gens))
    if len(e) == 2:
        return above_hull_2d(gens, e)
    raise ValueError("no independent I_> test for this ideal")


# -- certificates ------------------------------------------------------------------


def certificate_failure(h, gens, cert, names):
    """Re-expand a certificate {q, coefficients} and test a_i in I^i."""
    q = cert["q"]
    coeffs = [parse_poly(c, names) for c in cert["coefficients"]]
    if len(coeffs) != 2 * q + 1:
        return f"certificate with q={q} has {len(coeffs)} coefficients"
    top = 2 * q + 1
    hp = [{(0,) * len(names): Fraction(1)}]
    for _ in range(top):
        hp.append(pmul(hp[-1], h))
    for n in range(q + 1, top + 1):
        total = dict(hp[n])
        for i in range(1, n + 1):
            if coeffs[i - 1]:
                total = padd(total, pmul(coeffs[i - 1], hp[n - i]), math.comb(n, i))
        if total:
            return f"window identity of degree {n} does not vanish"
    powers = ideal_powers(gens, top)
    for i, a in enumerate(coeffs, start=1):
        if any(not in_ideal(powers[i], e) for e in a):
            return f"coefficient a_{i} is not in I^{i}"
    return None


# -- arc-pair witnesses -------------------------------------------------------------


def _series_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, x in enumerate(a):
        if x:
            for j in range(order - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def _pullback(poly, arc, order):
    """poly(arc(t)) mod t^order as a coefficient list."""
    total = [Fraction(0)] * order
    powers = [{0: [Fraction(1)] + [Fraction(0)] * (order - 1)} for _ in arc]
    for exp, coeff in poly.items():
        term = [Fraction(coeff)] + [Fraction(0)] * (order - 1)
        for slot, k in enumerate(exp):
            if k:
                table = powers[slot]
                if k not in table:
                    best = max(table)
                    value = table[best]
                    for _ in range(k - best):
                        value = _series_mul(value, arc[slot], order)
                    table[k] = value
                term = _series_mul(term, table[k], order)
        total = [x + y for x, y in zip(total, term)]
    return total


def _arc_series(strings, order):
    comps = []
    for s in strings:
        p = parse_poly(s, ("t",))
        series = [Fraction(0)] * order
        for (d,), c in p.items():
            if d == 0:
                raise ValueError("arc component with a constant term")
            if d < order:
                series[d] = c
        comps.append(series)
    return comps


def _order_along(gens, arc_orders):
    """t-order of I along an arc: min over generators of sum g_i * ord(gamma_i)."""
    best = math.inf
    for g in gens:
        total = 0
        for k, o in zip(g, arc_orders):
            if k:
                total = math.inf if o is math.inf else total + k * o
        best = min(best, total)
    return best


def _rank(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = 1 / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def witness_refutes(h, gens, witness):
    """True when the arc pair shows (h, h) outside the pulled-back module
    pair of I: diagonal {(g, g)} plus t * slotwise {(g, 0), (0, g)}."""
    arcs = [witness["first"], witness["second"]]
    orders = []
    for arc in arcs:
        ords = []
        for s in arc:
            p = parse_poly(s, ("t",))
            ords.append(min(d for (d,) in p) if p else math.inf)
        orders.append(_order_along(gens, ords))
    e, f = orders
    if e is math.inf or f is math.inf:
        # A dead slot: h must vanish there, the live slot is an ideal test.
        top = max(sum(k for k in ex) for ex in h) * 8 + 2
        ok = True
        for arc, o in zip(arcs, orders):
            series = _pullback(h, _arc_series(arc, top), top)
            if o is math.inf:
                ok = ok and not any(series)
            else:
                lead = next((d for d, c in enumerate(series) if c), math.inf)
                ok = ok and lead >= o
        return not ok
    width = (e + 1, f + 1)
    series = [_arc_series(arc, w) for arc, w in zip(arcs, width)]
    rows = []
    for g in gens:
        mono = {tuple(g): Fraction(1)}
        pulled = [_pullback(mono, s, w) for s, w in zip(series, width)]
        for k in range(max(e, f) + 1):
            row = {}
            for slot, (p, w) in enumerate(zip(pulled, width)):
                for d in range(w - k):
                    if p[d]:
                        row[(slot, d + k)] = p[d]
            if row:
                rows.append(row)
    target = {}
    for slot, (s, w) in enumerate(zip(series, width)):
        for d, c in enumerate(_pullback(h, s, w)):
            if c:
                target[(slot, d)] = c
    return _rank(rows + [target]) > _rank(rows)
