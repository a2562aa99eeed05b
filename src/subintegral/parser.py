"""Tokenizer and recursive-descent parser for the command language.

A program is a sequence of statements separated by ';' or newlines:

    ring QQ[x,y];
    ideal I = (x^2, x*y^2, y^3);
    poly h = x*y^2;
    igt I

Statements either declare the ring, bind an ideal or polynomial to a name,
or issue a command.  Commands accept named operands or inline literals.
Diagnostics carry line and column.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import ParseError
from .ideals import MonomialIdeal, PolyIdeal
from .poly import SparsePoly

# Every command and the shape of its operands: I is a monomial ideal, J any
# ideal, h a polynomial; a|b|c is a subcommand, [...] an optional trailing
# part, and any other word a keyword.  The handlers live in cli.run, which
# imports this module.
COMMANDS = {
    "newton": "I",
    "rees": "I",
    "iclose": "I",
    "igt": "I",
    "vbar": "h in I",
    "ord": "h in I",
    "colength": "I",
    "multiplicity": "I",
    "reduction": "J in I",
    "core": "I with I",
    "star-min-red": "J in I [contains h]",
    "dim-igt": "I",
    "classify-reductions": "I",
    "rrs": "certify|verify|search h in I",
    "zz-check": "h in I",
    "relclose": "h in I",
    "classify": "h in I",
    "examples": "",
}


class Token(namedtuple("Token", "kind text line column")):
    """One token: its kind ('name', 'int' or 'punct'), text and position."""

    __slots__ = ()


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("punct", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(Token("name", word, line, col))
            col += len(word)
            continue
        if ch in "()[]=,;^*+-/":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("punct", "<eof>", line, col))
    return tokens


class Request(namedtuple("Request", "command ring ideals polys subcommand")):
    """One parsed command with resolved operands: the ring's variable
    names, the ideal and polynomial operands as lists in program order, and
    the subcommand word or None."""

    __slots__ = ()


# The two kinds of bound value, by declaration keyword: the noun that
# messages use for them.
_NOUNS = {"ideal": "ideal", "poly": "polynomial"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring: tuple[str, ...] = ()
        # The bound names of each kind.
        self.env: dict[str, dict] = {kind: {} for kind in _NOUNS}

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> list[Request]:
        requests: list[Request] = []
        while self.peek().text != "<eof>":
            if self.peek().text == ";":
                self.next()
                continue
            req = self.statement()
            if req is not None:
                requests.append(req)
        return requests

    def statement(self) -> Request | None:
        tok = self.peek()
        if tok.text == "ring":
            self.ring_decl()
            return None
        if tok.text in _NOUNS:
            self.binding()
            return None
        cmd = self._command_name()
        if cmd is not None:
            return self.command(cmd)
        self.fail(f"expected a declaration or command, found {tok.text!r}")

    def _command_name(self) -> str | None:
        """Greedily assemble a hyphenated command name at statement start."""
        tok = self.peek()
        if tok.kind != "name":
            return None
        parts = [tok.text]
        length = 1
        pos = self.pos + 1
        while (
            self.tokens[pos].text == "-"
            and self.tokens[pos + 1].kind == "name"
        ):
            parts.append(self.tokens[pos + 1].text)
            pos += 2
            length += 2
        joined = "-".join(parts)
        if joined in COMMANDS:
            self.pos += length
            return joined
        if parts[0] in COMMANDS:
            self.pos += 1
            return parts[0]
        return None

    def ring_decl(self):
        self.expect("ring")
        tok = self.next()
        if tok.text != "QQ":
            raise ParseError("only the ring QQ[...] is supported", tok.line, tok.column)
        self.expect("[")
        names = []
        while True:
            name = self.next()
            if name.kind != "name":
                raise ParseError("expected a variable name", name.line, name.column)
            if name.text in names:
                raise ParseError(
                    f"duplicate variable {name.text!r}", name.line, name.column
                )
            names.append(name.text)
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("]")
        self.ring = tuple(names)
        for bound in self.env.values():
            bound.clear()

    def require_ring(self):
        if not self.ring:
            self.fail("no ring declared; start with ring QQ[...]")

    def binding(self):
        """`ideal NAME = (generators)` or `poly NAME = expression`."""
        kind = self.next().text
        self.require_ring()
        name = self.next()
        if name.kind != "name" or name.text in self.ring:
            raise ParseError(f"expected a fresh {_NOUNS[kind]} name", name.line, name.column)
        self.expect("=")
        self.env[kind][name.text] = self.ideal_literal() if kind == "ideal" else self.poly_expr()

    def operand(self, kind: str) -> MonomialIdeal | PolyIdeal | SparsePoly:
        """An ideal or polynomial operand of a command, whose ring is
        declared: a parenthesized literal or a name bound to that kind."""
        if self.peek().text == "(":
            if kind == "ideal":
                return self.ideal_literal()
            self.next()
            p = self.poly_expr()
            self.expect(")")
            return p
        tok = self.next()
        bound = self.env[kind]
        if tok.kind == "name" and tok.text in bound:
            return bound[tok.text]
        raise ParseError(f"unknown {_NOUNS[kind]} {tok.text!r}", tok.line, tok.column)

    def ideal_literal(self) -> MonomialIdeal | PolyIdeal:
        """A parenthesized generator list; monomial generators (up to a
        rational unit) make a MonomialIdeal, anything else a PolyIdeal."""
        self.expect("(")
        gens: list[dict] = []
        while True:
            gens.append(self.poly_terms())
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(")")
        nvars = len(self.ring)
        gens = [g for g in gens if g]
        if all(len(g) == 1 for g in gens):
            # Each generator is one term: keep its exponent, drop its unit.
            return MonomialIdeal(nvars, [exp for g in gens for exp in g])
        return PolyIdeal(nvars, tuple(SparsePoly._from_clean(nvars, g) for g in gens))

    # -- polynomial expressions ------------------------------------------------

    def poly_expr(self) -> SparsePoly:
        return SparsePoly._from_clean(len(self.ring), self.poly_terms())

    def poly_terms(self) -> dict[tuple[int, ...], Fraction]:
        """The terms {exponent: nonzero coefficient} of a sum of signed
        terms, each added to its like term as it is read."""
        self.require_ring()
        terms: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok.text in {"+", "-"}:
            self.next()
            sign = -1 if tok.text == "-" else 1
        while True:
            exp, coeff = self.poly_term()
            value = terms.get(exp, 0) + sign * coeff
            if value:
                terms[exp] = Fraction(value)
            else:
                terms.pop(exp, None)
            op = self.peek()
            if op.text not in {"+", "-"}:
                return terms
            self.next()
            sign = -1 if op.text == "-" else 1

    def poly_term(self) -> tuple[tuple[int, ...], int | Fraction]:
        """A product of factors as (exponent, coefficient): every factor is
        a rational constant or a variable power, so the term is c*x^e."""
        exp = [0] * len(self.ring)
        coeff = 1
        while True:
            tok = self.next()
            if tok.kind == "int":
                coeff *= int(tok.text)
                if self.peek().text == "/":
                    self.next()
                    den = self.next()
                    if den.kind != "int" or int(den.text) == 0:
                        raise ParseError("expected a nonzero denominator", den.line, den.column)
                    coeff = Fraction(coeff, int(den.text))
            elif tok.kind == "name":
                if tok.text not in self.ring:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
                power = 1
                if self.peek().text == "^":
                    self.next()
                    ptok = self.next()
                    if ptok.kind != "int":
                        raise ParseError("expected an integer exponent", ptok.line, ptok.column)
                    power = int(ptok.text)
                exp[self.ring.index(tok.text)] += power
            else:
                raise ParseError(
                    f"expected a polynomial factor, found {tok.text!r}", tok.line, tok.column
                )
            if self.peek().text != "*":
                return tuple(exp), coeff
            self.next()

    # -- commands -------------------------------------------------------------------

    def command(self, cmd: str) -> Request:
        """Read the operands of cmd, slot by slot, from its shape."""
        ideals: list[MonomialIdeal | PolyIdeal] = []
        polys: list[SparsePoly] = []
        subcommand = None
        shape = COMMANDS[cmd].split()
        if shape:
            self.require_ring()
        for word in shape:
            if word.startswith("["):
                word = word[1:]
                if self.peek().text != word:
                    break
            word = word.rstrip("]")
            if word in {"I", "J"}:
                start = self.peek()
                ideal = self.operand("ideal")
                if word == "I" and not isinstance(ideal, MonomialIdeal):
                    raise ParseError(f"{cmd} needs a monomial ideal", start.line, start.column)
                ideals.append(ideal)
            elif word == "h":
                polys.append(self.operand("poly"))
            elif "|" in word:
                *others, last = choices = word.split("|")
                sub = self.next()
                if sub.text not in choices:
                    raise ParseError(
                        f"expected {', '.join(others)}, or {last}", sub.line, sub.column
                    )
                subcommand = sub.text
            else:
                self.expect(word)
        return Request(cmd, self.ring, ideals, polys, subcommand)


def parse(text: str) -> list[Request]:
    """Parse a full program into a list of command requests."""
    return _Parser(text).parse_program()


def _parse_text(text: str, ring: Sequence[str], read):
    """Read one standalone literal over the given ring with `read`, a
    _Parser method, and require the end of the text after it."""
    p = _Parser(text.strip())
    p.ring = tuple(ring)
    result = read(p)
    p.expect("<eof>")
    return result


def parse_ideal_text(text: str, ring: Sequence[str]) -> MonomialIdeal | PolyIdeal:
    """Parse a standalone parenthesized ideal literal over the given ring."""
    return _parse_text(text, ring, _Parser.ideal_literal)


def parse_poly_text(text: str, ring: Sequence[str]) -> SparsePoly:
    """Parse a standalone polynomial expression over the given ring."""
    return _parse_text(text, ring, _Parser.poly_expr)
