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
from .ideals import MonomialIdeal
from .poly import SparsePoly
from .reductions import PolyIdeal

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
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring: tuple[str, ...] = ()
        self.ideal_env: dict[str, MonomialIdeal | PolyIdeal] = {}
        self.poly_env: dict[str, SparsePoly] = {}

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
        if tok.text == "ideal":
            self.ideal_decl()
            return None
        if tok.text == "poly":
            self.poly_decl()
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
        self.ideal_env.clear()
        self.poly_env.clear()

    def require_ring(self):
        if not self.ring:
            self.fail("no ring declared; start with ring QQ[...]")

    def ideal_decl(self):
        self.expect("ideal")
        self.require_ring()
        name = self.next()
        if name.kind != "name" or name.text in self.ring:
            raise ParseError("expected a fresh ideal name", name.line, name.column)
        self.expect("=")
        self.ideal_env[name.text] = self.ideal_literal()

    def poly_decl(self):
        self.expect("poly")
        self.require_ring()
        name = self.next()
        if name.kind != "name" or name.text in self.ring:
            raise ParseError("expected a fresh polynomial name", name.line, name.column)
        self.expect("=")
        self.poly_env[name.text] = self.poly_expr()

    def ideal_operand(self) -> MonomialIdeal | PolyIdeal:
        tok = self.peek()
        if tok.text == "(":
            self.require_ring()
            return self.ideal_literal()
        tok = self.next()
        if tok.kind == "name" and tok.text in self.ideal_env:
            return self.ideal_env[tok.text]
        raise ParseError(f"unknown ideal {tok.text!r}", tok.line, tok.column)

    def poly_operand(self) -> SparsePoly:
        tok = self.peek()
        if tok.text == "(":
            self.require_ring()
            self.expect("(")
            p = self.poly_expr()
            self.expect(")")
            return p
        tok = self.next()
        if tok.kind == "name" and tok.text in self.poly_env:
            return self.poly_env[tok.text]
        raise ParseError(f"unknown polynomial {tok.text!r}", tok.line, tok.column)

    def ideal_literal(self) -> MonomialIdeal | PolyIdeal:
        """A parenthesized generator list; monomial generators (up to a
        rational unit) make a MonomialIdeal, anything else a PolyIdeal."""
        self.expect("(")
        gens: list[SparsePoly] = []
        while True:
            gens.append(self.poly_expr())
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(")")
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return MonomialIdeal.zero(len(self.ring))
        if all(g.is_monomial() for g in gens):
            return MonomialIdeal(len(self.ring), [g.exponents()[0] for g in gens])
        return PolyIdeal(len(self.ring), tuple(gens))

    # -- polynomial expressions ------------------------------------------------

    def poly_expr(self) -> SparsePoly:
        self.require_ring()
        terms = []
        sign = 1
        tok = self.peek()
        if tok.text in {"+", "-"}:
            self.next()
            sign = -1 if tok.text == "-" else 1
        terms.append(sign * self.poly_term())
        while self.peek().text in {"+", "-"}:
            op = self.next()
            sign = -1 if op.text == "-" else 1
            terms.append(sign * self.poly_term())
        total = SparsePoly.zero(len(self.ring))
        for t in terms:
            total = total + t
        return total

    def poly_term(self) -> SparsePoly:
        factors = [self.poly_factor()]
        while self.peek().text == "*":
            self.next()
            factors.append(self.poly_factor())
        product = SparsePoly.constant(len(self.ring), 1)
        for f in factors:
            product = product * f
        return product

    def poly_factor(self) -> SparsePoly:
        tok = self.next()
        if tok.kind == "int":
            value = Fraction(int(tok.text))
            if self.peek().text == "/":
                self.next()
                den = self.next()
                if den.kind != "int" or int(den.text) == 0:
                    raise ParseError("expected a nonzero denominator", den.line, den.column)
                value = value / int(den.text)
            return SparsePoly.constant(len(self.ring), value)
        if tok.kind == "name":
            if tok.text not in self.ring:
                raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            idx = self.ring.index(tok.text)
            exponent = 1
            if self.peek().text == "^":
                self.next()
                power = self.next()
                if power.kind != "int":
                    raise ParseError("expected an integer exponent", power.line, power.column)
                exponent = int(power.text)
            exp = [0] * len(self.ring)
            exp[idx] = exponent
            return SparsePoly.monomial(tuple(exp))
        raise ParseError(f"expected a polynomial factor, found {tok.text!r}", tok.line, tok.column)

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
                ideal = self.ideal_operand()
                if word == "I" and not isinstance(ideal, MonomialIdeal):
                    raise ParseError(f"{cmd} needs a monomial ideal", start.line, start.column)
                ideals.append(ideal)
            elif word == "h":
                polys.append(self.poly_operand())
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


def parse_ideal_text(text: str, ring: Sequence[str]) -> MonomialIdeal | PolyIdeal:
    """Parse a standalone parenthesized ideal literal over the given ring."""
    p = _Parser(text.strip())
    p.ring = tuple(ring)
    result = p.ideal_literal()
    p.expect("<eof>")
    return result


def parse_poly_text(text: str, ring: Sequence[str]) -> SparsePoly:
    """Parse a standalone polynomial expression over the given ring."""
    p = _Parser(text.strip())
    p.ring = tuple(ring)
    result = p.poly_expr()
    p.expect("<eof>")
    return result
