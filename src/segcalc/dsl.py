"""Parser for the text syntax of segments, multisegments and virtual representations.

Grammar (whitespace-insensitive):

    rational  := ['-'] digits ['/' digits]
    name      := letter (letter | digit | '_')* ["'"]
    segment   := name ':' '[' rational [',' rational] ']'
    multiseg  := '{' [segment (',' segment)*] '}'
    virtual   := ['-'] term (('+'|'-') term)*
    term      := [integer '*'] multiseg

A primed name denotes the inner-form side of the registered base line; its
step is s(p, d) for the ambient d, so parsing primed segments requires d.
Segment bounds are the first and last lattice exponents; a single rational
abbreviates a length-1 segment.

This module only parses.  Each value writes itself: its ``repr`` is its text
form (for a label, the two-rational canonical form) and ``to_json()`` its
JSON form.  parse(repr(x)) = x for every label and every nonzero virtual
representation; the zero one is written ``0``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .core import LineRegistry, s_invariant
from .gkring import VirtualRep
from .multiseg import Multisegment, Segment


class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*'?)|(?P<num>\d+)|(?P<sym>[{}\[\],:+*/-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character at {text[pos:pos+10]!r}")
        pos = m.end()
        for kind in ("name", "num", "sym"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
    return out


class _Parser:
    def __init__(self, text: str, registry: LineRegistry, d: int = 1):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registry = registry
        self.d = d

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, sym: str) -> None:
        tok = self.next()
        if tok != ("sym", sym):
            raise ParseError(f"expected {sym!r}, got {tok[1]!r}")

    def at_sym(self, sym: str) -> bool:
        return self.peek() == ("sym", sym)

    def rational(self) -> Fraction:
        neg = False
        if self.at_sym("-"):
            self.next()
            neg = True
        kind, val = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, got {val!r}")
        num = int(val)
        den = 1
        if self.at_sym("/"):
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise ParseError(f"expected a denominator, got {val!r}")
            den = int(val)
            if den == 0:
                raise ParseError("zero denominator")
        q = Fraction(num, den)
        return -q if neg else q

    def integer(self) -> int:
        q = self.rational()
        if q.denominator != 1:
            raise ParseError(f"expected an integer, got {q}")
        return int(q)

    def segment(self) -> Segment:
        kind, name = self.next()
        if kind != "name":
            raise ParseError(f"expected a line name, got {name!r}")
        primed = name.endswith("'")
        base = name[:-1] if primed else name
        if base not in self.registry:
            raise ParseError(f"unknown line name: {base!r}")
        if primed:
            step = s_invariant(self.registry[base].p, self.d)
        else:
            step = 1
        self.expect(":")
        self.expect("[")
        lo = self.rational()
        hi = lo
        if self.at_sym(","):
            self.next()
            hi = self.rational()
        self.expect("]")
        if hi < lo:
            raise ParseError(f"segment bounds out of order: [{lo},{hi}]")
        span = (hi - lo) / step
        if span.denominator != 1:
            raise ParseError(f"span {hi}-{lo} is not a multiple of step {step}")
        return Segment(base, lo, int(span) + 1, step)

    def multisegment(self) -> Multisegment:
        self.expect("{")
        segs = []
        if not self.at_sym("}"):
            segs.append(self.segment())
            while self.at_sym(","):
                self.next()
                segs.append(self.segment())
        self.expect("}")
        return Multisegment(segs)

    def term(self) -> tuple[int, Multisegment]:
        coeff = 1
        if self.peek() is not None and self.peek()[0] == "num":
            coeff = self.integer()
            self.expect("*")
        return coeff, self.multisegment()

    def virtual(self) -> VirtualRep:
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        coeff, label = self.term()
        terms = {label: sign * coeff}
        while self.peek() in (("sym", "+"), ("sym", "-")):
            _, op = self.next()
            coeff, label = self.term()
            c = coeff if op == "+" else -coeff
            terms[label] = terms.get(label, 0) + c
        return VirtualRep(self.d, terms)

    def done(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()[1]!r}")


def parse_multisegment(text: str, registry: LineRegistry, d: int = 1) -> Multisegment:
    p = _Parser(text, registry, d)
    m = p.multisegment()
    p.done()
    return m


def parse_virtual(text: str, registry: LineRegistry, d: int = 1) -> VirtualRep:
    p = _Parser(text, registry, d)
    v = p.virtual()
    p.done()
    return v


def render_virtual(v: VirtualRep) -> str:
    """``repr(v)``.  The ``cli`` benchmark workload's probe still calls this name."""
    return repr(v)
