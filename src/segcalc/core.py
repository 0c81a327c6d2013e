"""Registry of cuspidal lines and the exact arithmetic shared by all modules.

A *line* is the lattice of unramified twists of one formal cuspidal symbol.
Everything downstream (segments, transfer, L-factors) only ever sees a line
through this registry: its name, the size ``p`` of the group carrying the
base cuspidal, the line of its contragredient, and an optional flag marking
the base point as an unramified character (the only case with a nontrivial
L-factor).

All exponents are exact rationals.  Linkage, hermitian symmetry and the
half-integer shifts of the unit calculus all require exact equality, so no
floating point is allowed anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Union

Exponent = Fraction
ExponentLike = Union[Fraction, int, str]


def frac(x: ExponentLike) -> Fraction:
    """Coerce an int, string like ``-1/2`` or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


class RegistryError(ValueError):
    """Raised for duplicate or unknown line names."""


@dataclass(frozen=True)
class LineInfo:
    """One registered cuspidal line.

    ``p`` is the size of the group carrying the base cuspidal; ``dual`` is
    the name of the line of the contragredient of the base point.
    ``unramified`` marks a p = 1 line whose base point is an unramified
    character (used by the L-factor module only).
    """

    name: str
    p: int
    dual: str
    unramified: bool = False


class CuspidalPoint(NamedTuple):
    """A twist ``nu^exp`` of the base point of a line."""

    line: str
    exp: Fraction


class LineRegistry:
    """Immutable-after-construction name -> LineInfo table."""

    def __init__(self) -> None:
        self._lines: dict[str, LineInfo] = {}

    def register(
        self,
        name: str,
        p: int,
        dual: Optional[str] = None,
        unramified: bool = False,
    ) -> str:
        """Register a line and return its id (the name itself).

        When ``dual`` is omitted the line is self-dual.  The pairing must be
        an involution; registering ``a`` with dual ``b`` requires ``b`` to
        exist and marks both directions.
        """
        if name in self._lines:
            raise RegistryError(f"line name already used: {name!r}")
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        info = LineInfo(name, p, name, unramified)
        if dual is not None and dual != name:
            info, other = self._paired(info, dual)
            self._lines[dual] = other
        self._lines[name] = info
        return name

    def _paired(self, info: LineInfo, dual: str) -> tuple[LineInfo, LineInfo]:
        """Both entries after pairing ``info`` with line ``dual``; nothing is stored.

        Each side must be unpaired or already paired with the other, so the
        pairing stays an involution.
        """
        if dual not in self._lines:
            raise RegistryError(f"dual line not registered: {dual!r}")
        other = self._lines[dual]
        for x, partner in ((info, dual), (other, info.name)):
            if x.dual not in (x.name, partner):
                raise RegistryError(f"line {x.name!r} is already paired")
        if other.p != info.p:
            raise ValueError("dual lines must share the same p")
        return replace(info, dual=dual), replace(other, dual=info.name)

    def __contains__(self, name: str) -> bool:
        return name in self._lines

    def __getitem__(self, name: str) -> LineInfo:
        try:
            return self._lines[name]
        except KeyError:
            raise RegistryError(f"unknown line: {name!r}") from None

    def __iter__(self) -> Iterator[LineInfo]:
        return iter(self._lines.values())

    def p(self, name: str) -> int:
        return self[name].p

    def contragredient_point(self, pt: CuspidalPoint) -> CuspidalPoint:
        """h(nu^x rho) = nu^(-x) h(rho): dual line, negated exponent."""
        info = self[pt.line]
        return CuspidalPoint(info.dual, -pt.exp)

    # -- serialization (CLI line files) ------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for info in self:
            entry: dict = {"name": info.name, "p": info.p}
            entry["dual"] = None if info.dual == info.name else info.dual
            if info.unramified:
                entry["unramified"] = True
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "LineRegistry":
        reg = cls()
        entries = list(data)
        # register everything self-dual first, then patch the pairing, so that
        # mutual dual references may appear in any order
        for e in entries:
            reg.register(e["name"], int(e["p"]), None, bool(e.get("unramified", False)))
        for e in entries:
            dual = e.get("dual")
            if dual is not None and dual != e["name"]:
                info, other = reg._paired(reg[e["name"]], dual)
                reg._lines[info.name], reg._lines[other.name] = info, other
        return reg

    @classmethod
    def load(cls, path: str) -> "LineRegistry":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def standard(cls) -> "LineRegistry":
        """Default registry: one self-dual unramified line ``rho`` with p = 1."""
        reg = cls()
        reg.register("rho", 1, None, unramified=True)
        return reg


def s_invariant(p: int, d: int) -> int:
    """Smallest s >= 1 with d | s*p; equals d / gcd(d, p)."""
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")
    return d // gcd(d, p)
