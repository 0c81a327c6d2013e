"""Symbolic L-functions, epsilon'-factors, and Rankin-Selberg shift algebra.

Everything here is shift bookkeeping over opaque symbols.  A formal L-factor
records the multiset of shifts {a} in a product prod (1 - q^(-s-a))^(-1);
an epsilon'-factor records the multiset of (line tag, shift) pairs of the
full exponent-lattice support, with an opaque psi tag.  Products are
multiset unions, so transfer invariance reduces to support preservation.

The nontrivial L-factor rule: an essentially square integrable label over
an unramified size-1 line contributes the single shift equal to the top
exponent of its flattened (split-side) support; every other esi contributes
the empty factor.  This reproduces the closed forms for trivial and
Steinberg representations in every block size.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .core import LineRegistry, Record, frac
from .multiseg import Multisegment, Segment


class FormalLFactor(Record):
    """Multiset of shifts a in prod (1 - q^(-s-a))^(-1); empty means 1."""

    __slots__ = ("shifts",)

    def __init__(self, shifts: tuple[Fraction, ...] = ()):
        Record.__init__(self, shifts)

    @classmethod
    def one(cls) -> "FormalLFactor":
        return cls(())

    @classmethod
    def of(cls, *shifts) -> "FormalLFactor":
        return cls(tuple(sorted(frac(a) for a in shifts)))

    def __mul__(self, other: "FormalLFactor") -> "FormalLFactor":
        return FormalLFactor(tuple(sorted(self.shifts + other.shifts)))

    def __repr__(self) -> str:
        if not self.shifts:
            return "1"
        return " * ".join(f"(1 - q^(-s{_signed(a)}))^-1" for a in self.shifts)

    def to_json(self) -> dict:
        return {"shifts": [str(a) for a in self.shifts]}


def _signed(a: Fraction) -> str:
    if a == 0:
        return ""
    return f"-{a}" if a > 0 else f"+{-a}"


class EpsilonFactor(Record):
    """Multiset of (line tag, shift) pairs: prod eps'(s + shift, tag, psi)."""

    __slots__ = ("shifts", "psi")

    def __init__(self, shifts: tuple[tuple[str, Fraction], ...] = (), psi: str = "psi"):
        Record.__init__(self, shifts, psi)

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, Fraction]], psi: str = "psi") -> "EpsilonFactor":
        return cls(tuple(sorted((t, frac(a)) for t, a in pairs)), psi)

    def __repr__(self) -> str:
        if not self.shifts:
            return "1"
        return " * ".join(f"eps'(s{_signed(-a)}, {t}, {self.psi})" for t, a in self.shifts)

    def to_json(self) -> dict:
        return {"psi": self.psi, "shifts": [{"tag": t, "shift": str(a)} for t, a in self.shifts]}


def _flat_start(seg: Segment) -> tuple[int, int]:
    """``start - (step - 1)/2``, the flattened support's first point, as (num, den) over 2 * den(offset)."""
    offset, step = seg.offset_class, seg.step
    den = offset.denominator
    return 2 * (offset.numerator + seg.first * step * den) - (step - 1) * den, 2 * den


def l_esi(registry: LineRegistry, seg: Segment) -> FormalLFactor:
    """L-factor of one esi label; nonempty only over unramified size-1 lines."""
    return l_irr(registry, Multisegment((seg,)))


def l_irr(registry: LineRegistry, m: Multisegment) -> FormalLFactor:
    """Product of the esi L-factors: the top of each flattened support over an unramified size-1 line."""
    shifts = []
    for seg in m.segments:
        info = registry[seg.line]
        if info.unramified and info.p == 1:
            num, den = _flat_start(seg)
            shifts.append(Fraction(num + (seg.length * seg.step - 1) * den, den))
    return FormalLFactor(tuple(sorted(shifts)))


def eps_irr(registry: LineRegistry, m: Multisegment, psi: str = "psi") -> EpsilonFactor:
    """epsilon'-factor: one term per point of the flattened cuspidal support.

    The points of each segment are ``(num + j * den) / den`` from its
    ``_flat_start``; they are sorted as integers over one common denominator.
    """
    flats = []
    for seg in m.segments:
        registry[seg.line]  # validate the line exists
        flats.append((seg.line, *_flat_start(seg), seg.length * seg.step))
    big = lcm(*(den for _, _, den, _ in flats))
    points = sorted((line, (num + j * den) * (big // den)) for line, num, den, n in flats for j in range(n))
    return EpsilonFactor(tuple((line, Fraction(k, big)) for line, k in points), psi)


# -- Rankin-Selberg shift maps ------------------------------------------------


class FormalRSProduct(Record):
    """Map shift -> integer exponent over an opaque Rankin-Selberg base L(z + shift)."""

    __slots__ = ("powers",)

    def __init__(self, powers: tuple[tuple[Fraction, int], ...] = ()):
        Record.__init__(self, powers)

    @classmethod
    def of(cls, powers: dict) -> "FormalRSProduct":
        clean = {frac(a): int(e) for a, e in powers.items() if e != 0}
        return cls(tuple(sorted(clean.items())))

    def as_dict(self) -> dict[Fraction, int]:
        return dict(self.powers)

    def __mul__(self, other: "FormalRSProduct") -> "FormalRSProduct":
        out = self.as_dict()
        for a, e in other.powers:
            out[a] = out.get(a, 0) + e
        return FormalRSProduct.of(out)

    def inverse(self) -> "FormalRSProduct":
        return FormalRSProduct.of({a: -e for a, e in self.powers})

    def __truediv__(self, other: "FormalRSProduct") -> "FormalRSProduct":
        return self * other.inverse()

    def shifted(self, delta) -> "FormalRSProduct":
        d = frac(delta)
        return FormalRSProduct.of({a + d: e for a, e in self.powers})

    def __repr__(self) -> str:
        if not self.powers:
            return "1"

        def term(a: Fraction, e: int) -> str:
            arg = "z" if a == 0 else (f"z+{a}" if a > 0 else f"z-{-a}")
            return f"L({arg})" + (f"^{e}" if e != 1 else "")

        return " * ".join(term(a, e) for a, e in self.powers)


def rs_lg(s: int) -> FormalRSProduct:
    """Rankin-Selberg self-pairing of the s-fold residual point over one base."""
    if s < 1:
        raise ValueError("s must be >= 1")
    powers = {Fraction(0): s}
    for j in range(1, s):
        powers[Fraction(s - j)] = j
        powers[Fraction(j - s)] = j
    return FormalRSProduct.of(powers)


def normalizing_factor(s: int) -> tuple[FormalRSProduct, FormalRSProduct]:
    """(numerator, denominator) of the cancelled intertwining normalizer."""
    if s < 1:
        raise ValueError("s must be >= 1")
    num = FormalRSProduct.of({Fraction(j - s): 1 for j in range(1, s + 1)})
    den = FormalRSProduct.of({Fraction(j): 1 for j in range(1, s + 1)})
    return num, den


def mw_normalizer_quotient(s: int) -> FormalRSProduct:
    """L(z) / L(1+z) with the s-fold pairing substituted (epsilon omitted)."""
    lf = rs_lg(s)
    return lf / lf.shifted(1)
