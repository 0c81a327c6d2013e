"""Symbolic L-functions, epsilon'-factors, and Rankin-Selberg shift algebra.

Everything here is shift bookkeeping over opaque symbols.  A formal L-factor
records the multiset of shifts {a} in a product prod (1 - q^(-s-a))^(-1);
an epsilon'-factor records the multiset of (line tag, shift) pairs of the
full exponent-lattice support, with an opaque psi tag.  Products are
multiset unions, so transfer invariance reduces to support preservation.

The nontrivial L-factor rule: an essentially square integrable label over
an unramified size-1 line contributes the single shift equal to the top
exponent of its flattened (split-side) support, which starts at ``start -
(step-1)/2`` and is read as ``multiseg._moved`` pairs; every other esi
contributes the empty factor.  This reproduces the closed forms for
trivial and Steinberg representations in every block size.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .core import ExponentLike, LineRegistry, Record, frac
from .multiseg import Multisegment, Segment, _moved


class FormalLFactor(Record):
    """Sorted multiset of shifts a in prod (1 - q^(-s-a))^(-1); empty means 1."""

    __slots__ = ("shifts",)

    def __init__(self, shifts: Iterable[ExponentLike] = ()):
        Record.__init__(self, tuple(sorted(map(frac, shifts))))

    def __mul__(self, other: "FormalLFactor") -> "FormalLFactor":
        return FormalLFactor(self.shifts + other.shifts)

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
    """Sorted multiset of (line tag, shift) pairs: prod eps'(s + shift, tag, psi)."""

    __slots__ = ("shifts", "psi")

    def __init__(self, shifts: Iterable[tuple[str, ExponentLike]] = (), psi: str = "psi"):
        Record.__init__(self, tuple(sorted((t, frac(a)) for t, a in shifts)), psi)

    def __repr__(self) -> str:
        if not self.shifts:
            return "1"
        return " * ".join(f"eps'(s{_signed(-a)}, {t}, {self.psi})" for t, a in self.shifts)

    def to_json(self) -> dict:
        return {"psi": self.psi, "shifts": [{"tag": t, "shift": str(a)} for t, a in self.shifts]}


def l_esi(registry: LineRegistry, seg: Segment) -> FormalLFactor:
    """L-factor of one esi label; nonempty only over unramified size-1 lines."""
    return l_irr(registry, Multisegment((seg,)))


def l_irr(registry: LineRegistry, m: Multisegment) -> FormalLFactor:
    """Product of the esi L-factors: the top of each flattened support over an unramified size-1 line."""
    shifts = []
    for seg in m.segments:
        info = registry[seg.line]
        if info.unramified and info.p == 1:  # start - (step - 1)/2 + length * step - 1
            shifts.append(Fraction(*_moved(seg.offset_class, (2 * (seg.first + seg.length) - 1) * seg.step - 1)))
    return FormalLFactor(shifts)


def eps_irr(registry: LineRegistry, m: Multisegment) -> EpsilonFactor:
    """epsilon'-factor over ``psi``: one term per point of the flattened cuspidal support.

    A segment's points are ``(num + j * den) / den``, ``num/den`` its first
    flattened point; they are sorted as integers over one common denominator.
    """
    flats = []
    for seg in m.segments:
        registry[seg.line]  # validate the line exists
        flats.append((seg.line, *_moved(seg.offset_class, (2 * seg.first - 1) * seg.step + 1), seg.length * seg.step))
    big = lcm(*(den for _, _, den, _ in flats))
    points = sorted((line, (num + j * den) * (big // den)) for line, num, den, n in flats for j in range(n))
    # the pairs are sorted as the constructor would sort them (k / big rises with k) and
    # their shifts are Fractions, so the fields are set directly, without a second sort
    eps = object.__new__(EpsilonFactor)
    Record.__init__(eps, tuple((line, Fraction(k, big)) for line, k in points), "psi")
    return eps


# -- Rankin-Selberg shift maps ------------------------------------------------


class FormalRSProduct(Record):
    """Map shift -> nonzero integer exponent over an opaque Rankin-Selberg base L(z + shift).

    Built from a dict or from (shift, exponent) pairs, whose exponents add at equal shifts; an
    exponent that ``int()`` would change is refused.
    """

    __slots__ = ("powers",)

    def __init__(self, powers: Union[dict, Iterable[tuple[ExponentLike, int]]] = ()):
        out: dict[Fraction, int] = {}
        for a, e in powers.items() if isinstance(powers, dict) else powers:
            n = int(e)
            if n != e:
                raise ValueError(f"exponent must be an integer, got {e!r}")
            a = frac(a)
            out[a] = out.get(a, 0) + n
        Record.__init__(self, tuple(sorted((a, e) for a, e in out.items() if e)))

    def as_dict(self) -> dict[Fraction, int]:
        return dict(self.powers)

    def __mul__(self, other: "FormalRSProduct") -> "FormalRSProduct":
        return FormalRSProduct(self.powers + other.powers)

    def inverse(self) -> "FormalRSProduct":
        return FormalRSProduct((a, -e) for a, e in self.powers)

    def __truediv__(self, other: "FormalRSProduct") -> "FormalRSProduct":
        return self * other.inverse()

    def shifted(self, delta) -> "FormalRSProduct":
        d = frac(delta)
        return FormalRSProduct((a + d, e) for a, e in self.powers)

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
    return FormalRSProduct(powers)


def normalizing_factor(s: int) -> tuple[FormalRSProduct, FormalRSProduct]:
    """(numerator, denominator) of the cancelled intertwining normalizer."""
    if s < 1:
        raise ValueError("s must be >= 1")
    num = FormalRSProduct((j - s, 1) for j in range(1, s + 1))
    den = FormalRSProduct((j, 1) for j in range(1, s + 1))
    return num, den


def mw_normalizer_quotient(s: int) -> FormalRSProduct:
    """L(z) / L(1+z) with the s-fold pairing substituted (epsilon omitted)."""
    lf = rs_lg(s)
    return lf / lf.shifted(1)
