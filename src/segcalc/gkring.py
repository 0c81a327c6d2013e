"""The Speh-unit calculus and its expansions over standard labels.

``SpehUnit`` is the one model of u(sigma, k), u'(sigma', k) and pi(u, alpha):
k parallel copies of a centered base, their centers stepping by step(sigma)
symmetrically around a twist.  A unit's label is ``.multisegment()``, a
product's expansion is ``expand_unit_product``, and ``expand_u`` is the split
entry the CLI calls.  ``SpehUnit.half_twists`` is the one statement of
pi(u, alpha) = nu^alpha u x nu^-alpha u.  ubar(sigma', k), whose copies step
by plain nu, is no unit: ``speh_ubar`` writes its label and ``ubar_factor``
its u' factors.  The expansions are alternating sums over W_k^l, each a
``VirtualRep``: the formal sum over labels lives in ``multiseg``, beside
``Multisegment``, so the parsers and the duality need no unit calculus.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Optional

from .core import ExponentLike, Record, frac
from .multiseg import LimitExceeded, Multisegment, Segment, VirtualRep, _maker, _moved, unitary_esi


# -- Speh units ----------------------------------------------------------


class SpehUnit(Record):
    """u(sigma, k) placed by a twist; ``alpha`` marks a pi(u, alpha) pair.

    ``base`` is the unitary essentially-square-integrable label (a segment
    centered at 0); the unit's copies step by ``base.step`` in exponent
    units.  When ``alpha`` is set the unit denotes nu^alpha u x nu^-alpha u
    with alpha in (0, 1/2) measured in nu_sigma-units.
    """

    __slots__ = ("base", "count", "twist", "alpha")

    def __init__(
        self, base: Segment, count: int, twist: ExponentLike = Fraction(0), alpha: Optional[ExponentLike] = None
    ):
        twist = frac(twist)
        if count < 1:
            raise ValueError("unit multiplicity must be >= 1")
        _, step, offset, first, length, _ = base  # center = offset_class + (2 * first + length - 1) * step / 2
        if _moved(offset, (2 * first + length - 1) * step) != (0, 1):
            raise ValueError("unit base must be centered at exponent 0")
        if alpha is not None:
            alpha = frac(alpha)
            if not (0 < alpha < Fraction(1, 2)):
                raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
        Record.__init__(self, base, count, twist, alpha)

    @property
    def step(self) -> int:
        return self.base.step

    def twisted(self, delta: ExponentLike) -> "SpehUnit":
        return SpehUnit(self.base, self.count, self.twist + frac(delta), self.alpha)

    @staticmethod
    def half_twists(twist: Fraction, step: int, alpha: Optional[Fraction]) -> tuple[Fraction, ...]:
        """Twists of the plain halves: ``twist``, or ``twist +- alpha * step`` for a pair.

        This is the one statement of the pair rule pi(u, alpha) = nu^alpha u x nu^-alpha u.
        """
        if alpha is None:
            return (twist,)
        shift = alpha * step
        return (twist + shift, twist - shift)

    def halves(self) -> tuple["SpehUnit", ...]:
        """The unit itself, or for a pair its two plain twisted halves."""
        if self.alpha is None:
            return (self,)
        twists = self.half_twists(self.twist, self.step, self.alpha)
        return tuple(SpehUnit(self.base, self.count, t) for t in twists)

    def centers(self) -> list[Fraction]:
        """Copy centers: each plain half has ``count`` of them, ``step`` apart and symmetric around its twist."""
        count, step = self.count, self.step
        return [t + step * (Fraction(count - 1, 2) - i) for t in self.half_twists(self.twist, step, self.alpha)
                for i in range(count)]

    def multisegment(self) -> Multisegment:
        b = self.base
        return Multisegment(
            Segment.from_positions((b.line, b.step, b.offset_class + c), b.first, b.last) for c in self.centers()
        )

    def sort_key(self):
        return (self.base, self.count, self.twist, self.alpha or Fraction(0))

    def __repr__(self) -> str:
        """``[nu^(twist) ][pi(]u(base, k)[, alpha)]``, written ``u'`` on an inner-form line."""
        kind = "u" if self.step == 1 else "u'"
        inner = f"{kind}({self.base!r}, {self.count})"
        if self.alpha is not None:
            inner = f"pi({inner}, {self.alpha})"
        if self.twist:
            inner = f"nu^({self.twist}) {inner}"
        return inner

    def to_json(self) -> dict:
        out = {"base": self.base.to_json(), "k": self.count, "twist": str(self.twist)}
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        return out


class UnitaryProduct(Record):
    """A multiset of Speh units; its label is the union of the factors'."""

    __slots__ = ("units",)

    def __init__(self, units: Iterable[SpehUnit] = ()):
        Record.__init__(self, tuple(sorted(units, key=SpehUnit.sort_key)))

    def __iter__(self) -> Iterator[SpehUnit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def multisegment(self) -> Multisegment:
        out = Multisegment()
        for u in self.units:
            out = out | u.multisegment()
        return out

    def twisted(self, delta: ExponentLike) -> "UnitaryProduct":
        return UnitaryProduct(u.twisted(delta) for u in self.units)

    def __repr__(self) -> str:
        return " x ".join(repr(u) for u in self.units) if self.units else "1"

    def to_json(self) -> list[dict]:
        return [u.to_json() for u in self.units]


# -- unit constructors ----------------------------------------------------


def speh_ubar(sigma: Segment, k: int, twist: ExponentLike = 0) -> Multisegment:
    """Label of ubar(sigma', k): copies step by plain nu (one exponent unit)."""
    top = sigma.offset_class + frac(twist) + Fraction(k - 1, 2)
    return Multisegment(
        Segment.from_positions((sigma.line, sigma.step, top - i), sigma.first, sigma.last) for i in range(k)
    )


def _two_block_product(s: int, b: int, wide: tuple, narrow: Optional[tuple]) -> UnitaryProduct:
    """b twists nu^(i-(b+1)/2) u'(*wide) and, unless narrow is None, s-b twists
    nu^(j-(s-b+1)/2) u'(*narrow); wide and narrow are (sigma', count) pairs."""
    units = [SpehUnit(*wide, Fraction(2 * i - b - 1, 2)) for i in range(1, b + 1)]
    if narrow is not None:
        nb = s - b
        units += [SpehUnit(*narrow, Fraction(2 * j - nb - 1, 2)) for j in range(1, nb + 1)]
    return UnitaryProduct(units)


def ubar_factor(sigma: Segment, k: int) -> UnitaryProduct:
    """Factor ubar(sigma', k) into twisted u'(sigma', .) units.

    With k = a*s + b, 0 <= b < s: b factors nu^(i-(b+1)/2) u'(sigma', a+1)
    and s-b factors nu^(j-(s-b+1)/2) u'(sigma', a), the second block omitted
    when a = 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = sigma.step
    a, b = divmod(k, s)
    return _two_block_product(s, b, (sigma, a + 1), (sigma, a) if a else None)


# -- expansion formulas ----------------------------------------------------


def _tadic_sum(
    line: str, l: int, k: int, step: int, twist: Fraction, d: int
) -> VirtualRep:
    """sum over W_k^l of sign(w) * prod_i Seg(i, w(i)+l-i), centered.

    Interior factors start at position i (in step units); the overall twist
    nu^(-(k+l)/2 * step) recenters the leading term at 0.  Zero-length
    factors (w(i) + l - i = 0) denote the unit and are dropped.

    W_k^l is walked depth first with an explicit stack, never by recursion.
    An entry holds the next position i, the bitmask of the values already
    placed, the label prefix of factors 1..i-1, its hash (the sum of its
    factors' hashes) and its sign; each child extends that shared prefix
    tuple by one factor and its hash by the factor's, and placing v flips the
    sign once per unused value below v.  Value i - l fits no later position,
    so while it is unused it is the only child: every entry completes.  Else
    every unused value fits, and a node walks the set bits of ``values ^
    used``, so it costs its children.  The last two positions take the two
    values left in both orders at once.
    All factors lie on one effective line and factor i starts at position
    i, so every prefix is already in canonical order and becomes a label
    through one ``tuple.__new__`` without a sort.  Distinct w give
    distinct labels, and they finish in the lexicographic order of w.
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    origin = Segment(line, twist - Fraction(k + l, 2) * step, 1, step)
    make, base = _maker(*origin[:3]), origin.first

    def piece(first: int, m: int) -> tuple[tuple, int]:
        seg = make(first, m)
        return (seg,), seg[5]

    # factor[i][m] is ((), 0) for m = 0, else the 1-tuple of the factor covering positions
    # i..i+m-1 (from the recentered origin) of one effective line and its hash; each is built once
    factor = [()] + [
        [((), 0)] + [piece(base + i, m) for m in range(1, k + l - i + 1)]
        for i in range(1, k + 1)
    ]
    new = tuple.__new__
    if k == 1:
        return VirtualRep(d, {new(Multisegment, factor[1][l]): 1})
    terms: dict[Multisegment, int] = {}
    last, values = factor[k], (1 << k + 1) - 2  # bits 1..k
    stack = [(1, 0, (), 0, 1)]
    while stack:
        i, used, prefix, h, sign = stack.pop()
        row = factor[i]
        if i == k - 1:  # a < b are left: (a, b) always fits, (b, a) unless a = k - 1 - l
            rest = values ^ used
            a, b = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
            (fa, ha), (fb, hb) = row[a + l - i], last[b + l - k]
            terms[new(Multisegment, (prefix + fa + fb, h + ha + hb))] = sign
            if a + l != i:
                (fa, ha), (fb, hb) = row[b + l - i], last[a + l - k]
                terms[new(Multisegment, (prefix + fa + fb, h + ha + hb))] = -sign
            continue
        lo = i - l
        if lo >= 1 and not used >> lo & 1:
            stack.append((i + 1, used | 1 << lo, prefix, h, sign))
            continue
        # push the unused values from the largest down, so the smallest is popped first;
        # all k - i + 1 unused values are >= lo, and the largest passes k - i of them
        if (k - i) % 2:
            sign = -sign
        rest = values ^ used
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            f, hf = row[v + l - i]
            stack.append((i + 1, used | 1 << v, prefix + f, h + hf, sign))
            sign = -sign
    return VirtualRep(d, terms)


def expand_u(l: int, line: str, k: int, twist: ExponentLike = 0) -> VirtualRep:
    """u(Z(rho, l), k) on the split standard basis (alternating sum over W_k^l)."""
    return _tadic_sum(line, l, k, 1, frac(twist), 1)


def expand_unit_product(up: UnitaryProduct, d: int) -> VirtualRep:
    """Standard-basis expansion of a unitary product: one W_k^l sum per plain half of each unit."""
    parts = [
        _tadic_sum(h.base.line, h.base.length, h.count, h.step, h.twist, d)
        for u in up.units
        for h in u.halves()
    ]
    return reduce(VirtualRep.__mul__, parts) if parts else VirtualRep(d, {Multisegment(): 1})


# -- recognition -----------------------------------------------------------


RECOGNITION_LIMIT = 10_000  # largest total segment length recognize_unitary accepts


def recognize_unitary(m: Multisegment) -> Optional[UnitaryProduct]:
    """Factor a label into twist-0 units and pi(u, alpha) pairs, if possible.

    Within each (line, step, segment length) group the centers must split
    into arithmetic progressions of difference step that are either
    symmetric around 0 (a unit u(sigma, k)) or mirror pairs at +-alpha*step
    with alpha in (0, 1/2) (a pi(u, alpha)), so a group's centers sum to 0.
    After the limit check, a group whose doubled centers ``step * (2 first +
    length - 1) + 2 offset_class`` do not sum to 0 rejects the label.  The
    shape of the progression containing the maximal center is forced, so
    extraction is greedy; a progression of more centers than the group has
    left rejects the label before its unit is built.
    """
    if sum(s.length for s in m.segments) > RECOGNITION_LIMIT:
        raise LimitExceeded(f"label exceeds recognition limit {RECOGNITION_LIMIT}")
    # group by (line, step, length) but NOT by offset class: the two halves of
    # a pi(u, alpha) pair land on mirrored offset classes and must pair up
    groups: dict[tuple, list[Segment]] = {}
    for s in m.segments:
        groups.setdefault((s.line, s.step, s.length), []).append(s)
    for (_, step, length), segs in groups.items():
        if step * sum(2 * s.first + length - 1 for s in segs) + 2 * sum(s.offset_class for s in segs):
            return None

    units: list[SpehUnit] = []
    for (line, s, length), segs in sorted(groups.items()):
        centers = Counter(seg.center for seg in segs)
        base = unitary_esi(line, length, s)
        while centers:
            c = max(centers)
            # the unique k with beta = c - s(k-1)/2 in [0, s/2): a unit when beta = 0
            k = 2 * c // s + 1
            if k > centers.total():
                return None
            beta = c - Fraction(s * (k - 1), 2)
            alpha = beta / s if beta else None
            unit = SpehUnit(base, k, Fraction(0), alpha)
            need = Counter(unit.centers())
            if need - centers:  # a center of the unit is missing
                return None
            centers -= need
            units.append(unit)
    return UnitaryProduct(units)
