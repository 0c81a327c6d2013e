"""Virtual representations over standard labels and the unit calculus.

``VirtualRep`` is an integer-coefficient formal sum over multisegment labels,
one Grothendieck-group element per basis tag, with a side tag ``d`` (1 for
the split side).  Induction products are bilinear multiset unions.

Speh units are stored centered with an explicit twist: the label of
``u(sigma, k)`` is a parallelogram of k parallel copies of sigma whose
centers form an arithmetic progression of difference step(sigma) symmetric
around the twist.  The expansion formulas below write these units on the
standard basis as alternating sums over restricted permutation sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .core import ExponentLike, frac
from .multiseg import LimitExceeded, Multisegment, Segment, unitary_esi


class SideMismatch(ValueError):
    """Raised when combining virtual representations of different sides."""


class VirtualRep:
    """Finite map {multisegment label -> nonzero integer} with a side tag."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int = 1, terms: Optional[dict[Multisegment, int]] = None):
        self.d = d
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls, d: int = 1) -> "VirtualRep":
        return cls(d, {})

    @classmethod
    def of(cls, label: Multisegment, coeff: int = 1, d: int = 1) -> "VirtualRep":
        return cls(d, {label: coeff})

    @classmethod
    def one(cls, d: int = 1) -> "VirtualRep":
        """The empty label: unit of the induction product."""
        return cls.of(Multisegment.empty(), 1, d)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VirtualRep)
            and self.d == other.d
            and self.terms == other.terms
        )

    def _check(self, other: "VirtualRep") -> None:
        if self.d != other.d:
            raise SideMismatch(f"side mismatch: d={self.d} vs d={other.d}")

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return VirtualRep(self.d, terms)

    def __neg__(self) -> "VirtualRep":
        return VirtualRep(self.d, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "VirtualRep":
        return VirtualRep(self.d, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other: "VirtualRep") -> "VirtualRep":
        """Induction product: bilinear, multiset union on basis labels."""
        self._check(other)
        terms: dict[Multisegment, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2
                terms[m] = terms.get(m, 0) + c1 * c2
        return VirtualRep(self.d, terms)

    def shifted(self, delta: ExponentLike) -> "VirtualRep":
        d = frac(delta)
        return VirtualRep(self.d, {m.shifted(d): c for m, c in self.terms.items()})

    def items(self) -> list[tuple[Multisegment, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def map_terms(self, f: Callable[[Multisegment], Optional[Multisegment]], d: Optional[int] = None) -> "VirtualRep":
        """Linear extension of a partial map on labels (None drops the term)."""
        terms: dict[Multisegment, int] = {}
        for m, c in self.terms.items():
            fm = f(m)
            if fm is None:
                continue
            terms[fm] = terms.get(fm, 0) + c
        return VirtualRep(self.d if d is None else d, terms)

    def __repr__(self) -> str:
        """``1 * {…} - 2 * {…}`` in canonical order, as ``dsl`` parses it; ``0`` when empty."""
        if not self.terms:
            return "0"
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} * {m!r}" for m, c in self.items())
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "multisegment": m.to_json()} for m, c in self.items()]


# -- Speh units ----------------------------------------------------------


@dataclass(frozen=True)
class SpehUnit:
    """u(sigma, k) placed by a twist; ``alpha`` marks a pi(u, alpha) pair.

    ``base`` is the unitary essentially-square-integrable label (a segment
    centered at 0); the unit's copies step by ``base.step`` in exponent
    units.  When ``alpha`` is set the unit denotes nu^alpha u x nu^-alpha u
    with alpha in (0, 1/2) measured in nu_sigma-units.
    """

    base: Segment
    count: int
    twist: Fraction = Fraction(0)
    alpha: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "twist", frac(self.twist))
        if self.count < 1:
            raise ValueError("unit multiplicity must be >= 1")
        if self.base.center != 0:
            raise ValueError("unit base must be centered at exponent 0")
        if self.alpha is not None:
            a = frac(self.alpha)
            if not (0 < a < Fraction(1, 2)):
                raise ValueError(f"alpha must lie in (0, 1/2), got {a}")
            object.__setattr__(self, "alpha", a)

    @property
    def step(self) -> int:
        return self.base.step

    def twisted(self, delta: ExponentLike) -> "SpehUnit":
        return SpehUnit(self.base, self.count, self.twist + frac(delta), self.alpha)

    def _centers(self) -> list[Fraction]:
        k, s = self.count, self.step
        plain = [self.twist + s * (Fraction(k - 1, 2) - i) for i in range(k)]
        if self.alpha is None:
            return plain
        shift = self.alpha * s
        return [c + shift for c in plain] + [c - shift for c in plain]

    def multisegment(self) -> Multisegment:
        return Multisegment(
            self.base.shifted(c) for c in self._centers()
        )

    def sort_key(self):
        return (self.base.sort_key(), self.count, self.twist, self.alpha or Fraction(0))

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


class UnitaryProduct:
    """A multiset of Speh units; its label is the union of the factors'."""

    __slots__ = ("units",)

    def __init__(self, units: Iterable[SpehUnit] = ()):
        object.__setattr__(self, "units", tuple(sorted(units, key=SpehUnit.sort_key)))

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("UnitaryProduct is immutable")

    def __reduce__(self):
        return UnitaryProduct, (self.units,)

    @classmethod
    def empty(cls) -> "UnitaryProduct":
        return cls(())

    def __iter__(self) -> Iterator[SpehUnit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitaryProduct) and self.units == other.units

    def __hash__(self) -> int:
        return hash(self.units)

    def multisegment(self) -> Multisegment:
        out = Multisegment.empty()
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


def speh_u(sigma_len: int, line: str, k: int, twist: ExponentLike = 0) -> Multisegment:
    """Label of u(sigma, k), sigma the length-``sigma_len`` split esi on ``line``."""
    return SpehUnit(unitary_esi(line, sigma_len, 1), k, frac(twist)).multisegment()


def speh_u_prime(sigma: Segment, k: int, twist: ExponentLike = 0) -> Multisegment:
    """Label of u'(sigma', k): copies step by nu_sigma' = nu^step."""
    return SpehUnit(sigma, k, frac(twist)).multisegment()


def speh_ubar(sigma: Segment, k: int, twist: ExponentLike = 0) -> Multisegment:
    """Label of ubar(sigma', k): copies step by plain nu (one exponent unit)."""
    t = frac(twist)
    return Multisegment(sigma.shifted(t + Fraction(k - 1, 2) - i) for i in range(k))


def pi_u_alpha(u: SpehUnit, alpha: ExponentLike) -> Multisegment:
    """Label of pi(u, alpha) = nu^alpha u x nu^-alpha u, 0 < alpha < 1/2."""
    a = frac(alpha)
    if not (0 < a < Fraction(1, 2)):
        raise ValueError(f"alpha must lie in (0, 1/2), got {a}")
    return SpehUnit(u.base, u.count, u.twist, a).multisegment()


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


def admissible_permutations(k: int, l: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (w, sign) over permutations w of {1..k} with w(i) + l >= i.

    Generated by backtracking so that large k with a tight bound stays
    cheap; 1-indexed w is returned as a tuple with w[i-1] = w(i).  Placing v
    at position i adds one inversion per unused value below v, so the sign
    is carried down the recursion.
    """
    used = [False] * (k + 1)
    perm: list[int] = []

    def rec(sign: int) -> Iterator[tuple[tuple[int, ...], int]]:
        i = len(perm) + 1
        if i > k:
            yield tuple(perm), sign
            return
        lo = max(1, i - l)
        smaller = 0  # unused values below v
        for v in range(1, k + 1):
            if used[v]:
                continue
            if v < lo:
                return  # v fits no later position either
            used[v] = True
            perm.append(v)
            yield from rec(-sign if smaller % 2 else sign)
            perm.pop()
            used[v] = False
            smaller += 1

    yield from rec(1)


def count_admissible(k: int, l: int) -> int:
    return sum(1 for _ in admissible_permutations(k, l))


def _tadic_sum(
    line: str, l: int, k: int, step: int, twist: Fraction, d: int
) -> VirtualRep:
    """sum over W_k^l of sign(w) * prod_i Seg(i, w(i)+l-i), centered.

    Interior factors start at position i (in step units); the overall twist
    nu^(-(k+l)/2 * step) recenters the leading term at 0.  Zero-length
    factors (w(i) + l - i = 0) denote the unit and are dropped.
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    # factor (i, m) covers positions i..i+m-1 (from the recentered origin) of one
    # effective line; each is built once and shared by every permutation
    origin = Segment(line, twist - Fraction(k + l, 2) * step, 1, step)
    eff, base = origin.effective_line(), origin.first
    factor = {
        (i, m): Segment.from_positions(eff, base + i, base + i + m - 1)
        for i in range(1, k + 1)
        for m in range(1, k + l - i + 1)
    }
    terms: dict[Multisegment, int] = {}
    for w, sign in admissible_permutations(k, l):
        label = Multisegment(factor[i, wi + l - i] for i, wi in enumerate(w, 1) if wi + l != i)
        terms[label] = terms.get(label, 0) + sign
    return VirtualRep(d, terms)


def expand_u(l: int, line: str, k: int, twist: ExponentLike = 0) -> VirtualRep:
    """u(Z(rho, l), k) on the split standard basis (alternating sum over W_k^l)."""
    return _tadic_sum(line, l, k, 1, frac(twist), 1)


def expand_u_prime(sigma: Segment, k: int, d: int, twist: ExponentLike = 0) -> VirtualRep:
    """u'(sigma', k) on the inner-form standard basis, steps of nu_sigma'."""
    return _tadic_sum(sigma.line, sigma.length, k, sigma.step, frac(twist), d)


def expand_unit(unit: SpehUnit, d: int) -> VirtualRep:
    """Standard-basis expansion of one unit (with its twist and alpha pair)."""
    base = expand_u_prime(unit.base, unit.count, d, unit.twist)
    if unit.alpha is None:
        return base
    shift = unit.alpha * unit.step
    return base.shifted(shift) * base.shifted(-shift)


def expand_unit_product(up: UnitaryProduct, d: int) -> VirtualRep:
    out = VirtualRep.one(d)
    for u in up.units:
        out = out * expand_unit(u, d)
    return out


def expand_ubar(sigma: Segment, k: int, d: int) -> VirtualRep:
    """ubar(sigma', k) on the standard basis, via its u'-factorization."""
    return expand_unit_product(ubar_factor(sigma, k), d)


# -- recognition -----------------------------------------------------------


def recognize_unitary(m: Multisegment, limit: int = 10_000) -> Optional[UnitaryProduct]:
    """Factor a label into twist-0 units and pi(u, alpha) pairs, if possible.

    Within each (effective line, segment length) group the centers must
    split into arithmetic progressions of difference step that are either
    symmetric around 0 (a unit u(sigma, k)) or mirror pairs at +-alpha*step
    with alpha in (0, 1/2) (a pi(u, alpha)).  The shape of the progression
    containing the maximal center is forced, so extraction is greedy.
    """
    if sum(s.length for s in m.segments) > limit:
        raise LimitExceeded(f"label exceeds recognition limit {limit}")
    # group by (line, step, length) but NOT by offset class: the two halves of
    # a pi(u, alpha) pair land on mirrored offset classes and must pair up
    groups: dict[tuple, list[Segment]] = {}
    for s in m.segments:
        groups.setdefault((s.line, s.step, s.length), []).append(s)

    units: list[SpehUnit] = []
    for _, segs in sorted(groups.items()):
        proto = segs[0]
        s = proto.step
        centers: dict[Fraction, int] = {}
        for seg in segs:
            centers[seg.center] = centers.get(seg.center, 0) + 1
        base = unitary_esi(proto.line, proto.length, s)
        while centers:
            c = max(centers)
            # the unique k with beta = c - s(k-1)/2 in [0, s/2): a unit when beta = 0
            k = 2 * c // s + 1
            if k < 1:
                return None
            beta = c - Fraction(s * (k - 1), 2)
            need = [beta + s * (Fraction(k - 1, 2) - i) for i in range(k)]
            if beta:
                need += [-beta + s * (Fraction(k - 1, 2) - i) for i in range(k)]
            if not _consume(centers, need):
                return None
            units.append(SpehUnit(base, k, Fraction(0), beta / s if beta else None))
    return UnitaryProduct(units)


def _consume(centers: dict[Fraction, int], need: list[Fraction]) -> bool:
    taken: dict[Fraction, int] = {}
    for c in need:
        if centers.get(c, 0) - taken.get(c, 0) <= 0:
            return False
        taken[c] = taken.get(c, 0) + 1
    for c, n in taken.items():
        centers[c] -= n
        if centers[c] == 0:
            del centers[c]
    return True
