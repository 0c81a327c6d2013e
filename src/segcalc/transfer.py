"""Combinatorial Jacquet-Langlands transfer between the two standard lattices.

An inner-form cuspidal over a line of size p is realized concretely as its
split-side block: the length-s segment (s = d / gcd(d, p)) with the same
center.  The esi correspondence ``c_map``/``c_inv`` then simply regroups a
split segment into blocks of length s while preserving the underlying
support, and the lattice map ``lj_std`` sends a standard label to its
factorwise image when every segment length is divisible by s, and to zero
otherwise.

``lj_u`` is the closed-form transfer of a Speh unit, implemented once via
the symmetric two-block formula (with k = a s + b and l = a' s + b'):

    sign * prod_{i<=b} nu^(i-(b+1)/2) u'(T(rho', floor((l-1)/s)+1), floor((k-1)/s)+1)
         * prod_{j<=s-b} nu^(j-(s-b+1)/2) u'(T(rho', floor(l/s)), floor(k/s))

with b = (k mod s) + (l mod s), the second block dropped when either floor
vanishes, and sign +1 when s | l, else +1 for s odd and (-1)^(kl/s) for s
even.  The divisible/indivisible cases of this single formula reproduce the
ubar factorization and the stretched/shortened product formula; the tests
cross-validate it against the factorwise lattice transfer of the full
standard-basis expansions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .core import ExponentLike, LineRegistry, frac, s_invariant
from .gkring import SpehUnit, UnitaryProduct, VirtualRep, _two_block_product
from .multiseg import LimitExceeded, Multisegment, Segment, is_lower, unitary_esi


class NotTransferable(ValueError):
    """The esi correspondence is undefined on this input (distinct from 0)."""


@dataclass(frozen=True)
class SignedUnitaryProduct:
    """A unitary product with a transfer sign; sign 0 means the transfer vanishes."""

    sign: int
    product: UnitaryProduct

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign == 0 and len(self.product) != 0:
            raise ValueError("vanishing transfer must carry the empty product")

    def multisegment(self) -> Multisegment:
        return self.product.multisegment()

    def twisted(self, delta: ExponentLike) -> "SignedUnitaryProduct":
        if self.sign == 0:
            return self
        return SignedUnitaryProduct(self.sign, self.product.twisted(delta))

    def __repr__(self) -> str:
        return f"{self.sign:+d} * {self.product!r}" if self.sign else "0"

    def to_json(self) -> dict:
        return {"sign": self.sign, "units": self.product.to_json()}


ZERO_TRANSFER = SignedUnitaryProduct(0, UnitaryProduct.empty())


def d_cuspidal(registry: LineRegistry, line: str, d: int, center: ExponentLike = 0) -> Segment:
    """The inner-form cuspidal over ``line`` at ``center``: a length-1 step-s segment."""
    s = s_invariant(registry[line].p, d)
    return Segment(line, frac(center), 1, s)


def c_map(registry: LineRegistry, seg: Segment, d: int) -> Segment:
    """Regroup a split segment into s-blocks; requires s | length."""
    if seg.step != 1:
        raise NotTransferable("c_map expects a split-side segment (step 1)")
    s = s_invariant(registry[seg.line].p, d)
    if seg.length % s:
        raise NotTransferable(f"segment length {seg.length} not divisible by s = {s}")
    return Segment(seg.line, seg.start + Fraction(s - 1, 2), seg.length // s, s)


def c_inv(seg: Segment) -> Segment:
    """Flatten an inner-form segment back to its split support."""
    s = seg.step
    return Segment(seg.line, seg.start - Fraction(s - 1, 2), seg.length * s, 1)


def is_d_compatible(registry: LineRegistry, x: Union[Segment, Multisegment], d: int) -> bool:
    """A segment transfers iff s | length; a label iff all its segments do."""
    if isinstance(x, Segment):
        return x.length % s_invariant(registry[x.line].p, d) == 0
    return all(is_d_compatible(registry, s, d) for s in x.segments)


def lj_std(registry: LineRegistry, x: VirtualRep, d: int) -> VirtualRep:
    """Lattice transfer: factorwise c_map on compatible labels, 0 otherwise."""
    if x.d != 1:
        raise NotTransferable("lj_std starts from the split side")

    def image(m: Multisegment) -> Optional[Multisegment]:
        if not is_d_compatible(registry, m, d):
            return None
        return Multisegment(c_map(registry, s, d) for s in m.segments)

    return x.map_terms(image, d=d)


def m_map(m: Multisegment) -> Multisegment:
    """Factorwise c_inv: the split label (standard or quotient) over an inner-form one."""
    return Multisegment(c_inv(s) for s in m.segments)


def ll_less(a: Multisegment, b: Multisegment) -> bool:
    """The order transported through m_map (at least as fine as the native one)."""
    return is_lower(m_map(a), m_map(b))


# -- closed-form unit transfer ----------------------------------------------


def lj_u(registry: LineRegistry, l: int, line: str, k: int, d: int) -> SignedUnitaryProduct:
    """Transfer of u(Z(rho, l), k): vanishes unless s | l or s | k."""
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    s = s_invariant(registry[line].p, d)
    if l % s and k % s:
        return ZERO_TRANSFER
    if l % s == 0:
        sign = 1
    elif s % 2:
        sign = 1
    else:
        sign = (-1) ** (k * l // s)
    b = k % s + l % s
    wide = (unitary_esi(line, (l - 1) // s + 1, s), (k - 1) // s + 1)
    t_minus, u_minus = l // s, k // s
    narrow = (unitary_esi(line, t_minus, s), u_minus) if t_minus and u_minus else None
    return SignedUnitaryProduct(sign, _two_block_product(s, b, wide, narrow))


def lj_unit(registry: LineRegistry, unit: SpehUnit, d: int) -> SignedUnitaryProduct:
    """Transfer of one split unit, twists carried through; pairs transfer twice."""
    if unit.step != 1:
        raise NotTransferable("lj_unit expects a split-side unit")
    base = lj_u(registry, unit.base.length, unit.base.line, unit.count, d)
    if base.sign == 0:
        return ZERO_TRANSFER
    if unit.alpha is None:
        return base.twisted(unit.twist)
    up = base.twisted(unit.twist + unit.alpha)
    dn = base.twisted(unit.twist - unit.alpha)
    return SignedUnitaryProduct(
        base.sign * base.sign, UnitaryProduct(tuple(up.product) + tuple(dn.product))
    )


def lj_unitary_product(registry: LineRegistry, up: UnitaryProduct, d: int) -> SignedUnitaryProduct:
    sign = 1
    units: list[SpehUnit] = []
    for u in up.units:
        t = lj_unit(registry, u, d)
        if t.sign == 0:
            return ZERO_TRANSFER
        sign *= t.sign
        units.extend(t.product)
    return SignedUnitaryProduct(sign, UnitaryProduct(units))


def s_gamma_d(registry: LineRegistry, gamma: Iterable[tuple[Segment, Fraction]], d: int) -> int:
    """Least s with d | p_i s for every factor not already compatible."""
    import math

    s = 1
    for seg, _ in gamma:
        si = s_invariant(registry[seg.line].p, d)
        if seg.length % si:  # factor i outside J: needs the extra multiplicity
            s = math.lcm(s, si)
    return s


def generic_data(gamma: Iterable[tuple[Segment, ExponentLike]]) -> list[tuple[Segment, Fraction]]:
    """Unitary generic data, checked: centered step-1 esi factors with |e| < 1/2."""
    data = [(seg, frac(e)) for seg, e in gamma]
    for seg, e in data:
        if seg.step != 1 or seg.center != 0:
            raise ValueError("gamma factors must be unitary split esi (centered, step 1)")
        if not abs(e) < Fraction(1, 2):
            raise ValueError(f"generic exponent must satisfy |e| < 1/2, got {e}")
    return data


def lj_generic(
    registry: LineRegistry,
    gamma: Iterable[tuple[Segment, ExponentLike]],
    k: int,
    d: int,
) -> SignedUnitaryProduct:
    """Transfer of Lg(gamma, k) = prod nu^e_i u(sigma_i, k) for unitary generic data.

    It is the transfer of that unitary product, so it is nonzero iff
    s_{gamma,d} | k: exactly then no factor's unit transfer vanishes.
    """
    units = (SpehUnit(seg, k, e) for seg, e in generic_data(gamma))
    return lj_unitary_product(registry, UnitaryProduct(units), d)


# -- membership in the image of the unitary transfer -------------------------


def _unit_key(u: SpehUnit) -> tuple:
    return (u.base.line, u.base.length, u.base.step, u.count, u.twist)


def _flatten(up: UnitaryProduct) -> Counter:
    """Unit multiset with pi(u, alpha) pairs split into two twisted units."""
    out: Counter = Counter()
    for u in up.units:
        if u.alpha is None:
            out[_unit_key(u)] += 1
        else:
            shift = u.alpha * u.step
            out[_unit_key(SpehUnit(u.base, u.count, u.twist + shift))] += 1
            out[_unit_key(SpehUnit(u.base, u.count, u.twist - shift))] += 1
    return out


def in_image_lju(
    registry: LineRegistry,
    target: UnitaryProduct,
    d: int,
    limit: int = 4096,
) -> Optional[UnitaryProduct]:
    """Search for a split unitary product transferring onto ``target``.

    Any preimage factors into split units whose individual transfers cover
    the target's unit multiset exactly, so the search is an exact cover by
    the transfers of candidate units u(Z(rho, l), k) and pi(u, alpha) pairs
    with matching support.  Candidates are tried in canonical order and the
    first witness is returned; None means the target is not in the image.
    """
    want = _flatten(target)
    if not want:
        return UnitaryProduct.empty()

    sizes: Counter = Counter()
    for (line, length, step, count, _), mult in want.items():
        sizes[line] += length * step * count * mult
    if sum(sizes.values()) > limit:
        raise LimitExceeded(f"target support {sum(sizes.values())} exceeds limit {limit}")

    twists = sorted({key[4] for key in want})

    candidates: list[tuple[tuple, SpehUnit, Counter]] = []
    for line in sorted(sizes):
        n_line = sizes[line]  # total exponent-lattice points over this line
        p = registry[line].p
        s = s_invariant(p, d)
        for l in range(1, n_line + 1):
            for k in range(1, n_line // l + 1):
                if l % s and k % s:
                    continue
                base = lj_u(registry, l, line, k, d)
                plain = SpehUnit(unitary_esi(line, l), k)
                candidates.append(((line, l, k, Fraction(0)), plain, _flatten(base.product)))
                base_twists = {u.twist for u in base.product}
                alphas = sorted(
                    {
                        abs(t - bt)
                        for t in twists
                        for bt in base_twists
                        if 0 < abs(t - bt) < Fraction(1, 2)
                    }
                )
                for a in alphas:
                    paired = SpehUnit(unitary_esi(line, l), k, Fraction(0), a)
                    cover = _flatten(base.twisted(a).product) + _flatten(base.twisted(-a).product)
                    candidates.append(((line, l, k, a), paired, cover))
    candidates.sort(key=lambda c: c[0])

    def solve(remaining: Counter) -> Optional[list[SpehUnit]]:
        if not remaining:
            return []
        pivot = min(remaining)
        for _, unit, cover in candidates:
            if cover.get(pivot, 0) == 0:
                continue
            if any(remaining.get(key, 0) < n for key, n in cover.items()):
                continue
            rest = remaining - cover
            rest = +rest
            sub = solve(rest)
            if sub is not None:
                return [unit] + sub
        return None

    witness = solve(+want)
    if witness is None:
        return None
    return UnitaryProduct(witness)
