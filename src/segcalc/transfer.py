"""Combinatorial Jacquet-Langlands transfer between the two standard lattices.

An inner-form cuspidal over a line of size p is realized concretely as its
split-side block: the length-s segment (s = d / gcd(d, p)) with the same
center.  The esi correspondence ``c_map``/``c_inv`` then simply regroups a
split segment into blocks of length s while preserving the underlying
support: the offset moves by +-(s-1)/2, one ``multiseg._moved`` call that
``ll_less`` makes too.  The lattice map ``lj_std`` sends a standard label
to its factorwise image when every segment length is divisible by s, and
to zero otherwise.

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

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .core import ExponentLike, LineRegistry, Record, frac, over_common_denominator, s_invariant
from .gkring import SpehUnit, UnitaryProduct, _two_block_product, _two_blocks
from .multiseg import LimitExceeded, Multisegment, Segment, VirtualRep, _fix, _moved, _rank_le, unitary_esi


class NotTransferable(ValueError):
    """The esi correspondence is undefined on this input (distinct from 0)."""


class SignedUnitaryProduct(Record):
    """A unitary product with a transfer sign; sign 0 means the transfer vanishes."""

    __slots__ = ("sign", "product")

    def __init__(self, sign: int, product: UnitaryProduct):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if sign == 0 and len(product) != 0:
            raise ValueError("vanishing transfer must carry the empty product")
        Record.__init__(self, sign, product)

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


ZERO_TRANSFER = SignedUnitaryProduct(0, UnitaryProduct())


def d_cuspidal(registry: LineRegistry, line: str, d: int, center: ExponentLike = 0) -> Segment:
    """The inner-form cuspidal over ``line`` at ``center``: a length-1 step-s segment."""
    return Segment(line, center, 1, s_invariant(registry[line].p, d))


def c_map(registry: LineRegistry, seg: Segment, d: int) -> Segment:
    """Regroup a split segment into s-blocks; requires s | length.

    The image starts at ``start + (s-1)/2 = offset_class + (s-1)/2 + r + q*s``
    with ``q, r = divmod(first, s)``: positions ``q..`` of the step-s line
    with that offset.
    """
    if seg.step != 1:
        raise NotTransferable("c_map expects a split-side segment (step 1)")
    s = s_invariant(registry[seg.line].p, d)
    if seg.length % s:
        raise NotTransferable(f"segment length {seg.length} not divisible by s = {s}")
    q, r = divmod(seg.first, s)
    return _fix(seg.line, s, *_moved(seg.offset_class, s - 1 + 2 * r), q, seg.length // s)


def c_inv(seg: Segment) -> Segment:
    """Flatten an inner-form segment back to its split support: ``start - (s-1)/2``, step 1."""
    return _fix(seg.line, 1, *_moved(seg.offset_class, 1 - seg.step), seg.first * seg.step, seg.length * seg.step)


def is_d_compatible(registry: LineRegistry, x: Union[Segment, Multisegment], d: int) -> bool:
    """A segment transfers iff s | length; a label iff all its segments do."""
    if isinstance(x, Segment):
        return x.length % s_invariant(registry[x.line].p, d) == 0
    return all(is_d_compatible(registry, s, d) for s in x.segments)


def lj_std(registry: LineRegistry, x: VirtualRep, d: int) -> VirtualRep:
    """Lattice transfer: factorwise c_map on compatible labels, 0 otherwise.

    A term is dropped at its first segment whose length its line's s does
    not divide, read from one dict of line -> s local to the call, so a
    label is found compatible or not before any segment is mapped.  Terms
    share few distinct segments, so a kept term looks each segment's
    ``c_map`` image up in a second dict local to the call.
    """
    if x.d != 1:
        raise NotTransferable("lj_std starts from the split side")
    s_of: dict[str, int] = {}
    images: dict[Segment, Segment] = {}
    terms: dict[Multisegment, int] = {}
    for m, c in x.terms.items():
        segs = m[0]
        for seg in segs:
            s = s_of.get(seg[0])
            if s is None:
                s = s_of[seg[0]] = s_invariant(registry[seg[0]].p, d)
            if seg[4] % s:
                break
        else:
            out = []
            for seg in segs:
                img = images.get(seg)
                if img is None:
                    img = images[seg] = c_map(registry, seg, d)
                out.append(img)
            label = Multisegment(out)
            terms[label] = terms.get(label, 0) + c
    return VirtualRep(d, terms)


def m_map(m: Multisegment) -> Multisegment:
    """Factorwise c_inv: the split label (standard or quotient) over an inner-form one."""
    return Multisegment(c_inv(s) for s in m.segments)


def _split_line(eff: tuple) -> tuple[tuple, int, int]:
    """``c_inv`` sends position q to ``q * s + shift`` on the class of ``offset - (s-1)/2``, in lowest terms."""
    line, s, offset = eff
    num, den = _moved(offset, 1 - s)
    shift, num = divmod(num, den)  # num stays prime to den
    return (line, num, den), s, shift


def ll_less(a: Multisegment, b: Multisegment) -> bool:
    """The order transported through m_map (at least as fine as the native one).

    The rank tables are filled from flattened positions, keyed by the split
    line, with no label built: (rho, 2, 0) and (rho, 2, 1) share (rho, 1, 1/2).
    """
    return _rank_le(a, b, _split_line)


# -- closed-form unit transfer ----------------------------------------------


def _lj_u_blocks(l: int, k: int, s: int, block: Callable[[int, int], tuple]) -> tuple[int, tuple, Optional[tuple]]:
    """For s | l or s | k: b and the wide and narrow blocks of lj_u(l, k), each ``block(length, count)``
    (narrow None when empty), as ``_two_blocks`` takes them."""
    narrow = block(l // s, k // s) if l // s and k // s else None
    return l % s + k % s, block((l - 1) // s + 1, (k - 1) // s + 1), narrow


def lj_u(registry: LineRegistry, l: int, line: str, k: int, d: int) -> SignedUnitaryProduct:
    """Transfer of u(Z(rho, l), k): vanishes unless s | l or s | k."""
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    s = s_invariant(registry[line].p, d)
    if l % s and k % s:
        return ZERO_TRANSFER
    sign = 1 if l % s == 0 or s % 2 else (-1) ** (k * l // s)
    b, wide, narrow = _lj_u_blocks(l, k, s, lambda length, count: (unitary_esi(line, length, s), count))
    return SignedUnitaryProduct(sign, _two_block_product(s, b, wide, narrow))


def lj_unitary_product(registry: LineRegistry, up: UnitaryProduct, d: int) -> SignedUnitaryProduct:
    """Transfer of a split unitary product: the product of ``lj_u`` over its units' twisted halves."""
    if any(u.step != 1 for u in up.units):  # before any transfer can vanish
        raise NotTransferable("lj_unitary_product expects split-side units")
    sign = 1
    units: list[SpehUnit] = []
    for u in up.units:
        for half in u.halves():
            t = lj_u(registry, half.base.length, half.base.line, half.count, d)
            if t.sign == 0:
                return ZERO_TRANSFER
            sign *= t.sign
            units.extend(t.twisted(half.twist).product)
    return SignedUnitaryProduct(sign, UnitaryProduct(units))


def s_gamma_d(registry: LineRegistry, gamma: Iterable[tuple[Segment, Fraction]], d: int) -> int:
    """Least s with d | p_i s for every factor not already compatible."""
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


def _flatten(up: UnitaryProduct) -> Counter:
    """Unit multiset with pi(u, alpha) pairs split into their halves, as (line, length, step, count, twist)."""
    return Counter((h.base.line, h.base.length, h.base.step, h.count, h.twist) for u in up.units for h in u.halves())


IMAGE_LIMIT = 4096  # largest target support in_image_lju searches


def in_image_lju(registry: LineRegistry, target: UnitaryProduct, d: int) -> Optional[UnitaryProduct]:
    """Search for a split unitary product transferring onto ``target``.

    Any preimage factors into split units whose individual transfers cover
    the target's unit multiset exactly, so the search is an exact cover by
    the transfers of candidate units u(Z(rho, l), k) and pi(u, alpha) pairs
    with matching support.  Twists count in units of 1/D, D the lcm of 2 and
    the target's twist denominators, so the block twists (2i - b - 1)/2 of
    ``lj_u``, every alpha and every cover key are integers.  A block
    u'(T(rho', length), count) of lj_u(l, k) has (length - 1) s < l <
    (length + 1) s, and likewise for count and k, so (l, k) is read off the
    target's unit shapes (line, length, step, count) and kept only when each
    of its blocks has a shape in the target.  A candidate is its (line, l,
    k, alpha) and the two-block rule's units moved by
    ``SpehUnit.half_twists(0, 1, alpha)``; units and Fractions are built only
    for the witness.  Candidates are tried in canonical order and the first
    witness is returned; None means the target is not in the image.
    """
    flat = _flatten(target)
    if not flat:
        return UnitaryProduct()

    sizes: Counter = Counter()
    for (line, length, step, count, _), mult in flat.items():
        sizes[line] += length * step * count * mult
    if sum(sizes.values()) > IMAGE_LIMIT:
        raise LimitExceeded(f"target support {sum(sizes.values())} exceeds limit {IMAGE_LIMIT}")

    D, scaled = over_common_denominator(key[4] for key in flat)
    remaining = Counter({(*key[:4], scaled[key[4]]): n for key, n in flat.items()})
    shapes = {key[:4] for key in remaining}

    candidates: list[tuple[tuple, Counter]] = []
    for line in sizes:
        s = s_invariant(registry[line].p, d)
        window = {(l, k) for ln, length, step, count in shapes if ln == line and step == s
                  for l in range((length - 1) * s + 1, (length + 1) * s)
                  for k in range((count - 1) * s + 1, (count + 1) * s)}
        for l, k in window:
            if l % s and k % s or l * k > sizes[line]:
                continue
            b, wide, narrow = _lj_u_blocks(l, k, s, lambda length, count: (line, length, s, count))
            if b and wide not in shapes or narrow is not None and narrow not in shapes:
                continue
            base = [(shape, t2 * D // 2) for shape, t2 in _two_blocks(s, b, wide, narrow)]
            alphas = {abs(t - bt) for t in scaled.values() for _, bt in base}
            for a in [None] + sorted(x for x in alphas if 0 < 2 * x < D):
                cover = Counter((*shape, bt + t) for t in SpehUnit.half_twists(0, 1, a) for shape, bt in base)
                candidates.append(((line, l, k, a or 0), cover))
    candidates.sort(key=lambda c: c[0])

    # depth-first exact cover on an explicit stack: a cover taken is subtracted from ``remaining`` in
    # place, keys at 0 deleted, and added back on backtrack; a frame is [next candidate, the one taken]
    stack = [[0, (None, {})]]
    while stack:
        frame = stack[-1]
        if not remaining:  # the witness: the unit of each candidate taken, built only now
            units = (SpehUnit(unitary_esi(line, l), k, Fraction(0), Fraction(a, D) if a else None)
                     for _, ((line, l, k, a), _) in stack[1:])
            return UnitaryProduct(units)
        pivot = min(remaining)
        for j in range(frame[0], len(candidates)):
            cover = candidates[j][1]
            if cover.get(pivot, 0) and all(remaining.get(key, 0) >= n for key, n in cover.items()):
                frame[0] = j + 1
                for key, n in cover.items():
                    left = remaining.pop(key) - n
                    if left:
                        remaining[key] = left
                stack.append([0, candidates[j]])
                break
        else:
            remaining.update(stack.pop()[1][1])
    return None
