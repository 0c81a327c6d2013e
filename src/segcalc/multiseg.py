"""Segments and multisegments, their relations, elementary operations and order.

A segment is an arithmetic progression of cuspidal points on one line:
``{nu^(start + j*step) rho : 0 <= j < length}``.  The split side always has
step 1; an inner-form side uses step s(rho') per line.  A multisegment is a
multiset of segments kept in a canonical sorted order so that multiset
equality and hashing are O(1) dictionary operations.

Two segments on the same line and step with starts congruent mod step live
on the same *effective line* ``(line, step, offset_class)``; only such
segments can ever be linked.  ``Segment`` alone maps an exponent to its
integer position there: linkage, the order (one signed rank table keyed by
effective line and positions), enumeration and duality compare positions
``first..last`` and build segments back on an effective line.  A segment
is one tuple ``(line, step, offset_class, first, length, hash)``:
positions only, its Fraction ``start`` derived on demand.  ``_fix`` makes
every segment with one ``tuple.__new__`` call.  Normalizing an effective
line moves the offset into ``[0, step)`` and looks a non-integral class up
in ``_OFFSETS`` by its integer pair (numerator, denominator): each class is
one Fraction, built once and never hashed, whichever producer made the
segment.  A single segment is normalized in ``_fix``; a producer that builds
a run of segments on one effective line normalizes it once, with ``_maker``.
``_moved(offset, n)`` is an offset class plus n/2 as the lowest-terms pair
``_fix`` takes: the transfer's moves by +-(s-1)/2, the flattened points of
the L- and epsilon'-factors and a Speh unit's centre are each one call, so
no other module reads an offset's numerator or denominator.
The first five fields are the canonical key, so equality and the canonical
order are the tuple's own, in C; the hash, last, is computed once from the
integer fields of the key, mixed by an xorshift and cut to 40 bits.  A
multisegment is likewise one tuple, ``(segments, hash)``: its segments in
canonical order and the sum of their hashes, an additive multiset hash, so
a label made of a shared prefix plus a few pieces hashes in O(1) from the
prefix's hash.  Its equality and order are the tuple's own, in C, and a
producer that builds its segments in canonical order makes each label
with one ``tuple.__new__`` call, carrying the hash sum: ``|`` and the
product (``_union``), the successor kernel, ``descendants``, ``dual_irr``,
the cut expansion and ``raw_dual_std`` (``duality``) and ``_tadic_sum``
(``gkring``).

``is_lower`` decides the order by the rank criterion: ``_ranks_nonnegative``
sweeps each effective line's signed table once upward in i, reading r(i, j)
at the lasts j >= i as suffix sums of one column, in O(E log E + P L) for
E entries, P sweep points and L distinct lasts; ``transfer.ll_less`` fills
the tables from flattened positions, with no label built.

The order side has one producer, ``descendants(m)``: it makes each label
below ``m`` once, in canonical order with its hash sum, and builds each
distinct segment once, reusing ``m``'s own.  By the rank criterion
(Zelevinsky 1980), since elementary operations keep the support and never
mix effective lines or cross a gap, the labels below ``m`` are the
partitions of each gap-free block into runs with r_x(i, j) >= r_m(i, j)
for all i < j, r(i, j) counting the segments that contain positions i..j.  One dynamic program,
``_run_partitions``, makes them: it takes a run from the smallest open
position p, shortest first where p repeats, so it yields each partition
once, and ``_join_blocks`` joins one per block.  A child that moves p
to p + z places every run starting at or below i = p + z - 1, so r_x(i, q)
is the multiplicity of q minus the copies of q the child leaves open; the
caps of ``_RankCaps`` bound those copies, and a child that breaks its cap
is pruned.  The check reads the child state alone, so the memo by state
stays sound, and the bound at i covers the positions p..i - 1 the move
passes.  A union or intersection ends where a segment of ``m`` ends, so the
program tries runs only there.  ``enumerate_multisegments`` is
``descendants`` of the singletons label, the top of the order on its
support: no span crosses a position, so no cap prunes and a run may end
anywhere.  ``elementary_successors`` scans each segment's later neighbours
on its effective line only.  The ``repr`` of a segment or multisegment is
its canonical text form, the one ``dsl`` parses; ``to_json()`` is its JSON
form.  ``VirtualRep``, the formal sum over labels that ``dsl``, ``duality``,
``transfer`` and the unit expansions of ``gkring`` pass around, lives here
beside ``Multisegment``, a ``core.Frozen`` value.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import CuspidalPoint, ExponentLike, Frozen, LineRegistry, frac


class LimitExceeded(ValueError):
    """A bounded search was asked to exceed its configured limit."""


# (numerator, denominator) in [0, step) -> its class's one Fraction: segments compare offsets by identity first
_OFFSETS: dict[tuple[int, int], Fraction] = {}

# a segment hash is 40 bits, so a label's hash (the sum of its segments') stays one machine word
_HASH_MASK = (1 << 40) - 1


def _offset_class(num: int, den: int) -> Fraction:
    """The one Fraction ``_OFFSETS`` keeps for the non-integral class ``num/den``: built once, never hashed."""
    offset = _OFFSETS.get((num, den))
    if offset is None:
        offset = _OFFSETS[num, den] = Fraction(num, den)
    return offset


def _fix(line, step, num, den, first, length, offset=None) -> "Segment":
    """The segment at ``first`` of the line with offset ``num/den``: the length check, the hash, one ``tuple.__new__``.

    ``(num, den)`` must be in lowest terms: the hash and the ``_OFFSETS`` key
    read the pair, so another spelling of one offset makes another segment.
    Without ``offset`` it normalizes the line for this segment alone, moving
    ``num`` into ``[0, den * step)`` and ``first`` with it; ``_maker``
    passes the class of a line it normalized once.
    """
    if length < 1:
        raise ValueError(f"segment length must be >= 1, got {length}")
    if offset is None:
        shift, num = divmod(num, den * step)
        first += shift
        offset = num if den == 1 else _offset_class(num, den)
    h = hash((line, step, num, den, first, length))
    h = (h ^ h >> 29) & _HASH_MASK  # the xorshift keeps sums apart
    return tuple.__new__(Segment, (line, step, offset, first, length, h))


def _moved(offset, halves: int) -> tuple[int, int]:
    """``offset + halves/2`` as the lowest-terms pair ``(num, den)`` that ``_fix`` takes."""
    num, den = 2 * offset.numerator + halves * offset.denominator, 2 * offset.denominator
    g = gcd(num, den)
    return num // g, den // g


def _maker(line, step, offset):
    """``make(first, length)`` for a run of segments on one effective line, normalized once for all of them."""
    num, den = offset.numerator, offset.denominator
    shift, num = divmod(num, den * step)
    offset = num if den == 1 else _offset_class(num, den)
    return lambda first, length: _fix(line, step, num, den, first + shift, length, offset)


class Segment(tuple):
    """Positions ``first..last`` of the effective line ``(line, step, offset_class)``.

    The tuple ``(line, step, offset_class, first, length, hash)``, made by
    one ``tuple.__new__`` call in ``_fix``: ``0 <= offset_class < step``, an
    int when integral, else the one Fraction ``_OFFSETS`` keeps.  ``start =
    offset_class + first * step`` is derived on demand.  The module
    docstring gives the key and the hash.
    """

    __slots__ = ()

    line = property(itemgetter(0))
    step = property(itemgetter(1))
    offset_class = property(itemgetter(2))
    first = property(itemgetter(3))
    length = property(itemgetter(4))

    def __new__(cls, line: str, start: ExponentLike, length: int, step: int = 1):
        if type(length) is not int or type(step) is not int:  # a bool, a float or a Fraction is refused
            name, value = ("length", length) if type(length) is not int else ("step", step)
            raise TypeError(f"segment {name} must be an int, got {value!r}")
        if step < 1:
            raise ValueError(f"segment step must be >= 1, got {step}")
        start = start if type(start) is int or isinstance(start, Fraction) else frac(start)  # frac refuses a bool
        return _fix(line, step, start.numerator, start.denominator, 0, length)

    @classmethod
    def from_positions(cls, effective_line: tuple, first: int, last: int) -> "Segment":
        """The segment covering positions ``first..last`` of an effective line."""
        line, step, offset = effective_line
        return _fix(line, step, offset.numerator, offset.denominator, first, last - first + 1)

    def __reduce__(self):
        return Segment, (self[0], self.start, self[4], self[1])

    def __hash__(self) -> int:
        return self[5]

    @property
    def start(self) -> Fraction:
        """``offset_class + first * step``, built from the offset's numerator and denominator."""
        offset = self[2]
        den = offset.denominator
        return Fraction(offset.numerator + self[3] * self[1] * den, den)

    @property
    def last(self) -> int:
        return self[3] + self[4] - 1

    @property
    def end(self) -> Fraction:
        return self.start + (self.length - 1) * self.step

    @property
    def center(self) -> Fraction:
        return self.start + Fraction(self.length - 1, 2) * self.step

    def points(self) -> Iterator[CuspidalPoint]:
        for j in range(self.length):
            yield CuspidalPoint(self.line, self.start + j * self.step)

    @property
    def ending(self) -> CuspidalPoint:
        return CuspidalPoint(self.line, self.end)

    def __repr__(self) -> str:
        prime = "'" if self.step > 1 else ""
        return f"{self.line}{prime}:[{self.start},{self.end}]"

    def to_json(self) -> dict:
        return {"line": self.line, "start": str(self.start), "end": str(self.end), "step": self.step}


def unitary_esi(line: str, length: int, step: int = 1) -> Segment:
    """The length-``length`` segment on ``line`` centered at exponent 0."""
    return Segment(line, -Fraction(length - 1, 2) * step, length, step)


_HASH = itemgetter(5)
_EFFECTIVE_LINE = itemgetter(slice(3))  # a segment's (line, step, offset_class), read off the tuple


class Multisegment(tuple):
    """A multiset of segments in canonical order: the tuple ``(segments, hash)``, hashable and immutable.

    The order is the segments' own, as tuples.  The hash is the sum of the
    segments' hashes, a function of them, so equality and the canonical
    order are the tuple's own, in C, and ordering labels is ordering their
    segments.  ``len`` and ``bool`` count segments.  The constructor sorts
    and sums; a producer that builds its segments already in canonical
    order makes its label with one ``tuple.__new__(Multisegment, (segs,
    h))`` call, which checks neither the order nor ``h``:
    ``rigid_decomposition`` and ``dual_irr`` sum their segments' hashes,
    while ``|`` and the product (``_union`` sorts only labels that
    interleave), the successor kernel, ``descendants``, ``raw_dual_std``
    and ``_tadic_sum`` carry the sum of a shared part and add the new
    pieces'.
    """

    __slots__ = ()

    segments = property(itemgetter(0))
    _hash = property(itemgetter(1))

    def __new__(cls, segments: Iterable[Segment] = ()):
        segs = tuple(sorted(segments))
        return tuple.__new__(cls, (segs, sum(map(_HASH, segs))))

    def __reduce__(self):
        return Multisegment, (self[0],)

    @classmethod
    def empty(cls) -> "Multisegment":
        return cls(())

    def __len__(self) -> int:
        return len(self[0])

    def __bool__(self) -> bool:
        return bool(self[0])

    def __hash__(self) -> int:
        return self[1]

    def __or__(self, other: "Multisegment") -> "Multisegment":
        """Multiset union: the hashes add; two labels that do not interleave are joined without a sort."""
        (a, ha), (b, hb) = self, other
        return _union(a, ha, b, hb)

    def support(self) -> Counter:
        """Point -> multiplicity: position q of offset ``num/den`` is ``(num + q*step*den) / den``, in lowest terms."""
        counts: dict[tuple[str, int, int], int] = {}
        for (line, step, offset), run in itertools.groupby(self.segments, _EFFECTIVE_LINE):
            positions: Counter = Counter()
            for s in run:
                positions.update(range(s[3], s[3] + s[4]))
            num, den = offset.numerator, offset.denominator
            for q, n in positions.items():
                key = (line, num + q * step * den, den)
                counts[key] = counts.get(key, 0) + n
        return Counter({CuspidalPoint(line, Fraction(num, den)): n for (line, num, den), n in counts.items()})

    def endings(self) -> Counter:
        return Counter(s.ending for s in self.segments)

    def ell(self) -> int:
        """Maximum segment length (0 for the empty multisegment)."""
        return max((s.length for s in self.segments), default=0)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(s) for s in self.segments) + "}"

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.segments]


def _union(a: tuple, ha: int, b: tuple, hb: int) -> Multisegment:
    """The union of canonical segment tuples ``a`` and ``b`` (hashes ``ha``, ``hb``), sorted only if they interleave."""
    if not a or not b or a[-1] <= b[0]:
        return tuple.__new__(Multisegment, (a + b, ha + hb))
    if b[-1] <= a[0]:
        return tuple.__new__(Multisegment, (b + a, ha + hb))
    return tuple.__new__(Multisegment, (tuple(sorted(a + b)), ha + hb))


class SideMismatch(ValueError):
    """Raised when combining virtual representations of different sides."""


class VirtualRep(Frozen):
    """Finite map {multisegment label -> nonzero integer} with a side tag ``d`` (1 for the split side).

    A Grothendieck-group element: an integer-coefficient formal sum over
    labels, whose induction product is the bilinear multiset union.  The
    constructor copies ``terms`` once, drops zero coefficients if there are
    any, and keeps a read-only view of its copy, so a value never changes
    once built.  ``VirtualRep(d)`` is zero, ``VirtualRep(d, {Multisegment():
    1})`` the unit of the product.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int = 1, terms: Optional[dict[Multisegment, int]] = None):
        terms = dict(terms or {})
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c != 0}
        set_d, set_terms = self._setters
        set_d(self, d)
        set_terms(self, MappingProxyType(terms))

    @classmethod
    def of(cls, label: Multisegment, coeff: int = 1, d: int = 1) -> "VirtualRep":
        """``VirtualRep(d, {label: coeff})``, kept because the ``sweep`` and ``expand`` benchmark workloads call it."""
        return cls(d, {label: coeff})

    def __reduce__(self):
        return VirtualRep, (self.d, self.terms.copy())

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
        if not isinstance(other, VirtualRep):
            return NotImplemented
        self._check(other)
        terms = self.terms.copy()
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return VirtualRep(self.d, terms)

    def __neg__(self) -> "VirtualRep":
        return VirtualRep(self.d, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        return self + (-other) if isinstance(other, VirtualRep) else NotImplemented

    def __rmul__(self, scalar: int) -> "VirtualRep":
        """``scalar * v`` for an integer ``scalar``; any other scalar is refused with TypeError."""
        if not isinstance(scalar, int):
            return NotImplemented
        return VirtualRep(self.d, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other: "VirtualRep") -> "VirtualRep":
        """Induction product: bilinear, ``_union`` on each pair of basis labels, ``self``'s terms outer."""
        if not isinstance(other, VirtualRep):
            return NotImplemented
        self._check(other)
        right = [(b, hb, c2) for (b, hb), c2 in other.terms.items()]
        terms: dict[Multisegment, int] = {}
        get = terms.get
        for (a, ha), c1 in self.terms.items():
            for b, hb, c2 in right:
                m = _union(a, ha, b, hb)
                terms[m] = get(m, 0) + c1 * c2
        return VirtualRep(self.d, terms)

    def items(self) -> list[tuple[Multisegment, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        """``1 * {…} - 2 * {…}`` in canonical order, as ``dsl`` parses it; ``0`` when empty."""
        if not self.terms:
            return "0"
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} * {m!r}" for m, c in self.items())
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "multisegment": m.to_json()} for m, c in self.items()]


class MultisegmentStats(NamedTuple):
    endings: Counter
    ell: int
    support: Counter


def stats(m: Multisegment) -> MultisegmentStats:
    """E(M), l(M) and the cuspidal support, all at once."""
    return MultisegmentStats(m.endings(), m.ell(), m.support())


def elementary_successors(m: Multisegment) -> set[Multisegment]:
    """All multisegments obtained from ``m`` by one elementary operation.

    For every unordered pair of linked segments, replace the pair by union
    plus intersection (overlapping case) or by the union alone (adjacent
    case).  In canonical order an effective line's segments are contiguous
    and sorted by ``(first, length)``, so segment i (positions a1..b1) is
    linked to a later j (a2..b2) iff j is on its line, a2 <= b1 + 1, a2 !=
    a1 and b2 > b1; the union is a1..b2 and the intersection a2..b1.  Each
    is built once per call, from a table of ``(first, last)`` pairs that
    starts afresh at each effective line, so an offset is never hashed per
    successor, and by one ``_maker`` per effective line.

    The union sorts after segment i and the intersection before segment j,
    so each goes in by bisection between them, and a successor's hash is
    ``m``'s minus the pair's plus the new segments'.
    """
    out: set[Multisegment] = set()
    segs, hm = m
    new = tuple.__new__
    eff = None
    for i, seg in enumerate(segs):
        if seg[:3] != eff:  # the first segment of an effective line
            eff = seg[:3]
            made, make = {}, _maker(*eff)
        a1 = seg[3]
        b1 = a1 + seg[4] - 1
        for j in range(i + 1, len(segs)):
            other = segs[j]
            a2 = other[3]
            if a2 > b1 + 1 or other[:3] != eff:  # tuple != checks identity first
                break
            b2 = a2 + other[4] - 1
            if a2 == a1 or b2 <= b1:
                continue  # nested
            union = made.get((a1, b2))
            if union is None:
                union = made[a1, b2] = make(a1, b2 - a1 + 1)
            h = hm - seg[5] - other[5] + union[5]
            u = bisect_right(segs, union, i + 1, j)
            head = segs[:i] + segs[i + 1 : u] + (union,)
            if a2 > b1:  # adjacent: the union alone
                out.add(new(Multisegment, (head + segs[u:j] + segs[j + 1 :], h)))
                continue
            inter = made.get((a2, b1))
            if inter is None:
                inter = made[a2, b1] = make(a2, b1 - a2 + 1)
            x = bisect_right(segs, inter, u, j)
            out.add(new(Multisegment, (head + segs[u:x] + (inter,) + segs[x:j] + segs[j + 1 :], h + inter[5])))
    return out


def rigid_decomposition(m: Multisegment) -> list[Multisegment]:
    """Partition into rigid parts, one per effective line, in canonical order.

    The canonical order keeps each effective line's segments contiguous and
    the lines sorted, so the parts are the label's runs.
    """
    runs = [tuple(run) for _, run in itertools.groupby(m[0], _EFFECTIVE_LINE)]
    return [tuple.__new__(Multisegment, (run, sum(map(_HASH, run)))) for run in runs]


def is_lower(ma: Multisegment, mb: Multisegment) -> bool:
    """True iff ``ma`` is reachable from ``mb`` by >= 0 elementary operations.

    The rank criterion (Zelevinsky 1980; Abeasis-Del Fra-Kraft 1981) on one
    signed table per effective line, ``(first, last)`` -> count in ``ma``
    minus count in ``mb``; the module docstring gives the sweep.
    """
    return ma == mb or _rank_le(ma, mb, lambda eff: (eff, 1, 0))


def _rank_le(ma: Multisegment, mb: Multisegment, place) -> bool:
    """The rank criterion on tables filled one dict lookup per run: ``place(eff)`` gives its (key, scale, shift)."""
    tables: dict[tuple, dict[tuple[int, int], int]] = {}
    for m, sign in ((ma, 1), (mb, -1)):
        for eff, run in itertools.groupby(m[0], _EFFECTIVE_LINE):
            key, scale, shift = place(eff)
            net = tables.setdefault(key, {})
            for s in run:
                span = (s[3] * scale + shift, (s[3] + s[4]) * scale + shift - 1)
                net[span] = net.get(span, 0) + sign
    return all(map(_ranks_nonnegative, tables.values()))


def _ranks_nonnegative(net: dict[tuple[int, int], int]) -> bool:
    """Whether r(i, j) >= 0 for all i < j and r(i, i) = 0, r(i, j) the signed count of ``net``'s spans over i..j.

    r changes only where i reaches a first or passes a last, so i sweeps
    the firsts and each last + 1, adding the spans that start there into a
    column by last; its suffix sums over the lasts j >= i are r(i, j).
    """
    spans = sorted((first, last, c) for (first, last), c in net.items() if c)  # by first
    lasts = sorted({span[1] for span in spans})
    index = {last: k for k, last in enumerate(lasts)}
    column = [0] * len(lasts)  # the signed count of the spans swept so far, by last
    e = 0
    for i in sorted({span[0] for span in spans}.union(last + 1 for last in lasts)):
        is_first = e < len(spans) and spans[e][0] == i
        while e < len(spans) and spans[e][0] == i:
            column[index[spans[e][1]]] += spans[e][2]
            e += 1
        ranks = list(itertools.accumulate(reversed(column[bisect_left(lasts, i):])))  # r(i, j), j descending
        if ranks and (ranks[-1] or is_first and min(ranks) < 0):
            return False
    return True


def descendants(m: Multisegment) -> set[Multisegment]:
    """All multisegments strictly or trivially below ``m``, each made once.

    ``_run_partitions`` per gap-free block, bounded by ``m``'s ranks and run
    ends, and ``_join_blocks`` of the blocks; the module docstring gives the
    argument.
    """
    per_block = []
    for eff, run in itertools.groupby(m[0], _EFFECTIVE_LINE):
        blocks: list[list[Segment]] = []  # the segments of each gap-free block
        for s in run:  # in canonical order, by first
            if blocks and s[3] <= end + 1:
                blocks[-1].append(s)
                end = max(end, s[3] + s[4] - 1)
            else:
                blocks.append([s])
                end = s[3] + s[4] - 1
        for block in blocks:
            spans = [(s[3], s[3] + s[4] - 1) for s in block]
            positions = Counter(itertools.chain.from_iterable(range(a, b + 1) for a, b in spans))
            made = {(s[3], s[4]): s for s in block}
            per_block.append(_run_partitions(eff, positions, _RankCaps(spans, positions), made))
    return _join_blocks(per_block)


class _RankCaps(dict):
    """i -> the most copies of positions i + 1, i + 2, ... that a partition past i may leave open.

    ``spans`` are a label's ``(first, last)`` pairs on one gap-free block and
    ``positions`` its support there.  The cap of q is ``positions[q] - r(i,
    q)``, with r(i, q) the number of spans that contain i..q.  The tuple ends
    at the last position a span crossing i reaches, so an i that no span
    crosses gets an empty one.  Each is built on first use: the program asks
    for few of them, and all of them would take time quadratic in a long
    span.
    """

    def __init__(self, spans: list[tuple[int, int]], positions: Counter):
        self.spans = [(a, b) for a, b in spans if a < b]  # a span of one position crosses no i
        self.positions = positions

    def __missing__(self, i: int) -> tuple[int, ...]:
        ends = sorted([b for a, b in self.spans if a <= i < b])  # r(i, q) counts the ends >= q
        cap = self[i] = tuple(
            self.positions[q] - len(ends) + bisect_left(ends, q) for q in range(i + 1, ends[-1] + 1)
        ) if ends else ()
        return cap


def hermitian_dual(m: Multisegment, registry: LineRegistry) -> Multisegment:
    """[line: a..b] -> [dual(line): -b..-a]: positions -last..-first of (dual, step, -offset_class)."""
    out, run = [], None
    for s in m.segments:
        line, step, offset, first, length, _ = s
        if run != (line, step, offset):  # the effective line leads the canonical order: one maker per run
            run, make = (line, step, offset), _maker(registry[line].dual, step, -offset)
        out.append(make(1 - first - length, length))
    return Multisegment(out)


def is_hermitian(m: Multisegment, registry: LineRegistry) -> bool:
    return hermitian_dual(m, registry) == m


def enumerate_multisegments(
    support: Iterable[CuspidalPoint] | Counter,
    step: int = 1,
    limit: int = 10,
) -> set[Multisegment]:
    """All partitions of a support multiset into step-``step`` segments.

    This is ``descendants`` of the singletons label, the top of the order on
    its support.  Raises LimitExceeded when the support has more than
    ``limit`` points.
    """
    cnt = Counter(support)  # a Counter is copied with its stored hashes: no point is hashed again
    total = sum(n for n in cnt.values() if n > 0)
    if total > limit:
        raise LimitExceeded(f"support size {total} exceeds limit {limit}")
    singletons = (p for (line, exp), n in cnt.items() if n > 0 for p in [Segment(line, exp, 1, step)] * n)
    return descendants(Multisegment(singletons))


def _join_blocks(per_block: list[list[tuple[tuple[Segment, ...], int]]]) -> set[Multisegment]:
    """The labels made of one (segments, hash sum) pair per block, blocks given in canonical order.

    The blocks' pairs are joined neighbours pairwise, so a segment is copied
    O(log blocks) times, and a single block's pairs are used as made.
    """
    while len(per_block) > 1:
        per_block = [
            [(a + b, ha + hb) for a, ha in left for b, hb in right]
            for left, right in itertools.zip_longest(per_block[::2], per_block[1::2], fillvalue=[((), 0)])
        ]
    new = tuple.__new__
    return {new(Multisegment, label) for label in (per_block[0] if per_block else [((), 0)])}


def _run_partitions(
    eff: tuple, positions: Counter, caps: _RankCaps, made: dict[tuple[int, int], Segment]
) -> list[tuple[tuple[Segment, ...], int]]:
    """The partitions of positions into runs within ``caps``: (segments in canonical order, hash sum).

    ``made`` maps ``(first, length)`` to the bounding label's own segments
    on ``eff``; a run may end only where one of them ends, and each new run
    is added to it, so each distinct run is one ``Segment``.  Each partition
    is made once and already canonical; the module docstring gives the
    argument.  The reachable states are collected first, then solved
    smallest first, so no step recurses however deep the support.
    """
    base, top = min(positions), max(positions)
    root = (base, tuple(positions.get(q, 0) for q in range(base, top + 1)), 1)
    lasts = {p + length - 1 for p, length in made}
    make = _maker(*eff)
    runs: dict[tuple, list] = {}  # state -> [(run segment, its hash, rest)]
    todo = [root]
    while todo:
        state = todo.pop()
        p, cnt, lo = state
        if not cnt or state in runs:
            continue
        reach = cnt.index(0) if 0 in cnt else len(cnt)  # runs from p end before the first 0
        less = tuple(c - 1 for c in cnt[:reach])  # what a run through all of cnt[:reach] leaves
        live = next((i for i, c in enumerate(less) if c), reach)  # the first position a run leaves open
        after = next((i for i in range(reach, len(cnt)) if cnt[i]), len(cnt))  # the first after the 0s
        children = []
        for length in range(lo, reach + 1):
            if p + length - 1 not in lasts:
                continue
            if not live:  # p repeats: the rest's runs at p are as long or longer
                rest_state = (p, less[:length] + cnt[length:], length)
            else:
                if live < length:  # the run leaves a copy of p + live open
                    z = live
                    rest = less[live:length] + cnt[length:]
                else:
                    z = length if length < reach else after
                    rest = cnt[z:]
                cap = caps[p + z - 1]
                if cap and any(map(int.__gt__, rest, cap)):
                    continue  # too few runs cross p + z - 1: the label is not below the bound
                rest_state = (p + z, rest, 1)
            seg = made.get((p, length))
            if seg is None:
                seg = made[p, length] = make(p, length)
            children.append((seg, seg[5], rest_state))
        runs[state] = children
        todo.extend(rest for _, _, rest in children)
    memo: dict[tuple, list] = {(top + 1, (), 1): [((), 0)]}
    for state in sorted(runs, key=lambda s: sum(s[1])):
        memo[state] = [((seg,) + segs, h + hs) for seg, h, rest in runs[state] for segs, hs in memo[rest]]
    return memo[root]
