"""Segments and multisegments, their relations, elementary operations and order.

A segment is an arithmetic progression of cuspidal points on one line:
``{nu^(start + j*step) rho : 0 <= j < length}``.  The split side always has
step 1; an inner-form side uses step s(rho') per line.  A multisegment is a
multiset of segments kept in a canonical sorted order so that multiset
equality and hashing are O(1) dictionary operations.

Two segments on the same line and step with starts congruent mod step live
on the same *effective line* ``(line, step, offset_class)``; only such
segments can ever be linked.  ``Segment`` alone maps an exponent to its
integer position there: linkage, the order (rank tables on each effective
line), enumeration and duality compare positions ``first..last`` and build
segments back with ``Segment.from_positions``.  Equality and the canonical
order read one tuple of line, step, offset class and integer positions fixed
at construction, never the Fraction ``start``; a segment's hash is computed
once from the integer fields of that tuple, and a multisegment hashes once,
from its segments' hashes.  The ``repr`` of a segment or multisegment is its
canonical text form, the one ``dsl`` parses; ``to_json()`` is its JSON form.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import CuspidalPoint, ExponentLike, LineRegistry, frac


class LimitExceeded(ValueError):
    """A bounded search was asked to exceed its configured limit."""


class Segment:
    """Positions ``first..last`` of the effective line ``(line, step, offset_class)``.

    ``start = offset_class + first * step`` with ``0 <= offset_class < step``; all
    three are fixed at construction, ``offset_class`` as an int when integral and
    as a Fraction otherwise.  One stored tuple ``(line, step, offset_class, first,
    length)`` decides equality and the canonical order (``sort_key()``); the hash
    is computed once, from the integer fields ``(line, step, numerator,
    denominator of offset_class, first, length)``, so equal segments hash
    equally whichever constructor built them.
    """

    __slots__ = ("line", "step", "start", "length", "first", "_order", "_hash")

    def __init__(self, line: str, start: ExponentLike, length: int, step: int = 1):
        if step < 1:
            raise ValueError(f"segment step must be >= 1, got {step}")
        start = frac(start)
        den = start.denominator
        first, num = divmod(start.numerator, den * step)
        self._fix(line, step, num if den == 1 else Fraction(num, den), num, den, first, length, start)

    @classmethod
    def from_positions(cls, effective_line: tuple, first: int, last: int) -> "Segment":
        """The segment covering positions ``first..last`` of an effective line.

        Segments built from one ``effective_line`` tuple share its offset object.
        """
        line, step, offset = effective_line
        num, den = offset.numerator, offset.denominator
        shift, num = divmod(num, den * step)
        if shift or den == 1:  # an int offset, or one outside [0, step) moved into its class
            offset = num if den == 1 else Fraction(num, den)
        first, length = first + shift, last - first + 1
        start = Fraction(num + first * step) if den == 1 else Fraction(num + first * step * den, den)
        seg = cls.__new__(cls)
        seg._fix(line, step, offset, num, den, first, length, start)
        return seg

    def _fix(self, line, step, offset, num, den, first, length, start) -> None:
        """Set every slot once."""
        if length < 1:
            raise ValueError(f"segment length must be >= 1, got {length}")
        put = object.__setattr__
        put(self, "line", line)
        put(self, "step", step)
        put(self, "start", start)
        put(self, "length", length)
        put(self, "first", first)
        put(self, "_order", (line, step, offset, first, length))
        put(self, "_hash", hash((line, step, num, den, first, length)))

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Segment is immutable")

    def __reduce__(self):
        return Segment, (self.line, self.start, self.length, self.step)

    def __eq__(self, other) -> bool:
        if isinstance(other, Segment):
            return self._order == other._order
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def offset_class(self):
        return self._order[2]

    @property
    def last(self) -> int:
        return self.first + self.length - 1

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

    def shifted(self, delta: ExponentLike) -> "Segment":
        return Segment(self.line, self.start + frac(delta), self.length, self.step)

    def sort_key(self):
        return self._order

    def effective_line(self):
        return self._order[:3]

    def __repr__(self) -> str:
        prime = "'" if self.step > 1 else ""
        return f"{self.line}{prime}:[{self.start},{self.end}]"

    def to_json(self) -> dict:
        return {"line": self.line, "start": str(self.start), "end": str(self.end), "step": self.step}


def unitary_esi(line: str, length: int, step: int = 1) -> Segment:
    """The length-``length`` segment on ``line`` centered at exponent 0."""
    return Segment(line, -Fraction(length - 1, 2) * step, length, step)


class SegmentRelation(enum.Enum):
    EQUAL = "equal"
    UNLINKED = "unlinked"
    LINKED_ADJACENT = "linked_adjacent"
    LINKED_OVERLAPPING = "linked_overlapping"


def segment_relation(s1: Segment, s2: Segment) -> SegmentRelation:
    """Classify a pair: linked iff the union is a segment distinct from both."""
    if s1.effective_line() != s2.effective_line():
        return SegmentRelation.UNLINKED
    a1, b1, a2, b2 = s1.first, s1.last, s2.first, s2.last
    if a1 == a2 and b1 == b2:
        return SegmentRelation.EQUAL
    if (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2) or a2 > b1 + 1 or a1 > b2 + 1:
        return SegmentRelation.UNLINKED  # nested (the union is one of them) or a gap
    if a2 > b1 or a1 > b2:
        return SegmentRelation.LINKED_ADJACENT
    return SegmentRelation.LINKED_OVERLAPPING


def _union_intersection(s1: Segment, s2: Segment) -> tuple[Segment, Optional[Segment]]:
    """Union and intersection of two linked segments (intersection may be None)."""
    line = s1.effective_line()
    union = Segment.from_positions(line, min(s1.first, s2.first), max(s1.last, s2.last))
    lo, hi = max(s1.first, s2.first), min(s1.last, s2.last)
    return union, Segment.from_positions(line, lo, hi) if lo <= hi else None


_ORDER = attrgetter("_order")
_HASH = attrgetter("_hash")


class Multisegment:
    """A multiset of segments in canonical order (hashable, immutable).

    The order and the hash are read from the segments' stored keys; the hash
    is computed once, at construction.
    """

    __slots__ = ("segments", "_hash")

    def __init__(self, segments: Iterable[Segment] = ()):
        segs = tuple(sorted(segments, key=_ORDER))
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_hash", hash(tuple(map(_HASH, segs))))

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("Multisegment is immutable")

    def __reduce__(self):
        return Multisegment, (self.segments,)

    @classmethod
    def empty(cls) -> "Multisegment":
        return cls(())

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __bool__(self) -> bool:
        return bool(self.segments)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Multisegment)
            and self._hash == other._hash
            and self.segments == other.segments
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Multisegment") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return tuple(map(_ORDER, self.segments))

    def __or__(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segments + other.segments)

    def shifted(self, delta: ExponentLike) -> "Multisegment":
        d = frac(delta)
        return Multisegment(s.shifted(d) for s in self.segments)

    def support(self) -> Counter:
        out: Counter = Counter()
        for s in self.segments:
            out.update(s.points())
        return out

    def endings(self) -> Counter:
        return Counter(s.ending for s in self.segments)

    def ell(self) -> int:
        """Maximum segment length (0 for the empty multisegment)."""
        return max((s.length for s in self.segments), default=0)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(s) for s in self.segments) + "}"

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.segments]


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
    case).  The results are canonicalized and de-duplicated.
    """
    out: set[Multisegment] = set()
    segs = m.segments
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            rel = segment_relation(segs[i], segs[j])
            if rel not in (SegmentRelation.LINKED_ADJACENT, SegmentRelation.LINKED_OVERLAPPING):
                continue
            union, inter = _union_intersection(segs[i], segs[j])
            rest = segs[:i] + segs[i + 1 : j] + segs[j + 1 :]
            new = (union,) if inter is None else (union, inter)
            out.add(Multisegment(rest + new))
    return out


def rigid_decomposition(m: Multisegment) -> list[Multisegment]:
    """Partition into rigid parts, one per effective line, in canonical order."""
    groups: dict[tuple, list[Segment]] = {}
    for s in m.segments:
        groups.setdefault(s.effective_line(), []).append(s)
    return [Multisegment(groups[k]) for k in sorted(groups)]


def is_lower(ma: Multisegment, mb: Multisegment) -> bool:
    """True iff ``ma`` is reachable from ``mb`` by >= 0 elementary operations.

    Elementary operations preserve the cuspidal support and never mix
    effective lines, so the test decomposes over the rigid parts and applies
    the rank criterion inside each part.
    """
    if ma == mb:
        return True
    if ma.support() != mb.support():
        return False
    parts_a = {p.segments[0].effective_line(): p for p in rigid_decomposition(ma)}
    parts_b = {p.segments[0].effective_line(): p for p in rigid_decomposition(mb)}
    if parts_a.keys() != parts_b.keys():
        return False
    return all(_reachable(parts_b[key], target) for key, target in parts_a.items())


def _reachable(source: Multisegment, target: Multisegment) -> bool:
    """``target`` lies below ``source`` on one effective line, by the rank criterion.

    With r(i, j) = #{segments containing [i, j]} on integer positions, that is
    r_target >= r_source for all i <= j (Zelevinsky 1980; Abeasis-Del Fra-Kraft
    1981).  A point's multiplicity is the sum of r(i, i) over the parts, so after
    the support check in ``is_lower`` this forces equal supports part by part.
    """
    net: Counter = Counter()  # (first, last) position -> target count minus source count
    for part, sign in ((target, 1), (source, -1)):
        for s in part.segments:
            net[s.first, s.last] += sign
    lo, hi = min(first for first, _ in net), max(last for _, last in net)
    for i in range(lo, hi + 1):
        for j in range(i, hi + 1):
            rank = sum(c for (first, last), c in net.items() if first <= i and j <= last)
            if rank < 0:
                return False
    return True


def descendants(m: Multisegment) -> set[Multisegment]:
    """All multisegments strictly or trivially below ``m`` (BFS closure)."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for x in frontier:
            for y in elementary_successors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def hermitian_dual(m: Multisegment, registry: LineRegistry) -> Multisegment:
    """[line: a..b] -> [dual(line): -b..-a], same step."""
    out = []
    for s in m.segments:
        dual = registry[s.line].dual
        out.append(Segment(dual, -s.end, s.length, s.step))
    return Multisegment(out)


def is_hermitian(m: Multisegment, registry: LineRegistry) -> bool:
    return hermitian_dual(m, registry) == m


def enumerate_multisegments(
    support: Iterable[CuspidalPoint] | Counter,
    step: int = 1,
    limit: int = 10,
) -> set[Multisegment]:
    """All partitions of a support multiset into step-``step`` segments.

    The support splits into effective lines (line plus offset class mod
    step); partitions are enumerated independently per class and combined.
    Raises LimitExceeded when the support has more than ``limit`` points.
    """
    cnt = +Counter(support)
    total = sum(cnt.values())
    if total > limit:
        raise LimitExceeded(f"support size {total} exceeds limit {limit}")

    classes: dict[tuple, Counter] = {}  # effective line -> position multiplicities
    for (line, exp), mult in cnt.items():
        point = Segment(line, exp, 1, step)
        classes.setdefault(point.effective_line(), Counter())[point.first] = mult

    per_class = [
        [
            [Segment.from_positions(eff, first, first + n - 1) for first, n in part]
            for part in _integer_partitions(positions)
        ]
        for eff, positions in classes.items()
    ]
    return {
        Multisegment(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*per_class)
    }


def _integer_partitions(positions: Counter) -> set[tuple[tuple[int, int], ...]]:
    """Partitions of an integer multiset into runs, as ((start, length), ...)."""
    memo: dict[tuple, set] = {}

    def rec(cnt: tuple[tuple[int, int], ...]) -> set[tuple[tuple[int, int], ...]]:
        if not cnt:
            return {()}
        if cnt in memo:
            return memo[cnt]
        d = dict(cnt)
        p = min(d)
        out: set[tuple[tuple[int, int], ...]] = set()
        length = 0
        while d.get(p + length, 0) > 0:
            length += 1
            d2 = dict(d)
            for q in range(p, p + length):
                d2[q] -= 1
                if d2[q] == 0:
                    del d2[q]
            key = tuple(sorted(d2.items()))
            for rest in rec(key):
                out.add(tuple(sorted(rest + ((p, length),))))
        memo[cnt] = out
        return out

    return rec(tuple(sorted(positions.items())))
