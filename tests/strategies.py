"""Hypothesis strategies and oracles shared by the property tests."""

import enum
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional

from hypothesis import strategies as st

from segcalc import Multisegment, Segment, SpehUnit, UnitaryProduct, VirtualRep, elementary_successors, unitary_esi
from segcalc.multiseg import _RankCaps, _run_partitions


def seg(a, b, line="rho", step=1) -> Segment:
    """The segment of exponents ``a..b`` on ``line`` with ``step``."""
    a, b = Fraction(a), Fraction(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs) -> Multisegment:
    return Multisegment(segs)


def assert_canonical(got):
    """Every label is a ``Multisegment`` and exactly what the sorting constructor makes of its segments.

    The constructor sums its segments' hashes anew, so a producer that
    carries a wrong hash sum fails here.
    """
    for m in got:
        assert type(m) is Multisegment, m
        sorted_m = Multisegment(m.segments)
        assert m.segments == sorted_m.segments, m
        assert hash(m) == hash(sorted_m), m


def shifted(s: Segment, delta) -> Segment:
    """``s`` moved by the exponent ``delta``, built from its Fraction start."""
    return Segment(s.line, s.start + delta, s.length, s.step)


class SegmentRelation(enum.Enum):
    EQUAL = "equal"
    UNLINKED = "unlinked"
    LINKED_ADJACENT = "linked_adjacent"
    LINKED_OVERLAPPING = "linked_overlapping"


def segment_relation(s1: Segment, s2: Segment) -> SegmentRelation:
    """Classify a pair, the linkage oracle: linked iff the union is a segment distinct from both."""
    if s1[:3] != s2[:3]:
        return SegmentRelation.UNLINKED
    a1, b1, a2, b2 = s1.first, s1.last, s2.first, s2.last
    if a1 == a2 and b1 == b2:
        return SegmentRelation.EQUAL
    if (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2) or a2 > b1 + 1 or a1 > b2 + 1:
        return SegmentRelation.UNLINKED  # nested (the union is one of them) or a gap
    if a2 > b1 or a1 > b2:
        return SegmentRelation.LINKED_ADJACENT
    return SegmentRelation.LINKED_OVERLAPPING


def gap_free_blocks(positions: Counter) -> list[Counter]:
    """The multiset of integer positions cut at every gap, in increasing order."""
    blocks: list[Counter] = []
    for p in sorted(positions):
        if not blocks or p - 1 not in blocks[-1]:
            blocks.append(Counter())
        blocks[-1][p] = positions[p]
    return blocks


def partition_runs(positions, caps=None, spans=None) -> set:
    """``_run_partitions`` of a position multiset read back as sorted ((first, length), ...) runs.

    ``spans`` are the bounding label's ``(first, last)`` pairs, where runs
    may end.  Unbounded, it passes the singletons' caps and spans, as
    ``enumerate_multisegments`` does through ``descendants``.  Each
    (segments, hash) pair must make a canonical label with its carried
    hash, and no partition may come twice, with or without a rank bound.
    """
    if caps is None:
        spans = [(q, q) for q in positions]
        caps = _RankCaps(spans, positions)
    made = {(a, b - a + 1): Segment.from_positions(("rho", 1, 0), a, b) for a, b in spans}
    parts = _run_partitions(("rho", 1, 0), positions, caps, made)
    assert_canonical(tuple.__new__(Multisegment, part) for part in parts)
    runs = [tuple((s.first, s.length) for s in segs) for segs, _ in parts]
    assert len(set(runs)) == len(runs), runs
    return set(runs)


def descendants_oracle(m, successors=elementary_successors):
    """The plain breadth-first closure of ``m`` under ``successors``: the reference for the order.

    It reads neither the rank criterion that ``is_lower`` and ``descendants``
    decide the order by nor their shared code, only one elementary operation
    at a time.
    """
    seen, frontier = {m}, [m]
    while frontier:
        nxt = []
        for x in frontier:
            for y in successors(x) - seen:
                seen.add(y)
                nxt.append(y)
        frontier = nxt
    return seen


def rank_le_oracle(ma: Multisegment, mb: Multisegment) -> bool:
    """The rank criterion read entry by entry: the reference for ``is_lower``.

    One signed table ``(effective line, first, last)`` -> count in ``ma``
    minus count in ``mb``; for each first i and each last j of a line it
    sums over every entry again, so it is cubic in a line's endpoints.
    r(i, i) is read at the firsts and each last + 1, r(i, j) at firsts i <=
    lasts j.
    """
    net: Counter = Counter()
    for m, sign in ((ma, 1), (mb, -1)):
        for s in m.segments:
            net[s[:3], s.first, s.last] += sign
    lines: dict[tuple, list] = {}  # effective line -> its entries that do not cancel
    for (eff, first, last), c in net.items():
        if c:
            lines.setdefault(eff, []).append((first, last, c))
    for entries in lines.values():
        firsts, lasts = {e[0] for e in entries}, {e[1] for e in entries}
        for i in firsts | {j + 1 for j in lasts}:
            if sum(c for first, last, c in entries if first <= i <= last):
                return False
        for i in firsts:
            for j in lasts:
                if i <= j and sum(c for first, last, c in entries if first <= i and j <= last) < 0:
                    return False
    return True


@st.composite
def labels(draw, max_points=7, steps=(1, 2, 3)):
    """Labels on two lines, the given steps, starts with denominator 1, 2 or 4, repeated points."""
    palette = draw(st.lists(st.tuples(st.sampled_from(["rho", "chi"]), st.sampled_from(steps)),
                            min_size=1, max_size=2))
    shift = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]))
    budget = draw(st.integers(1, max_points))
    segs = []
    while budget:
        length = draw(st.integers(1, budget))
        budget -= length
        line, step = draw(st.sampled_from(palette))
        segs.append(Segment(line, shift + draw(st.integers(-2, 2)), length, step))
    return Multisegment(segs)


@st.composite
def labels_with_repeats(draw, max_points=7):
    """A label from ``labels`` with one of its segments taken twice."""
    m = draw(labels(max_points))
    return Multisegment(m.segments + (draw(st.sampled_from(m.segments)),))


# effective lines (line, step, offset class): two on one line, a half-integer offset on step 2, a third on step 3
_EFFECTIVE_LINES = [("rho", 1, Fraction(0)), ("rho", 1, Fraction(1, 2)), ("chi", 1, Fraction(0)),
                    ("rho", 2, Fraction(1, 2)), ("chi", 3, Fraction(2, 3))]


@st.composite
def overlapping_labels(draw):
    """2-5 segments on one or two effective lines, with overlapping, nested and repeated starts.

    Starts fall in a window of four positions and lengths run to four, so
    pairs of a line overlap, nest, touch or repeat.  Of 100 derandomized
    examples 32 hold two overlapping linked segments, against 1 of
    ``labels()`` and ``labels_with_repeats()``.
    """
    lines = draw(st.lists(st.sampled_from(_EFFECTIVE_LINES), min_size=1, max_size=2, unique=True))
    segs = []
    for _ in range(draw(st.integers(2, 5))):
        line, step, offset = draw(st.sampled_from(lines))
        segs.append(Segment(line, offset + draw(st.integers(0, 3)) * step, draw(st.integers(1, 4)), step))
    return Multisegment(segs)


@st.composite
def large_labels(draw, max_segments=60):
    """Up to ``max_segments`` seeded random segments on one or two effective lines, steps 1-3, half-integer starts.

    A drawn seed drives ``random.Random``, so each example is one large label
    with dense overlaps, nesting and repeats: starts fall in 17 positions of
    a line and lengths run to 12.  Offset classes are integers and halves
    below the step, so two inner-form lines may flatten onto one split line.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    palette = [(line, step, Fraction(k, 2)) for line in ("rho", "chi") for step in (1, 2, 3) for k in range(2 * step)]
    lines = rng.sample(palette, rng.randint(1, 2))
    segs = []
    for _ in range(rng.randint(1, max_segments)):
        line, step, offset = rng.choice(lines)
        segs.append(Segment(line, offset + rng.randint(-8, 8) * step, rng.randint(1, 12), step))
    return Multisegment(segs)


def _cut_segments(rng: random.Random, m: Multisegment) -> Multisegment:
    """``m`` with about half its segments of length >= 2 cut in two at a seeded point: a label above ``m``."""
    out = []
    for s in m.segments:
        if s.length > 1 and rng.random() < 0.5:
            k = rng.randint(1, s.length - 1)
            out += [Segment(s.line, s.start, k, s.step), Segment(s.line, s.start + k * s.step, s.length - k, s.step)]
        else:
            out.append(s)
    return Multisegment(out)


@st.composite
def large_label_pairs(draw):
    """A label of ``large_labels`` and the label made by cutting some of its segments, either way round.

    The cut label lies above the other, so about half the pairs are in the
    order; the rest have equal supports and fail on a rank off the diagonal.
    """
    low = draw(large_labels())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    high = _cut_segments(rng, low)
    return (low, high) if rng.random() < 0.5 else (high, low)


@st.composite
def order_pairs(draw, label):
    """A label from ``label`` and another, either way round: drawn alike, made by cutting its segments, or grown.

    A grown label has one segment one point longer, so the supports differ
    only past that segment's last position.
    """
    a = draw(label)
    how = draw(st.sampled_from(["drawn", "cut", "cut", "grown"]))
    if how == "drawn":
        return a, draw(label)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if how == "cut":
        b = _cut_segments(rng, a)
    else:
        segs = list(a.segments)
        k = rng.randrange(len(segs))
        segs[k] = Segment(segs[k].line, segs[k].start, segs[k].length + 1, segs[k].step)
        b = Multisegment(segs)
    return (a, b) if rng.random() < 0.5 else (b, a)


@st.composite
def virtual_reps(draw, d=1, label=labels()):
    """A sum of up to six multiples (-3..3) of at most three labels, so terms repeat and cancel."""
    pool = draw(st.lists(label, min_size=1, max_size=3))
    v = VirtualRep(d)
    for m, c in draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-3, 3)), max_size=6)):
        v = v + VirtualRep.of(m, c, d)
    return v


def product_oracle(x: VirtualRep, y: VirtualRep) -> VirtualRep:
    """``x * y`` pair by pair, ``x``'s terms outer: the per-pair union accumulation the product replaced.

    Each union is made by the sorting constructor, which ``|`` equals, so
    the oracle shares no union rule with the product it checks.
    """
    terms: dict[Multisegment, int] = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            m = Multisegment(m1.segments + m2.segments)
            terms[m] = terms.get(m, 0) + c1 * c2
    return VirtualRep(x.d, terms)


@st.composite
def unitary_products(draw, lines=("rho", "chi"), steps=(1,)):
    """At most two factors, each a twist-0 unit or a pi(u, alpha) pair, with l and k <= 3.

    The bases are split by default.  On an inner-form step s the pair halves
    sit at +-alpha*s, so steps 2 and 3 give offsets in eighths, quarters,
    halves and thirds.
    """
    units = []
    for _ in range(draw(st.integers(0, 2))):
        base = unitary_esi(draw(st.sampled_from(lines)), draw(st.integers(1, 3)), draw(st.sampled_from(steps)))
        alpha = draw(st.sampled_from([None, None, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)]))
        units.append(SpehUnit(base, draw(st.integers(1, 3)), Fraction(0), alpha))
    return UnitaryProduct(units)


def recognize_unitary_greedy(m: Multisegment) -> Optional[UnitaryProduct]:
    """The greedy extraction alone, with no center-sum rejection: the oracle for ``recognize_unitary``.

    Centers are Fractions read through ``Segment.center``, and a candidate
    unit's centers are taken out of the remaining ones only when all are there.
    """
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
            k = 2 * c // s + 1
            if k < 1:
                return None
            beta = c - Fraction(s * (k - 1), 2)
            alpha = beta / s if beta else None
            unit = SpehUnit(base, k, Fraction(0), alpha)
            taken: dict[Fraction, int] = {}
            for x in unit.centers():
                if centers.get(x, 0) - taken.get(x, 0) <= 0:
                    return None
                taken[x] = taken.get(x, 0) + 1
            for x, n in taken.items():
                centers[x] -= n
                if centers[x] == 0:
                    del centers[x]
            units.append(unit)
    return UnitaryProduct(units)


def dual_irr_oracle(m: Multisegment) -> Multisegment:
    """The shortest-eligible list peeler on each effective line: the reference for ``dual_irr``.

    Each line keeps a plain list of ``(first, last)`` pairs.  A chain starts
    at the largest last; each step scans the whole list for the segments
    ending one position lower than the last one taken, with a smaller begin,
    and removes the shortest of them.  The chain's segments come back with
    their last point cut off, and its peeled points are one segment of the
    dual.  The sorting constructor orders the result.
    """
    lines: dict[tuple, list] = {}
    for s in m.segments:
        lines.setdefault(s[:3], []).append((s.first, s.last))
    out = []
    for line, work in lines.items():
        while work:
            e = max(end for _, end in work)
            chain = []
            while True:
                bound = chain[-1][0] if chain else e + 1
                candidates = [x for x in work if x[1] == e - len(chain) and x[0] < bound]
                if not candidates:
                    break
                chosen = min(candidates, key=lambda x: (x[1] - x[0], x[0]))
                work.remove(chosen)
                chain.append(chosen)
            out.append(Segment.from_positions(line, e - len(chain) + 1, e))
            work += [(begin, end - 1) for begin, end in chain if end > begin]
    return Multisegment(out)


# -- W_k^l, the index set of the Speh-unit expansion -----------------------------


def admissible_permutations(k: int, l: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (w, sign) over permutations w of {1..k} with w(i) + l >= i.

    Generated by backtracking so that large k with a tight bound stays
    cheap; 1-indexed w is returned as a tuple with w[i-1] = w(i).  Placing v
    at position i adds one inversion per unused value below v, so the sign
    is carried down the recursion.  It is the oracle for ``_tadic_sum``,
    which walks the same set without recursion.
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
