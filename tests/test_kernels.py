"""The expansion and order kernels against the per-term constructions they replace.

``_tadic_sum`` walks W_k^l depth first and ``segment_cut_expansion`` builds
each cut onto a shared prefix; both make finished prefixes labels with one
``tuple.__new__(Multisegment, (segs, h))`` without a sort, and
``raw_dual_std`` and ``|`` skip the sort where the pieces cannot
interleave, ``raw_dual_std`` joins a label's points to each term once,
after folding its longer segments, and the product stores each pair's
``a + b`` once, with no union call, where its operands lie strictly apart.
``descendants`` makes each block's partitions above the rank criterion as
canonical segment tuples with their hash sums and builds each distinct run
once, reusing the bounding label's own segments, and
``enumerate_multisegments`` is ``descendants`` of the singletons label;
``elementary_successors`` reads only the linked pairs off the canonical
order.  The oracles below keep the constructions these replaced: one sorted
label per admissible permutation, one ``itertools.combinations`` cut list
with a bounds tuple per cut, a fold that sorts every partial label and
folds each point in on its own, one new segment per run of every partition
found by plain recursion, every index pair classified by
``segment_relation`` and joined as point sets, and a breadth-first search
that calls ``elementary_successors`` on each label.  The kernels must agree
with them term for term, produce labels exactly as the sorting constructor
would, and run in a stack depth that does not grow with k or n.
"""

import itertools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import (
    CuspidalPoint,
    LineRegistry,
    Multisegment,
    Segment,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    c_inv,
    c_map,
    dual_irr,
    elementary_successors,
    enumerate_multisegments,
    expand_u,
    expand_unit_product,
    hermitian_dual,
    raw_dual_std,
    unitary_esi,
)
from segcalc import duality, multiseg
from segcalc.duality import segment_cut_expansion
from segcalc.gkring import _tadic_sum
from segcalc.multiseg import _OFFSETS, _RankCaps, descendants
from strategies import (
    SegmentRelation,
    admissible_permutations,
    assert_canonical,
    descendants_oracle,
    gap_free_blocks,
    labels,
    labels_with_repeats,
    ms,
    overlapping_labels,
    partition_runs,
    product_oracle,
    seg,
    segment_relation,
    virtual_reps,
)

F = Fraction
TWISTS = st.sampled_from([F(0), F(1), F(-2), F(1, 2), F(-3, 4), F(5, 4)])


def tadic_sum_oracle(line, l, k, step, twist, d):
    """One label per admissible permutation, sorted by the constructor."""
    origin = Segment(line, twist - F(k + l, 2) * step, 1, step)
    eff, base = origin[:3], origin.first
    terms = {}
    for w, sign in admissible_permutations(k, l):
        label = Multisegment(
            Segment.from_positions(eff, base + i, base + wi + l - 1) for i, wi in enumerate(w, 1) if wi + l != i
        )
        terms[label] = terms.get(label, 0) + sign
    return VirtualRep(d, terms)


def cut_expansion_oracle(seg):
    """(sign, pieces) for every choice of cut positions, in ``itertools.combinations`` order."""
    n, line = seg.length, seg[:3]
    out = []
    for cuts in itertools.chain.from_iterable(itertools.combinations(range(1, n), r) for r in range(n)):
        bounds = (0,) + cuts + (n,)
        pieces = tuple(Segment.from_positions(line, seg.first + lo, seg.first + hi - 1)
                       for lo, hi in zip(bounds, bounds[1:]))
        out.append(((-1) ** (n - 1 - len(cuts)), pieces))
    return out


def raw_dual_oracle(x):
    """The segment-by-segment fold with the oracle cuts, sorting every partial label."""
    terms = {}
    for label, coeff in x.terms.items():
        partial = {Multisegment.empty(): coeff}
        for seg in label.segments:
            folded = {}
            for m, c in partial.items():
                for sign, pieces in cut_expansion_oracle(seg):
                    key = Multisegment(m.segments + pieces)
                    folded[key] = folded.get(key, 0) + sign * c
            partial = folded
        for m, c in partial.items():
            terms[m] = terms.get(m, 0) + c
    return VirtualRep(x.d, terms)


def partitions_oracle(positions):
    """Every sorted tuple of runs (start, length) covering ``positions``, by plain recursion."""
    if not positions:
        return {()}
    p, out, length = min(positions), set(), 1
    while positions[p + length - 1]:
        rest = positions - Counter(range(p, p + length))
        out |= {tuple(sorted(part + ((p, length),))) for part in partitions_oracle(rest)}
        length += 1
    return out


def enumerate_oracle(support, step):
    """One new segment per run of every partition of each effective line, sorted by the constructor."""
    lines = {}
    for (line, exp), mult in Counter(support).items():
        point = Segment(line, exp, 1, step)
        lines.setdefault(point[:3], Counter())[point.first] += mult
    per_line = [
        [[Segment.from_positions(eff, a, a + n - 1) for a, n in part] for part in partitions_oracle(positions)]
        for eff, positions in lines.items()
    ]
    return {Multisegment(itertools.chain.from_iterable(choice)) for choice in itertools.product(*per_line)}


def successors_oracle(m):
    """Every index pair that ``segment_relation`` calls linked, replaced by its point-set union and intersection."""
    out = set()
    segs = m.segments
    for i, j in itertools.combinations(range(len(segs)), 2):
        s1, s2 = segs[i], segs[j]
        if segment_relation(s1, s2) not in (SegmentRelation.LINKED_ADJACENT, SegmentRelation.LINKED_OVERLAPPING):
            continue
        p1, p2 = ({s.start + k * s.step for k in range(s.length)} for s in (s1, s2))
        new = [Segment(s1.line, min(p), len(p), s1.step) for p in (p1 | p2, p1 & p2) if p]
        out.add(Multisegment([s for k, s in enumerate(segs) if k not in (i, j)] + new))
    return out


def cut_key(cut):
    sign, pieces = cut
    return sign, [p[:5] for p in pieces]


# -- W_k^l -------------------------------------------------------------------------


@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from([1, 2, 3]), TWISTS,
       st.sampled_from([1, 2, 3]), st.sampled_from(["rho", "chi"]))
def test_tadic_sum_equals_per_permutation_oracle(l, k, step, twist, d, line):
    got, want = _tadic_sum(line, l, k, step, twist, d), tadic_sum_oracle(line, l, k, step, twist, d)
    assert got == want
    assert list(got.terms) == list(want.terms)  # the lexicographic order of W_k^l


def test_tadic_sum_equals_oracle_on_every_small_shape():
    for l in range(1, 7):  # l >= k included: there i - l never exceeds 1
        for k in range(1, 8):
            assert _tadic_sum("rho", l, k, 1, F(0), 1) == tadic_sum_oracle("rho", l, k, 1, F(0), 1), (l, k)


@given(st.integers(1, 3), st.integers(1, 5), st.sampled_from([1, 2, 3]), TWISTS)
def test_expand_u_and_expand_u_prime_equal_the_oracle(l, k, step, twist):
    assert expand_u(l, "chi", k, twist) == tadic_sum_oracle("chi", l, k, 1, twist, 1)
    sigma = unitary_esi("rho", l, step)
    got = expand_unit_product(UnitaryProduct([SpehUnit(sigma, k, twist)]), 2)
    assert got == tadic_sum_oracle("rho", l, k, step, twist, 2)


# -- cuts and the raw dual --------------------------------------------------------------


def signed_cuts(seg):
    """``segment_cut_expansion(seg)`` as (sign, pieces, hash) triples, each group's parallel lists zipped."""
    return [(sign, pieces, h)
            for (cuts, hashes), sign in zip(segment_cut_expansion(seg), (1, -1), strict=True)
            for pieces, h in zip(cuts, hashes, strict=True)]


@given(st.integers(1, 8), st.sampled_from([1, 2, 3]), TWISTS, st.sampled_from(["rho", "chi"]))
def test_segment_cut_expansion_equals_combinations_oracle(n, step, start, line):
    seg = Segment(line, start, n, step)
    got = signed_cuts(seg)
    assert len(got) == 2 ** (n - 1)
    assert sorted((cut[:2] for cut in got), key=cut_key) == sorted(cut_expansion_oracle(seg), key=cut_key)
    assert all(h == hash(Multisegment(pieces)) for _, pieces, h in got)  # the carried hash


def test_cut_and_raw_dual_term_counts_are_the_closed_forms():
    """2^(n-1) cuts of a length-n segment, half of each sign from n = 2 on; prod 2^(len-1) raw-dual terms."""
    for n in range(1, 13):
        plus, minus = (len(cuts) for cuts, _ in segment_cut_expansion(Segment("rho", F(n, 3), n, 2)))
        assert (plus, minus) == ((1, 0) if n == 1 else (2 ** (n - 2), 2 ** (n - 2))), n
    for lengths in ((1,), (12,), (3, 4), (5, 1, 4), (2, 2, 2, 3)):
        # one segment per effective line: two lines, two offset classes, step 1 and 2
        places = [("rho", 0, 1), ("chi", 0, 1), ("rho", F(1, 2), 1), ("rho", 1, 2)]
        x = VirtualRep.of(Multisegment(Segment(line, a, n, s) for (line, a, s), n in zip(places, lengths)))
        assert len(raw_dual_std(x).terms) == math.prod(2 ** (n - 1) for n in lengths), lengths


@given(st.one_of(labels(), labels_with_repeats()))
def test_raw_dual_equals_sorting_fold_on_generated_labels(m):
    for d in (1, 2):
        x = VirtualRep.of(m, 3, d)
        assert raw_dual_std(x) == raw_dual_oracle(x)


@given(virtual_reps(1, labels_with_repeats(5)))
def test_raw_dual_equals_sorting_fold_on_generated_virtual_reps(x):
    assert raw_dual_std(x) == raw_dual_oracle(x)


def test_raw_dual_equals_oracle_on_repeats_and_two_lines():
    for segs, d in (  # (line, start, length, step), and the side
        ([("rho", 0, 3, 1), ("rho", 0, 3, 1)], 1),  # a repeat
        ([("rho", 0, 3, 1), ("rho", 1, 3, 1), ("rho", 2, 2, 1)], 1),  # interleaving pieces on one effective line
        ([("rho", 0, 2, 1), ("rho", 3, 2, 1)], 1),  # one effective line, disjoint
        ([("rho", 0, 3, 1), ("chi", 0, 3, 1), ("chi", 0, 3, 1)], 1),  # a new line, then a repeat on it
        ([("rho", 0, 2, 2), ("rho", 2, 2, 2), ("rho", 1, 2, 2)], 1),  # step 2, two offset classes
        ([("rho", F(1, 2), 3, 1), ("rho", 0, 3, 1)], 1),  # two effective lines on one line
        # points before, between and after long segments on one effective line
        ([("rho", -1, 1, 1), ("rho", 0, 3, 1), ("rho", 3, 1, 1), ("rho", 4, 2, 1), ("rho", 7, 1, 1)], 1),
        ([("rho", 0, 4, 1), ("rho", 2, 1, 1)], 1),  # a point inside a long segment's span: the join sorts
        ([("rho", 1, 1, 1), ("rho", 1, 1, 1), ("rho", 0, 3, 1), ("rho", 1, 1, 1)], 1),  # repeated points
        # points on a second line and on a second offset class
        ([("chi", 0, 1, 1), ("rho", 0, 2, 1), ("rho", F(1, 2), 1, 1), ("rho", 3, 1, 1), ("chi", 1, 2, 1)], 1),
        ([("rho", 0, 1, 1), ("rho", 1, 1, 1), ("chi", 2, 1, 1), ("rho", 1, 1, 1)], 1),  # points only
        ([("rho", 0, 1, 2), ("rho", 2, 3, 2), ("rho", 4, 1, 2), ("rho", 1, 1, 2), ("rho", 3, 2, 2)], 2),  # step 2
    ):
        x = VirtualRep.of(Multisegment(Segment(*s) for s in segs), 1, d)
        got = raw_dual_std(x)
        assert got == raw_dual_oracle(x), segs
        assert_canonical(got.terms)


def test_raw_dual_joins_a_labels_points_to_each_term_once(monkeypatch):
    """One cut expansion per segment longer than 1 and one ``_union`` per term, however many points there are.

    Folding each point in separately made n + 1 cut expansions for n points
    and one length-3 segment, and one pass over the terms per point.
    """
    calls = Counter()

    def counted(name, kernel):
        def run(*args):
            calls[name] += 1
            return kernel(*args)
        return run

    for name in ("segment_cut_expansion", "_union"):
        monkeypatch.setattr(duality, name, counted(name, getattr(duality, name)))
    for n in (10, 1000):
        points = [Segment("rho", i, 1) for i in range(n)]
        # the label of points alone is its own one term: no cut expansion, and one union with the empty label
        for segs, expansions, terms in ((points + [Segment("rho", n // 2, 3)], 1, 4), (points, 0, 1)):
            calls.clear()
            assert len(raw_dual_std(VirtualRep.of(Multisegment(segs))).terms) == terms
            assert calls == Counter({"segment_cut_expansion": expansions, "_union": terms}), (n, len(segs))
    assert raw_dual_std(VirtualRep.of(Multisegment(points))) == VirtualRep.of(Multisegment(points))


# -- canonical order ----------------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 5), st.sampled_from([1, 2, 3]), TWISTS,
       st.one_of(labels(5), labels_with_repeats(4)), st.one_of(labels(5), labels_with_repeats(4)))
def test_producers_without_a_sort_make_canonical_labels(l, k, step, twist, a, b):
    assert_canonical(expand_u(l, "rho", k, twist).terms)
    assert_canonical(expand_unit_product(UnitaryProduct([SpehUnit(unitary_esi("chi", l, step), k, twist)]), 2).terms)
    assert_canonical(raw_dual_std(VirtualRep.of(a) - 2 * VirtualRep.of(b)).terms)
    assert_canonical((a | b, b | a, a | a, a | Multisegment.empty(), Multisegment.empty() | b))
    assert a | b == b | a == Multisegment(a.segments + b.segments)
    assert_canonical((expand_u(l, "rho", k, twist) * (VirtualRep.of(a) - VirtualRep.of(b))).terms)
    assert_canonical(elementary_successors(a) | elementary_successors(a | b))


def test_interleaving_union_and_products_carry_the_hash_sum():
    a = Multisegment([Segment("rho", 0, 2), Segment("rho", 3, 2)])
    b = Multisegment([Segment("rho", 1, 3), Segment("chi", 0, 1)])
    assert not (a.segments[-1][:5] <= b.segments[0][:5]
                or b.segments[-1][:5] <= a.segments[0][:5])  # they interleave
    assert_canonical((a | b, b | a, a | a))
    x = expand_u(2, "rho", 3) + VirtualRep.of(b)
    assert_canonical((x * x).terms)
    assert_canonical((x * expand_u(1, "chi", 3, F(1, 2))).terms)


def assert_product_is_the_oracle(x, y):
    """``x * y`` equals the per-pair oracle term for term, in its insertion order, with canonical labels."""
    got, want = x * y, product_oracle(x, y)
    assert got == want and list(got.terms) == list(want.terms)  # x's terms outer, y's inner
    assert_canonical(got.terms)


def sums(d, **label_options):
    """``virtual_reps`` at side d whose labels may be the empty one, the unit of the product."""
    return virtual_reps(d, st.one_of(st.just(Multisegment()), labels(5, **label_options)))


RHO_STEP_1 = {"lines": ("rho",), "steps": (1,)}

# pairs that may interleave, and pairs whose segments lie on disjoint lines (chi before rho) or on disjoint
# offset classes of rho (0 and 1/4 before 1/2 and 3/4): the product joins the latter without a union per pair
SUMS_WITH_UNIT = st.sampled_from([1, 2]).flatmap(lambda d: st.one_of(
    st.tuples(sums(d), sums(d)),
    st.tuples(sums(d, lines=("chi",)), sums(d, lines=("rho",))),
    st.tuples(sums(d, shifts=(F(0), F(1, 4)), **RHO_STEP_1), sums(d, shifts=(F(1, 2), F(3, 4)), **RHO_STEP_1)),
))


@given(SUMS_WITH_UNIT)
def test_product_equals_the_per_pair_union_oracle(pair):
    x, y = pair
    assert_product_is_the_oracle(x, y)
    assert_product_is_the_oracle(y, x)
    unit = VirtualRep(x.d, {Multisegment(): 1})
    assert x * unit == x == unit * x


def interleaving_operands():
    """Two sums whose labels interleave on rho, on two of its offset classes, and on chi."""
    a = ms(seg(0, 1), seg(3, 4))
    b = ms(seg(2, 2), seg(5, 6))  # interleaves a on rho
    half = ms(seg(F(-1, 2), F(1, 2)), seg(F(5, 2), F(7, 2)))  # the half-integer class of rho, beside a's int one
    chi = ms(seg(-1, 0, "chi"))
    x = VirtualRep.of(a) + 2 * VirtualRep.of(half) - VirtualRep.of(chi)
    y = VirtualRep.of(b) - VirtualRep.of(half) + VirtualRep.of(Multisegment()) + VirtualRep.of(a | chi)
    return x, y


def touching_operands():
    """Two sums that touch at one segment s: the last of x's labels and the first of y's.

    With s < t on one effective line, {s} * {s, t} and {s, s} * {t} both
    make {s, s, t}, so the operands are not strictly apart and the pairs
    must accumulate.
    """
    s, t = seg(0, 0), seg(1, 1)
    return VirtualRep(1, {ms(s): 1, ms(s, s): 1}), VirtualRep(1, {ms(s, t): 1, ms(t): 1})


def test_product_equals_the_oracle_on_interleaving_and_mixed_offset_operands():
    x, y = interleaving_operands()
    for left, right in ((x, y), (y, x), (x, x), (y, y)):
        assert_product_is_the_oracle(left, right)
    x, y = touching_operands()
    sst = ms(seg(0, 0), seg(0, 0), seg(1, 1))
    for left, right in ((x, y), (y, x)):
        assert_product_is_the_oracle(left, right)
        assert (left * right).terms[sst] == 2


def test_products_of_operands_strictly_apart_call_no_union(monkeypatch):
    """``_union`` calls per product, counted: none where the operands lie strictly apart, one per pair otherwise."""
    calls, union = [], multiseg._union

    def counted(*args):
        calls.append(args)
        return union(*args)

    monkeypatch.setattr(multiseg, "_union", counted)
    rho, chi = expand_u(3, "rho", 5), expand_u(2, "chi", 4, 1)
    assert len(rho.terms) * len(chi.terms) == 1728
    x, y = interleaving_operands()
    u, v = touching_operands()
    assert [len(w.terms) for w in (x, y, u, v)] == [3, 4, 2, 2]
    for left, right, want in ((rho, chi, 0), (chi, rho, 0), (x, y, 12), (y, x, 12), (u, v, 4)):
        calls.clear()
        left * right
        assert len(calls) == want, (left, right)


def test_label_hashes_do_not_collide_on_large_families():
    """The hash of a label is the sum of its segments'; on these families every label hashes apart.

    Summing the segments' tuple hashes without the xorshift gave
    ``expand_u(3, 7)``'s 1536 labels only 163 distinct sums in one run.
    """
    def dual(*segs):  # (line, start, length[, step])
        return raw_dual_std(VirtualRep.of(Multisegment(Segment(*x) for x in segs))).terms

    families = [expand_u(l, "rho", k).terms for l, k in ((3, 7), (4, 6), (2, 8), (5, 6), (3, 8))]
    families += [
        expand_u(3, "rho", 8, F(1, 2)).terms,
        dual(("rho", 0, 12)),
        dual(("rho", 0, 12, 2)),
        dual(("rho", 0, 6), ("rho", 3, 7)),
        dual(("rho", 0, 4), ("rho", 2, 4), ("chi", 0, 4), ("chi", F(1, 2), 5)),
    ]
    sizes = [len(f) for f in families]
    assert sizes == [1536, 600, 1458, 720, 6144, 6144, 2048, 2048, 1792, 7680]
    assert [len(set(map(hash, f))) for f in families] == sizes


@given(st.sampled_from([1, 2, 3]), st.data())
def test_enumeration_is_canonical_and_equals_the_per_run_oracle(s, data):
    # two lines, several offset classes per line, repeated points
    m = data.draw(st.one_of(labels(5, steps=(s,)), labels_with_repeats(4)))
    support = m.support()
    got = enumerate_multisegments(support, step=s)
    assert got == enumerate_oracle(support, s)
    assert_canonical(got)
    assert all(x.support() == support for x in got)
    # the singletons label is the top of the order on its support
    top = Multisegment(Segment(line, exp, 1, s) for (line, exp), mult in support.items() for _ in range(mult))
    assert descendants(top) == got


def test_enumeration_builds_each_distinct_segment_once():
    got = enumerate_multisegments([CuspidalPoint("rho", Fraction(i)) for i in range(12)], limit=12)
    assert len(got) == 2**11
    assert len({id(s) for m in got for s in m.segments}) == 12 * 13 // 2  # the distinct runs


def test_integer_partitions_equal_the_recursive_oracle_on_repeats():
    # every multiset of at most 7 points in 0..4: repeats, gaps, and runs that sort after the rest
    for size in range(1, 8):
        for combo in itertools.combinations_with_replacement(range(5), size):
            positions = Counter(combo)
            assert partition_runs(positions) == partitions_oracle(positions), combo
    assert ((0, 1), (0, 2)) in partition_runs(Counter([0, 0, 1]))  # the run (0, 2) after (0, 1)


@given(st.one_of(labels(), labels_with_repeats(), overlapping_labels()))
@example(Multisegment(Segment(*x) for x in (  # overlapping pairs on two lines
    ("rho", 0, 3), ("rho", 1, 3), ("rho", 2, 3), ("chi", F(1, 2), 2, 2), ("chi", F(5, 2), 2, 2))))
def test_descendants_equal_the_plain_bfs_oracle(m):
    # two lines, steps 1-3, fractional offsets, repeated, nested and overlapping segments
    got = descendants(m)
    assert got == descendants_oracle(m)  # the rank-bounded partitions against one operation at a time
    assert got == descendants_oracle(m, successors_oracle)  # and against the all-pairs successors
    assert_canonical(got)
    own = {s: s for s in m.segments}
    assert all(s is own.get(s, s) for x in got for s in x.segments)  # m's own segments, never rebuilt
    sizes = []  # the bounded program's labels per block: canonical with the carried hash, none twice
    for _, run in itertools.groupby(m.segments, lambda s: s[:3]):
        spans = [(s.first, s.last) for s in run]
        positions = Counter(q for a, b in spans for q in range(a, b + 1))
        for block in gap_free_blocks(positions):
            inside = [(a, b) for a, b in spans if a in block]
            sizes.append(len(partition_runs(block, _RankCaps(inside, block), inside)))
    assert math.prod(sizes) == len(got)  # so the joined blocks repeat no label either


def test_descendants_equal_the_bfs_oracle_on_explicit_cases():
    for segs in (  # (line, start, length, step)
        [],  # the empty label
        [("rho", 0, 2, 1), ("rho", 1, 2, 1), ("chi", 0, 1, 1), ("chi", 1, 2, 1)],  # two effective lines
        [("rho", 0, 2, 1), ("rho", 1, 1, 1), ("rho", 3, 2, 1), ("rho", 4, 1, 1)],  # a gap at position 2
        [("rho", F(1, 2), 2, 2), ("rho", F(5, 2), 2, 2), ("rho", F(9, 2), 1, 2)],  # step 2, half-integer offset
    ):
        m = Multisegment(Segment(*s) for s in segs)
        got = descendants(m)
        assert got == descendants_oracle(m), segs
        assert_canonical(got)


def test_descendants_of_large_supports_finish_fast():
    # 2000 blocks joined pairwise; runs tried only where a segment ends; caps built only where asked
    start = time.perf_counter()
    assert len(descendants(Multisegment(Segment("rho", 2 * i, 1) for i in range(2000)))) == 1
    assert len(descendants(Multisegment([Segment("rho", 0, 2000), Segment("rho", 0, 2000)]))) == 1
    assert len(descendants(Multisegment([Segment("rho", 0, 2000), Segment("rho", 1, 2000)]))) == 2
    assert time.perf_counter() - start < 1


def test_descendants_build_each_distinct_segment_once():
    top = Multisegment(Segment("rho", i, 1) for i in range(11))
    below = descendants(top)
    assert len(below) == 2**10
    assert len({id(s) for m in below for s in m.segments}) == 11 * 12 // 2  # every run of 0..10, once


@given(st.one_of(labels(), labels_with_repeats(), overlapping_labels()))
def test_successors_equal_the_all_pairs_oracle_on_whole_labels(m):
    assert elementary_successors(m) == successors_oracle(m)


def test_successors_equal_the_all_pairs_oracle_on_every_kind_of_pair():
    m = Multisegment(Segment(*x) for x in (  # (line, start, length, step)
        ("rho", 0, 3, 1), ("rho", 0, 3, 1),  # equal
        ("rho", 1, 1, 1), ("rho", 0, 2, 1),  # nested in [0, 2]
        ("rho", 3, 2, 1), ("rho", 2, 3, 1),  # adjacent to and overlapping [0, 2]
        ("chi", 1, 2, 1), ("rho", F(1, 2), 2, 1), ("rho", 1, 2, 2), ("rho", 2, 1, 2),  # other lines
    ))
    pairs = {segment_relation(a, b) for a, b in itertools.combinations(m.segments, 2)}
    assert pairs == set(SegmentRelation)
    got = elementary_successors(m)
    assert got == successors_oracle(m)
    assert len(got) == 4  # [0,1]+[2,4], [0,2]+[3,4], [0,2]+[2,4] and [1,1]+[2,4]; the equal [0,2] give one
    assert_canonical(got)


def test_equal_offsets_are_one_object_and_keep_their_value_order():
    a, b = Segment("rho", F(1, 2), 1), Segment("rho", F(5, 2), 2)
    assert a.offset_class is b.offset_class == F(1, 2)
    assert Segment("rho", F(1, 2), 1, 2).offset_class is a.offset_class
    assert Segment("rho", F(-3, 2), 1, 2).offset_class is a.offset_class
    m = Multisegment([Segment("rho", 1, 1, 2), Segment("rho", F(1, 2), 1, 2)])
    assert repr(m) == "{rho':[1/2,1/2], rho':[1,1]}"


def test_a_non_integral_offset_class_is_one_object_whichever_producer_made_it(registry):
    made = [
        Segment("rho", F(7, 2), 2, 3),
        Segment.from_positions(("rho", 3, F(-5, 2)), 1, 2),  # outside [0, step)
        Segment.from_positions(("rho", 3, F(1, 2)), 1, 2),  # a Fraction of its own, inside [0, step)
        c_map(registry, Segment("rho", F(-1, 2), 6), 3),
        c_inv(Segment("rho", F(3, 2), 2, 3)),
    ]
    m = Multisegment([Segment("rho", F(1, 2), 2, 3), Segment("rho", F(5, 2), 2, 3), Segment("rho", F(1, 3), 1)])
    for image in (hermitian_dual(m, registry), dual_irr(m)):
        made += image.segments
    for cuts, _ in segment_cut_expansion(Segment("rho", F(-3, 4), 3, 2)):
        for pieces in cuts:
            made += pieces
    for t in made:  # a Fraction, and the very object Segment(...) holds for t's class
        want = Segment(t.line, t.start, t.length, t.step).offset_class
        assert type(want) is Fraction and t.offset_class is want, t
    assert all((f.numerator, f.denominator) == key for key, f in _OFFSETS.items())
    for obj, name in ((made[0], "first"), (made[0], "start"), (m, "segments"), (m, "_hash")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert made[0].first == made[0][3] and hash(m) == sum(map(hash, m.segments))


@given(labels())
def test_every_producer_builds_the_constructors_segment(m):
    # as a 6-tuple, hash field included, with the very offset object; hermitian_dual moves -offset into its class
    reg = LineRegistry()
    reg.register("rho", 1)
    reg.register("chi", 1, dual="rho")
    made = [*dual_irr(m).segments, *hermitian_dual(m, reg).segments]
    for label in itertools.chain(elementary_successors(m), descendants(m)):
        made += label.segments
    for seg in m.segments:
        for cuts, _ in segment_cut_expansion(seg):
            for pieces in cuts:
                made += pieces
    for t in made:
        want = Segment(t.line, t.start, t.length, t.step)
        assert type(t) is Segment and tuple(t) == tuple(want) and t.offset_class is want.offset_class, t


# -- stack depth ----------------------------------------------------------------------------


def _depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def _run_with_margin(margin, f):
    """``f()`` with the recursion limit ``margin`` frames above this one; None on RecursionError.

    The interpreter may count a few more levels than there are Python frames,
    so a small margin can already be refused by ``setrecursionlimit``.
    """
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_depth() + margin)
        return f()
    except RecursionError:
        return None
    finally:
        sys.setrecursionlimit(old)


def _dual_of_segment(n):
    return raw_dual_std(VirtualRep.of(Multisegment([Segment("rho", 0, n)])))


def test_large_kernels_run_30_frames_above_the_caller():
    want_u = tadic_sum_oracle("rho", 1, 11, 1, F(0), 1)
    want_dual = raw_dual_oracle(VirtualRep.of(Multisegment([Segment("rho", 0, 11)])))
    assert _run_with_margin(30, lambda: expand_u(1, "rho", 11)) == want_u
    assert _run_with_margin(30, lambda: _dual_of_segment(11)) == want_dual


def test_kernel_stack_depth_does_not_grow_with_k_or_n():
    for small, large in (
        (lambda: expand_u(1, "rho", 2), lambda: expand_u(1, "rho", 11)),
        (lambda: _dual_of_segment(2), lambda: _dual_of_segment(11)),
    ):
        margin = next(m for m in range(1, 60) if _run_with_margin(m, small) is not None)
        assert _run_with_margin(margin, large) is not None
