import copy
import itertools
import json
import os
import pickle
import subprocess
import sys
import time
import timeit
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import (
    CuspidalPoint,
    LimitExceeded,
    LineRegistry,
    Multisegment,
    Segment,
    VirtualRep,
    dual_irr,
    elementary_successors,
    enumerate_multisegments,
    expand_u,
    hermitian_dual,
    is_hermitian,
    is_lower,
    ll_less,
    m_map,
    raw_dual_std,
    rigid_decomposition,
    stats,
)
from segcalc.multiseg import descendants
from segcalc.selfcheck import window_corpus
from strategies import (
    SegmentRelation,
    descendants_oracle,
    gap_free_blocks,
    labels,
    labels_with_repeats,
    large_label_pairs,
    ms,
    order_pairs,
    overlapping_labels,
    partition_runs,
    rank_le_oracle,
    seg,
    segment_relation,
)


# -- relations ----------------------------------------------------------------


def test_relation_adjacent():
    assert segment_relation(seg(0, 0), seg(1, 1)) == SegmentRelation.LINKED_ADJACENT


def test_relation_overlapping():
    assert segment_relation(seg(0, 2), seg(1, 3)) == SegmentRelation.LINKED_OVERLAPPING


def test_relation_offset_mismatch_unlinked():
    assert (
        segment_relation(seg(0, 1), seg(Fraction(1, 2), Fraction(3, 2)))
        == SegmentRelation.UNLINKED
    )


def test_relation_equal_and_contained():
    assert segment_relation(seg(0, 1), seg(0, 1)) == SegmentRelation.EQUAL
    assert segment_relation(seg(0, 3), seg(1, 2)) == SegmentRelation.UNLINKED


def test_relation_gap_unlinked():
    assert segment_relation(seg(0, 1), seg(3, 4)) == SegmentRelation.UNLINKED


def test_relation_different_steps_unlinked():
    assert segment_relation(seg(0, 0), seg(2, 2, step=2)) == SegmentRelation.UNLINKED


# -- elementary operations ------------------------------------------------------


def test_successors_overlapping_keeps_intersection():
    m = ms(seg(0, 2), seg(1, 3))
    assert elementary_successors(m) == {ms(seg(0, 3), seg(1, 2))}


def test_successors_adjacent_drops_intersection():
    m = ms(seg(0, 0), seg(1, 1))
    assert elementary_successors(m) == {ms(seg(0, 1))}


def test_successors_equal_segments_not_linked():
    assert elementary_successors(ms(seg(0, 1), seg(0, 1))) == set()


# -- order ----------------------------------------------------------------------


def test_is_lower_reflexive():
    m = ms(seg(0, 1), seg(2, 2))
    assert is_lower(m, m)


def test_is_lower_one_step_and_irreversible():
    joined = ms(seg(0, 1))
    split = ms(seg(0, 0), seg(1, 1))
    assert is_lower(joined, split)
    assert not is_lower(split, joined)


def test_is_lower_bfs_case():
    assert is_lower(ms(seg(0, 2), seg(1, 1)), ms(seg(0, 1), seg(1, 2)))


def test_is_lower_different_support():
    assert not is_lower(ms(seg(0, 0)), ms(seg(1, 1)))
    # equal total support and rigid parts, but the step-1 and step-2 parts trade a point
    a, b = ms(seg(0, 0), seg(2, 2, step=2)), ms(seg(2, 2), seg(0, 0, step=2))
    assert not is_lower(a, b) and not is_lower(b, a)


def test_is_lower_needs_equal_support_on_each_line():
    # every rank off the diagonal is >= 0, but a has one point more than b
    assert not is_lower(ms(seg(0, 0), seg(1, 1)), ms(seg(0, 0)))
    assert not is_lower(ms(seg(0, 0)), ms(seg(0, 0), seg(1, 1)))


def test_is_lower_decides_the_20_point_chain():
    # below the 20 singletons lie 2^19 labels, which a search over
    # elementary operations would visit
    top = ms(*(seg(i, i) for i in range(20)))
    deep = ms(seg(0, 6), seg(7, 13), seg(14, 19))
    near = ms(seg(0, 1), *(seg(i, i) for i in range(2, 20)))
    assert is_lower(deep, top)
    assert not is_lower(top, near)


def test_is_lower_reads_a_long_span_at_its_endpoints():
    # a 5001-position line with four distinct endpoints: the ranks are read at those only
    start = time.perf_counter()
    assert is_lower(ms(seg(0, 5000)), ms(seg(0, 0), seg(1, 5000)))
    assert time.perf_counter() - start < 1


def test_is_lower_grows_at_most_quadratically_in_a_segments_points():
    # one segment of n points against its n singletons: the sweep reads O(n) ranks at each of n points, so 4n
    # points cost at most about 16x (8-13x measured), where a read per (first, last) pair over every entry costs 64x
    def both_ways(n):
        one, points = ms(seg(0, n - 1)), ms(*(seg(i, i) for i in range(n)))
        return min(timeit.repeat(lambda: (is_lower(one, points), is_lower(points, one)), number=1, repeat=5))

    one, points = ms(seg(0, 399)), ms(*(seg(i, i) for i in range(400)))
    assert is_lower(one, points) and not is_lower(points, one)
    assert both_ways(400) < 24 * both_ways(100)


@given(st.one_of(order_pairs(labels()), order_pairs(labels_with_repeats()), order_pairs(overlapping_labels()),
                 large_label_pairs()))
def test_is_lower_and_ll_less_decide_the_rank_oracle(pair):
    a, b = pair
    assert is_lower(a, b) == rank_le_oracle(a, b), (a, b)
    assert ll_less(a, b) == is_lower(m_map(a), m_map(b)), (a, b)


def test_ll_less_merges_inner_form_lines_that_flatten_onto_one_split_line():
    # (rho, 2, 0) and (rho, 2, 1) both flatten onto (rho, 1, 1/2): [-1/2, 1/2] and [1/2, 3/2] are linked there
    inner = ms(seg(0, 0, step=2), seg(1, 1, step=2))
    joined = ms(seg(Fraction(-1, 2), Fraction(3, 2)), seg(Fraction(1, 2), Fraction(1, 2)))
    assert m_map(inner) == ms(seg(Fraction(-1, 2), Fraction(1, 2)), seg(Fraction(1, 2), Fraction(3, 2)))
    assert ll_less(joined, inner) and is_lower(joined, m_map(inner))
    assert not ll_less(inner, joined) and not is_lower(m_map(inner), joined)


def _family(data, top, max_points):
    """``top``, a chain z >= y >= x below it, one more label below it and an unrelated label."""

    def below(m):
        return data.draw(st.sampled_from(sorted(descendants_oracle(m))))

    z = below(top)
    y = below(z)
    return [top, z, y, below(y), below(top), data.draw(labels(max_points))]


@given(labels(), st.data())
def test_is_lower_agrees_with_descendants_and_is_a_partial_order(top, data):
    family = _family(data, top, 7)
    for b in family:
        below = descendants_oracle(b)
        for a in family:
            assert is_lower(a, b) == (a in below), (a, b)
    for a in family:
        assert is_lower(a, a)
        for b in family:
            if is_lower(a, b) and is_lower(b, a):
                assert a == b, (a, b)
            for c in family:
                if is_lower(a, b) and is_lower(b, c):
                    assert is_lower(a, c), (a, b, c)


@given(labels(max_points=4), st.data())
def test_ll_less_is_the_order_transported_through_m_map(top, data):
    family = _family(data, top, 4)
    for b in family:
        below = descendants_oracle(m_map(b))
        for a in family:
            assert ll_less(a, b) == is_lower(m_map(a), m_map(b)) == (m_map(a) in below), (a, b)


def _points(s):
    return {s.start + j * s.step for j in range(s.length)}


def _segment_on(line, step, points):
    """The step-``step`` segment with this point set, or None if it is no progression."""
    pts = sorted(points)
    if any(b - a != step for a, b in zip(pts, pts[1:])):
        return None
    return Segment(line, pts[0], len(pts), step)


@given(labels(), labels())
def test_coordinate_round_trips_and_linkage_matches_point_sets(a, b):
    segs = a.segments + b.segments
    for s in segs:
        assert Segment.from_positions(s[:3], s.first, s.last) == s
    for s1 in segs:
        for s2 in segs:
            p1, p2 = _points(s1), _points(s2)
            union = None
            if (s1.line, s1.step) == (s2.line, s2.step):
                union = _segment_on(s1.line, s1.step, p1 | p2)
            if s1 == s2:
                want = SegmentRelation.EQUAL
            elif union is None or union in (s1, s2):
                want = SegmentRelation.UNLINKED
            elif p1.isdisjoint(p2):
                want = SegmentRelation.LINKED_ADJACENT
            else:
                want = SegmentRelation.LINKED_OVERLAPPING
            assert segment_relation(s1, s2) == want, (s1, s2)
            if want in (SegmentRelation.LINKED_ADJACENT, SegmentRelation.LINKED_OVERLAPPING):
                inter = _segment_on(s1.line, s1.step, p1 & p2) if p1 & p2 else None
                op = ms(union) if inter is None else ms(union, inter)
                assert elementary_successors(ms(s1, s2)) == {op}, (s1, s2)


# -- the integer label key --------------------------------------------------------


def _reference_order(s):
    """(line, step, offset class, position, length) recomputed from the exponents."""
    offset = s.start % s.step
    return (s.line, s.step, offset, (s.start - offset) / s.step, s.length)


@given(labels(), labels())
def test_segments_are_equal_iff_line_step_start_length_agree(a, b):
    segs = a.segments + b.segments
    for s1 in segs:
        for s2 in segs:
            same = (s1.line, s1.step, s1.start, s1.length) == (s2.line, s2.step, s2.start, s2.length)
            assert (s1 == s2) == same, (s1, s2)


@given(labels(), labels())
@example(ms(Segment("rho", 3, 2)), ms(Segment("rho", Fraction(3), 2)))  # an int start and its Fraction
def test_equal_segments_hash_equally_from_either_constructor(a, b):
    for s in a.segments + b.segments:
        copies = (
            Segment(s.line, s.start, s.length, s.step),
            Segment(s.line, str(s.start), s.length, s.step),
            Segment.from_positions(s[:3], s.first, s.last),
            Segment.from_positions((s.line, s.step, s.offset_class + s.step), s.first - 1, s.last - 1),
            Segment.from_positions((s.line, s.step, Fraction(s.offset_class)), s.first, s.last),
            pickle.loads(pickle.dumps(s)),
        )
        for t in copies:
            assert t == s and hash(t) == hash(s) and t.start == s.start, (t, s)
            # one form per offset class: an int when integral, a Fraction otherwise
            assert type(t.offset_class) is (int if s.start.denominator == 1 else Fraction), t
    rebuilt = Multisegment(Segment(s.line, s.start, s.length, s.step) for s in reversed(a.segments))
    assert rebuilt == a and hash(rebuilt) == hash(a)


def test_a_segment_has_no_start_slot():
    assert "start" not in Segment.__slots__


@given(labels(), st.integers(-2, 2), st.integers(-3, 3), st.integers(0, 3))
def test_a_segment_stores_positions_and_derives_its_exponents(m, turns, a, n):
    for s in m.segments:
        offset, step = s.offset_class, s.step
        assert 0 <= offset < step
        assert s.start == offset + s.first * step and type(s.start) is Fraction
        assert s.end == s.start + (s.length - 1) * step
        assert s.center == (s.start + s.end) / 2
        h = hash((s.line, step, offset.numerator, offset.denominator, s.first, s.length))
        assert hash(s) == (h ^ h >> 29) & (2**40 - 1)
        for t in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert t == s and hash(t) == hash(s) and repr(t) == repr(s)
        # an offset outside [0, step) moves into its class: hermitian_dual passes -offset
        for moved in (-offset, offset + turns * step):
            if not 0 <= moved < step:
                want = Segment(s.line, moved + a * step, n + 1, step)
                assert Segment.from_positions((s.line, step, moved), a, a + n) == want


@given(labels(), labels())
def test_canonical_order_is_line_step_offset_first_length(a, b):
    segs = list(reversed(a.segments + b.segments))
    want = sorted(segs, key=_reference_order)
    assert sorted(segs, key=lambda s: s[:5]) == want
    assert list(Multisegment(segs).segments) == want
    pair = [a, b, a | b]
    assert sorted(pair) == sorted(pair, key=lambda m: tuple(map(_reference_order, m.segments)))


def test_a_segment_is_the_tuple_of_its_key_and_hash():
    s = Segment("rho", Fraction(-1, 2), 3, 2)
    fields = ("line", "step", "offset_class", "first", "length")
    assert tuple(s) == (*(getattr(s, name) for name in fields), hash(s)) == ("rho", 2, Fraction(3, 2), -1, 3, hash(s))
    assert isinstance(s, tuple) and len(s) == 6
    t = Segment("chi", 2, 2)  # an integral offset class, which JSON can write
    assert s == tuple(s) and json.loads(json.dumps(t)) == ["chi", 1, 0, 2, 2, hash(t)]
    assert not hasattr(s, "__dict__")
    for name in (*fields, "start", "last", "end", "center", "unknown"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == Segment("rho", Fraction(-1, 2), 3, 2) and hash(s) == s[5]


def test_a_label_is_the_tuple_of_its_segments_and_hash():
    a = ms(seg(0, 2), seg(1, 1, "chi"), seg(Fraction(1, 2), Fraction(5, 2), "rho", 2))
    b = ms(seg(-1, 0), seg(0, 0))
    made = [a, b, Multisegment(), a | b, b | a, a | Multisegment(), Multisegment() | b, dual_irr(a), dual_irr(a | b)]
    made += raw_dual_std(VirtualRep.of(a) - VirtualRep.of(b)).terms
    made += expand_u(2, "rho", 3).terms
    made += descendants(b | ms(seg(1, 2)))
    made += [f(a | b) for f in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)))]
    for m in made:
        assert type(m) is Multisegment and isinstance(m, tuple) and not hasattr(m, "__dict__")
        assert tuple(m) == (m.segments, hash(m)) and m == (m.segments, hash(m))
        assert hash(m) == sum(map(hash, m.segments)) == m._hash
        assert len(m) == len(m.segments) and bool(m) == bool(m.segments)
    assert sorted(made) == sorted(made, key=lambda m: m.segments)


@given(st.lists(labels(), max_size=6))
def test_labels_sort_as_their_segments_do(got):
    assert sorted(got) == sorted(got, key=lambda m: m.segments)


def test_segments_and_labels_pickled_under_another_hash_seed_rebuild_their_hashes():
    """A pickle carries no hash: a segment's hash follows the string hash, which follows the seed."""
    made = "(Segment('rho', Fraction(-1, 2), 3, 2), Multisegment([Segment('chi', 1, 2), Segment('rho', 0, 1)]))"
    script = (
        "import pickle, sys\nfrom fractions import Fraction\nfrom segcalc import Multisegment, Segment\n"
        f"sys.stdout.buffer.write(pickle.dumps({made}))\n"
    )
    root = Path(__file__).resolve().parent.parent
    dumped = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "1"},
    ).stdout
    loaded = pickle.loads(dumped)
    fresh = eval(made)
    assert loaded == fresh and list(map(hash, loaded)) == list(map(hash, fresh))
    assert loaded[1].segments == fresh[1].segments and hash(loaded[1]) == sum(map(hash, fresh[1].segments))
    table = dict.fromkeys(fresh, "fresh")
    assert all(table[x] == "fresh" for x in loaded) and len({**table, **dict.fromkeys(loaded)}) == 2


# -- stats -----------------------------------------------------------------------


def pt(x, line="rho"):
    return CuspidalPoint(line, Fraction(x))


def test_stats_example():
    m = ms(seg(0, 1), seg(1, 3))
    out = stats(m)
    assert out.endings == Counter({pt(1): 1, pt(3): 1})
    assert out.ell == 3
    assert out.support == Counter({pt(0): 1, pt(1): 2, pt(2): 1, pt(3): 1})


@given(st.one_of(labels(), labels_with_repeats(), overlapping_labels()))
def test_support_counts_every_point_of_every_segment(m):
    assert m.support() == Counter(p for s in m.segments for p in s.points())


def test_support_merges_the_steps_that_meet_at_one_exponent():
    # rho:[0, 2] on step 1 and rho':[0, 4] on step 2 share the exponents 0 and 2
    m = ms(seg(0, 2), seg(0, 4, step=2))
    got = m.support()
    assert got == Counter({pt(0): 2, pt(1): 1, pt(2): 2, pt(4): 1})
    assert all(type(p.exp) is Fraction for p in got)


def test_stats_empty():
    out = stats(Multisegment.empty())
    assert out.endings == Counter() and out.ell == 0 and out.support == Counter()


def test_stats_symmetric_example():
    m = ms(seg(-1, 0), seg(0, 1))
    out = stats(m)
    assert out.endings == Counter({pt(0): 1, pt(1): 1})
    assert out.ell == 2
    assert out.support == Counter({pt(-1): 1, pt(0): 2, pt(1): 1})


# -- rigid decomposition ----------------------------------------------------------


def test_rigid_splits_offset_classes():
    m = ms(seg(0, 1), seg(Fraction(1, 2), Fraction(3, 2)))
    assert len(rigid_decomposition(m)) == 2


def test_rigid_splits_lines(paired_registry):
    m = ms(seg(0, 1), seg(0, 1, line="tau"))
    assert len(rigid_decomposition(m)) == 2


def test_rigid_keeps_one_line_together():
    m = ms(seg(0, 1), seg(1, 2))
    assert len(rigid_decomposition(m)) == 1


def test_rigid_parts_pairwise_unlinked_across_parts():
    m = ms(seg(0, 1), seg(Fraction(1, 2), Fraction(3, 2)), seg(2, 3))
    parts = rigid_decomposition(m)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            if i == j:
                continue
            for s1 in a.segments:
                for s2 in b.segments:
                    assert segment_relation(s1, s2) == SegmentRelation.UNLINKED


# -- hermitian dual ----------------------------------------------------------------


def test_hermitian_symmetric_label(registry):
    m = ms(seg(-1, 0), seg(0, 1))
    assert hermitian_dual(m, registry) == m
    assert is_hermitian(m, registry)


def test_hermitian_shifted_label(registry):
    m = ms(seg(0, 1))
    assert hermitian_dual(m, registry) == ms(seg(-1, 0))
    assert not is_hermitian(m, registry)


def test_hermitian_needs_the_dual_label_not_only_a_self_dual_support(registry):
    m = ms(seg(-1, 0), seg(1, 1))  # the support {-1, 0, 1} is self-dual, the label is not
    assert hermitian_dual(m, registry) == ms(seg(-1, -1), seg(0, 1))
    assert not is_hermitian(m, registry)


def test_hermitian_moves_lines(paired_registry):
    m = ms(seg(0, 0, line="a"))
    assert hermitian_dual(m, paired_registry) == ms(seg(0, 0, line="b"))


def test_hermitian_involution_and_commutation(registry):
    for m in window_corpus(4, 4):
        h = hermitian_dual(m, registry)
        assert hermitian_dual(h, registry) == m
        lhs = {hermitian_dual(x, registry) for x in elementary_successors(m)}
        assert lhs == elementary_successors(h)


@given(labels())
@example(ms(seg(-1, 0), seg(0, 1)))  # hermitian
@example(ms(seg(-1, 0), seg(1, 1)))  # a self-dual support, but not a hermitian label
def test_hermitian_dual_equals_the_exponent_oracle_and_is_an_involution(m):
    # steps 1-3 and offsets in halves and quarters; chi is self-dual, then swapped with rho
    for dual in (None, "rho"):
        reg = LineRegistry()
        reg.register("rho", 1)
        reg.register("chi", 1, dual)
        h = hermitian_dual(m, reg)
        want = Multisegment(Segment(reg[s.line].dual, -s.end, s.length, s.step) for s in m.segments)
        assert h.segments == want.segments
        assert hermitian_dual(h, reg) == m
        assert is_hermitian(m, reg) == (want == m)


# -- enumeration --------------------------------------------------------------------


def test_enumerate_two_partitions():
    support = Counter({pt(0): 1, pt(1): 2})
    got = enumerate_multisegments(support)
    assert got == {ms(seg(0, 1), seg(1, 1)), ms(seg(0, 0), seg(1, 1), seg(1, 1))}


def test_enumerate_singleton():
    assert enumerate_multisegments([pt(0)]) == {ms(seg(0, 0))}


def test_enumerate_does_not_span_gaps():
    assert enumerate_multisegments([pt(0), pt(2)]) == {ms(seg(0, 0), seg(2, 2))}


def test_enumerate_splits_2000_isolated_points_into_one_label():
    points = [pt(2 * i) for i in range(2000)]
    assert enumerate_multisegments(points, limit=5000) == {ms(*(seg(2 * i, 2 * i) for i in range(2000)))}


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=9))
def test_gap_free_blocks_partition_as_the_whole_multiset(points):
    # repeats and gaps both occur; a partition of the whole is one per block, concatenated
    positions = Counter(points)
    blocks = gap_free_blocks(positions)
    assert sum(blocks, Counter()) == positions
    split = {
        tuple(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*map(partition_runs, blocks))
    }
    assert split == partition_runs(positions)


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        enumerate_multisegments([pt(i) for i in range(11)])


def test_enumerate_respects_step():
    support = [CuspidalPoint("rho", Fraction(0)), CuspidalPoint("rho", Fraction(2))]
    got = enumerate_multisegments(support, step=2)
    assert got == {
        ms(seg(0, 2, step=2)),
        ms(seg(0, 0, step=2), seg(2, 2, step=2)),
    }


# -- operation invariants (length, endings, support) -----------------------------------


def test_elementary_operations_invariants():
    for m in window_corpus(5, 5):
        st = stats(m)
        for m2 in elementary_successors(m):
            st2 = stats(m2)
            assert st2.support == st.support
            assert st.ell <= st2.ell
            assert all(st2.endings[e] <= st.endings[e] for e in st2.endings)
