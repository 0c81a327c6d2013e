from collections import Counter
from fractions import Fraction

import pytest

from segcalc import (
    CuspidalPoint,
    LimitExceeded,
    Multisegment,
    Segment,
    SegmentRelation,
    elementary_successors,
    enumerate_multisegments,
    hermitian_dual,
    is_hermitian,
    is_lower,
    rigid_decomposition,
    segment_relation,
    stats,
)
from segcalc.selfcheck import window_corpus


def seg(a, b, line="rho", step=1):
    a, b = Fraction(a), Fraction(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


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


# -- stats -----------------------------------------------------------------------


def pt(x, line="rho"):
    return CuspidalPoint(line, Fraction(x))


def test_stats_example():
    m = ms(seg(0, 1), seg(1, 3))
    out = stats(m)
    assert out.endings == Counter({pt(1): 1, pt(3): 1})
    assert out.ell == 3
    assert out.support == Counter({pt(0): 1, pt(1): 2, pt(2): 1, pt(3): 1})


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


def test_hermitian_moves_lines(paired_registry):
    m = ms(seg(0, 0, line="a"))
    assert hermitian_dual(m, paired_registry) == ms(seg(0, 0, line="b"))


def test_hermitian_involution_and_commutation(registry):
    for m in window_corpus(4, 4):
        h = hermitian_dual(m, registry)
        assert hermitian_dual(h, registry) == m
        lhs = {hermitian_dual(x, registry) for x in elementary_successors(m)}
        assert lhs == elementary_successors(h)


# -- enumeration --------------------------------------------------------------------


def test_enumerate_two_partitions():
    support = Counter({pt(0): 1, pt(1): 2})
    got = enumerate_multisegments(support)
    assert got == {ms(seg(0, 1), seg(1, 1)), ms(seg(0, 0), seg(1, 1), seg(1, 1))}


def test_enumerate_singleton():
    assert enumerate_multisegments([pt(0)]) == {ms(seg(0, 0))}


def test_enumerate_does_not_span_gaps():
    assert enumerate_multisegments([pt(0), pt(2)]) == {ms(seg(0, 0), seg(2, 2))}


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
