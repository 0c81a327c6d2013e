import timeit
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcalc import (
    Multisegment,
    Segment,
    VirtualRep,
    dual_irr,
    mw_dual,
    raw_dual_std,
    rigid_decomposition,
    speh_ubar,
    unitary_esi,
)
from segcalc.selfcheck import window_corpus
from strategies import (
    assert_canonical,
    dual_irr_oracle,
    labels,
    labels_with_repeats,
    large_labels,
    ms,
    overlapping_labels,
    seg,
)

F = Fraction


# -- the chain algorithm -----------------------------------------------------------


def test_single_segment_explodes():
    assert mw_dual(ms(seg(0, 2))) == ms(seg(0, 0), seg(1, 1), seg(2, 2))


def test_square_is_self_dual():
    m = ms(seg(-1, 0), seg(0, 1))
    assert mw_dual(m) == m


def test_staircase_with_repeated_ending():
    assert mw_dual(ms(seg(0, 1), seg(1, 1))) == ms(seg(0, 0), seg(1, 1), seg(1, 1))


def test_repeated_segment_goes_to_singletons():
    got = mw_dual(ms(seg(0, 1), seg(0, 1)))
    assert got == ms(seg(0, 0), seg(0, 0), seg(1, 1), seg(1, 1))


def test_non_rigid_input_rejected():
    with pytest.raises(ValueError):
        mw_dual(ms(seg(0, 0), seg(F(1, 2), F(1, 2))))


def test_unlinked_family_explodes_to_singletons():
    got = mw_dual(ms(seg(0, 1), seg(3, 3)))
    assert got == ms(seg(0, 0), seg(1, 1), seg(3, 3))


# -- duality on full labels ----------------------------------------------------------


def test_dual_of_empty():
    assert dual_irr(Multisegment.empty()) == Multisegment.empty()


def test_ubar_parameters_swap_at_full_multiples():
    # dual of ubar(T(rho', l), k*s) is ubar(T(rho', k), l*s)
    for s in (2, 3):
        for l in range(1, 3):
            for k in range(1, 3):
                lhs = dual_irr(speh_ubar(unitary_esi("rho", l, s), k * s))
                rhs = speh_ubar(unitary_esi("rho", k, s), l * s)
                assert lhs == rhs


def test_dual_commutes_with_hermitian_dual():
    from segcalc import LineRegistry, hermitian_dual

    reg = LineRegistry.standard()
    for m in window_corpus(4, 6):
        assert hermitian_dual(dual_irr(m), reg) == dual_irr(hermitian_dual(m, reg))


def test_dual_does_not_reverse_the_order():
    # the involution is NOT order-reversing: here a < b while dual(a) < dual(b)
    a = ms(seg(0, 1), seg(1, 2))
    b = ms(seg(0, 0), seg(1, 1), seg(1, 2))
    from segcalc import is_lower

    assert is_lower(a, b)
    assert dual_irr(a) == a
    assert dual_irr(b) == ms(seg(0, 1), seg(1, 1), seg(2, 2))
    assert is_lower(dual_irr(a), dual_irr(b))
    assert not is_lower(dual_irr(b), dual_irr(a))


def test_dual_splits_across_rigid_parts():
    m = ms(seg(0, 1), seg(F(1, 2), F(1, 2)))
    assert dual_irr(m) == ms(seg(0, 0), seg(1, 1), seg(F(1, 2), F(1, 2)))


def rigid_parts_by_dict(m):
    """The parts grouped through a dict keyed by effective line, in sorted line order: the oracle for the runs."""
    groups = {}
    for s in m.segments:
        groups.setdefault(s[:3], []).append(s)
    return [Multisegment(groups[k]) for k in sorted(groups)]


@settings(max_examples=150)
@given(
    st.one_of(
        labels(),
        labels_with_repeats(),
        st.builds(Multisegment.__or__, labels(), labels()),
        overlapping_labels(),
        large_labels(),
    )
)
def test_the_canonical_runs_group_effective_lines_as_a_dict_does(m):
    # two labels joined: two lines, steps 1-3 and two offset shifts, so several offsets per (line, step); the
    # large labels hold up to 60 segments on one or two lines, so chains meet repeated and nested begins
    parts = rigid_parts_by_dict(m)
    assert [p.segments for p in rigid_decomposition(m)] == [p.segments for p in parts]
    assert [hash(p) for p in rigid_decomposition(m)] == [hash(p) for p in parts]
    want = Multisegment.empty()
    for part in parts:
        want = want | dual_irr_oracle(part)
    got = dual_irr(m)
    assert got.segments == want.segments == dual_irr_oracle(m).segments
    assert_canonical([got])


@given(st.one_of(labels(), labels_with_repeats()))
def test_dual_irr_equals_the_union_of_mw_dual_over_rigid_parts(m):
    parts = rigid_decomposition(m)
    want = Multisegment.empty()
    for part in parts:
        assert mw_dual(part) == dual_irr_oracle(part)
        want = want | dual_irr_oracle(part)
    assert dual_irr(m).segments == want.segments
    if len(parts) > 1:
        with pytest.raises(ValueError, match="rigid"):
            mw_dual(m)


def _best_of_5(f, arg):
    return min(timeit.repeat(lambda: f(arg), number=1, repeat=5))


@pytest.mark.parametrize(
    "shape, want",
    [
        (lambda n: [Segment("rho", 0, 1)] * n, lambda m: m),  # copies of one point: no chain passes below it
        (lambda n: [Segment("rho", 2 * i, 1) for i in range(n)], lambda m: m),  # points with gaps: one chain each
        (lambda n: [Segment("rho", i, 1) for i in range(n)], lambda m: ms(seg(0, m.segments[-1].last))),
        (lambda n: [Segment("rho", i, 16) for i in range(n // 16)], None),  # a staircase of short segments
    ],
    ids=["copies", "gaps", "consecutive", "staircase"],
)
def test_dual_irr_grows_near_linearly_in_the_segment_count(shape, want):
    # a chain step is one bisection and each chain's top comes off a heap: 4x the segments cost about 4x the
    # time, where a scan of the segments left per step or per chain costs 16x
    small, large = Multisegment(shape(1000)), Multisegment(shape(4000))
    for m in (small, large):
        if want is None:
            assert dual_irr(dual_irr(m)) == m
        else:
            assert dual_irr(m) == want(m)
    assert _best_of_5(dual_irr, large) < 8 * _best_of_5(dual_irr, small)


def test_dual_irr_of_an_800_by_400_staircase_is_an_involution():
    staircase = Multisegment(Segment("rho", i, 400) for i in range(800))
    dual = dual_irr(staircase)
    assert sum(s.length for s in dual.segments) == 800 * 400  # each chain step peels one point
    assert dual_irr(dual) == staircase


@given(labels())
def test_dual_irr_is_a_support_preserving_involution_on_generated_labels(m):
    # steps 1-3 and fractional offsets, several rigid parts per label
    d = dual_irr(m)
    assert d.support() == m.support()
    assert dual_irr(d) == m


# -- raw dual on the standard lattice ---------------------------------------------------


def test_raw_dual_of_length_two_segment():
    x = VirtualRep.of(ms(seg(0, 1)))
    want = VirtualRep(1, {ms(seg(0, 0), seg(1, 1)): 1, ms(seg(0, 1)): -1})
    assert raw_dual_std(x) == want


def test_raw_dual_of_point():
    x = VirtualRep.of(ms(seg(0, 0)))
    assert raw_dual_std(x) == x


def test_raw_dual_multiplicative_on_disjoint_segments():
    x = VirtualRep.of(ms(seg(0, 1), seg(3, 4)))
    got = raw_dual_std(x)
    assert len(got.terms) == 4
    a = raw_dual_std(VirtualRep.of(ms(seg(0, 1))))
    b = raw_dual_std(VirtualRep.of(ms(seg(3, 4))))
    assert got == a * b


def test_raw_dual_is_linear():
    x = VirtualRep.of(ms(seg(0, 1)), 2) - VirtualRep.of(ms(seg(0, 0), seg(1, 1)), 3)
    assert raw_dual_std(x) == 2 * raw_dual_std(
        VirtualRep.of(ms(seg(0, 1)))
    ) - 3 * raw_dual_std(VirtualRep.of(ms(seg(0, 0), seg(1, 1))))


@given(labels_with_repeats(3), labels_with_repeats(3), labels_with_repeats(3))
def test_raw_dual_is_multiplicative_and_linear_on_generated_labels(a, b, c):
    x = 2 * VirtualRep.of(a) - VirtualRep.of(b)
    y = VirtualRep.of(c)
    assert raw_dual_std(x * y) == raw_dual_std(x) * raw_dual_std(y)


def test_raw_dual_is_involutive_on_corpus():
    for m in window_corpus(5, 6):
        x = VirtualRep.of(m)
        assert raw_dual_std(raw_dual_std(x)) == x


def test_raw_dual_works_on_inner_side():
    x = VirtualRep(2, {ms(seg(0, 2, step=2)): 1})
    got = raw_dual_std(x)
    want = VirtualRep(
        2, {ms(seg(0, 0, step=2), seg(2, 2, step=2)): 1, ms(seg(0, 2, step=2)): -1}
    )
    assert got == want
