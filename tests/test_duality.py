from fractions import Fraction

import pytest

from segcalc import (
    Multisegment,
    Segment,
    VirtualRep,
    dual_irr,
    mw_dual,
    raw_dual_std,
    speh_ubar,
    unitary_esi,
)
from segcalc.selfcheck import window_corpus

F = Fraction


def seg(a, b, line="rho", step=1):
    a, b = F(a), F(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


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
