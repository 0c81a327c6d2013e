import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import (
    LineRegistry,
    Multisegment,
    NotTransferable,
    Segment,
    SignedUnitaryProduct,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    c_inv,
    c_map,
    d_cuspidal,
    expand_u,
    expand_unit_product,
    in_image_lju,
    is_d_compatible,
    is_lower,
    lj_generic,
    lj_std,
    lj_u,
    ll_less,
    m_map,
    raw_dual_std,
    s_invariant,
    speh_ubar,
    ubar_factor,
    unitary_esi,
)
from segcalc.transfer import lj_unitary_product, s_gamma_d
from strategies import descendants_oracle, labels, ms, seg, unitary_products, virtual_reps

F = Fraction


# -- the esi correspondence ------------------------------------------------------


def test_c_map_block_of_length_s(registry):
    got = c_map(registry, seg(F(-1, 2), F(1, 2)), 2)
    assert got == d_cuspidal(registry, "rho", 2, 0)
    assert got == seg(0, 0, step=2)


def test_c_map_two_blocks(registry):
    got = c_map(registry, seg(F(-3, 2), F(3, 2)), 2)
    assert got == seg(-1, 1, step=2)


def test_c_map_rejects_bad_length(registry):
    with pytest.raises(NotTransferable):
        c_map(registry, seg(0, 2), 2)


def test_c_inv_round_trip(registry):
    for d in (2, 3, 4):
        for length in range(1, 5):
            for shift in (F(0), F(1, 2), F(-3, 2)):
                split = seg(shift, shift + length * d - 1)
                inner = c_map(registry, split, d)
                assert c_inv(inner) == split
                assert inner.length == length and inner.step == d


def test_c_map_preserves_support(registry):
    split = seg(F(-3, 2), F(3, 2))
    inner = c_map(registry, split, 2)
    assert list(c_inv(inner).points()) == list(split.points())


def test_c_map_and_c_inv_on_positions_equal_the_exponent_formulas(registry):
    """Against ``Segment(line, start +- (s-1)/2, ...)``: value, hash, start, repr and the offset object."""
    def same(got, want):
        assert (got, hash(got), got.start, repr(got)) == (want, hash(want), want.start, repr(want))
        if got.offset_class.denominator == 1:
            assert type(got.offset_class) is int
        else:  # interned as Segment(...) interns it
            assert got.offset_class is want.offset_class

    for s in range(1, 7):  # the line rho has p = 1, so s = d
        for offset in (F(0), F(1, 2), F(1, 3), F(2, 3)):
            for first in range(-2 * s, 2 * s + 1):
                for blocks in (1, 2, 3):
                    split = Segment("rho", offset + first, blocks * s)
                    inner = c_map(registry, split, s)
                    same(inner, Segment("rho", split.start + F(s - 1, 2), blocks, s))
                    same(c_inv(inner), split)
                    other = Segment("rho", offset + first, blocks, s)  # any offset class of step s
                    same(c_inv(other), Segment("rho", other.start - F(s - 1, 2), blocks * s, 1))
    with pytest.raises(NotTransferable, match=r"^c_map expects a split-side segment \(step 1\)$"):
        c_map(registry, seg(0, 2, step=2), 2)
    with pytest.raises(NotTransferable, match=r"^segment length 3 not divisible by s = 2$"):
        c_map(registry, seg(0, 2), 2)


# -- compatibility ------------------------------------------------------------------


def test_segment_compatibility(registry):
    assert is_d_compatible(registry, seg(F(-1, 2), F(1, 2)), 2)
    assert not is_d_compatible(registry, seg(0, 0), 2)


def test_label_compatibility_is_factorwise(registry):
    assert not is_d_compatible(registry, ms(seg(F(-1, 2), F(1, 2)), seg(0, 0)), 2)


def test_compatibility_uses_line_size():
    from segcalc import LineRegistry

    reg = LineRegistry()
    reg.register("tau", 2)
    # s(2, 2) = 1: everything over tau is 2-compatible
    assert is_d_compatible(reg, Segment("tau", 0, 1), 2)


# -- the lattice transfer --------------------------------------------------------------


def test_lj_std_on_compatible_label(registry):
    x = VirtualRep.of(ms(seg(F(-1, 2), F(1, 2))))
    assert lj_std(registry, x, 2) == VirtualRep(2, {ms(seg(0, 0, step=2)): 1})


def test_lj_std_drops_incompatible_label(registry):
    x = VirtualRep.of(ms(seg(0, 0)))
    assert lj_std(registry, x, 2) == VirtualRep(2)


def test_lj_std_of_cuspidal_pair_expansion(registry):
    got = lj_std(registry, expand_u(1, "rho", 2), 2)
    assert got == VirtualRep(2, {ms(seg(0, 0, step=2)): -1})


TWO_LINES = LineRegistry()
TWO_LINES.register("rho", 1)
TWO_LINES.register("chi", 2)
SPLIT = virtual_reps(1, labels(steps=(1,)))
DS = st.sampled_from([2, 3, 4])


def test_lj_std_zeroes_an_incompatible_label_before_rejecting_a_step():
    # the step-2 chi segment sorts first; rho:[0,0] is not 2-compatible, so the label is 0
    step2 = seg(0, 2, line="chi", step=2)
    assert lj_std(TWO_LINES, VirtualRep.of(ms(step2, seg(0, 0))), 2) == VirtualRep(2)
    with pytest.raises(NotTransferable):
        lj_std(TWO_LINES, VirtualRep.of(ms(step2, seg(0, 1))), 2)


def lj_std_per_occurrence(registry, x, d):
    """lj_std written out segment by segment, with no table."""
    if x.d != 1:
        raise NotTransferable("lj_std starts from the split side")
    terms = {}
    for m, c in x.terms.items():
        if is_d_compatible(registry, m, d):
            image = Multisegment(c_map(registry, s, d) for s in m.segments)
            terms[image] = terms.get(image, 0) + c
    return VirtualRep(d, terms)


@given(DS, SPLIT, SPLIT)
def test_lj_std_is_linear_and_multiplicative(d, x, y):
    assert lj_std(TWO_LINES, x + y, d) == lj_std(TWO_LINES, x, d) + lj_std(TWO_LINES, y, d)
    assert lj_std(TWO_LINES, -x, d) == -lj_std(TWO_LINES, x, d)
    assert lj_std(TWO_LINES, x * y, d) == lj_std(TWO_LINES, x, d) * lj_std(TWO_LINES, y, d)


@given(DS, virtual_reps())
def test_lj_std_matches_the_per_occurrence_map(d, x):
    # steps 1-3: a compatible label with a step != 1 segment raises, an incompatible one is 0
    try:
        want = lj_std_per_occurrence(TWO_LINES, x, d)
    except NotTransferable as e:
        with pytest.raises(NotTransferable, match=re.escape(str(e))):
            lj_std(TWO_LINES, x, d)
    else:
        assert lj_std(TWO_LINES, x, d) == want


@given(DS, st.sampled_from([2, 3]).flatmap(virtual_reps))
def test_lj_std_refuses_the_inner_form_side(d, x):
    with pytest.raises(NotTransferable):
        lj_std(TWO_LINES, x, d)


@given(st.sampled_from([2, 3]), labels(steps=(1,)))
@example(2, ms(seg(0, 1), seg(F(1, 2), F(7, 2)), seg(0, 2, "chi")))  # rho lengths 2 and 4, s = 2; chi s = 1
@example(3, ms(seg(F(1, 4), F(21, 4)), seg(0, 2, "chi")))  # lengths 6 and 3, s = 3 on both lines
@example(2, ms(seg(0, 2), seg(F(1, 2), F(3, 2))))  # rho:[0,2] is not 2-compatible: both sides are 0
def test_lj_std_and_raw_dual_std_commute_up_to_one_sign_per_label(d, m):
    """lj_std(raw_dual_std(x)) = sign * raw_dual_std(lj_std(x)) with sign = prod (-1)^(n - n/s) over segments.

    A cut of a length-n segment into pieces of lengths divisible by s is a
    cut of its length-n/s image, and the two cut signs differ by (-1)^(n - n/s);
    a label with an incompatible segment has no such cut, so both sides are 0.
    """
    x = VirtualRep.of(m)
    got, want = lj_std(TWO_LINES, raw_dual_std(x), d), raw_dual_std(lj_std(TWO_LINES, x, d))
    assert got.d == want.d == d
    sign = (-1) ** sum(s.length - s.length // s_invariant(TWO_LINES[s.line].p, d) for s in m.segments)
    assert got == sign * want


# -- transported order -------------------------------------------------------------------


def test_q_map_of_cuspidal(registry):
    # The paper's Q map is m_map; the q_map alias is gone.
    assert m_map(ms(seg(0, 0, step=2))) == ms(seg(F(-1, 2), F(1, 2)))


def test_m_map_is_factorwise(registry):
    inner = ms(seg(0, 0, step=2), seg(-1, 1, step=2))
    assert m_map(inner) == ms(seg(F(-1, 2), F(1, 2)), seg(F(-3, 2), F(3, 2)))


def test_ll_less_reflexive():
    x = ms(seg(0, 0, step=2))
    assert ll_less(x, x)


def test_ll_less_is_at_least_as_fine_as_native_order():
    # one inner-form elementary operation, and its image under m_map is again
    # one elementary operation: both orders agree here
    a = ms(seg(-1, 1, step=2))
    b = ms(seg(-1, -1, step=2), seg(1, 1, step=2))
    assert is_lower(a, b)
    assert ll_less(a, b)
    assert not ll_less(b, a)


def test_ll_less_decides_the_20_point_chain():
    # m_map sends the 20 step-2 singletons to 20 adjacent length-2 segments;
    # below those lie 2^19 labels
    top = ms(*(seg(2 * i, 2 * i, step=2) for i in range(20)))
    deep = ms(seg(0, 12, step=2), seg(14, 26, step=2), seg(28, 38, step=2))
    near = ms(seg(0, 2, step=2), *(seg(2 * i, 2 * i, step=2) for i in range(2, 20)))
    assert ll_less(deep, top)
    assert not ll_less(top, near)


def test_ll_less_refines_native_order_on_corpus():
    # native comparability always implies comparability transported through
    # the factorwise correspondence
    import itertools
    from collections import Counter

    from segcalc import CuspidalPoint, enumerate_multisegments

    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(4), size):
            support = Counter(CuspidalPoint("rho", F(p)) for p in combo)
            for b in enumerate_multisegments(support, step=2, limit=6):
                for a in descendants_oracle(b):
                    assert ll_less(a, b), (a, b)


# -- closed-form unit transfer --------------------------------------------------------------


def test_lj_u_divisible_case_is_ubar(registry):
    t = lj_u(registry, 2, "rho", 3, 2)
    assert t.sign == 1
    assert t.product == ubar_factor(unitary_esi("rho", 1, 2), 3)
    assert t.multisegment() == speh_ubar(unitary_esi("rho", 1, 2), 3)


def test_lj_u_vanishes(registry):
    t = lj_u(registry, 1, "rho", 1, 2)
    assert t.sign == 0 and len(t.product) == 0


def test_lj_u_dual_case_sign(registry):
    t = lj_u(registry, 1, "rho", 2, 2)
    assert t.sign == -1
    assert t.multisegment() == ms(seg(0, 0, step=2))
    # cross-check against the lattice transfer of the expansion
    assert lj_std(registry, expand_u(1, "rho", 2), 2) == VirtualRep(
        2, {t.multisegment(): t.sign}
    )


def test_lj_u_odd_s_has_positive_sign(registry):
    t = lj_u(registry, 1, "rho", 3, 3)
    assert t.sign == 1


def test_lj_u_agrees_with_lattice_transfer(registry):
    for s in (2, 3):
        for l in range(1, 5):
            for k in range(1, 5):
                t = lj_u(registry, l, "rho", k, s)
                got = lj_std(registry, expand_u(l, "rho", k), s)
                if t.sign == 0:
                    assert got.is_zero()
                else:
                    assert got == t.sign * expand_unit_product(t.product, s)


def test_lj_u_blocks_match_case_formulas(registry):
    # divisible case: the ubar factorization; dual case: stretched/shortened blocks
    for s in (2, 3, 4):
        for l0 in range(1, 4):
            for k in range(1, 2 * s + 1):
                t = lj_u(registry, l0 * s, "rho", k, s)
                assert t.sign == 1
                assert t.product == ubar_factor(unitary_esi("rho", l0, s), k)
        for l in range(1, 2 * s + 1):
            if l % s == 0:
                continue
            for k0 in range(1, 3):
                k = k0 * s
                t = lj_u(registry, l, "rho", k, s)
                a, b = divmod(l, s)
                units = [
                    SpehUnit(unitary_esi("rho", a + 1, s), k0, F(2 * i - b - 1, 2))
                    for i in range(1, b + 1)
                ]
                if a:
                    nb = s - b
                    units += [
                        SpehUnit(unitary_esi("rho", a, s), k0, F(2 * j - nb - 1, 2))
                        for j in range(1, nb + 1)
                    ]
                assert t.product == UnitaryProduct(units)
                want_sign = 1 if s % 2 else (-1) ** (k * l // s)
                assert t.sign == want_sign


def test_lj_std_is_a_ring_morphism(registry):
    # a product label is compatible iff both factors are, so the lattice
    # transfer respects induction products
    labels = [
        ms(seg(F(-1, 2), F(1, 2))),
        ms(seg(0, 0)),
        ms(seg(F(-3, 2), F(3, 2))),
        ms(seg(0, 1), seg(1, 2)),
    ]
    for m1 in labels:
        for m2 in labels:
            x, y = VirtualRep.of(m1), VirtualRep.of(m2)
            assert lj_std(registry, x * y, 2) == lj_std(registry, x, 2) * lj_std(
                registry, y, 2
            )


def test_lj_u_conserves_size(registry):
    for s in (2, 3, 4):
        for l in range(1, 7):
            for k in range(1, 7):
                t = lj_u(registry, l, "rho", k, s)
                if t.sign == 0:
                    continue
                total = sum(sg.length * sg.step for sg in t.multisegment().segments)
                assert total == l * k


# -- generic transfer --------------------------------------------------------------------------


def test_lj_generic_already_compatible(registry):
    gamma = [(unitary_esi("rho", 2), F(0))]
    t = lj_generic(registry, gamma, 1, 2)
    assert t.sign == 1
    assert t.multisegment() == ms(seg(0, 0, step=2))


def test_lj_generic_single_cuspidal_factor(registry):
    gamma = [(unitary_esi("rho", 1), F(0))]
    t = lj_generic(registry, gamma, 2, 2)
    assert t.sign == -1
    assert t.multisegment() == ms(seg(0, 0, step=2))


def test_lj_generic_divisibility(registry):
    gamma = [(unitary_esi("rho", 1), F(0))]
    t = lj_generic(registry, gamma, 3, 2)
    assert t.sign == 0


def test_lj_generic_twists_carry_through(registry):
    gamma = [(unitary_esi("rho", 1), F(1, 4)), (unitary_esi("rho", 2), F(-1, 4))]
    assert s_gamma_d(registry, [(s, F(e)) for s, e in gamma], 2) == 2
    t = lj_generic(registry, gamma, 2, 2)
    assert t.sign == -1
    # cuspidal factor at +1/4; the St2-type factor transfers to blocks at
    # -1/2 and +1/2, twisted by -1/4
    centers = sorted(s.center for s in t.multisegment().segments)
    assert centers == [F(-3, 4), F(1, 4), F(1, 4)]


# -- image membership -----------------------------------------------------------------------------


def test_ubar_has_a_witness(registry):
    target = ubar_factor(unitary_esi("rho", 1, 2), 4)
    got = in_image_lju(registry, target, 2)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 2), 4)])
    t = lj_unitary_product(registry, got, 2)
    assert t.multisegment() == target.multisegment()


def test_empty_product_is_in_the_image(registry):
    assert in_image_lju(registry, UnitaryProduct(), 2) == UnitaryProduct()


def test_alpha_pair_target_has_pair_witness(registry):
    base = lj_u(registry, 2, "rho", 1, 2)
    target = UnitaryProduct(
        tuple(base.twisted(F(1, 4)).product) + tuple(base.twisted(F(-1, 4)).product)
    )
    got = in_image_lju(registry, target, 2)
    assert got is not None
    t = lj_unitary_product(registry, got, 2)
    assert t.multisegment() == target.multisegment()


@given(DS, unitary_products())
def test_unit_transfer_is_the_lattice_transfer_of_the_expansion(d, up):
    t = lj_unitary_product(TWO_LINES, up, d)
    assert lj_std(TWO_LINES, expand_unit_product(up, 1), d) == t.sign * expand_unit_product(t.product, d)


def test_a_deep_target_finds_its_witness_without_recursion():
    # 1200 factors: a search recursing once per factor passes Python's default depth
    target = UnitaryProduct([SpehUnit(unitary_esi("rho", 1, 2), 1)] * 1200)
    got = in_image_lju(TWO_LINES, target, 2)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 1), 2)] * 1200)
    assert lj_unitary_product(TWO_LINES, got, 2) == SignedUnitaryProduct(1, target)
