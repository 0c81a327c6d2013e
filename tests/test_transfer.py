from fractions import Fraction

import pytest

from segcalc import (
    Multisegment,
    NotTransferable,
    Segment,
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
    speh_ubar,
    ubar_factor,
    unitary_esi,
)
from segcalc.transfer import lj_unitary_product, s_gamma_d

F = Fraction


def seg(a, b, line="rho", step=1):
    a, b = F(a), F(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


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
    assert lj_std(registry, x, 2) == VirtualRep.zero(2)


def test_lj_std_of_cuspidal_pair_expansion(registry):
    got = lj_std(registry, expand_u(1, "rho", 2), 2)
    assert got == VirtualRep(2, {ms(seg(0, 0, step=2)): -1})


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


def test_ll_less_refines_native_order_on_corpus():
    # native comparability always implies comparability transported through
    # the factorwise correspondence
    import itertools
    from collections import Counter

    from segcalc import CuspidalPoint, enumerate_multisegments
    from segcalc.multiseg import descendants

    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(4), size):
            support = Counter(CuspidalPoint("rho", F(p)) for p in combo)
            for b in enumerate_multisegments(support, step=2, limit=6):
                for a in descendants(b):
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
    assert in_image_lju(registry, UnitaryProduct.empty(), 2) == UnitaryProduct.empty()


def test_alpha_pair_target_has_pair_witness(registry):
    base = lj_u(registry, 2, "rho", 1, 2)
    target = UnitaryProduct(
        tuple(base.twisted(F(1, 4)).product) + tuple(base.twisted(F(-1, 4)).product)
    )
    got = in_image_lju(registry, target, 2)
    assert got is not None
    t = lj_unitary_product(registry, got, 2)
    assert t.multisegment() == target.multisegment()
