import copy
import itertools
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import (
    LimitExceeded,
    Multisegment,
    Segment,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    dual_irr,
    expand_u,
    expand_unit_product,
    recognize_unitary,
    speh_ubar,
    ubar_factor,
    unitary_esi,
)
from segcalc.gkring import RECOGNITION_LIMIT
from strategies import (
    admissible_permutations,
    count_admissible,
    labels,
    labels_with_repeats,
    ms,
    recognize_unitary_greedy,
    seg,
    shifted,
    unitary_products,
)


F = Fraction


# -- ring structure ------------------------------------------------------------


def test_product_of_basis_elements():
    x = VirtualRep.of(ms(seg(0, 0)))
    y = VirtualRep.of(ms(seg(1, 1)))
    assert x * y == VirtualRep.of(ms(seg(0, 0), seg(1, 1)))


def test_empty_label_is_unit():
    x = VirtualRep.of(ms(seg(0, 2)), 3)
    assert x * VirtualRep(1, {Multisegment(): 1}) == x


def test_product_is_bilinear():
    a = VirtualRep.of(ms(seg(0, 1)))
    b = VirtualRep.of(ms(seg(1, 2)))
    c = VirtualRep.of(ms(seg(0, 0)))
    assert (a - b) * c == a * c - b * c


def test_virtual_rep_drops_zero_coefficients_and_owns_its_terms():
    a, b = ms(seg(0, 0)), ms(seg(0, 1))
    assert VirtualRep(1, {a: 2, b: 0}).terms == {a: 2}
    terms = {a: 2}
    v = VirtualRep(1, terms)
    terms[a], terms[b] = 5, 1
    assert v.terms == {a: 2}
    assert VirtualRep.of(a) - VirtualRep.of(a) == VirtualRep() and VirtualRep(1, {a: 0}).is_zero()
    assert (VirtualRep.of(a) + VirtualRep.of(b)) * VirtualRep.of(b, 0) == VirtualRep()


def test_side_mismatch_rejected():
    from segcalc.multiseg import SideMismatch

    with pytest.raises(SideMismatch):
        VirtualRep(1, {Multisegment(): 1}) * VirtualRep(2, {Multisegment(): 1})


def test_only_an_integer_scales_a_virtual_rep():
    v = VirtualRep.of(ms(seg(0, 0)))
    assert 2 * v == VirtualRep.of(ms(seg(0, 0)), 2)
    # a rational coefficient is no element of the Grothendieck group, and dsl could not read it back
    for act in (lambda: F(1, 2) * v, lambda: 2.5 * v, lambda: v * 2):
        with pytest.raises(TypeError):
            act()


def test_only_a_virtual_rep_adds_to_a_virtual_rep():
    v = VirtualRep.of(ms(seg(0, 0)))
    for act in (lambda: v + 1, lambda: v - 1, lambda: 1 - v, lambda: v + ms(seg(0, 0)), lambda: v - ms(seg(0, 0))):
        with pytest.raises(TypeError):
            act()


# -- unit constructors -----------------------------------------------------------


def test_speh_u_square():
    assert SpehUnit(unitary_esi("rho", 2), 2).multisegment() == ms(seg(-1, 0), seg(0, 1))


def test_speh_u_single_copy():
    for l in range(1, 6):
        assert SpehUnit(unitary_esi("rho", l), 1).multisegment() == ms(seg(-F(l - 1, 2), F(l - 1, 2)))


def test_speh_u_cuspidal_column():
    assert SpehUnit(unitary_esi("rho", 1), 3).multisegment() == ms(seg(-1, -1), seg(0, 0), seg(1, 1))


def test_speh_u_prime_steps_by_s():
    sigma = unitary_esi("rho", 1, 2)
    assert SpehUnit(sigma, 2).multisegment() == ms(seg(-1, -1, step=2), seg(1, 1, step=2))


def test_speh_ubar_steps_by_one():
    sigma = unitary_esi("rho", 1, 2)
    got = speh_ubar(sigma, 2)
    assert got == ms(
        Segment("rho", F(-1, 2), 1, 2), Segment("rho", F(1, 2), 1, 2)
    )
    # the two copies land on distinct offset classes mod 2
    assert len({s.offset_class for s in got.segments}) == 2


def test_speh_ubar_single_copy():
    sigma = unitary_esi("rho", 3, 2)
    assert speh_ubar(sigma, 1) == ms(sigma)


def test_pi_u_alpha_splits_centers():
    u = SpehUnit(unitary_esi("rho", 2), 1)
    assert SpehUnit(u.base, u.count, u.twist, F(1, 4)).multisegment() == ms(
        seg(F(-3, 4), F(1, 4)), seg(F(-1, 4), F(3, 4))
    )


def test_pi_u_alpha_boundary_rejected():
    u = SpehUnit(unitary_esi("rho", 2), 1)
    with pytest.raises(ValueError):
        SpehUnit(u.base, u.count, u.twist, 0).multisegment()
    with pytest.raises(ValueError):
        SpehUnit(u.base, u.count, u.twist, F(1, 2)).multisegment()


def test_pi_u_alpha_on_column():
    u = SpehUnit(unitary_esi("rho", 1), 2)
    got = SpehUnit(u.base, u.count, u.twist, F(1, 3)).multisegment()
    centers = sorted(s.center for s in got.segments)
    assert centers == sorted(
        [F(-1, 2) - F(1, 3), F(-1, 2) + F(1, 3), F(1, 2) - F(1, 3), F(1, 2) + F(1, 3)]
    )


# -- ubar factorization ------------------------------------------------------------


def test_ubar_factor_exact_multiple():
    sigma = unitary_esi("rho", 1, 2)
    got = ubar_factor(sigma, 4)
    assert got == UnitaryProduct(
        [SpehUnit(sigma, 2, F(-1, 2)), SpehUnit(sigma, 2, F(1, 2))]
    )


def test_ubar_factor_mixed_blocks():
    sigma = unitary_esi("rho", 1, 2)
    got = ubar_factor(sigma, 3)
    assert got == UnitaryProduct([SpehUnit(sigma, 2, 0), SpehUnit(sigma, 1, 0)])


def test_ubar_factor_small_k_drops_second_block():
    sigma = unitary_esi("rho", 1, 2)
    assert ubar_factor(sigma, 1) == UnitaryProduct([SpehUnit(sigma, 1, 0)])


def test_ubar_factor_matches_ubar_label():
    for s in range(1, 5):
        for l in range(1, 3):
            sigma = unitary_esi("rho", l, s)
            for k in range(1, 9):
                assert ubar_factor(sigma, k).multisegment() == speh_ubar(sigma, k)


# -- expansions ----------------------------------------------------------------------


def test_expand_u_two_by_two():
    got = expand_u(2, "rho", 2)
    want = VirtualRep(1, {ms(seg(-1, 0), seg(0, 1)): 1, ms(seg(-1, 1), seg(0, 0)): -1})
    assert got == want


def test_expand_u_single_copy_is_one_term():
    for l in range(1, 5):
        got = expand_u(l, "rho", 1)
        assert got == VirtualRep.of(ms(seg(-F(l - 1, 2), F(l - 1, 2))))


def test_expand_u_cuspidal_pair():
    got = expand_u(1, "rho", 2)
    want = VirtualRep(
        1,
        {
            ms(seg(F(-1, 2), F(-1, 2)), seg(F(1, 2), F(1, 2))): 1,
            ms(seg(F(-1, 2), F(1, 2))): -1,
        },
    )
    assert got == want


def test_expand_u_term_count_is_admissible_count():
    for l in range(1, 4):
        for k in range(1, 5):
            v = expand_u(l, "rho", k)
            assert len(v.terms) == count_admissible(k, l)
            assert all(c in (-1, 1) for c in v.terms.values())


def test_admissible_count_is_factorial_for_long_segments():
    import math

    for k in range(1, 6):
        for l in range(k, k + 3):
            assert count_admissible(k, l) == math.factorial(k)


def test_admissible_permutations_match_filtered_permutations_with_inversion_signs():
    def inversions(w):
        return sum(a > b for a, b in itertools.combinations(w, 2))

    for k in range(1, 7):
        for l in range(1, k + 1):
            want = sorted(
                (w, (-1) ** inversions(w))
                for w in itertools.permutations(range(1, k + 1))
                if all(v + l >= i for i, v in enumerate(w, 1))
            )
            assert sorted(admissible_permutations(k, l)) == want, (k, l)


def test_expand_u_leading_term():
    for l in range(1, 4):
        for k in range(1, 4):
            v = expand_u(l, "rho", k)
            lead = SpehUnit(unitary_esi("rho", l), k).multisegment()
            assert v.terms[lead] == 1
            for label in v.terms:
                if label != lead:
                    assert label.ell() > l


def test_expand_u_prime_cuspidal_pair():
    sigma = unitary_esi("rho", 1, 2)
    got = expand_unit_product(UnitaryProduct([SpehUnit(sigma, 2)]), 2)
    want = VirtualRep(
        2,
        {
            ms(seg(-1, -1, step=2), seg(1, 1, step=2)): 1,
            ms(seg(-1, 1, step=2)): -1,
        },
    )
    assert got == want


def test_expand_u_prime_single_copy():
    sigma = unitary_esi("rho", 3, 2)
    assert expand_unit_product(UnitaryProduct([SpehUnit(sigma, 1)]), 2) == VirtualRep.of(ms(sigma), 1, 2)


def test_expand_u_prime_mirrors_split_case():
    # same alternating structure as the split expansion, stretched by s
    split = expand_u(2, "rho", 2)
    inner = expand_unit_product(UnitaryProduct([SpehUnit(unitary_esi("rho", 2, 2), 2)]), 2)
    stretch = {
        Multisegment(
            Segment("rho", 2 * s.start, s.length, 2) for s in label.segments
        ): c
        for label, c in split.terms.items()
    }
    assert inner.terms == stretch


def test_expand_ubar_single_copy():
    sigma = unitary_esi("rho", 1, 2)
    assert expand_unit_product(ubar_factor(sigma, 1), 2) == VirtualRep.of(ms(sigma), 1, 2)


def test_expand_ubar_is_product_of_unit_expansions():
    sigma = unitary_esi("rho", 1, 2)
    got = expand_unit_product(ubar_factor(sigma, 4), 2)
    want = expand_unit_product(ubar_factor(sigma, 4), 2)
    assert got == want
    lead = speh_ubar(sigma, 4)
    assert got.terms[lead] == 1


# -- recognition -----------------------------------------------------------------------


def test_recognize_single_unit():
    m = SpehUnit(unitary_esi("rho", 2), 2).multisegment()
    got = recognize_unitary(m)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 2), 2)])


def test_recognize_alpha_pair():
    u = SpehUnit(unitary_esi("rho", 1), 1)
    m = SpehUnit(u.base, u.count, u.twist, F(1, 4)).multisegment()
    got = recognize_unitary(m)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 1), 1, 0, F(1, 4))])


def test_recognize_rejects_asymmetric_support():
    m = ms(seg(F(-1, 4), F(3, 4)))
    assert recognize_unitary(m) is None


def test_recognize_rejects_labels_whose_largest_center_is_negative():
    # no k >= 1 puts the largest center at s(k-1)/2 + beta with 0 <= beta < s/2
    for x in (F(-1, 4), F(-1, 2), F(-1)):
        assert recognize_unitary(ms(seg(x, x))) is None
        assert recognize_unitary(ms(seg(x, x, step=2))) is None


def test_recognize_rejects_a_progression_longer_than_the_centers_left_before_building_it():
    # the largest center 10^5 asks for a unit of 2 * 10^5 + 1 copies, but the label has two points
    start = time.perf_counter()
    assert recognize_unitary(ms(seg(-10**5, -10**5), seg(10**5, 10**5))) is None
    assert time.perf_counter() - start < 0.5


def test_twist_free_products_are_hermitian():
    from segcalc import LineRegistry, is_hermitian

    reg = LineRegistry.standard()
    products = [
        UnitaryProduct([SpehUnit(unitary_esi("rho", 2), 3)]),
        UnitaryProduct(
            [
                SpehUnit(unitary_esi("rho", 1), 2, 0, F(1, 3)),
                SpehUnit(unitary_esi("rho", 3, 2), 2),
            ]
        ),
        ubar_factor(unitary_esi("rho", 2, 3), 5),
    ]
    for up in products:
        assert is_hermitian(up.multisegment(), reg)


def test_recognize_round_trips_products():
    up = UnitaryProduct(
        [
            SpehUnit(unitary_esi("rho", 2), 3),
            SpehUnit(unitary_esi("rho", 1), 2, 0, F(1, 3)),
            SpehUnit(unitary_esi("rho", 3, 2), 2),
        ]
    )
    got = recognize_unitary(up.multisegment())
    assert got is not None
    assert got.multisegment() == up.multisegment()
    assert got == up


@given(unitary_products(steps=(1, 2, 3)))
def test_recognize_inverts_multisegment_on_generated_products(up):
    assert recognize_unitary(up.multisegment()) == up


@given(st.one_of(labels(), labels_with_repeats(), unitary_products(steps=(1, 2, 3)).map(UnitaryProduct.multisegment)))
def test_recognize_equals_the_greedy_oracle_on_generated_labels(m):
    assert recognize_unitary(m) == recognize_unitary_greedy(m)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("alpha", [F(1, 3), F(1, 4), F(1, 6)])
def test_recognize_equals_the_greedy_oracle_on_mirrored_pair_halves(step, alpha):
    pair = SpehUnit(unitary_esi("rho", 2, step), 2, 0, alpha)
    up, dn = (h.multisegment() for h in pair.halves())
    assert {s.offset_class for s in (up | dn).segments} == {(alpha * step) % step, (-alpha * step) % step}
    for m, want in ((up | dn, UnitaryProduct([pair])), (up, None), (dn, None)):
        assert recognize_unitary(m) == recognize_unitary_greedy(m) == want


def test_recognize_rejects_a_third_offset_and_a_zero_center_sum_left_to_the_greedy():
    third = ms(seg(F(1, 3), F(1, 3)), seg(F(-2, 3), F(-2, 3)))  # centers sum to -1/3
    split_pair = ms(seg(1, 1), seg(-1, -1))  # centers sum to 0, but no unit has centers {1, -1}
    for m in (third, split_pair):
        assert recognize_unitary(m) is recognize_unitary_greedy(m) is None


def test_recognize_checks_the_limit_before_the_center_sum():
    m = ms(Segment("rho", 1, RECOGNITION_LIMIT + 1))  # its one center is far from 0
    with pytest.raises(LimitExceeded, match=f"^label exceeds recognition limit {RECOGNITION_LIMIT}$"):
        recognize_unitary(m)


@given(labels())
@example(ms(unitary_esi("rho", 3), unitary_esi("chi", 2, 3), Segment("rho", F(-1, 4), 1, 2), seg(0, 1)))
def test_a_unit_base_is_refused_exactly_when_its_center_is_not_0(m):
    for s in m.segments:
        if s.center == 0:
            assert SpehUnit(s, 2).base is s
        else:
            with pytest.raises(ValueError, match="centered at exponent 0"):
                SpehUnit(s, 2)


def test_unit_layout_is_its_halves():
    pair = SpehUnit(unitary_esi("rho", 2, 2), 3, F(1, 2), F(1, 3))
    up, dn = pair.halves()
    assert (up.twist, dn.twist, up.alpha, dn.alpha) == (F(1, 2) + F(2, 3), F(1, 2) - F(2, 3), None, None)
    assert pair.centers() == up.centers() + dn.centers()
    assert pair.multisegment() == up.multisegment() | dn.multisegment()
    assert expand_unit_product(UnitaryProduct([pair]), 2) == expand_unit_product(UnitaryProduct([up, dn]), 2)
    plain = SpehUnit(unitary_esi("rho", 2), 3)
    assert plain.halves() == (plain,) and plain.centers() == [1, 0, -1]


@given(unitary_products(steps=(1, 2, 3)), st.sampled_from([F(0), F(1, 3), F(-1, 2)]))
def test_dual_swaps_each_units_l_and_k_and_unit_labels_are_the_moved_bases(up, twist):
    # dual(u(Z(rho, l), k)) = u(Z(rho, k), l) unit by unit, pairs and inner-form steps included
    up = up.twisted(twist)
    swapped = UnitaryProduct(SpehUnit(unitary_esi(u.base.line, u.count, u.step), u.base.length, u.twist, u.alpha)
                             for u in up)
    assert dual_irr(up.multisegment()) == swapped.multisegment()
    for u in up:  # the labels built on positions equal the base moved by each Fraction center or twist
        b, k = u.base, u.count
        assert u.multisegment() == Multisegment(shifted(b, c) for c in u.centers())
        assert speh_ubar(b, k, twist) == Multisegment(shifted(b, twist + F(k - 1, 2) - i) for i in range(k))


# -- copies ------------------------------------------------------------------------------


@given(
    st.one_of(labels(), labels_with_repeats()),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.sampled_from([None, F(1, 4)]),
)
def test_labels_products_and_virtual_reps_survive_copy_and_pickle(m, length, step, k, alpha):
    up = recognize_unitary(SpehUnit(unitary_esi("rho", length, step), k, 0, alpha).multisegment())
    assert up is not None
    v = VirtualRep.of(m, 2) - VirtualRep.of(up.multisegment())
    for x in (m, up, v):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x
            if x is not v:  # VirtualRep defines no hash
                assert hash(y) == hash(x)
