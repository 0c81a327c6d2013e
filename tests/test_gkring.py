import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segcalc import (
    Multisegment,
    Segment,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    expand_u,
    expand_u_prime,
    expand_ubar,
    expand_unit_product,
    pi_u_alpha,
    recognize_unitary,
    speh_u,
    speh_u_prime,
    speh_ubar,
    ubar_factor,
    unitary_esi,
)
from segcalc.gkring import admissible_permutations, count_admissible
from strategies import labels, labels_with_repeats


def seg(a, b, line="rho", step=1):
    a, b = Fraction(a), Fraction(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


F = Fraction


# -- ring structure ------------------------------------------------------------


def test_product_of_basis_elements():
    x = VirtualRep.of(ms(seg(0, 0)))
    y = VirtualRep.of(ms(seg(1, 1)))
    assert x * y == VirtualRep.of(ms(seg(0, 0), seg(1, 1)))


def test_empty_label_is_unit():
    x = VirtualRep.of(ms(seg(0, 2)), 3)
    assert x * VirtualRep.one() == x


def test_product_is_bilinear():
    a = VirtualRep.of(ms(seg(0, 1)))
    b = VirtualRep.of(ms(seg(1, 2)))
    c = VirtualRep.of(ms(seg(0, 0)))
    assert (a - b) * c == a * c - b * c


def test_side_mismatch_rejected():
    from segcalc.gkring import SideMismatch

    with pytest.raises(SideMismatch):
        VirtualRep.one(1) * VirtualRep.one(2)


# -- unit constructors -----------------------------------------------------------


def test_speh_u_square():
    assert speh_u(2, "rho", 2) == ms(seg(-1, 0), seg(0, 1))


def test_speh_u_single_copy():
    for l in range(1, 6):
        assert speh_u(l, "rho", 1) == ms(seg(-F(l - 1, 2), F(l - 1, 2)))


def test_speh_u_cuspidal_column():
    assert speh_u(1, "rho", 3) == ms(seg(-1, -1), seg(0, 0), seg(1, 1))


def test_speh_u_prime_steps_by_s():
    sigma = unitary_esi("rho", 1, 2)
    assert speh_u_prime(sigma, 2) == ms(seg(-1, -1, step=2), seg(1, 1, step=2))


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
    assert pi_u_alpha(u, F(1, 4)) == ms(
        seg(F(-3, 4), F(1, 4)), seg(F(-1, 4), F(3, 4))
    )


def test_pi_u_alpha_boundary_rejected():
    u = SpehUnit(unitary_esi("rho", 2), 1)
    with pytest.raises(ValueError):
        pi_u_alpha(u, 0)
    with pytest.raises(ValueError):
        pi_u_alpha(u, F(1, 2))


def test_pi_u_alpha_on_column():
    u = SpehUnit(unitary_esi("rho", 1), 2)
    got = pi_u_alpha(u, F(1, 3))
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
            lead = speh_u(l, "rho", k)
            assert v.terms[lead] == 1
            for label in v.terms:
                if label != lead:
                    assert label.ell() > l


def test_expand_u_prime_cuspidal_pair():
    sigma = unitary_esi("rho", 1, 2)
    got = expand_u_prime(sigma, 2, 2)
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
    assert expand_u_prime(sigma, 1, 2) == VirtualRep.of(ms(sigma), 1, 2)


def test_expand_u_prime_mirrors_split_case():
    # same alternating structure as the split expansion, stretched by s
    split = expand_u(2, "rho", 2)
    inner = expand_u_prime(unitary_esi("rho", 2, 2), 2, 2)
    stretch = {
        Multisegment(
            Segment("rho", 2 * s.start, s.length, 2) for s in label.segments
        ): c
        for label, c in split.terms.items()
    }
    assert inner.terms == stretch


def test_expand_ubar_single_copy():
    sigma = unitary_esi("rho", 1, 2)
    assert expand_ubar(sigma, 1, 2) == VirtualRep.of(ms(sigma), 1, 2)


def test_expand_ubar_is_product_of_unit_expansions():
    sigma = unitary_esi("rho", 1, 2)
    got = expand_ubar(sigma, 4, 2)
    want = expand_unit_product(ubar_factor(sigma, 4), 2)
    assert got == want
    lead = speh_ubar(sigma, 4)
    assert got.terms[lead] == 1


# -- recognition -----------------------------------------------------------------------


def test_recognize_single_unit():
    m = speh_u(2, "rho", 2)
    got = recognize_unitary(m)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 2), 2)])


def test_recognize_alpha_pair():
    u = SpehUnit(unitary_esi("rho", 1), 1)
    m = pi_u_alpha(u, F(1, 4))
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
