from fractions import Fraction

from segcalc import (
    EpsilonFactor,
    FormalLFactor,
    LineRegistry,
    Multisegment,
    Segment,
    c_map,
    eps_irr,
    l_esi,
    l_irr,
    lj_u,
    normalizing_factor,
    rs_lg,
    speh_u,
    unitary_esi,
)
from segcalc.gkring import SpehUnit
from segcalc.lfactors import FormalRSProduct, mw_normalizer_quotient

F = Fraction


def seg(a, b, line="rho", step=1):
    a, b = F(a), F(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


# -- esi L-factors --------------------------------------------------------------


def test_trivial_character_block(registry):
    # the block cuspidal over the unramified line at center 0, block size d
    for d in (2, 3, 4):
        got = l_esi(registry, seg(0, 0, step=d))
        assert got == FormalLFactor.of(F(d - 1, 2))


def test_larger_line_has_trivial_l_factor():
    reg = LineRegistry()
    reg.register("tau", 2, unramified=False)
    assert l_esi(reg, Segment("tau", 0, 2)) == FormalLFactor.one()


def test_ramified_character_has_trivial_l_factor():
    reg = LineRegistry()
    reg.register("chi", 1, unramified=False)
    assert l_esi(reg, Segment("chi", 0, 2)) == FormalLFactor.one()


def test_steinberg_l_factor(registry):
    for d in (1, 2, 3):
        for n in range(1, 6):
            st = unitary_esi("rho", n, d)
            assert l_esi(registry, st) == FormalLFactor.of(F(d * n - 1, 2))


def test_split_twisted_steinberg(registry):
    # nu^t-twisted length-k segment: single shift t + (k-1)/2 (its top exponent)
    segm = seg(F(1, 2), F(3, 2))
    assert l_esi(registry, segm) == FormalLFactor.of(F(3, 2))


# -- label-level L and eps --------------------------------------------------------


def test_trivial_representation_l_factor(registry):
    # n blocks of size d, nu_rho'-spaced, centered: shifts (dn-1)/2 - d*j
    for d in (2, 3):
        for n in range(1, 5):
            label = SpehUnit(unitary_esi("rho", 1, d), n).multisegment()
            got = l_irr(registry, label)
            want = FormalLFactor.of(*[F(d * n - 1, 2) - d * j for j in range(n)])
            assert got == want


def test_steinberg_eps_factor(registry):
    for d in (1, 2, 3):
        for n in range(1, 5):
            st = unitary_esi("rho", n, d)
            got = eps_irr(registry, ms(st))
            want = EpsilonFactor.of(
                ("rho", F(d * n - 1, 2) - j) for j in range(d * n)
            )
            assert got == want


def test_unflagged_label_has_empty_l_but_full_eps():
    reg = LineRegistry()
    reg.register("chi", 1, unramified=False)
    label = Multisegment([Segment("chi", 0, 2)])
    assert l_irr(reg, label) == FormalLFactor.one()
    assert eps_irr(reg, label) == EpsilonFactor.of([("chi", F(0)), ("chi", F(1))])


def test_render_forms(registry):
    lf = l_esi(registry, unitary_esi("rho", 2))
    assert repr(lf) == "(1 - q^(-s-1/2))^-1"
    assert repr(FormalLFactor.one()) == "1"
    ef = eps_irr(registry, ms(seg(F(-1, 2), F(-1, 2))))
    assert repr(ef) == "eps'(s-1/2, rho, psi)"


# -- transfer invariance -----------------------------------------------------------


def test_l_and_eps_invariant_under_esi_correspondence(registry):
    for d in (2, 3, 4):
        for k in range(1, 5):
            for l in range(1, 5):
                split = seg(0, d * k * l - 1).shifted(-F(d * k * l - 1, 2))
                inner = c_map(registry, split, d)
                assert l_esi(registry, split) == l_esi(registry, inner)
                assert eps_irr(registry, ms(split)) == eps_irr(registry, ms(inner))


def test_eps_invariant_under_factorwise_correspondence(registry):
    # labels transfer factorwise; eps' only sees the flattened support
    split = ms(seg(F(-3, 2), F(3, 2)), seg(F(-1, 2), F(1, 2)))
    inner = Multisegment(c_map(registry, s, 2) for s in split.segments)
    assert eps_irr(registry, split) == eps_irr(registry, inner)
    assert l_irr(registry, split) == l_irr(registry, inner)


def test_eps_preserved_but_l_changes_in_dual_case(registry):
    # transfer of u(cuspidal, 2) at d = 2: the eps' factor survives, L does not
    u_label = speh_u(1, "rho", 2)
    t = lj_u(registry, 1, "rho", 2, 2)
    assert eps_irr(registry, u_label) == eps_irr(registry, t.multisegment())
    assert l_irr(registry, u_label) != l_irr(registry, t.multisegment())


# -- Rankin-Selberg shift algebra -----------------------------------------------------


def test_rs_pairing_shape():
    assert rs_lg(1) == FormalRSProduct.of({0: 1})
    assert rs_lg(2) == FormalRSProduct.of({0: 2, 1: 1, -1: 1})
    assert rs_lg(3) == FormalRSProduct.of({0: 3, 1: 2, -1: 2, 2: 1, -2: 1})


def test_normalizing_factor_shape():
    num, den = normalizing_factor(2)
    assert num == FormalRSProduct.of({-1: 1, 0: 1})
    assert den == FormalRSProduct.of({1: 1, 2: 1})


def test_normalizer_cancellation():
    for s in range(1, 6):
        num, den = normalizing_factor(s)
        assert mw_normalizer_quotient(s) == num / den


def test_rs_product_algebra():
    x = FormalRSProduct.of({0: 1, 1: 2})
    y = FormalRSProduct.of({1: -2, 2: 3})
    assert (x * y).as_dict() == {F(0): 1, F(2): 3}
    assert (x / x).as_dict() == {}
    assert x.shifted(1).as_dict() == {F(1): 1, F(2): 2}
    assert repr(rs_lg(2)) == "L(z-1) * L(z)^2 * L(z+1)"
