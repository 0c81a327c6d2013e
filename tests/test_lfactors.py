from fractions import Fraction

import pytest
from hypothesis import given

from segcalc import (
    EpsilonFactor,
    FormalLFactor,
    LineRegistry,
    Multisegment,
    Segment,
    c_inv,
    c_map,
    eps_irr,
    l_esi,
    l_irr,
    lj_u,
    normalizing_factor,
    rs_lg,
    unitary_esi,
)
from segcalc.core import RegistryError
from segcalc.gkring import SpehUnit
from segcalc.lfactors import FormalRSProduct, mw_normalizer_quotient
from strategies import labels, ms, seg, shifted

F = Fraction


# -- esi L-factors --------------------------------------------------------------


def test_trivial_character_block(registry):
    # the block cuspidal over the unramified line at center 0, block size d
    for d in (2, 3, 4):
        got = l_esi(registry, seg(0, 0, step=d))
        assert got == FormalLFactor([F(d - 1, 2)])


def test_larger_line_has_trivial_l_factor():
    reg = LineRegistry()
    reg.register("tau", 2, unramified=False)
    assert l_esi(reg, Segment("tau", 0, 2)) == FormalLFactor()


def test_ramified_character_has_trivial_l_factor():
    reg = LineRegistry()
    reg.register("chi", 1, unramified=False)
    assert l_esi(reg, Segment("chi", 0, 2)) == FormalLFactor()


def test_steinberg_l_factor(registry):
    for d in (1, 2, 3):
        for n in range(1, 6):
            st = unitary_esi("rho", n, d)
            assert l_esi(registry, st) == FormalLFactor([F(d * n - 1, 2)])


def test_split_twisted_steinberg(registry):
    # nu^t-twisted length-k segment: single shift t + (k-1)/2 (its top exponent)
    segm = seg(F(1, 2), F(3, 2))
    assert l_esi(registry, segm) == FormalLFactor([F(3, 2)])


# -- label-level L and eps --------------------------------------------------------


def test_trivial_representation_l_factor(registry):
    # n blocks of size d, nu_rho'-spaced, centered: shifts (dn-1)/2 - d*j
    for d in (2, 3):
        for n in range(1, 5):
            label = SpehUnit(unitary_esi("rho", 1, d), n).multisegment()
            got = l_irr(registry, label)
            want = FormalLFactor(F(d * n - 1, 2) - d * j for j in range(n))
            assert got == want


def test_steinberg_eps_factor(registry):
    for d in (1, 2, 3):
        for n in range(1, 5):
            st = unitary_esi("rho", n, d)
            got = eps_irr(registry, ms(st))
            want = EpsilonFactor(
                ("rho", F(d * n - 1, 2) - j) for j in range(d * n)
            )
            assert got == want


def test_unflagged_label_has_empty_l_but_full_eps():
    reg = LineRegistry()
    reg.register("chi", 1, unramified=False)
    label = Multisegment([Segment("chi", 0, 2)])
    assert l_irr(reg, label) == FormalLFactor()
    assert eps_irr(reg, label) == EpsilonFactor([("chi", F(0)), ("chi", F(1))])


def test_l_and_eps_refuse_an_unregistered_line(registry):
    label = ms(seg(0, 0, line="xi"))
    for factor in (l_irr, eps_irr):
        with pytest.raises(RegistryError, match="unknown line: 'xi'"):
            factor(registry, label)


def _assert_l_and_eps_equal_the_c_inv_oracle(m):
    # rho counts for L; chi (p = 2) and a ramified rho count only for eps
    for unramified in (True, False):
        reg = LineRegistry()
        reg.register("rho", 1, unramified=unramified)
        reg.register("chi", 2, unramified=True)
        want_l = FormalLFactor()
        for s in m.segments:
            want_l = want_l * l_esi(reg, s)
            top = (c_inv(s).end,) if unramified and s.line == "rho" else ()
            assert l_esi(reg, s) == FormalLFactor(top)
        want_eps = EpsilonFactor((pt.line, pt.exp) for s in m.segments for pt in c_inv(s).points())
        got_l, got_eps = l_irr(reg, m), eps_irr(reg, m)
        assert (got_l, got_eps) == (want_l, want_eps)
        assert (repr(got_l), repr(got_eps)) == (repr(want_l), repr(want_eps))
        assert all(type(a) is Fraction for a in got_l.shifts + tuple(a for _, a in got_eps.shifts))


@given(labels())
def test_l_and_eps_equal_the_c_inv_oracle_on_generated_labels(m):
    _assert_l_and_eps_equal_the_c_inv_oracle(m)


def test_l_and_eps_equal_the_c_inv_oracle_on_mixed_flat_denominators():
    # flat starts with denominators 1, 2, 4 and 6 interleave on one line
    for line in ("rho", "chi"):
        m = ms(
            Segment(line, 0, 2),
            Segment(line, 0, 2, 2),
            Segment(line, F(1, 4), 1),
            Segment(line, F(-1, 2), 2, 3),
            Segment(line, F(1, 3), 1, 2),
        )
        _assert_l_and_eps_equal_the_c_inv_oracle(m)


def test_render_forms(registry):
    lf = l_esi(registry, unitary_esi("rho", 2))
    assert repr(lf) == "(1 - q^(-s-1/2))^-1"
    assert repr(FormalLFactor()) == "1"
    ef = eps_irr(registry, ms(seg(F(-1, 2), F(-1, 2))))
    assert repr(ef) == "eps'(s-1/2, rho, psi)"


# -- transfer invariance -----------------------------------------------------------


def test_l_and_eps_invariant_under_esi_correspondence(registry):
    for d in (2, 3, 4):
        for k in range(1, 5):
            for l in range(1, 5):
                split = shifted(seg(0, d * k * l - 1), -F(d * k * l - 1, 2))
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
    u_label = SpehUnit(unitary_esi("rho", 1), 2).multisegment()
    t = lj_u(registry, 1, "rho", 2, 2)
    assert eps_irr(registry, u_label) == eps_irr(registry, t.multisegment())
    assert l_irr(registry, u_label) != l_irr(registry, t.multisegment())


# -- Rankin-Selberg shift algebra -----------------------------------------------------


def test_rs_pairing_shape():
    assert rs_lg(1) == FormalRSProduct({0: 1})
    assert rs_lg(2) == FormalRSProduct({0: 2, 1: 1, -1: 1})
    assert rs_lg(3) == FormalRSProduct({0: 3, 1: 2, -1: 2, 2: 1, -2: 1})


def test_normalizing_factor_shape():
    num, den = normalizing_factor(2)
    assert num == FormalRSProduct({-1: 1, 0: 1})
    assert den == FormalRSProduct({1: 1, 2: 1})


def test_normalizer_cancellation():
    for s in range(1, 6):
        num, den = normalizing_factor(s)
        assert mw_normalizer_quotient(s) == num / den


def test_rs_product_algebra():
    x = FormalRSProduct({0: 1, 1: 2})
    y = FormalRSProduct({1: -2, 2: 3})
    assert (x * y).as_dict() == {F(0): 1, F(2): 3}
    assert (x / x).as_dict() == {}
    assert x.shifted(1).as_dict() == {F(1): 1, F(2): 2}
    assert repr(rs_lg(2)) == "L(z-1) * L(z)^2 * L(z+1)"
