import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import (
    DiscreteSeriesLabel,
    GlobalAlgebra,
    GlobalCuspidalData,
    LineRegistry,
    Multisegment,
    SignedUnitaryProduct,
    g_inverse,
    g_map,
    interval_decomposition,
    levi_conjugate_count,
    local_component,
    match_discrete_products,
    global_check,
    s_rho_d,
    unitary_esi,
)
from segcalc.core import RegistryError
from segcalc.globalrep import IncompatibleLabel, mw_exponents
from segcalc.transfer import s_gamma_d
from strategies import shifted

F = Fraction


def cuspidal_data(local_lengths):
    """Cuspidal datum over 'rho' with one esi factor of given length per place."""
    return GlobalCuspidalData(
        "rho",
        {place: [(unitary_esi("rho", l), F(0))] for place, l in local_lengths.items()},
    )


# -- global invariants ------------------------------------------------------------


def test_s_rho_d_all_compatible(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 2})  # St2-type local factor: already compatible
    assert s_rho_d(registry, data, alg) == 1


def test_s_rho_d_single_place(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    assert s_rho_d(registry, data, alg) == 2


def test_s_rho_d_lcm(registry):
    alg = GlobalAlgebra({"v1": 2, "v2": 3})
    data = cuspidal_data({"v1": 1, "v2": 1})
    assert s_rho_d(registry, data, alg) == 6


def test_s_gamma_d_takes_the_lcm_over_lines_with_coprime_invariants():
    reg = LineRegistry()
    reg.register("a", 2)
    reg.register("b", 3)
    gamma = [(unitary_esi("a", 1), F(0)), (unitary_esi("b", 1), F(0))]
    # at d = 6, s(a) = 3 and s(b) = 2: each length-1 factor needs its own, so s = lcm = 6
    assert s_gamma_d(reg, gamma, 6) == 6


@st.composite
def global_cases(draw):
    """A registry of lines with p in 1..5, an algebra ramified at places with d_v in {6, 10, 12},
    and cuspidal data over them (plus a split place), each built through its one constructor."""
    reg = LineRegistry()
    ps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    for i, p in enumerate(ps):
        reg.register(f"l{i}", p)
    places = [(f"v{i}", draw(st.sampled_from([6, 10, 12]))) for i in range(1, draw(st.integers(1, 3)) + 1)]
    factor = st.tuples(st.integers(0, len(ps) - 1), st.integers(1, 6), st.sampled_from([0, F(1, 4), F(-1, 3)]))
    locals_ = [
        (v, [(unitary_esi(f"l{i}", n), e) for i, n, e in draw(st.lists(factor, min_size=1, max_size=3))])
        for v, _ in places + [("v0", 1)]
    ]
    return reg, GlobalAlgebra(places), GlobalCuspidalData("l0", locals_), draw(st.integers(1, 4))


def _least_s(factors) -> int:
    """The least s >= 1 with d | p*s for every (p, length, d) with d not dividing p*length, by search."""
    need = [(p, d) for p, n, d in factors if p * n % d]
    return next(s for s in itertools.count(1) if all(p * s % d == 0 for p, d in need))


def _coprime_case():
    # at d = 6, lines of p = 2 and p = 3 need s = 3 and s = 2: lcm 6, where max would give 3
    reg = LineRegistry()
    reg.register("l0", 2)
    reg.register("l1", 3)
    gamma = [(unitary_esi("l0", 1), 0), (unitary_esi("l1", 1), 0)]
    return reg, GlobalAlgebra([("v1", 6)]), GlobalCuspidalData("l0", [("v1", gamma), ("v0", gamma)]), 1


@given(global_cases())
@example(_coprime_case())
def test_global_invariants_over_mixed_lines_equal_a_brute_force_search(case):
    reg, alg, data, k = case
    factors = {
        v: [(reg[seg.line].p, seg.length, dv) for seg, _ in data.local_data(v)] for v, dv in alg.places
    }
    for v, dv in alg.places:
        assert s_gamma_d(reg, data.local_data(v), dv) == _least_s(factors[v])
    s = s_rho_d(reg, data, alg)
    assert s == _least_s([f for fs in factors.values() for f in fs])
    split = DiscreteSeriesLabel("split", "l0", k * s)
    inner = DiscreteSeriesLabel("inner", "l0", k)
    assert g_inverse(reg, split, data, alg) == inner
    assert g_map(reg, g_inverse(reg, split, data, alg), data, alg) == split


def test_algebra_validation():
    with pytest.raises(ValueError):
        GlobalAlgebra({"v": 1})
    assert GlobalAlgebra({"v": 2, "w": 3}).d == 6
    assert GlobalAlgebra({}).d == 1


def test_d_compatible_mw(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    s = s_rho_d(registry, data, alg)
    assert global_check(registry, data, s, alg).compatible
    assert not global_check(registry, data, 1, alg).compatible or s == 1
    assert global_check(registry, data, 2 * s, alg).compatible


# -- the global correspondence on labels ---------------------------------------------


def test_g_inverse_at_minimal_k(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    got = g_inverse(registry, DiscreteSeriesLabel("split", "rho", 2), data, alg)
    assert got == DiscreteSeriesLabel("inner", "rho", 1)
    assert got.cuspidal


def test_g_inverse_scales_k(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    got = g_inverse(registry, DiscreteSeriesLabel("split", "rho", 6), data, alg)
    assert got == DiscreteSeriesLabel("inner", "rho", 3)
    assert not got.cuspidal


def test_g_inverse_requires_divisibility(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    with pytest.raises(IncompatibleLabel):
        g_inverse(registry, DiscreteSeriesLabel("split", "rho", 3), data, alg)


def test_g_round_trip(registry):
    alg = GlobalAlgebra({"v1": 2, "v2": 3})
    data = cuspidal_data({"v1": 1, "v2": 1})
    for k in (1, 2, 5):
        label = DiscreteSeriesLabel("inner", "rho", k)
        assert g_inverse(registry, g_map(registry, label, data, alg), data, alg) == label


# -- local components ------------------------------------------------------------------


def test_local_component_at_split_place(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1, "v0": 3})
    got = local_component(registry, data, 2, "v0", alg)
    assert isinstance(got, Multisegment)
    # Lg(gamma, 2) for gamma = St3-type: two length-3 segments at centers -1/2, 1/2
    centers = sorted(s.center for s in got.segments)
    assert centers == [F(-1, 2), F(1, 2)]


def test_local_component_at_ramified_place(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    got = local_component(registry, data, 2, "v1", alg)
    assert isinstance(got, SignedUnitaryProduct)
    assert got.sign != 0


def test_local_component_at_split_place_checks_generic_data(registry):
    alg = GlobalAlgebra({"v1": 2})
    for e in (F(3), F(1, 2), F(-1, 2)):
        data = GlobalCuspidalData(
            "rho", {"v1": [(unitary_esi("rho", 1), F(0))], "v0": [(unitary_esi("rho", 2), e)]}
        )
        with pytest.raises(ValueError, match=r"\|e\| < 1/2"):
            local_component(registry, data, 2, "v0", alg)
    off_center = GlobalCuspidalData("rho", {"v0": [(shifted(unitary_esi("rho", 2), 1), F(0))]})
    with pytest.raises(ValueError, match="centered"):
        local_component(registry, off_center, 2, "v0", alg)


def test_missing_ramified_place_is_a_registry_error(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v0": 1})
    with pytest.raises(RegistryError, match="'v1'"):
        s_rho_d(registry, data, alg)


def test_local_component_vanishes_off_multiples(registry):
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1})
    got = local_component(registry, data, 3, "v1", alg)
    assert got.sign == 0


def test_discrete_series_local_support_is_union_of_shifted_copies(registry):
    # the label of the k-fold discrete series at a place is the union of the
    # s_rho_D-twisted copies of the basic one
    alg = GlobalAlgebra({"v1": 2})
    data = cuspidal_data({"v1": 1, "v0": 2})
    s = s_rho_d(registry, data, alg)
    k = 3
    for place in ("v0", "v1"):
        big = local_component(registry, data, k * s, place, alg)
        small = local_component(registry, data, s, place, alg)
        big_label = big if isinstance(big, Multisegment) else big.multisegment()
        small_label = small if isinstance(small, Multisegment) else small.multisegment()
        union = Multisegment.empty()
        for i in range(k):
            union = union | Multisegment(shifted(t, s * (F(k - 1, 2) - i)) for t in small_label.segments)
        assert big_label == union


# -- interval decomposition ----------------------------------------------------------------


def test_interval_singleton():
    assert interval_decomposition([0]) == [F(0)]


def test_interval_nested():
    assert interval_decomposition([-1, 0, 0, 1]) == [F(1), F(0)]


def test_interval_asymmetric_fails():
    assert interval_decomposition([0, 1]) is None


def test_interval_half_integers():
    assert interval_decomposition([F(-1, 2), F(1, 2)]) == [F(1, 2)]
    assert interval_decomposition(
        [F(-3, 2), F(-1, 2), F(-1, 2), F(1, 2), F(1, 2), F(3, 2)]
    ) == [F(3, 2), F(1, 2)]


def test_interval_mixed_parity_fails():
    assert interval_decomposition([F(0), F(1, 2)]) is None


def test_interval_rejects_exponents_off_the_half_lattice():
    for a in ([F(1, 4)], [F(-1, 4), F(1, 4)], [F(1, 3)], [F(-1, 3), 0, F(1, 3)]):
        assert interval_decomposition(a) is None, a


def test_interval_reassembles_input():
    vals = range(-3, 4)
    for n in range(7):
        for combo in itertools.combinations_with_replacement(vals, n):
            got = interval_decomposition(combo)
            if got is None:
                continue
            rebuilt = Counter()
            for e in got:
                rebuilt.update(F(e) - i for i in range(int(2 * e) + 1))
            assert rebuilt == Counter(F(x) for x in combo)


@st.composite
def interval_unions(draw):
    """Endpoints e, all integers or all half-integers, and their intervals' points, shuffled."""
    half = draw(st.booleans())
    ends = [Fraction(2 * e + half, 2) for e in draw(st.lists(st.integers(0, 4), max_size=5))]
    points = [e - i for e in ends for i in range(int(2 * e) + 1)]
    return ends, draw(st.permutations(points))


@given(interval_unions())
def test_interval_decomposition_recovers_generated_unions(case):
    ends, points = case
    assert interval_decomposition(points) == sorted(ends, reverse=True)


@given(st.lists(st.integers(-4, 4), max_size=10), st.booleans())
def test_interval_decomposition_reassembles_generated_multisets(values, half):
    points = [Fraction(2 * v + 1, 2) if half else v for v in values]
    got = interval_decomposition(points)
    if got is not None:
        assert all(isinstance(e, Fraction) for e in got)
        assert Counter(e - i for e in got for i in range(int(2 * e) + 1)) == Counter(points)


# -- product matching --------------------------------------------------------------------------


def lab(k):
    return DiscreteSeriesLabel("split", "rho", k)


def test_match_identical_lists():
    assert match_discrete_products([lab(3), lab(1)], [lab(3), lab(1)])


def test_match_distinguishes_partitions():
    assert not match_discrete_products([lab(3), lab(1)], [lab(2), lab(2)])


def test_match_ignores_order():
    assert match_discrete_products([lab(2), lab(5), lab(1)], [lab(1), lab(2), lab(5)])


def test_match_agrees_with_multiset_equality():
    # the support argument must recover exactly multiset equality of labels
    pool = [1, 2, 3, 4]
    for xs in itertools.combinations_with_replacement(pool, 2):
        for ys in itertools.combinations_with_replacement(pool, 2):
            want = sorted(xs) == sorted(ys)
            got = match_discrete_products([lab(k) for k in xs], [lab(k) for k in ys])
            assert got == want, (xs, ys)


def test_mw_exponents():
    assert mw_exponents(3) == [F(1), F(0), F(-1)]
    assert mw_exponents(2) == [F(1, 2), F(-1, 2)]


# -- Levi counting ------------------------------------------------------------------------------


def test_levi_count_values():
    assert levi_conjugate_count(4, 2) == 3
    assert levi_conjugate_count(6, 3) == 15
    assert levi_conjugate_count(6, 1) == 1
    assert levi_conjugate_count(6, 6) == 1


def test_levi_count_identity():
    import math

    for n in range(1, 10):
        for l in range(1, n + 1):
            if n % l:
                continue
            m = n // l
            c = levi_conjugate_count(n, l)
            assert c * math.factorial(l) * math.factorial(m) ** l == math.factorial(n)


def test_levi_count_of_one_block_or_of_singletons_is_one_without_large_factorials():
    start = time.perf_counter()
    assert levi_conjugate_count(300000, 1) == levi_conjugate_count(300000, 300000) == 1
    assert time.perf_counter() - start < 0.5


def test_levi_count_rejects_non_divisors():
    with pytest.raises(ValueError):
        levi_conjugate_count(5, 2)
