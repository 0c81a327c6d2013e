"""``in_image_lju`` against the search over every (l, k) candidate.

``in_image_lju`` builds only the candidates whose unit shapes occur in the
target.  ``all_candidates_image`` below keeps the enumeration of every
(l, k) with l * k up to the support size and the same exact-cover search,
so it is the oracle the prune must agree with, witness for witness.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segcalc import LimitExceeded, LineRegistry, SpehUnit, UnitaryProduct, s_invariant, ubar_factor, unitary_esi
from segcalc import transfer
from segcalc.transfer import _flatten, in_image_lju, lj_u, lj_unitary_product

F = Fraction
DS = (1, 2, 3, 4, 6)


def two_lines() -> LineRegistry:
    reg = LineRegistry()
    reg.register("rho", 1, unramified=True)
    reg.register("chi", 2)
    return reg


REG = two_lines()


def all_candidates_image(registry, target, d):
    """The unpruned search: every (l, k) with l * k up to the line's support."""
    want = _flatten(target)
    if not want:
        return UnitaryProduct()
    sizes = Counter()
    for (line, length, step, count, _), mult in want.items():
        sizes[line] += length * step * count * mult
    twists = sorted({key[4] for key in want})
    candidates = []
    for line in sorted(sizes):
        s = s_invariant(registry[line].p, d)
        for l in range(1, sizes[line] + 1):
            for k in range(1, sizes[line] // l + 1):
                if l % s and k % s:
                    continue
                base = lj_u(registry, l, line, k, d)
                candidates.append(((line, l, k, F(0)), SpehUnit(unitary_esi(line, l), k),
                                   _flatten(base.product)))
                base_twists = {u.twist for u in base.product}
                alphas = {abs(t - bt) for t in twists for bt in base_twists}
                for a in sorted(a for a in alphas if 0 < a < F(1, 2)):
                    cover = _flatten(base.twisted(a).product) + _flatten(base.twisted(-a).product)
                    candidates.append(((line, l, k, a), SpehUnit(unitary_esi(line, l), k, F(0), a),
                                       cover))
    candidates.sort(key=lambda c: c[0])

    def solve(remaining):
        if not remaining:
            return []
        pivot = min(remaining)
        for _, unit, cover in candidates:
            if cover.get(pivot, 0) == 0:
                continue
            if any(remaining.get(key, 0) < n for key, n in cover.items()):
                continue
            sub = solve(+(remaining - cover))
            if sub is not None:
                return [unit] + sub
        return None

    witness = solve(+want)
    return None if witness is None else UnitaryProduct(witness)


TWISTS = st.integers(-6, 6).map(lambda n: F(n, 4))
LINES = st.sampled_from(["rho", "chi"])


@st.composite
def split_unit(draw, d, alpha=False):
    """An untwisted split unit (or pi pair) whose transfer at ``d`` is nonzero: s divides l or k."""
    line = draw(LINES)
    s = s_invariant(REG[line].p, d)
    l, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()) and l * s <= 6:
        l *= s
    if l % s:
        k *= s  # s divides k where it does not divide l
    a = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3)])) if alpha else None
    return SpehUnit(unitary_esi(line, l), k, F(0), a)


@st.composite
def transfer_targets(draw):
    """The transfer of one or two split units, the first maybe a pi pair; it has a preimage."""
    d = draw(st.sampled_from(DS))
    units = [draw(split_unit(d, draw(st.booleans())))] + draw(st.lists(split_unit(d), max_size=1))
    t = lj_unitary_product(REG, UnitaryProduct(units), d)
    assert t.sign != 0
    return d, t.product


@st.composite
def inner_form_targets(draw):
    """One to three twisted inner-form units, chosen without regard to any preimage."""
    d = draw(st.sampled_from(DS))
    units = []
    for _ in range(draw(st.integers(1, 3))):
        line = draw(LINES)
        s = s_invariant(REG[line].p, d)
        units.append(SpehUnit(unitary_esi(line, draw(st.integers(1, 3)), s),
                              draw(st.integers(1, 4)), draw(TWISTS)))
    return d, UnitaryProduct(units)


@given(transfer_targets())
def test_pruned_search_matches_oracle_on_unit_and_pair_transfers(case):
    d, target = case
    got = in_image_lju(REG, target, d)
    assert got is not None
    assert got == all_candidates_image(REG, target, d)


@given(inner_form_targets())
def test_pruned_search_matches_oracle_on_inner_form_units(case):
    d, target = case
    assert in_image_lju(REG, target, d) == all_candidates_image(REG, target, d)


def test_a_lone_twisted_cuspidal_is_outside_the_image():
    # preimage units carry no twist of their own and a lone twisted cuspidal is no pi pair
    target = UnitaryProduct([SpehUnit(unitary_esi("rho", 1, 2), 1, F(1, 4))])
    assert in_image_lju(REG, target, 2) is None
    assert all_candidates_image(REG, target, 2) is None


def test_a_target_over_the_support_limit_is_refused():
    target = UnitaryProduct([SpehUnit(unitary_esi("rho", 2500, 2), 1)])
    with pytest.raises(LimitExceeded, match="^target support 5000 exceeds limit 4096$"):
        in_image_lju(REG, target, 2)


def criterion8_targets():
    st3, st4 = unitary_esi("rho", 3, 4), unitary_esi("rho", 4, 4)
    blocked = UnitaryProduct(
        SpehUnit(base, n, F(t, 2))
        for base, n, t in ((st3, 4, -3), (st4, 3, -1), (st4, 3, 1), (st3, 4, 3))
    )
    return {"blocked": blocked, "control": ubar_factor(st3, 16)}


def test_criterion8_searches_build_few_candidates(monkeypatch):
    calls = Counter()

    def counted(*args):
        calls[which] += 1
        return lj_u(*args)

    monkeypatch.setattr(transfer, "lj_u", counted)
    found = {}
    for which, target in criterion8_targets().items():
        found[which] = in_image_lju(REG, target, 4)
    assert found["blocked"] is None
    assert found["control"] == UnitaryProduct([SpehUnit(unitary_esi("rho", 12), 16)])
    assert calls["blocked"] <= 4 and calls["control"] <= 4, calls
