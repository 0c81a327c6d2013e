"""``in_image_lju`` against the search over every (l, k) candidate.

``in_image_lju`` builds only the candidates whose unit shapes occur in the
target, on integer twist keys.  ``all_candidates_image`` below keeps the
enumeration of every (l, k) with l * k up to the support size, the
``Fraction``-keyed covers of ``lj_u`` and the same exact-cover search, so it
is the oracle the prune must agree with, witness for witness.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segcalc import LimitExceeded, LineRegistry, SpehUnit, UnitaryProduct, s_invariant, ubar_factor, unitary_esi
from segcalc import transfer
from segcalc.gkring import _two_blocks
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


# twists a/b with b in {1, 2, 3, 4, 6}, so one target mixes denominators; in_image_lju counts them in 1/D
TWISTS = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
# an alpha of odd denominator moves the half-integer block twists of lj_u onto odd denominators
ALPHAS = st.sampled_from([F(1, 8), F(1, 4), F(1, 3), F(1, 6), F(1, 12), F(5, 12)])


def target_lines(most):
    """The lines of one to ``most`` units, each drawn on its own: on one line or on both at once."""
    return st.lists(st.sampled_from(["rho", "chi"]), min_size=1, max_size=most)


@st.composite
def split_unit(draw, d, line):
    """An untwisted split unit or pi pair on ``line`` whose transfer at ``d`` is nonzero: s divides l or k."""
    s = s_invariant(REG[line].p, d)
    l, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()) and l * s <= 6:
        l *= s
    if l % s:
        k *= s  # s divides k where it does not divide l
    return SpehUnit(unitary_esi(line, l), k, F(0), draw(st.none() | ALPHAS))


def transfer_of(d, *units):
    """``(d, target)`` for the transfer of the split ``units`` at ``d``, which must not vanish."""
    t = lj_unitary_product(REG, UnitaryProduct(units), d)
    assert t.sign != 0
    return d, t.product


@st.composite
def transfer_targets(draw):
    """The transfer of one or two split units, each maybe a pi pair; it has a preimage."""
    d = draw(st.sampled_from(DS))
    return transfer_of(d, *(draw(split_unit(d, line)) for line in draw(target_lines(2))))


@st.composite
def inner_form_targets(draw):
    """One to three twisted inner-form units, chosen without regard to any preimage."""
    d = draw(st.sampled_from(DS))
    units = []
    for line in draw(target_lines(3)):
        s = s_invariant(REG[line].p, d)
        units.append(SpehUnit(unitary_esi(line, draw(st.integers(1, 3)), s),
                              draw(st.integers(1, 4)), draw(TWISTS)))
    return d, UnitaryProduct(units)


# lj_u(3, 2) at s = 3 has blocks at -+1/2 and alpha = 1/6 moves them to -+1/3 and -+2/3: the
# target's denominators are all odd, and only an even D makes the block twists integers
ODD_DENOMINATORS = transfer_of(3, SpehUnit(unitary_esi("rho", 3), 2, F(0), F(1, 6)))
# two units on one line whose transfers share block shapes: the exact cover backtracks
SAME_LINE = transfer_of(2, SpehUnit(unitary_esi("rho", 3), 4), SpehUnit(unitary_esi("rho", 3), 4, F(0), F(1, 6)))
BOTH_LINES = transfer_of(4, SpehUnit(unitary_esi("chi", 2), 3, F(0), F(1, 12)), SpehUnit(unitary_esi("rho", 4), 1))


@given(transfer_targets())
@example(ODD_DENOMINATORS)
@example(SAME_LINE)
@example(BOTH_LINES)
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


def count_candidates(monkeypatch, target, d):
    """``in_image_lju(REG, target, d)`` and how many candidates (l, k) it built: one two-block rule each."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _two_blocks(*args)

    monkeypatch.setattr(transfer, "_two_blocks", counted)
    return in_image_lju(REG, target, d), len(calls)


def test_criterion8_searches_build_few_candidates(monkeypatch):
    targets = criterion8_targets()
    blocked, n_blocked = count_candidates(monkeypatch, targets["blocked"], 4)
    control, n_control = count_candidates(monkeypatch, targets["control"], 4)
    assert blocked is None
    assert control == UnitaryProduct([SpehUnit(unitary_esi("rho", 12), 16)])
    assert 1 <= n_blocked <= 4 and 1 <= n_control <= 4, (n_blocked, n_control)


def test_a_target_near_the_support_limit_builds_a_handful_of_candidates(monkeypatch):
    # support 4000: (l, k) come from the windows of its one shape, not from every l * k <= 4000
    got, n = count_candidates(monkeypatch, ubar_factor(unitary_esi("rho", 1, 2), 2000), 2)
    assert got == UnitaryProduct([SpehUnit(unitary_esi("rho", 2), 2000)])
    assert 1 <= n <= 4, n
