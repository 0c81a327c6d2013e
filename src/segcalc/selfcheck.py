"""The paper's identities as verification suites, shared by the CLI and pytest.

Each suite is one function whose arguments are its sizes; it returns
``(ok, detail)``.  The defaults are the small sizes that ``segcalc
selfcheck`` runs, and the acceptance criteria in ``tests/test_acceptance.py``
call the same functions at their larger sizes, so every check has one home.
The suites cover involution and support preservation of the duality, the
Speh-unit parameter swap, the unit-transfer identity on the standard basis,
the vanishing criterion, the ubar factorization, the involution formula,
the L/epsilon' closed forms, the normalizer cancellation, interval
decompositions, Levi counts, the unitary image, the sign coherence of the
two duals under the transfer, and the recorded counterexample of criterion
7, which fails by design.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Optional

from .core import CuspidalPoint, LineRegistry
from .duality import dual_irr, mw_dual, raw_dual_std
from .gkring import SpehUnit, UnitaryProduct, expand_u, expand_unit_product, speh_ubar, ubar_factor
from .lfactors import (
    FormalLFactor,
    eps_irr,
    l_esi,
    l_irr,
    mw_normalizer_quotient,
    normalizing_factor,
)
from .globalrep import interval_decomposition, levi_conjugate_count
from .multiseg import Multisegment, VirtualRep, enumerate_multisegments, is_lower, unitary_esi
from .transfer import in_image_lju, lj_std, lj_u

REG = LineRegistry.standard()


def window_supports(width: int, max_points: int):
    """Every support of 1..max_points points of ``rho`` in [0, width), smallest first."""
    for size in range(1, max_points + 1):
        for combo in itertools.combinations_with_replacement(range(width), size):
            yield Counter(CuspidalPoint("rho", Fraction(p)) for p in combo)


def window_corpus(width: int, max_points: int):
    """All one-line multisegments on the supports of ``window_supports``."""
    for support in window_supports(width, max_points):
        yield from enumerate_multisegments(support, limit=max_points)


def suite_duality_involution(width: int = 4, max_points: int = 5) -> tuple[bool, str]:
    n = 0
    for m in window_corpus(width, max_points):
        dual = mw_dual(m)
        if mw_dual(dual) != m or dual.support() != m.support():
            return False, f"involution fails on {m!r}"
        n += 1
    return True, f"{n} multisegments"


def suite_speh_dual(bound: int = 4) -> tuple[bool, str]:
    for k in range(1, bound + 1):
        for l in range(1, bound + 1):
            u, dual = SpehUnit(unitary_esi("rho", l), k), SpehUnit(unitary_esi("rho", k), l)
            if dual_irr(u.multisegment()) != dual.multisegment():
                return False, f"u({l},{k}) dual mismatch"
    return True, f"grid {bound}x{bound}"


def suite_transfer_identity(
    smax: int = 2, bound: int = 2, kmax: Optional[int] = None
) -> tuple[bool, str]:
    """lj_std of u(Z(rho, l), k) is the ubar expansion for l = l0 s (l0 <= bound,
    k <= kmax or bound * s) and the nonzero signed lj_u product for k = k0 s
    (k0 <= bound, s not dividing l <= bound); 2 <= s <= smax."""
    checked = 0
    for s in range(2, smax + 1):
        for l0 in range(1, bound + 1):
            for k in range(1, (kmax or bound * s) + 1):
                got = lj_std(REG, expand_u(l0 * s, "rho", k), s)
                if got != expand_unit_product(ubar_factor(unitary_esi("rho", l0, s), k), s):
                    return False, f"s={s} l={l0 * s} k={k}"
                checked += 1
        for l in range(1, bound + 1):
            if l % s == 0:
                continue
            for k in range(s, bound * s + 1, s):
                t = lj_u(REG, l, "rho", k, s)
                got = lj_std(REG, expand_u(l, "rho", k), s)
                if t.sign == 0 or got != t.sign * expand_unit_product(t.product, s):
                    return False, f"s={s} l={l} k={k} (dual case)"
                checked += 1
    return True, f"{checked} identities"


def suite_vanishing(bound: int = 4) -> tuple[bool, str]:
    for s in range(1, bound + 1):
        for k in range(1, bound + 1):
            for l in range(1, bound + 1):
                found = any(
                    all((l + w[i - 1] - i) % s == 0 for i in range(1, k + 1))
                    for w in itertools.permutations(range(1, k + 1))
                )
                if (lj_u(REG, l, "rho", k, s).sign == 0) != (not found):
                    return False, f"s={s} k={k} l={l}"
    return True, f"s,k,l <= {bound}"


def suite_ubar_factorization(smax: int = 3, kmax: int = 6, lmax: int = 2) -> tuple[bool, str]:
    for s in range(1, smax + 1):
        for l in range(1, lmax + 1):
            sigma = unitary_esi("rho", l, s)
            for k in range(1, kmax + 1):
                if ubar_factor(sigma, k).multisegment() != speh_ubar(sigma, k):
                    return False, f"s={s} l={l} k={k}"
    return True, f"s <= {smax}, k <= {kmax}"


def suite_involution_formula(smax: int = 2, lmax: int = 3, kmax: int = 2) -> tuple[bool, str]:
    """Dual of ubar(tau', l) is the two-block product, built here apart from lj_u."""
    for s in range(2, smax + 1):
        for k in range(1, kmax + 1):
            tau = unitary_esi("rho", k, s)
            for l in range(1, lmax + 1):
                a, b = divmod(l, s)
                units = [
                    SpehUnit(unitary_esi("rho", a + 1, s), k, Fraction(2 * i - b - 1, 2))
                    for i in range(1, b + 1)
                ]
                if a:
                    nb = s - b
                    units += [
                        SpehUnit(unitary_esi("rho", a, s), k, Fraction(2 * j - nb - 1, 2))
                        for j in range(1, nb + 1)
                    ]
                if dual_irr(speh_ubar(tau, l)) != UnitaryProduct(units).multisegment():
                    return False, f"s={s} k={k} l={l}"
    return True, f"s <= {smax}, l <= {lmax}, k <= {kmax}"


def suite_lfactors(nmax: int = 4, dmax: int = 3) -> tuple[bool, str]:
    """Closed forms of L and eps' for St'_n and 1'_n = u'(rho', n) over the p = 1 line."""
    for d in range(1, dmax + 1):
        for n in range(1, nmax + 1):
            st = unitary_esi("rho", n, d)
            one = SpehUnit(unitary_esi("rho", 1, d), n).multisegment()
            top = Fraction(d * n - 1, 2)
            if not l_esi(REG, st) == l_irr(REG, Multisegment([st])) == FormalLFactor([top]):
                return False, f"L(St'_{n}) at d={d}"
            if l_irr(REG, one) != FormalLFactor(top - d * j for j in range(n)):
                return False, f"L(1'_{n}) at d={d}"
            eps = eps_irr(REG, Multisegment([st]))
            if Counter(eps.shifts) != Counter(("rho", top - j) for j in range(d * n)):
                return False, f"eps(St'_{n}) at d={d}"
            if eps_irr(REG, one) != eps:
                return False, f"eps(1'_{n}) at d={d}"
    return True, f"n <= {nmax}, d <= {dmax}"


def suite_normalizer(smax: int = 4) -> tuple[bool, str]:
    for s in range(1, smax + 1):
        num, den = normalizing_factor(s)
        if mw_normalizer_quotient(s) != num / den:
            return False, f"s={s}"
    return True, f"s <= {smax}"


def suite_intervals(size: int = 6, window: int = 3) -> tuple[bool, str]:
    """interval_decomposition of every multiset of <= size points in [-window, window]."""
    count = 0
    values = range(-window, window + 1)
    for n in range(size + 1):
        for combo in itertools.combinations_with_replacement(values, n):
            cnt = Counter(combo)
            got = interval_decomposition(combo)
            if got != _intervals_brute(cnt):
                return False, f"multiset {combo}"
            if got and Counter(e - i for e in got for i in range(int(2 * e) + 1)) != cnt:
                return False, f"intervals of {combo} do not reassemble it"
            count += 1
    return True, f"{count} multisets"


def _intervals_brute(cnt: Counter):
    """Exhaustive decomposition into symmetric intervals; None if impossible.

    The interval covering the maximum is forced, so the search is a chain.
    """
    if not cnt:
        return []
    top = max(cnt)
    if top < 0 or not cnt[-top]:
        return None
    need = Counter(top - i for i in range(int(2 * top) + 1))
    if any(cnt[c] < n for c, n in need.items()):
        return None
    rest = _intervals_brute(cnt - need)
    return None if rest is None else sorted([top] + rest, reverse=True)


def suite_levi_counts() -> tuple[bool, str]:
    for n, l, want in ((4, 2, 3), (6, 3, 15), (6, 1, 1), (6, 6, 1)):
        if levi_conjugate_count(n, l) != want:
            return False, f"({n},{l})"
        if _count_partitions(n, l) != want:
            return False, f"enumeration ({n},{l})"
    return True, "direct enumeration agrees"


def _count_partitions(n: int, l: int) -> int:
    """Set partitions of {0..n-1} into blocks of size n // l, by enumeration."""
    m = n // l

    def rec(items: frozenset) -> int:
        if not items:
            return 1
        first = min(items)
        rest = sorted(items - {first})
        blocks = itertools.combinations(rest, m - 1)
        return sum(rec(items - {first} - set(block)) for block in blocks)

    return rec(frozenset(range(n)))


def suite_nonunit_image(d: int = 2, l: int = 1, k: int = 4) -> tuple[bool, str]:
    """ubar(T(rho', l), k) at ``d`` and the empty product lie in the image of the
    unitary transfer; the d = 4 blocked product below ubar(St'3, 16) does not."""
    if in_image_lju(REG, ubar_factor(unitary_esi("rho", l, d), k), d) is None:
        return False, "ubar target lost its witness"
    if in_image_lju(REG, UnitaryProduct(), d) is None:
        return False, "empty product must be in the image"
    st3, st4 = unitary_esi("rho", 3, 4), unitary_esi("rho", 4, 4)
    blocked = UnitaryProduct(
        SpehUnit(base, n, Fraction(t, 2))
        for base, n, t in ((st3, 4, -3), (st4, 3, -1), (st4, 3, 1), (st3, 4, 3))
    )
    ubar16 = speh_ubar(st3, 16)
    if blocked.multisegment().support() != ubar16.support():
        return False, "blocked product left the support of ubar(St'3, 16)"
    if not is_lower(blocked.multisegment(), ubar16):
        return False, "blocked product is not below ubar(St'3, 16)"
    if in_image_lju(REG, blocked, 4) is not None:
        return False, "blocked product found a witness"
    return True, "witness and obstruction behave"


def suite_recorded_counterexample() -> tuple[bool, str]:
    """Mirror of acceptance criterion 7; fails by design.

    The recorded reference value for the transfer of u(St3, 2) at d = 2 is
    ubar(St'1, 3).  Linearity of the transfer on the standard basis forces
    -(St'2 x St'1) instead (u(St3, 2) = S - St4 x St2 with S killed by the
    transfer), so the recorded value cannot hold; this suite keeps the
    recorded expectation and reports the discrepancy.
    """
    d = 2
    t = lj_u(REG, 3, "rho", 2, d)
    recorded = speh_ubar(unitary_esi("rho", 1, d), 3)
    computed = t.multisegment()
    if computed == recorded:
        return True, "recorded value matches"
    return False, (
        f"recorded {recorded!r} vs computed {t.sign} * {computed!r} "
        "(forced by linearity; see README)"
    )


def suite_sign_coherence(width: int = 4, max_points: int = 4, ds=(2,)) -> tuple[bool, str]:
    """lj_std and raw_dual_std commute up to one sign per support, for each d in ``ds``."""
    classes = 0
    for d in ds:
        for support in window_supports(width, max_points):
            signs = set()
            for m in enumerate_multisegments(support, limit=max_points):
                x = VirtualRep(1, {m: 1})
                a = lj_std(REG, raw_dual_std(x), d)
                b = raw_dual_std(lj_std(REG, x, d))
                if a.is_zero() and b.is_zero():
                    continue
                if a != b and a != -b:
                    return False, f"no sign works for {m!r} at d={d}"
                signs.add(a == b)
            if len(signs) > 1:
                return False, f"a support class needs two signs at d={d}"
            classes += len(signs)
    return True, f"{classes} support classes"


ALL_SUITES = [
    ("duality-involution", suite_duality_involution),
    ("speh-dual-swap", suite_speh_dual),
    ("transfer-identity", suite_transfer_identity),
    ("vanishing-criterion", suite_vanishing),
    ("ubar-factorization", suite_ubar_factorization),
    ("involution-formula", suite_involution_formula),
    ("l-eps-closed-forms", suite_lfactors),
    ("normalizer-cancellation", suite_normalizer),
    ("interval-decomposition", suite_intervals),
    ("levi-counts", suite_levi_counts),
    ("unitary-image", suite_nonunit_image),
    ("sign-coherence", suite_sign_coherence),
    ("recorded-counterexample", suite_recorded_counterexample),
]


def run_all() -> bool:
    ok_all = True
    for name, fn in ALL_SUITES:
        ok, detail = fn()
        ok_all &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
