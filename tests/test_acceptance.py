"""Acceptance suite: one test per numbered criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Criterion 7 is expected to fail: its recorded reference value
for one transfer contradicts linearity of the lattice transfer on the
standard basis, which criterion 3 pins on the same instance; the test keeps
the recorded value and documents the discrepancy (see README, "Known red").
"""

import time
from fractions import Fraction

from segcalc import (
    LineRegistry,
    Multisegment,
    Segment,
    VirtualRep,
    c_map,
    dual_irr,
    elementary_successors,
    enumerate_multisegments,
    eps_irr,
    is_lower,
    l_esi,
    l_irr,
    lj_std,
    lj_u,
    speh_u,
    speh_ubar,
    stats,
    unitary_esi,
)
from segcalc.multiseg import descendants
from segcalc.selfcheck import (
    suite_duality_involution,
    suite_intervals,
    suite_involution_formula,
    suite_levi_counts,
    suite_lfactors,
    suite_nonunit_image,
    suite_normalizer,
    suite_sign_coherence,
    suite_speh_dual,
    suite_transfer_identity,
    suite_ubar_factorization,
    suite_vanishing,
    window_corpus,
    window_supports,
)

F = Fraction
REG = LineRegistry.standard()


def report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def seg(a, b, line="rho", step=1):
    a, b = F(a), F(b)
    return Segment(line, a, int((b - a) / step) + 1, step)


def ms(*segs):
    return Multisegment(segs)


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_duality_involution():
    """Involution and support preservation over the full window corpus."""
    t0 = time.time()
    passed, detail = suite_duality_involution(5, 7)
    checked = int(detail.split()[0]) if passed else 0
    elapsed = time.time() - t0
    ok = passed and checked >= 200 and elapsed < 60
    report(1, ok, f"{detail} in {elapsed:.1f}s")
    assert ok


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_speh_duality_swap():
    ok, detail = suite_speh_dual(5)
    report(2, ok, "1 <= k,l <= 5" if ok else detail)
    assert ok


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_transfer_identity():
    """Lattice transfer of the unit expansion equals the closed-form expansion."""
    t0 = time.time()
    passed, detail = suite_transfer_identity(smax=3, bound=3, kmax=3)
    elapsed = time.time() - t0
    ok = passed and elapsed < 10
    report(3, ok, f"{detail} in {elapsed:.1f}s")
    assert ok


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_divisibility_vanishing():
    """Sign vanishes exactly when no permutation satisfies the congruences."""
    t0 = time.time()
    passed, detail = suite_vanishing(6)
    elapsed = time.time() - t0
    ok = passed and elapsed < 30
    report(4, ok, f"{detail} in {elapsed:.1f}s")
    assert ok


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_ubar_factorization_labels():
    ok, detail = suite_ubar_factorization(smax=4, kmax=8, lmax=3)
    report(5, ok, detail)
    assert ok


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_involution_formula():
    """Dual of ubar(tau', l) equals the stretched/shortened two-block product."""
    ok, detail = suite_involution_formula(smax=3, lmax=5, kmax=3)
    report(6, ok, detail)
    assert ok


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_second_counterexample_regression():
    """Recorded reference values for the d = 2 transfer-regression scenario.

    The first and fourth assertions record |LJ|(u(St3, 2)) = ubar(St'1, 3)
    and conclude that the two transfers differ.  That value contradicts
    linearity of the transfer on the standard basis: u(St3, 2) expands as
    S - St4 x St2 with S killed by the transfer (its segments have odd
    length), so the transfer is forced to be -(St'2 x St'1), the same
    irreducible label as the transfer of St4 x St2 with the opposite sign.
    Criterion 3 pins that computation on this very instance (s = 2, l = 3,
    k = 2).  The assertions below keep the recorded values, so this test
    fails by design and documents the discrepancy.
    """
    d = 2
    st3_transfer = lj_u(REG, 3, "rho", 2, d)
    st4_x_st2 = VirtualRep.of(ms(unitary_esi("rho", 4), unitary_esi("rho", 2)))
    pi_transfer = lj_std(REG, st4_x_st2, d)

    ubar_st1_3 = speh_ubar(unitary_esi("rho", 1, d), 3)
    st2p_x_st1p = ms(unitary_esi("rho", 2, d), unitary_esi("rho", 1, d))
    one2_x_st1p = dual_irr(ms(unitary_esi("rho", 2, d))) | ms(unitary_esi("rho", 1, d))

    claim_b = pi_transfer == VirtualRep(d, {st2p_x_st1p: 1})
    claim_c = ubar_st1_3 == one2_x_st1p
    claim_a = st3_transfer.multisegment() == ubar_st1_3
    claim_d = st3_transfer.multisegment() != st2p_x_st1p

    ok = claim_a and claim_b and claim_c and claim_d
    report(
        7,
        ok,
        f"St4xSt2 transfer={claim_b}, 1'2xSt'1 identity={claim_c}, "
        f"recorded u(St3,2) value={claim_a}, transfers differ={claim_d}",
    )
    assert claim_b, "transfer of St4 x St2"
    assert claim_c, "ubar(St'1, 3) = 1'2 x St'1"
    assert claim_a, (
        "recorded value ubar(St'1,3) for |LJ|(u(St3,2)); the computed value is "
        f"{st3_transfer.sign} * {st3_transfer.multisegment()!r}"
    )
    assert claim_d, "the two transfers were recorded as distinct"


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_nonunit_image_regression():
    """The d = 4 blocked product: below ubar(St'3, 16) but outside the image."""
    t0 = time.time()
    passed, detail = suite_nonunit_image(d=4, l=3, k=16)
    elapsed = time.time() - t0
    ok = passed and elapsed < 300
    report(8, ok, f"dim 16 regression in {elapsed:.1f}s" if passed else detail)
    assert ok


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_l_and_eps_suite():
    # closed forms for the trivial and Steinberg families
    ok, detail = suite_lfactors(nmax=6, dmax=4)
    assert ok, detail

    # invariance of L and eps' under the esi correspondence, twists included
    for d in range(1, 5):
        for k in range(1, 5):
            for l in range(1, 5):
                for twist in (F(0), F(1, 2), F(-2)):
                    split = unitary_esi("rho", d * k * l).shifted(twist)
                    inner = c_map(REG, split, d)
                    assert l_esi(REG, split) == l_esi(REG, inner)
                    assert eps_irr(REG, ms(split)) == eps_irr(REG, ms(inner))

    # factorwise invariance on standard labels
    split_label = ms(
        unitary_esi("rho", 4).shifted(F(1, 2)), unitary_esi("rho", 2).shifted(F(-1, 2))
    )
    inner_label = Multisegment(c_map(REG, s, 2) for s in split_label.segments)
    assert l_irr(REG, split_label) == l_irr(REG, inner_label)
    assert eps_irr(REG, split_label) == eps_irr(REG, inner_label)

    # eps' is preserved on every nonzero unit transfer from criterion 3's
    # corpus; in the s | k (dual) cases L may genuinely differ: record them
    l_gaps = []
    for s in (2, 3):
        for l in range(1, 4):
            for k in range(1, 10):
                t = lj_u(REG, l, "rho", k, s)
                if t.sign == 0:
                    continue
                u_label = speh_u(l, "rho", k)
                assert eps_irr(REG, u_label) == eps_irr(REG, t.multisegment()), (s, l, k)
                if l % s:
                    if l_irr(REG, u_label) != l_irr(REG, t.multisegment()):
                        l_gaps.append((s, l, k))
                else:
                    assert l_irr(REG, u_label) == l_irr(REG, t.multisegment())
    assert l_gaps, "expected at least one dual-case L-function inequality"
    report(9, True, f"closed forms + invariance; L differs in dual cases {l_gaps}")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_normalizer_cancellation():
    ok, detail = suite_normalizer(5)
    report(10, ok, detail)
    assert ok


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_interval_decomposition():
    t0 = time.time()
    ok, detail = suite_intervals(size=10, window=4)
    report(11, ok, f"{detail} in {time.time() - t0:.1f}s")
    assert ok


# -- 12 -----------------------------------------------------------------------


def test_criterion_12_levi_counts():
    ok, detail = suite_levi_counts()
    report(12, ok, "(4,2) -> 3, (6,3) -> 15" if ok else detail)
    assert ok


# -- 13 -----------------------------------------------------------------------


def test_criterion_13_order_sanity():
    t0 = time.time()
    # operation invariants over the full criterion-1 corpus
    for m in window_corpus(5, 7):
        assert is_lower(m, m)
        st = stats(m)
        for m2 in elementary_successors(m):
            st2 = stats(m2)
            assert st2.support == st.support
            assert st.ell <= st2.ell
            assert all(st2.endings[e] <= st.endings[e] for e in st2.endings)

    # partial-order axioms, exhaustively on the <= 6 point classes
    pairs = 0
    for support in window_supports(5, 6):
        members = sorted(enumerate_multisegments(support, limit=6), key=Multisegment.sort_key)
        if len(members) < 2:
            continue
        desc = {m: descendants(m) for m in members}
        for a in members:
            for b in members:
                down = a in desc[b]
                assert is_lower(a, b) == down, (a, b)
                if down and b in desc[a]:
                    assert a == b  # antisymmetry
                if down:
                    assert desc[a] <= desc[b]  # transitivity
                pairs += 1
    elapsed = time.time() - t0
    report(13, True, f"{pairs} ordered pairs in {elapsed:.1f}s")


# -- 14 -----------------------------------------------------------------------


def test_criterion_14_sign_coherence():
    t0 = time.time()
    ok, detail = suite_sign_coherence(5, 6, ds=(2, 3))
    report(14, ok, f"d in (2,3) in {time.time() - t0:.1f}s" if ok else detail)
    assert ok
