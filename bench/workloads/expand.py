"""expand: a ladder of large expansions, from about 100 to 2000 terms.

The combinatorial engines and the lattice algebra dominate: expansions of
Speh units over W_k^l, the cut-expansion dual, products of virtual
representations and the lattice transfer of all of these.  It reuses the
VirtualRep and lj_std code of ``sweep`` on a few huge representations
instead of many tiny ones.  Per rung and pass there are five ops:

* ``unit``: expand_u(l, k), its transfer lj_std at d, the closed form lj_u
  expanded back through expand_unit_product (criterion 3), and
  in_image_lju of that closed form;
* ``dual1``: raw_dual_std of one segment of length n (2^(n-1) terms), once
  on the split side and once on an inner form with step 2;
* ``dual2``: raw_dual_std of two segments of lengths n // 2 and n + 1 - n // 2
  on two lines, 2^(n-1) terms too;
* ``product``: a product of two expansions and its transfer, which must be
  the product of the transfers.

Each pass also has two ``image`` ops at d = 4: in_image_lju of the blocked
product of criterion 8, which is outside the image, and of its unblocked
control, the ubar factorization, which has a preimage.  The seed picks
integer twists and shifts, and which line of ``dual2`` carries the longer
segment.  It never changes whether an exponent is an integer or a
half-integer, since Fraction arithmetic costs more on half-integers: each
op keeps its cost.
"""

from __future__ import annotations

from fractions import Fraction

from segcalc import (
    Multisegment,
    Segment,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    expand_u,
    in_image_lju,
    lj_std,
    lj_u,
    raw_dual_std,
    ubar_factor,
    unitary_esi,
)
from segcalc.gkring import expand_unit_product

import oracles as O
from harness import Case

# rung: (l, k, d) of the unit op, n of the dual ops, the two (l, k) of the product
# and its d; the term counts are 120/162/384/600/1536, 2^(n-1), and 128/288/432/972/1728
RUNGS = [
    ("r1", (4, 5, 2), 8, ((1, 4), (1, 5)), 2),
    ("r2", (2, 6, 3), 9, ((1, 5), (2, 4)), 2),
    ("r3", (3, 6, 2), 10, ((2, 4), (3, 4)), 2),
    ("r4", (4, 6, 4), 11, ((2, 5), (2, 4)), 2),
    ("r5", (3, 7, 3), 12, ((3, 5), (2, 4)), 2),
]
TINY_RUNGS = [("r1", (2, 3, 2), 3, ((1, 2), (1, 3)), 2)]
TWISTS = [Fraction(n) for n in range(-2, 3)]


def generate(rng, tiny: bool) -> list[Case]:
    cases = []
    for rung, (l, k, d), n, ((l1, k1), (l2, k2)), pd in TINY_RUNGS if tiny else RUNGS:
        cases.append(Case("unit", rung, (l, k, d, rng.choice(TWISTS))))
        for step in (1, 2):
            start = rng.choice(TWISTS) - Fraction((n - 1) * step, 2)
            cases.append(Case("dual1", rung, ((("rho", step, start, n),), step)))
        lines = rng.sample(["rho", "chi"], 2)
        two = ((lines[0], 1, rng.choice(TWISTS), n // 2), (lines[1], 1, rng.choice(TWISTS), n + 1 - n // 2))
        cases.append(Case("dual2", rung, (O.make_key(two), 1)))
        cases.append(Case("product", rung, ((l1, k1), (l2, k2), rng.choice(TWISTS), pd)))
    cases.append(Case("image", None, "blocked"))
    cases.append(Case("image", None, "control"))
    return cases


def _criterion8(which: str) -> UnitaryProduct:
    """The d = 4 blocked product of criterion 8, or its unblocked control."""
    st3, st4 = unitary_esi("rho", 3, 4), unitary_esi("rho", 4, 4)
    if which == "control":
        return ubar_factor(st3, 16)
    return UnitaryProduct(
        [
            SpehUnit(st3, 4, Fraction(-3, 2)),
            SpehUnit(st4, 3, Fraction(-1, 2)),
            SpehUnit(st4, 3, Fraction(1, 2)),
            SpehUnit(st3, 4, Fraction(3, 2)),
        ]
    )


def run(t, reg, case: Case):
    if case.kind == "unit":
        l, k, d, twist = case.data
        with t.span("gkring.expand_u"):
            x = expand_u(l, "rho", k, twist)
        t.count("gkring.expand_u.terms", len(x.terms))
        with t.span("transfer.lj_std"):
            y = lj_std(reg, x, d)
        t.count("transfer.lj_std.terms_in", len(x.terms))
        t.count("transfer.lj_std.terms_out", len(y.terms))
        with t.span("transfer.lj_u"):
            closed = lj_u(reg, l, "rho", k, d)
        with t.span("gkring.expand_unit_product"):
            z = closed.sign * expand_unit_product(closed.twisted(twist).product, d)
        with t.span("transfer.in_image_lju"):
            witness = in_image_lju(reg, closed.product, d)
        t.count("transfer.in_image_lju.calls")
        t.count("transfer.in_image_lju.found", witness is not None)
        return {"x": x, "y": y, "z": z, "target": closed.product, "witness": witness}
    if case.kind in ("dual1", "dual2"):
        key, d = case.data
        with t.span("multiseg.build"):
            m = Multisegment(Segment(line, start, n, step) for line, step, start, n in key)
        with t.span("duality.raw_dual_std"):
            r = raw_dual_std(VirtualRep.of(m, 1, d))
        t.count("duality.raw_dual_std.terms", len(r.terms))
        return r
    if case.kind == "product":
        (l1, k1), (l2, k2), twist, d = case.data
        with t.span("gkring.expand_u"):
            x = expand_u(l1, "rho", k1)
            y = expand_u(l2, "chi", k2, twist)
        t.count("gkring.expand_u.terms", len(x.terms) + len(y.terms))
        with t.span("gkring.product"):
            p = x * y
        t.count("gkring.product.terms", len(p.terms))
        with t.span("transfer.lj_std"):
            lx, ly, lp = lj_std(reg, x, d), lj_std(reg, y, d), lj_std(reg, p, d)
        t.count("transfer.lj_std.terms_in", len(x.terms) + len(y.terms) + len(p.terms))
        t.count("transfer.lj_std.terms_out", len(lx.terms) + len(ly.terms) + len(lp.terms))
        with t.span("gkring.product"):
            lxy = lx * ly
        return {"x": x, "y": y, "p": p, "lp": lp, "lxy": lxy}
    target = _criterion8(case.data)
    with t.span("transfer.in_image_lju"):
        witness = in_image_lju(reg, target, 4)
    t.count("transfer.in_image_lju.calls")
    t.count("transfer.in_image_lju.found", witness is not None)
    return {"target": target, "witness": witness}


def _coeff_sum(v) -> int:
    return sum(v.terms.values())


def check(case: Case, out) -> str | None:
    if case.kind == "unit":
        l, k, d, twist = case.data
        base = ("rho", 1, -Fraction(l - 1, 2), l)
        want_support = O.support(O.unit_key(base, k, twist, None))
        if any(O.support(O.key_of(m)) != want_support for m in out["x"].terms):
            return "an expand_u term has the wrong support"
        if out["y"] != out["z"]:
            return "lj_std(expand_u) differs from the expanded closed form lj_u"
        return _check_witness(out)
    if case.kind in ("dual1", "dual2"):
        key, _ = case.data
        n_total = sum(n for *_, n in key)
        if len(out.terms) != 2 ** (n_total - len(key)):
            return f"raw_dual_std has {len(out.terms)} terms"
        for lab, c in out.terms.items():
            if c != (-1) ** (n_total - len(lab)):
                return "a raw_dual_std coefficient is not the sign of its cut"
            if O.support(O.key_of(lab)) != O.support(key):
                return "a raw_dual_std term has the wrong support"
        return None
    if case.kind == "product":
        x, y, p = out["x"], out["y"], out["p"]
        if len(p.terms) != len(x.terms) * len(y.terms):
            return "a product over two lines lost terms"
        if _coeff_sum(p) != _coeff_sum(x) * _coeff_sum(y):
            return "the product does not multiply coefficient sums"
        if out["lp"] != out["lxy"]:
            return "lj_std is not multiplicative on this product"
        return None
    if case.data == "blocked":
        return None if out["witness"] is None else "the blocked product of criterion 8 got a preimage"
    return _check_witness(out)


def _check_witness(out) -> str | None:
    if out["witness"] is None:
        return "in_image_lju found no preimage"
    got = O.support(O.product_key(out["witness"].units))
    if got != O.support(O.flatten(O.product_key(out["target"].units))):
        return "the in_image_lju witness has the wrong support"
    return None
