"""sweep: every label of the window(5, 7) corpus through the label pipeline.

Thousands of tiny labels, so Segment/Multisegment construction, canonical
sorting, hashing and Fraction arithmetic dominate; there is no search and
no large expansion.  The seed picks, label by label, a split or inner-form
line (step 2 or 3) and an integer or half-integer shift of the exponents.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from segcalc import (
    Multisegment,
    Segment,
    VirtualRep,
    dual_irr,
    elementary_successors,
    eps_irr,
    hermitian_dual,
    interval_decomposition,
    l_irr,
    lj_std,
    raw_dual_std,
    recognize_unitary,
)

import oracles as O
from harness import LINES, Case

P = {e["name"]: e["p"] for e in LINES}
DUAL = {e["name"]: e["dual"] or e["name"] for e in LINES}
UNRAMIFIED = {e["name"] for e in LINES if e.get("unramified")}

# (line, step): split rho and chi, inner-form rho' at s = 2 and s = 3
SIDES = [("rho", 1), ("chi", 1), ("rho", 2), ("rho", 3)]
SHIFTS = [Fraction(n, 2) for n in range(-6, -1)]  # -3 .. -1 in half steps


def window_corpus(width: int, max_points: int) -> list[tuple]:
    """Every label with support in positions [0, width) and 1..max_points points."""
    out = []
    for size in range(1, max_points + 1):
        for combo in itertools.combinations_with_replacement(range(width), size):
            out.extend(O.run_partitions(Counter(combo)))
    return out


def generate(rng, tiny: bool) -> list[Case]:
    corpus = window_corpus(3, 3) if tiny else window_corpus(5, 7)
    cases = []
    for runs in corpus:
        line, step = rng.choice(SIDES)
        shift = rng.choice(SHIFTS)
        key = O.make_key((line, step, shift + a * step, n) for a, n in runs)
        flat = O.flatten(key)
        exps = [e for _, e in O.support(flat).elements()]
        cases.append(Case("label", None, (key, flat, exps)))
    return cases


def run(t, reg, case: Case):
    key, flat, exps = case.data
    step = key[0][1]
    with t.span("multiseg.build"):
        m = Multisegment(Segment(line, start, n, s) for line, s, start, n in key)
        split = VirtualRep.of(Multisegment(Segment(line, start, n) for line, _, start, n in flat))
    out = {"m": m}
    with t.span("duality.dual_irr"):
        out["dual"] = dual_irr(m)
        out["dual2"] = dual_irr(out["dual"])
    with t.span("multiseg.successors"):
        out["succ"] = elementary_successors(m)
    t.count("multiseg.successors.labels", len(out["succ"]))
    with t.span("duality.raw_dual_std"):
        out["raw"] = raw_dual_std(VirtualRep.of(m, 1, step))
    t.count("duality.raw_dual_std.terms", len(out["raw"].terms))
    out["lj"] = []
    for d in (2, 3):
        with t.span("transfer.lj_std"):
            img = lj_std(reg, split, d)
        out["lj"].append((d, img))
        t.count("transfer.lj_std.terms_in", 1)
        t.count("transfer.lj_std.terms_out", len(img.terms))
    with t.span("gkring.recognize"):
        out["units"] = recognize_unitary(m)
    with t.span("lfactors.l_eps"):
        out["L"] = l_irr(reg, m)
        out["eps"] = eps_irr(reg, m)
    with t.span("multiseg.hermitian_dual"):
        out["herm"] = hermitian_dual(m, reg)
        out["herm2"] = hermitian_dual(out["herm"], reg)
    with t.span("globalrep.interval"):
        out["intervals"] = interval_decomposition(exps)
    return out


def check(case: Case, out) -> str | None:
    key, flat, exps = case.data
    m = out["m"]
    if O.key_of(m) != key:
        return "label built wrongly"
    dual = O.key_of(out["dual"])
    if O.key_of(out["dual2"]) != key:
        return "dual is not an involution"
    if O.support(dual) != O.support(key):
        return "dual changed the support"
    if {O.key_of(x) for x in out["succ"]} != O.successors(key):
        return "elementary successors differ from the reference"
    raw = {O.key_of(lab): c for lab, c in out["raw"].terms.items()}
    if raw != O.cut_expansion(key):
        return "raw_dual_std differs from the cut expansion"
    for d, img in out["lj"]:
        keep = all(n % O.s_invariant(P[line], d) == 0 for line, _, _, n in flat)
        if not keep:
            if img.terms:
                return f"lj_std at d={d} kept an incompatible label"
            continue
        if len(img.terms) != 1 or next(iter(img.terms.values())) != 1:
            return f"lj_std at d={d} is not a single label"
        image = O.key_of(next(iter(img.terms)))
        if O.flatten(image) != flat:
            return f"lj_std at d={d} changed the support"
        if d == key[0][1] and image != key:
            return f"lj_std at d={d} does not invert the flattening"
    if out["units"] is not None and O.product_key(out["units"].units) != key:
        return "recognized units do not rebuild the label"
    want_l = sorted(
        start + length - 1 for line, _, start, length in flat if line in UNRAMIFIED and P[line] == 1
    )
    if list(out["L"].shifts) != want_l:
        return "L-factor shifts differ"
    if list(out["eps"].shifts) != sorted(O.support(flat).elements()):
        return "epsilon shifts differ"
    if O.key_of(out["herm"]) != O.hermitian_dual(key, DUAL) or O.key_of(out["herm2"]) != key:
        return "hermitian dual differs"
    if out["intervals"] != O.interval_peel(exps):
        return "interval decomposition differs"
    return None
