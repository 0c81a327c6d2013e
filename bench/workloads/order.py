"""order: order queries on 6..11-point supports, in a size ladder.

Each rung n starts from the n singletons of n consecutive points, the top
of the order on that support, so the breadth-first search in ``is_lower``
meets many descendants.  A label w elementary operations below the top is
taken by a seeded walk.  Per rung and pass there are seven ops:

* ``is_lower(a, top)`` for a at w = n - 2 and w = (n - 2) // 2 (true);
* ``is_lower(top, b)`` for b at w = 1 and w = 3 (false; the search visits
  all 2^(n-1-w) labels below b);
* ``ll_less`` on an inner-form line (step 2 or 3): true at w = n - 2, false
  at w = 2;
* ``descendants`` of the label at w = 2, with ``enumerate_multisegments``
  of its support.

Half the queries are true by construction, and their costs spread over two
orders of magnitude per rung.  The seed picks the walks, the line, the
inner-form step and an integer shift; none of these changes an op's cost
by much, since on distinct points the cost depends only on n and w.
"""

from __future__ import annotations

from fractions import Fraction

from segcalc import Multisegment, Segment, enumerate_multisegments, is_lower, ll_less
from segcalc.multiseg import descendants

import oracles as O
from harness import Case

RUNGS = range(6, 12)
TINY_RUNGS = range(4, 6)


def _walk(rng, key, steps: int):
    """``steps`` seeded elementary operations down from ``key``."""
    for _ in range(steps):
        key = rng.choice(sorted(O.successors(key)))
    return key


def generate(rng, tiny: bool) -> list[Case]:
    cases = []
    for n in TINY_RUNGS if tiny else RUNGS:
        rung = f"n{n}"

        def top(line: str, step: int):
            shift = Fraction(rng.choice([-2, -1, 0, 1]))
            return O.make_key((line, step, shift + i * step, 1) for i in range(n))

        t = top(rng.choice(["rho", "chi"]), 1)
        for w in (n - 2, (n - 2) // 2):
            cases.append(Case("is_lower", rung, (_walk(rng, t, w), t, True)))
        for w in (1, 3):
            cases.append(Case("is_lower", rung, (t, _walk(rng, t, w), False)))
        t = top("rho", rng.choice([2, 3]))
        cases.append(Case("ll_less", rung, (_walk(rng, t, n - 2), t, True)))
        cases.append(Case("ll_less", rung, (t, _walk(rng, t, 2), False)))
        t = top(rng.choice(["rho", "chi"]), 1)
        cases.append(Case("descendants", rung, (_walk(rng, t, 2), n)))
    return cases


def _build(key) -> Multisegment:
    return Multisegment(Segment(line, start, n, step) for line, step, start, n in key)


def run(t, reg, case: Case):
    if case.kind == "descendants":
        key, n = case.data
        with t.span("multiseg.build"):
            b = _build(key)
        with t.span("multiseg.descendants"):
            down = descendants(b)
        t.count("multiseg.descendants.labels", len(down))
        with t.span("multiseg.enumerate"):
            every = enumerate_multisegments(b.support(), limit=n)
        t.count("multiseg.enumerate.labels", len(every))
        return {"down": down, "every": every}
    a_key, b_key, _ = case.data
    with t.span("multiseg.build"):
        a, b = _build(a_key), _build(b_key)
    if case.kind == "ll_less":
        with t.span("transfer.ll_less"):
            return ll_less(a, b)
    with t.span("multiseg.is_lower"):
        res = is_lower(a, b)
    t.count("multiseg.is_lower.calls")
    t.count("multiseg.is_lower.true", int(res))
    return res


def check(case: Case, out) -> str | None:
    if case.kind == "descendants":
        key, _ = case.data
        every = {O.key_of(x) for x in out["every"]}
        if every != O.labels_on(key):
            return "enumeration differs from the reference"
        want = {x for x in every if O.rank_le(x, key)}
        if {O.key_of(x) for x in out["down"]} != want:
            return "descendants differ from the rank criterion"
        return None
    a, b, expected = case.data
    if case.kind == "ll_less":
        a, b = O.flatten(a), O.flatten(b)
    if O.rank_le(a, b) != expected:
        return "the rank criterion contradicts the construction"
    if out is not expected:
        return f"{case.kind} answered {out}, expected {expected}"
    return None
