"""Hypothesis strategies and oracles shared by the property tests."""

from fractions import Fraction
from typing import Iterator, Optional

from hypothesis import strategies as st

from segcalc import Multisegment, Segment, SpehUnit, UnitaryProduct, VirtualRep, unitary_esi


@st.composite
def labels(draw, max_points=7, steps=(1, 2, 3)):
    """Labels on two lines, the given steps, starts with denominator 1, 2 or 4, repeated points."""
    palette = draw(st.lists(st.tuples(st.sampled_from(["rho", "chi"]), st.sampled_from(steps)),
                            min_size=1, max_size=2))
    shift = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]))
    budget = draw(st.integers(1, max_points))
    segs = []
    while budget:
        length = draw(st.integers(1, budget))
        budget -= length
        line, step = draw(st.sampled_from(palette))
        segs.append(Segment(line, shift + draw(st.integers(-2, 2)), length, step))
    return Multisegment(segs)


@st.composite
def labels_with_repeats(draw, max_points=7):
    """A label from ``labels`` with one of its segments taken twice."""
    m = draw(labels(max_points))
    return Multisegment(m.segments + (draw(st.sampled_from(m.segments)),))


@st.composite
def virtual_reps(draw, d=1, label=labels()):
    """A sum of up to six multiples (-3..3) of at most three labels, so terms repeat and cancel."""
    pool = draw(st.lists(label, min_size=1, max_size=3))
    v = VirtualRep.zero(d)
    for m, c in draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-3, 3)), max_size=6)):
        v = v + VirtualRep.of(m, c, d)
    return v


@st.composite
def unitary_products(draw, lines=("rho", "chi"), steps=(1,)):
    """At most two factors, each a twist-0 unit or a pi(u, alpha) pair, with l and k <= 3.

    The bases are split by default.  On an inner-form step s the pair halves
    sit at +-alpha*s, so steps 2 and 3 give offsets in eighths, quarters,
    halves and thirds.
    """
    units = []
    for _ in range(draw(st.integers(0, 2))):
        base = unitary_esi(draw(st.sampled_from(lines)), draw(st.integers(1, 3)), draw(st.sampled_from(steps)))
        alpha = draw(st.sampled_from([None, None, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)]))
        units.append(SpehUnit(base, draw(st.integers(1, 3)), Fraction(0), alpha))
    return UnitaryProduct(units)


def recognize_unitary_greedy(m: Multisegment) -> Optional[UnitaryProduct]:
    """The greedy extraction alone, with no center-sum rejection: the oracle for ``recognize_unitary``.

    Centers are Fractions read through ``Segment.center``, and a layout is
    taken out of the remaining centers only when all of it is there.
    """
    groups: dict[tuple, list[Segment]] = {}
    for s in m.segments:
        groups.setdefault((s.line, s.step, s.length), []).append(s)
    units: list[SpehUnit] = []
    for _, segs in sorted(groups.items()):
        proto = segs[0]
        s = proto.step
        centers: dict[Fraction, int] = {}
        for seg in segs:
            centers[seg.center] = centers.get(seg.center, 0) + 1
        base = unitary_esi(proto.line, proto.length, s)
        while centers:
            c = max(centers)
            k = 2 * c // s + 1
            if k < 1:
                return None
            beta = c - Fraction(s * (k - 1), 2)
            alpha = beta / s if beta else None
            need = SpehUnit.layout(k, s, Fraction(0), alpha)
            taken: dict[Fraction, int] = {}
            for x in need:
                if centers.get(x, 0) - taken.get(x, 0) <= 0:
                    return None
                taken[x] = taken.get(x, 0) + 1
            for x, n in taken.items():
                centers[x] -= n
                if centers[x] == 0:
                    del centers[x]
            units.append(SpehUnit(base, k, Fraction(0), alpha))
    return UnitaryProduct(units)


# -- W_k^l, the index set of the Speh-unit expansion -----------------------------


def admissible_permutations(k: int, l: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (w, sign) over permutations w of {1..k} with w(i) + l >= i.

    Generated by backtracking so that large k with a tight bound stays
    cheap; 1-indexed w is returned as a tuple with w[i-1] = w(i).  Placing v
    at position i adds one inversion per unused value below v, so the sign
    is carried down the recursion.  It is the oracle for ``_tadic_sum``,
    which walks the same set without recursion.
    """
    used = [False] * (k + 1)
    perm: list[int] = []

    def rec(sign: int) -> Iterator[tuple[tuple[int, ...], int]]:
        i = len(perm) + 1
        if i > k:
            yield tuple(perm), sign
            return
        lo = max(1, i - l)
        smaller = 0  # unused values below v
        for v in range(1, k + 1):
            if used[v]:
                continue
            if v < lo:
                return  # v fits no later position either
            used[v] = True
            perm.append(v)
            yield from rec(-sign if smaller % 2 else sign)
            perm.pop()
            used[v] = False
            smaller += 1

    yield from rec(1)


def count_admissible(k: int, l: int) -> int:
    return sum(1 for _ in admissible_permutations(k, l))
