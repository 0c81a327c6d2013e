"""Reference computations that check segcalc's outputs without calling it.

A label is handled here as a *key*: the sorted tuple of its segments, each
``(line, step, start, length)`` with an exact ``Fraction`` start.  Every
function below works on keys or plain numbers and reimplements its rule from
the definitions, not from segcalc's code paths.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

Seg = tuple  # (line, step, start, length)
Key = tuple  # sorted tuple of Seg


def key_of(m) -> Key:
    """Key of a segcalc Multisegment (reads attributes only)."""
    return tuple(sorted((s.line, s.step, s.start, s.length) for s in m.segments))


def make_key(segs) -> Key:
    return tuple(sorted((line, step, Fraction(start), length) for line, step, start, length in segs))


def points(seg: Seg):
    line, step, start, length = seg
    return [(line, start + j * step) for j in range(length)]


def support(key: Key) -> Counter:
    out: Counter = Counter()
    for seg in key:
        out.update(points(seg))
    return out


def flat_seg(seg: Seg) -> Seg:
    """An inner-form segment as its split block: same center, step 1."""
    line, step, start, length = seg
    return (line, 1, start - Fraction(step - 1, 2), length * step)


def flatten(key: Key) -> Key:
    return tuple(sorted(flat_seg(s) for s in key))


def s_invariant(p: int, d: int) -> int:
    return d // gcd(d, p)


# -- order ---------------------------------------------------------------------


def _by_effective_line(key: Key) -> dict:
    """Effective line -> list of (first, last) integer positions on it."""
    groups: dict = {}
    for line, step, start, length in key:
        off = start % step
        pos = int((start - off) / step)
        groups.setdefault((line, step, off), []).append((pos, pos + length - 1))
    return groups


def successors(key: Key) -> set:
    """All labels one elementary operation below ``key``."""
    out = set()
    segs = list(key)
    for i, j in itertools.combinations(range(len(segs)), 2):
        (l1, s1, a1, n1), (l2, s2, a2, n2) = segs[i], segs[j]
        if (l1, s1) != (l2, s2) or (a1 - a2) % s1 != 0:
            continue
        b1, b2 = a1 + (n1 - 1) * s1, a2 + (n2 - 1) * s1
        if (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2):
            continue  # nested: the union is one of the two
        if a2 > b1 + s1 or a1 > b2 + s1:
            continue  # a gap: the union is not a segment
        lo, hi = min(a1, a2), max(b1, b2)
        new = [(l1, s1, lo, int((hi - lo) / s1) + 1)]
        ilo, ihi = max(a1, a2), min(b1, b2)
        if ilo <= ihi:
            new.append((l1, s1, ilo, int((ihi - ilo) / s1) + 1))
        rest = [s for k, s in enumerate(segs) if k not in (i, j)]
        out.add(tuple(sorted(rest + new)))
    return out


def rank_le(a: Key, b: Key) -> bool:
    """Rank criterion for the order: ``a`` lies below ``b``.

    Per effective line, a <= b iff the supports agree and every interval
    [i, j] is contained in at least as many segments of ``a`` as of ``b``
    (Zelevinsky 1980; Abeasis-Del Fra-Kraft 1981).
    """
    if support(a) != support(b):
        return False
    ga, gb = _by_effective_line(a), _by_effective_line(b)
    if ga.keys() != gb.keys():
        return False
    for line, sa in ga.items():
        sb = gb[line]
        lo = min(p for p, _ in sa)
        hi = max(q for _, q in sa)
        for i in range(lo, hi + 1):
            for j in range(i, hi + 1):
                ca = sum(1 for p, q in sa if p <= i and j <= q)
                cb = sum(1 for p, q in sb if p <= i and j <= q)
                if ca < cb:
                    return False
    return True


def run_partitions(positions: Counter) -> list[tuple]:
    """Every way to split an integer multiset into runs, as ((first, length), ...)."""
    if not positions:
        return [()]
    p = min(positions)
    out = set()
    rest = Counter(positions)
    length = 0
    while rest.get(p + length, 0) > 0:
        rest[p + length] -= 1
        if rest[p + length] == 0:
            del rest[p + length]
        length += 1
        for tail in run_partitions(rest):
            out.add(tuple(sorted(tail + ((p, length),))))
    return sorted(out)


def labels_on(key: Key) -> set:
    """All labels with the support and effective lines of ``key``."""
    per_line = []
    for (line, step, off), segs in sorted(_by_effective_line(key).items()):
        pos: Counter = Counter()
        for p, q in segs:
            pos.update(range(p, q + 1))
        per_line.append(
            [
                [(line, step, off + a * step, n) for a, n in part]
                for part in run_partitions(pos)
            ]
        )
    return {tuple(sorted(sum(choice, []))) for choice in itertools.product(*per_line)}


# -- duality -------------------------------------------------------------------


def cut_expansion(key: Key) -> dict:
    """Signed cut expansion: each segment of length n becomes the sum over its
    2^(n-1) cuts into consecutive pieces, sign (-1)^(n - pieces); multiplied out."""
    total: Counter = Counter({(): 1})
    for line, step, start, n in key:
        cuts: Counter = Counter()
        for mask in range(1 << (n - 1)):
            bounds = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
            pieces = tuple(
                (line, step, start + bounds[i] * step, bounds[i + 1] - bounds[i])
                for i in range(len(bounds) - 1)
            )
            cuts[pieces] += (-1) ** (n - len(pieces))
        nxt: Counter = Counter()
        for lab, c in total.items():
            for pieces, c2 in cuts.items():
                nxt[tuple(sorted(lab + pieces))] += c * c2
        total = nxt
    return {k: c for k, c in total.items() if c}


def hermitian_dual(key: Key, dual_line: dict) -> Key:
    return tuple(
        sorted(
            (dual_line[line], step, -(start + (length - 1) * step), length)
            for line, step, start, length in key
        )
    )


# -- units ---------------------------------------------------------------------


def unit_key(base: Seg, count: int, twist: Fraction, alpha) -> Key:
    """Label of a (possibly paired) Speh unit: ``count`` parallel copies of the
    centered ``base`` whose centers step by its step around ``twist``."""
    line, step, start, length = base
    centers = [twist + step * (Fraction(count - 1, 2) - i) for i in range(count)]
    if alpha is not None:
        centers = [c + alpha * step for c in centers] + [c - alpha * step for c in centers]
    return tuple(sorted((line, step, start + c, length) for c in centers))


def product_key(units) -> Key:
    """Label of a unitary product given as segcalc SpehUnit objects."""
    segs: list = []
    for u in units:
        b = u.base
        segs.extend(unit_key((b.line, b.step, b.start, b.length), u.count, u.twist, u.alpha))
    return tuple(sorted(segs))


# -- global bookkeeping ----------------------------------------------------------


def interval_peel(values) -> list | None:
    """Split a multiset into symmetric runs {-e, ..., e}, peeling the largest
    first; None when impossible or when integer and half-integer values mix."""
    cnt = Counter(Fraction(v) for v in values)
    if not cnt:
        return []
    classes = {v % 1 for v in cnt}
    if len(classes) != 1 or classes.pop() not in (Fraction(0), Fraction(1, 2)):
        return None
    out = []
    while cnt:
        e = max(cnt)
        if e < 0:
            return None
        x = -e
        while x <= e:
            if cnt.get(x, 0) == 0:
                return None
            cnt[x] -= 1
            if cnt[x] == 0:
                del cnt[x]
            x += 1
        out.append(e)
    return sorted(out, reverse=True)
