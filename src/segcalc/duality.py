"""Duality on irreducible labels and a raw dual on the standard lattice.

``dual_irr`` runs the chain-extraction algorithm on the integer positions
of each effective line: repeatedly peel one cuspidal point off a maximal
chain of segments whose endings decrease by one step and whose begins
strictly decrease, always preferring the shortest eligible segment (the one
with the largest begin).  The peeled endings form one segment of the dual.
The involution commutes with induction products, so it acts on each rigid
part (effective line) alone; ``mw_dual`` is its rigid-input case.  A chain
step is one bisection and peels one point, and each chain's top comes off
a heap (see ``dual_irr``), so n segments of length one cost O(n log n).

``raw_dual_std`` is the signed cut-expansion dual on the standard basis: on
one segment of length n it is the alternating sum over the 2^(n-1) ways to
cut the segment into consecutive pieces, with sign (-1)^(n - #pieces), and
it extends multiplicatively and linearly.  It carries no extra global sign
normalization; identities against the signed involution hold up to one sign
per homogeneous component (see the transfer tests).

Both expansions share prefixes and make one object per term: no sign,
bounds or (sign, pieces, hash) tuple per cut.  ``segment_cut_expansion``
extends the cuts of a shorter prefix of the segment by one shared piece, a
tuple concatenation and one hash addition per cut, and returns each sign's
cuts as two parallel lists, the pieces tuples and their hash sums.
``raw_dual_std`` folds a label's segments longer than 1 in one at a time,
extending each partial label by every cut with the coefficient of the cut's
sign.  A point's one cut is itself, with sign +1, so the label's points (in
canonical order) join each finished term once by ``multiseg._union``; a
union with one fixed multiset is injective, so the terms stay distinct, and
n points cost one pass over the terms, not n.  They rely on the
canonical-order invariant of ``Multisegment``: a label's segments are
sorted by (effective line, first position, length).  Pieces of one cut
start at increasing positions of one effective line, so a cut is already
sorted; and a segment that starts a new effective line sorts after every
piece placed before it, so the partial label plus its cut is a label as it
stands, made by one ``tuple.__new__`` without a sort.  Only the pieces of a
further segment on the same effective line (a repeat, or an overlapping or
later one) can interleave with earlier pieces, and those labels are sorted.
A label's hash is the sum of its segments' hashes, so a term's hash is the
partial label's plus its cut's, whether the term is sorted or not: no term
hashes its segments again.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush

from .multiseg import _EFFECTIVE_LINE, _HASH, Multisegment, Segment, VirtualRep, _maker, _union


def mw_dual(m: Multisegment) -> Multisegment:
    """Dual of a rigid multisegment (single effective line)."""
    if len(set(map(_EFFECTIVE_LINE, m.segments))) > 1:
        raise ValueError("mw_dual requires a rigid multisegment (one effective line)")
    return dual_irr(m)


def dual_irr(m: Multisegment) -> Multisegment:
    """Dual of any label: the chain extraction on each effective line's positions.

    Each line keeps end -> the sorted begins of its segments ending there
    (a line is one run of the canonical order, sorted by first position, so
    they arrive sorted) and a max-heap of those ends, each once.  A chain
    starts at the heap's top, dropping an end whose begins are all taken; a
    step is one ``bisect_left`` for the largest begin below the bound and a
    ``pop``; the chain's segments go back one end lower by ``insort``.  The
    lines come in sorted order and each line's output is sorted, so the
    result is canonical.  One ``_maker`` per line builds its segments.
    """
    out: list[Segment] = []
    for eff, run in itertools.groupby(m.segments, _EFFECTIVE_LINE):
        ends: dict[int, list[int]] = {}
        for seg in run:
            ends.setdefault(seg[3] + seg[4] - 1, []).append(seg[3])
        tops = [-e for e in ends]  # a max-heap of the ends, each once: an end leaves both when it comes up empty
        heapify(tops)
        peeled = []
        while tops:
            top = end = -tops[0]
            if not ends[top]:  # its begins are all taken
                del ends[-heappop(tops)]
                continue
            bound = top + 1  # begins strictly decrease
            chain = []
            while (begins := ends.get(end)) and (i := bisect_left(begins, bound)):
                bound = begins.pop(i - 1)  # the largest begin below the bound: the shortest eligible segment
                chain.append(bound)
                end -= 1
            peeled.append((end + 1, top - end))
            for last, first in zip(range(top - 1, end - 1, -1), chain):  # each chain segment one end lower
                if first <= last:
                    if (begins := ends.get(last)) is None:
                        begins = ends[last] = []
                        heappush(tops, -last)
                    insort(begins, first)
        out.extend(itertools.starmap(_maker(*eff), sorted(peeled)))
    out = tuple(out)
    return tuple.__new__(Multisegment, (out, sum(map(_HASH, out))))


def segment_cut_expansion(seg: Segment) -> tuple[tuple[list, list], tuple[list, list]]:
    """The cuts of ``seg`` into consecutive subsegments as ``(plus, minus)``, each (pieces tuples, hash sums).

    A cut of j pieces has sign (-1)^(n - j).  Each of the n(n+1)/2 distinct
    pieces is built once (the whole one is ``seg``), and the cuts of
    positions 0..hi are those of 0..lo-1 for each lo <= hi, extended by the
    piece lo..hi: adding a piece swaps the two sign groups.
    """
    n, first = seg[4], seg[3]
    if n == 1:
        return ([(seg,)], [seg[5]]), ([], [])
    make = _maker(*seg[:3])
    # column lo of each table: the cuts of positions 0..lo-1, signed as cuts of all n positions
    plus, plus_h, minus, minus_h = [[()]], [[0]], [[]], [[]]
    if n % 2:
        plus, plus_h, minus, minus_h = minus, minus_h, plus, plus_h
    for hi in range(n):
        ends = [(seg if hi - lo == n - 1 else make(first + lo, hi - lo + 1),) for lo in range(hi + 1)]
        hs = [p[5] for p, in ends]
        minus_col = [pre + p for p, pres in zip(ends, plus) for pre in pres]  # one piece more flips the sign
        minus_col_h = [h + ph for ph, pre_h in zip(hs, plus_h) for h in pre_h]
        plus.append([pre + p for p, pres in zip(ends, minus) for pre in pres])
        plus_h.append([h + ph for ph, pre_h in zip(hs, minus_h) for h in pre_h])
        minus.append(minus_col)
        minus_h.append(minus_col_h)
    return (plus[n], plus_h[n]), (minus[n], minus_h[n])


def raw_dual_std(x: VirtualRep) -> VirtualRep:
    """Linear cut-expansion dual on the standard lattice (no sign normalization).

    Each label's segments longer than 1 are folded in one at a time, then its
    points join each term once (see the module docstring).  A segment that
    starts a new effective line makes distinct canonical labels straight
    from the cut lists; otherwise the labels are sorted and equal partial
    labels merge before the next segment, so repeated segments cost their
    distinct cut multisets only.
    """
    new = tuple.__new__
    terms: dict[Multisegment, int] = {}
    for label, coeff in x.terms.items():
        points = tuple(seg for seg in label[0] if seg[4] == 1)
        partial = {new(Multisegment, ((), 0)): coeff}
        line = None
        for seg in label[0]:
            if seg[4] == 1:
                continue
            folded: dict[Multisegment, int] = {}
            new_line = line != (line := _EFFECTIVE_LINE(seg))
            for (cuts, hashes), sign in zip(segment_cut_expansion(seg), (1, -1)):
                for (segs, h), c in partial.items():
                    c *= sign
                    if new_line:
                        for pieces, ph in zip(cuts, hashes):
                            folded[new(Multisegment, (segs + pieces, h + ph))] = c
                        continue
                    for pieces, ph in zip(cuts, hashes):
                        key = new(Multisegment, (tuple(sorted(segs + pieces)), h + ph))
                        folded[key] = folded.get(key, 0) + c
            partial = folded
        if points:
            points_h = sum(map(_HASH, points))
            partial = {_union(segs, h, points, points_h): c for (segs, h), c in partial.items()}
        if terms:
            for m, c in partial.items():
                terms[m] = terms.get(m, 0) + c
        else:
            terms = partial
    return VirtualRep(x.d, terms)
