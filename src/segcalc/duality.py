"""Duality on irreducible labels and a raw dual on the standard lattice.

``mw_dual`` runs the chain-extraction algorithm on a rigid multisegment:
repeatedly peel one cuspidal point off a maximal chain of segments whose
endings decrease by one step and whose begins strictly decrease, always
preferring the shortest eligible segment.  The peeled endings form one
segment of the dual; the involution extends to arbitrary labels one rigid
part at a time because it commutes with induction products.

``raw_dual_std`` is the signed cut-expansion dual on the standard basis: on
one segment of length n it is the alternating sum over the 2^(n-1) ways to
cut the segment into consecutive pieces, with sign (-1)^(n - #pieces), and
it extends multiplicatively and linearly.  A label's terms are built by
folding in its segments' cut lists one segment at a time into one dict,
merging equal partial labels at each step; every cut of a segment shares
the same piece objects.  It carries no extra global sign
normalization; identities against the signed involution hold up to one sign
per homogeneous component (see the transfer tests).
"""

from __future__ import annotations

import itertools
from .gkring import VirtualRep
from .multiseg import Multisegment, Segment, rigid_decomposition


def mw_dual(m: Multisegment) -> Multisegment:
    """Dual of a rigid multisegment (single effective line)."""
    if not m:
        return m
    lines = {s.effective_line() for s in m.segments}
    if len(lines) != 1:
        raise ValueError("mw_dual requires a rigid multisegment (one effective line)")
    (line,) = lines
    work = [(s.first, s.last) for s in m.segments]  # (begin, end) positions on the line
    out: list[Segment] = []
    while work:
        e = max(end for _, end in work)
        chain: list[tuple[int, int]] = []
        while True:
            bound = chain[-1][0] if chain else e + 1  # begins strictly decrease
            candidates = [seg for seg in work if seg[1] == e - len(chain) and seg[0] < bound]
            if not candidates:
                break
            chosen = min(candidates, key=lambda seg: (seg[1] - seg[0], seg[0]))
            work.remove(chosen)
            chain.append(chosen)
        out.append(Segment.from_positions(line, e - len(chain) + 1, e))
        work += [(begin, end - 1) for begin, end in chain if end > begin]
    return Multisegment(out)


def dual_irr(m: Multisegment) -> Multisegment:
    """Dual of any label: mw_dual on each rigid part, recombined."""
    out = Multisegment.empty()
    for part in rigid_decomposition(m):
        out = out | mw_dual(part)
    return out


def segment_cut_expansion(seg: Segment) -> list[tuple[int, tuple[Segment, ...]]]:
    """(sign, pieces) over all cuts of ``seg`` into consecutive subsegments.

    Each of the n(n+1)/2 distinct pieces is built once and shared by every cut
    that uses it.
    """
    n, line = seg.length, seg.effective_line()
    piece = {
        (lo, hi): Segment.from_positions(line, seg.first + lo, seg.first + hi - 1)
        for lo in range(n)
        for hi in range(lo + 1, n + 1)
    }
    out = []
    for cuts in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), r) for r in range(n)
    ):
        bounds = (0,) + cuts + (n,)
        out.append(((-1) ** (n - 1 - len(cuts)), tuple(map(piece.get, zip(bounds, bounds[1:])))))
    return out


def raw_dual_std(x: VirtualRep) -> VirtualRep:
    """Linear cut-expansion dual on the standard lattice (no sign normalization).

    Each label is folded in one segment at a time: every partial label takes
    every cut of the next segment, and equal partial labels merge before the
    next segment, so repeated segments cost their distinct cut multisets only.
    """
    terms: dict[Multisegment, int] = {}
    for label, coeff in x.terms.items():
        partial = {Multisegment.empty(): coeff}
        for seg in label.segments:
            cuts = segment_cut_expansion(seg)
            folded: dict[Multisegment, int] = {}
            for m, c in partial.items():
                for sign, pieces in cuts:
                    key = Multisegment(m.segments + pieces)
                    folded[key] = folded.get(key, 0) + sign * c
            partial = folded
        for m, c in partial.items():
            terms[m] = terms.get(m, 0) + c
    return VirtualRep(x.d, terms)
