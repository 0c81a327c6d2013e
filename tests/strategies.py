"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from segcalc import Multisegment, Segment, VirtualRep


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
