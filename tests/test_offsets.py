"""Offset arithmetic lives in ``multiseg`` alone, and the kernels commute with a twist.

A twist by x moves every segment of a label by the exponent x, and so moves
each offset class.  ``multiseg._moved`` is the one move of an offset class
by half-steps that another module makes: the transfer's flattening and
regrouping, the flattened support of the L- and epsilon'-factors and a Speh
unit's centre test.  ``TWIST_TABLE`` states what a twist of a kernel's input
does to its output, checked with twists x = a/b for b in {1, 2, 3, 4, 6}.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import segcalc
from segcalc import (
    EpsilonFactor,
    FormalLFactor,
    LineRegistry,
    Multisegment,
    VirtualRep,
    c_inv,
    dual_irr,
    enumerate_multisegments,
    eps_irr,
    hermitian_dual,
    is_lower,
    l_irr,
    lj_std,
    ll_less,
    m_map,
    raw_dual_std,
    rigid_decomposition,
)
from segcalc.multiseg import _moved, descendants
from strategies import labels, order_pairs, shifted, virtual_reps

# the modules that read offsets but may not spell them; dsl and globalrep read parsed rationals, not offsets
OFFSET_READERS = ("transfer.py", "lfactors.py", "gkring.py", "duality.py")


@pytest.mark.parametrize("name", OFFSET_READERS)
def test_only_multiseg_reads_an_offsets_numerator_or_denominator(name):
    tree = ast.parse(Path(segcalc.__file__).with_name(name).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert not found, f"{name} reads .numerator or .denominator on lines {found}: move it into multiseg"


@given(st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))),
       st.integers(-7, 7))
def test_moved_is_the_offset_plus_half_steps_in_lowest_terms(offset, halves):
    want = offset + Fraction(halves, 2)
    assert _moved(offset, halves) == (want.numerator, want.denominator)


# -- twist equivariance ---------------------------------------------------------------

REG = LineRegistry()
REG.register("rho", 1, unramified=True)  # s = d, and its L-factors are not empty
REG.register("chi", 2)  # s = 1 at d = 2 and s = 3 at d = 3

TWISTS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


def twisted(m: Multisegment, x) -> Multisegment:
    """``m`` with every segment moved by the exponent ``x``."""
    return Multisegment(shifted(s, x) for s in m.segments)


def twisted_sum(v: VirtualRep, x) -> VirtualRep:
    return VirtualRep(v.d, {twisted(m, x): c for m, c in v.terms.items()})


def twisted_pair(pair, x):
    return twisted(pair[0], x), twisted(pair[1], x)


def twisted_set(ms, x):
    return {twisted(m, x) for m in ms}


def unchanged(y, x):
    return y


# (kernel, its input, input transform, output transform): kernel(tin(a, x)) == tout(kernel(a), x).
# Each example draws one input of each kind for all rows: a segment and a label of ``labels()``,
# a split sum over step-1 labels and a pair of ``order_pairs``.
TWIST_TABLE = [
    ("c_inv", c_inv, "segment", shifted, shifted),
    ("m_map", m_map, "label", twisted, twisted),
    ("lj_std at d = 2", lambda v: lj_std(REG, v, 2), "split", twisted_sum, twisted_sum),
    ("lj_std at d = 3", lambda v: lj_std(REG, v, 3), "split", twisted_sum, twisted_sum),
    # a twist by a/b moves both factors alike, so the product's no-sort branches must still order the union
    ("square", lambda v: v * v, "split", twisted_sum, twisted_sum),
    ("raw_dual_std", raw_dual_std, "split", twisted_sum, twisted_sum),
    ("l_irr", lambda m: l_irr(REG, m), "label", twisted, lambda f, x: FormalLFactor(a + x for a in f.shifts)),
    ("eps_irr", lambda m: eps_irr(REG, m), "label", twisted,
     lambda e, x: EpsilonFactor(((t, a + x) for t, a in e.shifts), e.psi)),
    ("is_lower", lambda pair: is_lower(*pair), "pair", twisted_pair, unchanged),
    ("ll_less", lambda pair: ll_less(*pair), "pair", twisted_pair, unchanged),
    ("hermitian_dual", lambda m: hermitian_dual(m, REG), "label", twisted, lambda m, x: twisted(m, -x)),
    ("dual_irr", dual_irr, "label", twisted, twisted),
    ("descendants", descendants, "label", twisted, twisted_set),
    # the partitions of the label's support, at the step of its first segment, which a twist keeps
    ("enumerate_multisegments", lambda m: enumerate_multisegments(m.support(), m.segments[0].step), "label",
     twisted, twisted_set),
    # a twist can reorder the effective lines, so the parts compare as a set
    ("rigid_decomposition", lambda m: set(rigid_decomposition(m)), "label", twisted, twisted_set),
]


@given(labels(), virtual_reps(1, labels(steps=(1,))), order_pairs(labels()), TWISTS, st.data())
def test_kernels_commute_with_a_twist(m, v, pair, x, data):
    inputs = {"segment": data.draw(st.sampled_from(m.segments)), "label": m, "split": v, "pair": pair}
    for name, kernel, kind, tin, tout in TWIST_TABLE:
        a = inputs[kind]
        assert kernel(tin(a, x)) == tout(kernel(a), x), name
