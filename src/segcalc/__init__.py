"""Multisegment calculus for GL(n) over a local field and its inner forms.

Exact-rational symbolic combinatorics on the Grothendieck-group level:
segments and multisegments with their partial order, the duality algorithm,
Speh-unit expansions, the Jacquet-Langlands lattice transfer with its sign
rules, formal L- and epsilon'-factors, and global discrete-series labels.
"""

from .core import (
    CuspidalPoint,
    LineInfo,
    LineRegistry,
    RegistryError,
    frac,
    s_invariant,
)
from .multiseg import (
    LimitExceeded,
    Multisegment,
    Segment,
    SegmentRelation,
    elementary_successors,
    enumerate_multisegments,
    hermitian_dual,
    is_hermitian,
    is_lower,
    rigid_decomposition,
    segment_relation,
    stats,
    unitary_esi,
)
from .gkring import (
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    expand_u,
    expand_u_prime,
    expand_ubar,
    expand_unit_product,
    pi_u_alpha,
    recognize_unitary,
    speh_u,
    speh_u_prime,
    speh_ubar,
    ubar_factor,
)
from .duality import dual_irr, mw_dual, raw_dual_std
from .transfer import (
    NotTransferable,
    SignedUnitaryProduct,
    c_inv,
    c_map,
    d_cuspidal,
    in_image_lju,
    is_d_compatible,
    lj_generic,
    lj_std,
    lj_u,
    ll_less,
    m_map,
)
from .lfactors import (
    EpsilonFactor,
    FormalLFactor,
    FormalRSProduct,
    eps_irr,
    l_esi,
    l_irr,
    normalizing_factor,
    rs_lg,
)
from .globalrep import (
    DiscreteSeriesLabel,
    GlobalAlgebra,
    GlobalCheck,
    GlobalCuspidalData,
    d_compatible_mw,
    g_inverse,
    g_map,
    global_check,
    interval_decomposition,
    levi_conjugate_count,
    local_component,
    match_discrete_products,
    s_rho_d,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
