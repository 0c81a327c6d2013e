"""Multisegment calculus for GL(n) over a local field and its inner forms.

Exact-rational symbolic combinatorics on the Grothendieck-group level:
segments and multisegments with their partial order, the duality algorithm,
Speh-unit expansions, the Jacquet-Langlands lattice transfer with its sign
rules, formal L- and epsilon'-factors, and global discrete-series labels.

``import segcalc`` loads none of the computing modules.  Each public name
is read from its home module on first access (PEP 562), so a caller loads
only the modules it uses; ``from segcalc import X`` and ``import *`` work
as for eager re-exports.
"""

from importlib import import_module

# home module -> the public names it defines
_NAMES = {
    "core": "CuspidalPoint LineInfo LineRegistry RegistryError frac s_invariant",
    "multiseg": "LimitExceeded Multisegment Segment VirtualRep elementary_successors enumerate_multisegments "
    "hermitian_dual is_hermitian is_lower rigid_decomposition stats unitary_esi",
    "gkring": "SpehUnit UnitaryProduct expand_u expand_unit_product recognize_unitary speh_ubar ubar_factor",
    "duality": "dual_irr mw_dual raw_dual_std",
    "transfer": "NotTransferable SignedUnitaryProduct c_inv c_map d_cuspidal in_image_lju is_d_compatible lj_generic "
    "lj_std lj_u ll_less m_map",
    "lfactors": "EpsilonFactor FormalLFactor FormalRSProduct eps_irr l_esi l_irr normalizing_factor rs_lg",
    "globalrep": "DiscreteSeriesLabel GlobalAlgebra GlobalCheck GlobalCuspidalData g_inverse g_map global_check "
    "interval_decomposition levi_conjugate_count local_component match_discrete_products s_rho_d",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``name``'s home module, then keep the value as a package global."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
