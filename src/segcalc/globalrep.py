"""Global discrete-series bookkeeping at the level of labels.

A global algebra is just the finite list of ramified places with their local
indices d_v; a global cuspidal datum is a base line together with, for each
ramified place, the generic unitary local data (a list of centered esi
segments with small twists).  Discrete-series labels (rho, k) transfer by
dividing k by the global compatibility invariant, and their local components
are computed with the local unit calculus.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import LineRegistry, RegistryError, frac, json_field
from .multiseg import Multisegment, Segment
from .gkring import SpehUnit, UnitaryProduct
from .transfer import SignedUnitaryProduct, generic_data, lj_generic, s_gamma_d


class IncompatibleLabel(ValueError):
    """Raised when a label is transferred without the required divisibility."""


@dataclass(frozen=True)
class GlobalAlgebra:
    """Map ramified-place name -> d_v (>= 2); split places are omitted."""

    places: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: dict[str, int]) -> "GlobalAlgebra":
        for v, dv in mapping.items():
            if dv < 2:
                raise ValueError(f"ramified place {v!r} needs d_v >= 2, got {dv}")
        return cls(tuple(sorted(mapping.items())))

    @property
    def d(self) -> int:
        """Least common multiple of the local indices."""
        return math.lcm(*(dv for _, dv in self.places)) if self.places else 1

    def d_at(self, place: str) -> int:
        for v, dv in self.places:
            if v == place:
                return dv
        return 1  # split place

    def ramified_places(self) -> list[str]:
        return [v for v, _ in self.places]

    @classmethod
    def from_json(cls, data: dict) -> "GlobalAlgebra":
        places = json_field(data, "places", list)
        return cls.of({json_field(p, "name"): json_field(p, "d_v", int) for p in places})

    def to_json(self) -> dict:
        return {"places": [{"name": v, "d_v": dv} for v, dv in self.places]}


LocalDatum = tuple[Segment, Fraction]


@dataclass(frozen=True)
class GlobalCuspidalData:
    """Base line plus per-ramified-place generic local data."""

    line: str
    locals: tuple[tuple[str, tuple[LocalDatum, ...]], ...]

    @classmethod
    def of(cls, line: str, mapping: dict[str, list[tuple[Segment, Fraction]]]) -> "GlobalCuspidalData":
        packed = tuple(
            (v, tuple((seg, frac(e)) for seg, e in data)) for v, data in sorted(mapping.items())
        )
        return cls(line, packed)

    def local_data(self, place: str) -> list[LocalDatum]:
        for v, data in self.locals:
            if v == place:
                return list(data)
        raise RegistryError(f"no local data recorded for ramified place {place!r}")

    @classmethod
    def from_json(cls, data: dict, registry: LineRegistry) -> "GlobalCuspidalData":
        base = json_field(data, "line")
        registry[base]
        local_json = json_field(data, "locals", dict)
        mapping = {}
        for place in local_json:
            gamma = []
            for e in json_field(local_json, place, list):
                length = json_field(e, "len", int)
                line = json_field(e, "line") if "line" in e else base
                registry[line]
                seg = Segment(line, -Fraction(length - 1, 2), length, 1)
                gamma.append((seg, _twist(e.get("e", 0))))
            mapping[place] = gamma
        return cls.of(base, mapping)


def _twist(value) -> Fraction:
    """A local entry's ``"e"``: a JSON string such as ``"1/4"`` or a (non-bool) integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise RegistryError(f"'e' must be a JSON string or integer, got {value!r}")
    try:
        return frac(value)
    except (ValueError, ZeroDivisionError):
        raise RegistryError(f"'e' is not an exact rational: {value!r}") from None


@dataclass(frozen=True)
class DiscreteSeriesLabel:
    """MW(rho, k) on the split side or MW'(rho', k) on the inner side."""

    side: str  # "split" | "inner"
    rho: str  # name of the underlying cuspidal datum
    k: int

    def __post_init__(self) -> None:
        if self.side not in ("split", "inner"):
            raise ValueError("side must be 'split' or 'inner'")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def cuspidal(self) -> bool:
        return self.k == 1


def s_rho_d(registry: LineRegistry, data: GlobalCuspidalData, alg: GlobalAlgebra) -> int:
    """lcm over ramified places of the local generic compatibility invariants."""
    out = 1
    for v in alg.ramified_places():
        out = math.lcm(out, s_gamma_d(registry, data.local_data(v), alg.d_at(v)))
    return out


def d_compatible_mw(
    registry: LineRegistry, data: GlobalCuspidalData, k: int, alg: GlobalAlgebra
) -> bool:
    return k % s_rho_d(registry, data, alg) == 0


def g_inverse(
    registry: LineRegistry,
    label: DiscreteSeriesLabel,
    data: GlobalCuspidalData,
    alg: GlobalAlgebra,
) -> DiscreteSeriesLabel:
    """MW(rho, k) -> MW'(rho', k / s_{rho,D}); cuspidal iff k = s_{rho,D}."""
    if label.side != "split":
        raise ValueError("g_inverse starts from a split-side label")
    s = s_rho_d(registry, data, alg)
    if label.k % s:
        raise IncompatibleLabel(f"k = {label.k} is not a multiple of s = {s}")
    return DiscreteSeriesLabel("inner", label.rho, label.k // s)


def g_map(
    registry: LineRegistry,
    label: DiscreteSeriesLabel,
    data: GlobalCuspidalData,
    alg: GlobalAlgebra,
) -> DiscreteSeriesLabel:
    """MW'(rho', k) -> MW(rho, k * s_{rho,D})."""
    if label.side != "inner":
        raise ValueError("g_map starts from an inner-form label")
    s = s_rho_d(registry, data, alg)
    return DiscreteSeriesLabel("split", label.rho, label.k * s)


def local_component(
    registry: LineRegistry,
    data: GlobalCuspidalData,
    k: int,
    place: str,
    alg: GlobalAlgebra,
) -> Union[Multisegment, SignedUnitaryProduct]:
    """Local component of MW(rho, k): a split label, or its transfer at v in V.

    Both branches check the local data as ``lj_generic`` does (``generic_data``).
    """
    dv = alg.d_at(place)
    gamma = data.local_data(place)
    if dv == 1:
        return UnitaryProduct(SpehUnit(seg, k, e) for seg, e in generic_data(gamma)).multisegment()
    return lj_generic(registry, gamma, k, dv)


class GlobalCheck:
    """s_{rho,D}, the D-compatibility of MW(rho, k), and its component at each place.

    ``components`` holds ``(place, d_v, component)`` with the component as
    ``local_component`` returns it: a label when d_v = 1, else a signed transfer.
    """

    def __init__(self, s: int, k: int, compatible: bool, components: list[tuple]):
        self.s, self.k, self.compatible, self.components = s, k, compatible, components

    def __repr__(self) -> str:
        lines = [f"s_rho_D = {self.s}", f"MW(rho, {self.k}) D-compatible: {str(self.compatible).lower()}"]
        for place, dv, comp in self.components:
            lines.append(f"{place} ({'split' if dv == 1 else f'd_v={dv}'}): {comp!r}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        places = {v: c.to_json() if dv > 1 else {"label": c.to_json()} for v, dv, c in self.components}
        return {"s_rho_D": self.s, "k": self.k, "compatible": self.compatible, "places": places}


def global_check(
    registry: LineRegistry, data: GlobalCuspidalData, k: int, alg: GlobalAlgebra
) -> GlobalCheck:
    """The bookkeeping of MW(rho, k) at every place of the cuspidal data."""
    s = s_rho_d(registry, data, alg)
    compatible = d_compatible_mw(registry, data, k, alg)
    components = [
        (v, alg.d_at(v), local_component(registry, data, k, v, alg)) for v, _ in data.locals
    ]
    return GlobalCheck(s, k, compatible, components)


# -- support matching ---------------------------------------------------------


def interval_decomposition(a) -> Optional[list[Fraction]]:
    """Decompose a multiset into sets {-e, -e+1, ..., e}; None if impossible.

    Returns the sorted (descending) list of endpoints e, each repeated with
    its multiplicity: the count of {-e..e} is f(e) - f(e+1) where f is the
    multiplicity function.  Works for an all-integer or an all-half-integer
    multiset; the decomposition, when it exists, is unique.  The work is done
    on the doubled values 2e, which are integers for every such input.
    """
    doubled = [_twice(x) for x in a]
    if None in doubled:
        return None
    cnt = Counter(doubled)
    if not cnt:
        return []
    if len({t % 2 for t in cnt}) != 1:
        return None
    for t, n in cnt.items():
        if cnt.get(-t, 0) != n:
            return None
    out: list[Fraction] = []
    total = 0
    for t in range(max(cnt), -1, -2):  # 2e from the top down to 0 or 1
        mult = cnt.get(t, 0) - cnt.get(t + 2, 0)
        if mult < 0:
            return None
        if mult:
            out.extend([Fraction(t, 2)] * mult)
            total += mult * (t + 1)
    return out if total == len(doubled) else None


def _twice(x) -> Optional[int]:
    """2x for an integer or half-integer x, else None."""
    if type(x) is int:
        return 2 * x
    x = frac(x)
    return 2 * x.numerator // x.denominator if x.denominator <= 2 else None


def mw_exponents(k: int) -> list[Fraction]:
    """Exponent multiset of a (rho, k) label: {(k-1)/2 - i : 0 <= i < k}."""
    return [Fraction(k - 1, 2) - i for i in range(k)]


def match_discrete_products(
    x: list[DiscreteSeriesLabel], y: list[DiscreteSeriesLabel]
) -> bool:
    """True iff two products of discrete-series labels agree as multisets.

    Mirrors the support argument: separate the exponent multisets by base
    cuspidal and by parity class (plain or shifted line), decompose each
    class into symmetric intervals, and compare the recovered (rho, k)
    multisets.
    """

    def classes(labels: list[DiscreteSeriesLabel]) -> dict[tuple, list[Fraction]]:
        out: dict[tuple, list[Fraction]] = {}
        for lab in labels:
            key = (lab.side, lab.rho, lab.k % 2)
            out.setdefault(key, []).extend(mw_exponents(lab.k))
        return out

    cx, cy = classes(x), classes(y)
    if cx.keys() != cy.keys():
        return False
    for key in cx:
        dx = interval_decomposition(cx[key])
        dy = interval_decomposition(cy[key])
        if dx is None or dy is None or dx != dy:
            return False
    return True


def levi_conjugate_count(n: int, l: int) -> int:
    """Number of conjugates of the l-blocks-of-equal-size Levi: n! / (l! (m!)^l)."""
    if n < 1 or l < 1 or n % l:
        raise ValueError("l must divide n")
    m = n // l
    num = math.factorial(n)
    den = math.factorial(l) * math.factorial(m) ** l
    assert num % den == 0
    return num // den
