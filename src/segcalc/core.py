"""Registry of cuspidal lines and the exact arithmetic shared by all modules.

A *line* is the lattice of unramified twists of one formal cuspidal symbol.
Everything downstream (segments, transfer, L-factors) only ever sees a line
through this registry: its name, the size ``p`` of the group carrying the
base cuspidal, the line of its contragredient, and an optional flag marking
the base point as an unramified character (the only case with a nontrivial
L-factor).

All exponents are exact rationals.  Linkage, hermitian symmetry and the
half-integer shifts of the unit calculus all require exact equality, so no
floating point is allowed anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Union

ExponentLike = Union[Fraction, int, str]


def frac(x: ExponentLike) -> Fraction:
    """Coerce an int, string like ``-1/2`` or Fraction to an exact Fraction; a bool is no int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def over_common_denominator(xs: Iterable[Fraction]) -> tuple[int, dict[Fraction, int]]:
    """The least even D with every x * D an integer, and each x as that integer: halves scale to ints too."""
    xs = set(xs)
    D = lcm(2, *(x.denominator for x in xs))
    return D, {x: x.numerator * (D // x.denominator) for x in xs}


class RegistryError(ValueError):
    """Raised for duplicate or unknown line names and malformed JSON data."""


def json_field(entry, key: str, kind: type = str):
    """``entry[key]`` of a parsed JSON object, checked to be a ``kind`` (a bool is no int).

    Raises RegistryError when ``entry`` is not an object, lacks ``key`` or holds
    a value of another type.
    """
    if not isinstance(entry, dict):
        raise RegistryError(f"expected a JSON object, got {entry!r}")
    if key not in entry:
        raise RegistryError(f"missing key {key!r} in {entry!r}")
    value = entry[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise RegistryError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def load_json(path: str):
    """The parsed JSON file at ``path``; nesting too deep to parse raises RegistryError."""
    import json  # only --lines and global-check read JSON: a text-mode command never loads it

    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise RegistryError(f"JSON nested too deeply in {path}") from None


class Frozen:
    """A slotted value that refuses assignment and deletion once built.

    Each subclass binds the setters of its ``__slots__`` once, in order, as
    ``_setters``; its constructors set the fields through them, and nothing
    else can change or delete a field, so a stored hash stays valid.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """A ``Frozen`` value whose fields are its class's ``__slots__``, in that order.

    Equality is type-strict and the hash is ``hash(tuple of the fields)``.  A
    subclass's ``__init__`` is its only constructor: it normalizes what it is
    given (sorts it, converts it with ``frac``, drops zeros) and validates it,
    so equal values compare and hash equal however they were built.  It then
    passes every field to ``Record.__init__`` in ``__slots__`` order, which
    sets them through the class's ``_setters``; pickling calls the
    subclass's ``__init__`` again with the fields.  Only a producer whose
    fields are already normalized may call ``Record.__init__`` on a bare
    instance itself (``eps_irr``).  The default ``repr`` is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise ValueError(f"{type(self).__name__} expects {len(self._setters)} field values, got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)  # of one name, it returns the bare value
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class LineInfo(Record):
    """One registered cuspidal line.

    ``p`` is the size of the group carrying the base cuspidal; ``dual`` is
    the name of the line of the contragredient of the base point.
    ``unramified`` marks a p = 1 line whose base point is an unramified
    character (used by the L-factor module only).
    """

    __slots__ = ("name", "p", "dual", "unramified")

    def __init__(self, name: str, p: int, dual: str, unramified: bool = False):
        Record.__init__(self, name, p, dual, unramified)


class CuspidalPoint(NamedTuple):
    """A twist ``nu^exp`` of the base point of a line."""

    line: str
    exp: Fraction


class LineRegistry:
    """Immutable-after-construction name -> LineInfo table."""

    def __init__(self) -> None:
        self._lines: dict[str, LineInfo] = {}

    def register(
        self,
        name: str,
        p: int,
        dual: Optional[str] = None,
        unramified: bool = False,
    ) -> str:
        """Register a line and return its id (the name itself).

        When ``dual`` is omitted the line is self-dual.  The pairing must be
        an involution; registering ``a`` with dual ``b`` requires ``b`` to
        exist and marks both directions.
        """
        if name in self._lines:
            raise RegistryError(f"line name already used: {name!r}")
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        info = LineInfo(name, p, name, unramified)
        if dual is not None and dual != name:
            info, other = self._paired(info, dual)
            self._lines[dual] = other
        self._lines[name] = info
        return name

    def _paired(self, info: LineInfo, dual: str) -> tuple[LineInfo, LineInfo]:
        """Both entries after pairing ``info`` with line ``dual``; nothing is stored.

        Each side must be unpaired or already paired with the other, so the
        pairing stays an involution.
        """
        if dual not in self._lines:
            raise RegistryError(f"dual line not registered: {dual!r}")
        other = self._lines[dual]
        for x, partner in ((info, dual), (other, info.name)):
            if x.dual not in (x.name, partner):
                raise RegistryError(f"line {x.name!r} is already paired")
        if other.p != info.p:
            raise ValueError("dual lines must share the same p")
        return (
            LineInfo(info.name, info.p, dual, info.unramified),
            LineInfo(other.name, other.p, info.name, other.unramified),
        )

    def __contains__(self, name: str) -> bool:
        return name in self._lines

    def __getitem__(self, name: str) -> LineInfo:
        try:
            return self._lines[name]
        except KeyError:
            raise RegistryError(f"unknown line: {name!r}") from None

    def __iter__(self) -> Iterator[LineInfo]:
        return iter(self._lines.values())

    # -- serialization (CLI line files) ------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for info in self:
            entry: dict = {"name": info.name, "p": info.p}
            entry["dual"] = None if info.dual == info.name else info.dual
            if info.unramified:
                entry["unramified"] = True
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "LineRegistry":
        if not isinstance(data, list):
            raise RegistryError(f"expected a JSON list of lines, got {data!r}")
        reg = cls()
        # register everything self-dual first, then patch the pairing, so that
        # mutual dual references may appear in any order
        for e in data:
            name, p = json_field(e, "name"), json_field(e, "p", int)
            reg.register(name, p, None, "unramified" in e and json_field(e, "unramified", bool))
        for e in data:
            dual = None if e.get("dual") is None else json_field(e, "dual")
            if dual is not None and dual != e["name"]:
                info, other = reg._paired(reg[e["name"]], dual)
                reg._lines[info.name], reg._lines[other.name] = info, other
        return reg

    @classmethod
    def load(cls, path: str) -> "LineRegistry":
        return cls.from_json(load_json(path))

    @classmethod
    def standard(cls) -> "LineRegistry":
        """Default registry: one self-dual unramified line ``rho`` with p = 1."""
        reg = cls()
        reg.register("rho", 1, None, unramified=True)
        return reg


def s_invariant(p: int, d: int) -> int:
    """Smallest s >= 1 with d | s*p; equals d / gcd(d, p)."""
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")
    return d // gcd(d, p)
