"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (unknown line, incompatible
transfer, exceeded search limit), 2 on a parse error.  All output is
deterministic; ``--json`` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import LineRegistry, RegistryError, s_invariant
from .duality import dual_irr
from .dsl import ParseError, parse_multisegment, parse_virtual
from .gkring import UnitaryProduct, VirtualRep, expand_u, expand_ubar, recognize_unitary
from .globalrep import (
    GlobalAlgebra,
    GlobalCuspidalData,
    IncompatibleLabel,
    global_check,
    levi_conjugate_count,
)
from .lfactors import eps_irr, l_irr
from .multiseg import LimitExceeded, Multisegment, enumerate_multisegments, is_lower, unitary_esi
from .transfer import NotTransferable, lj_std, lj_u
from . import selfcheck


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lines", metavar="FILE", help="line registry JSON file")
    parser.add_argument("--d", type=int, default=1, help="inner-form index (1 = split)")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--limit", type=int, default=10, help="search cap for enumeration")


def _registry(args) -> LineRegistry:
    if args.lines:
        return LineRegistry.load(args.lines)
    return LineRegistry.standard()


def _keyvals(params: list[str]) -> dict[str, str]:
    out = {}
    for p in params:
        if "=" not in p:
            raise CliError(f"expected key=value, got {p!r}", 2)
        key, val = p.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _unit_params(params: list[str]) -> tuple[int, str, int]:
    """(l, line, k) from l=, k= and line=; a missing or non-integer l or k is a parse error."""
    kv = _keyvals(params)
    try:
        return int(kv["l"]), kv.get("line", "rho"), int(kv["k"])
    except KeyError as e:
        raise CliError(f"missing parameter {e.args[0]}=", 2) from None
    except ValueError:
        raise CliError(f"l and k must be integers, got {params!r}", 2) from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="segcalc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="duality on an irreducible label")
    _common(p)
    p.add_argument("expr")

    p = sub.add_parser("order", help="is A below B in the multisegment order?")
    _common(p)
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("expand-u", help="standard-basis expansion of u(Z(rho,l),k)")
    _common(p)
    p.add_argument("params", nargs="+", metavar="key=value", help="l=, k=, [line=]")

    p = sub.add_parser("expand-ubar", help="expansion of ubar over the inner form")
    _common(p)
    p.add_argument("params", nargs="+", metavar="key=value", help="l=, k=, [line=]")

    p = sub.add_parser("lj", help="Jacquet-Langlands transfer to the inner form")
    _common(p)
    p.add_argument("expr", nargs="?", help="virtual representation to transfer")
    p.add_argument("--expand-u", nargs="+", dest="expand_u", metavar="key=value")
    p.add_argument("--u", nargs="+", dest="unit", metavar="key=value",
                   help="closed-form transfer of u(Z(rho,l),k)")

    p = sub.add_parser("recognize", help="factor a label into unitary units")
    _common(p)
    p.add_argument("expr")

    p = sub.add_parser("lfun", help="formal L-function of a label")
    _common(p)
    p.add_argument("expr")

    p = sub.add_parser("eps", help="formal epsilon'-factor of a label")
    _common(p)
    p.add_argument("expr")

    p = sub.add_parser("enumerate", help="all multisegments on the support of EXPR")
    _common(p)
    p.add_argument("expr")

    p = sub.add_parser("global-check", help="global discrete-series bookkeeping")
    _common(p)
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--cuspidal", required=True, metavar="FILE")
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("count-levi", help="conjugates of the equal-blocks Levi")
    _common(p)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)

    p = sub.add_parser("selfcheck", help="run the built-in verification suites")
    _common(p)

    return top


def _label(args, reg: LineRegistry, text: str) -> Multisegment:
    return parse_multisegment(text, reg, args.d)


def _expand_ubar(args, reg: LineRegistry) -> VirtualRep:
    l, line, k = _unit_params(args.params)
    if args.d < 2:
        raise CliError("expand-ubar needs --d >= 2", 1)
    return expand_ubar(unitary_esi(line, l, s_invariant(reg[line].p, args.d)), k, args.d)


def _lj(args, reg: LineRegistry):
    if args.d < 2:
        raise CliError("lj needs --d >= 2", 1)
    if args.unit:
        return lj_u(reg, *_unit_params(args.unit), args.d)
    if args.expand_u:
        v = expand_u(*_unit_params(args.expand_u))
    elif args.expr:
        v = parse_virtual(args.expr, reg, 1)
    else:
        raise CliError("lj needs an expression, --expand-u or --u", 2)
    return lj_std(reg, v, args.d)


def _enumerate(args, reg: LineRegistry) -> list[Multisegment]:
    m = _label(args, reg, args.expr)
    step = m.segments[0].step if m.segments else 1
    found = enumerate_multisegments(m.support(), step=step, limit=args.limit)
    return sorted(found, key=Multisegment.sort_key)


def _global_check(args, reg: LineRegistry):
    with open(args.algebra) as fh:
        alg = GlobalAlgebra.from_json(json.load(fh))
    with open(args.cuspidal) as fh:
        data = GlobalCuspidalData.from_json(json.load(fh), reg)
    return global_check(reg, data, args.k, alg)


# command -> (args, registry) -> value; ``run`` writes the value
COMMANDS = {
    "dual": lambda args, reg: dual_irr(_label(args, reg, args.expr)),
    "order": lambda args, reg: is_lower(_label(args, reg, args.a), _label(args, reg, args.b)),
    "expand-u": lambda args, reg: expand_u(*_unit_params(args.params)),
    "expand-ubar": _expand_ubar,
    "lj": _lj,
    "recognize": lambda args, reg: recognize_unitary(_label(args, reg, args.expr)),
    "lfun": lambda args, reg: l_irr(reg, _label(args, reg, args.expr)),
    "eps": lambda args, reg: eps_irr(reg, _label(args, reg, args.expr)),
    "enumerate": _enumerate,
    "global-check": _global_check,
    "count-levi": lambda args, reg: levi_conjugate_count(args.n, args.l),
}

# ``--json`` prints an object: a value whose JSON is a list or a scalar goes under
# the key of its type (``None`` is recognize's "no factorization")
_KEY = {
    Multisegment: "multisegment", VirtualRep: "terms", UnitaryProduct: "units",
    type(None): "units", bool: "lower", int: "count",
}


def _text(value) -> str:
    if isinstance(value, list):  # enumerate: one label a line
        return "\n".join(map(repr, value))
    return str(value).lower() if value is None or isinstance(value, bool) else repr(value)


def _json(value):
    if isinstance(value, list):  # enumerate: a bare list
        return [x.to_json() for x in value]
    data = value.to_json() if hasattr(value, "to_json") else value
    return {_KEY[type(value)]: data} if type(value) in _KEY else data


def run(args) -> int:
    reg = _registry(args)
    if args.command == "selfcheck":  # reports suite by suite, as text only
        return 0 if selfcheck.run_all() else 1
    value = COMMANDS[args.command](args, reg)
    print(json.dumps(_json(value), indent=2, sort_keys=True) if args.as_json else _text(value))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (
        RegistryError, NotTransferable, LimitExceeded, IncompatibleLabel, ValueError, OSError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
