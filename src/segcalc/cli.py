"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (unknown line, incompatible
transfer, exceeded search limit), 2 on a parse error.  All output is
deterministic; ``--json`` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import sys

from .core import LineRegistry, load_json, s_invariant
from .duality import dual_irr
from .dsl import ParseError, parse_multisegment, parse_virtual
from .gkring import UnitaryProduct, expand_u, expand_unit_product, recognize_unitary, ubar_factor
from .multiseg import Multisegment, VirtualRep, enumerate_multisegments, is_lower, unitary_esi

# the handlers that use transfer, lfactors, globalrep or selfcheck import it: no parse path needs them


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


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


def _unit_params(params: list[str], reg: LineRegistry) -> tuple[int, str, int]:
    """(l, line, k) from l=, k= and line=: a bad l or k exits 2, an unknown line 1."""
    kv = _keyvals(params)
    try:
        l, line, k = int(kv["l"]), kv.get("line", "rho"), int(kv["k"])
    except KeyError as e:
        raise CliError(f"missing parameter {e.args[0]}=", 2) from None
    except ValueError:
        raise CliError(f"l and k must be integers, got {params!r}", 2) from None
    reg[line]  # raises RegistryError for an unknown line
    return l, line, k


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="segcalc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options every command takes
    common.add_argument("--lines", metavar="FILE", help="line registry JSON file")
    common.add_argument("--d", type=int, default=1, help="inner-form index (1 = split)")
    common.add_argument("--json", action="store_true", dest="as_json")
    common.add_argument("--limit", type=int, default=10, help="search cap for enumeration")

    p = sub.add_parser("dual", parents=[common], help="duality on an irreducible label")
    p.add_argument("expr")

    p = sub.add_parser("order", parents=[common], help="is A below B in the multisegment order?")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("expand-u", parents=[common], help="standard-basis expansion of u(Z(rho,l),k)")
    p.add_argument("params", nargs="+", metavar="key=value", help="l=, k=, [line=]")

    p = sub.add_parser("expand-ubar", parents=[common], help="expansion of ubar over the inner form")
    p.add_argument("params", nargs="+", metavar="key=value", help="l=, k=, [line=]")

    p = sub.add_parser("lj", parents=[common], help="Jacquet-Langlands transfer to the inner form")
    p.add_argument("expr", nargs="?", help="virtual representation to transfer")
    p.add_argument("--expand-u", nargs="+", dest="expand_u", metavar="key=value")
    p.add_argument("--u", nargs="+", dest="unit", metavar="key=value",
                   help="closed-form transfer of u(Z(rho,l),k)")

    p = sub.add_parser("recognize", parents=[common], help="factor a label into unitary units")
    p.add_argument("expr")

    p = sub.add_parser("lfun", parents=[common], help="formal L-function of a label")
    p.add_argument("expr")

    p = sub.add_parser("eps", parents=[common], help="formal epsilon'-factor of a label")
    p.add_argument("expr")

    p = sub.add_parser("enumerate", parents=[common], help="all multisegments on the support of EXPR")
    p.add_argument("expr")

    p = sub.add_parser("global-check", parents=[common], help="global discrete-series bookkeeping")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--cuspidal", required=True, metavar="FILE")
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("count-levi", parents=[common], help="conjugates of the equal-blocks Levi")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)

    sub.add_parser("selfcheck", parents=[common], help="run the built-in verification suites")

    return top


def _label(args, reg: LineRegistry, text: str) -> Multisegment:
    return parse_multisegment(text, reg, args.d)


def _expand_ubar(args, reg: LineRegistry) -> VirtualRep:
    l, line, k = _unit_params(args.params, reg)
    if args.d < 2:
        raise CliError("expand-ubar needs --d >= 2", 1)
    return expand_unit_product(ubar_factor(unitary_esi(line, l, s_invariant(reg[line].p, args.d)), k), args.d)


def _lj(args, reg: LineRegistry):
    from .transfer import lj_std, lj_u

    if args.d < 2:
        raise CliError("lj needs --d >= 2", 1)
    if args.unit:
        return lj_u(reg, *_unit_params(args.unit, reg), args.d)
    if args.expand_u:
        v = expand_u(*_unit_params(args.expand_u, reg))
    elif args.expr:
        v = parse_virtual(args.expr, reg, 1)
    else:
        raise CliError("lj needs an expression, --expand-u or --u", 2)
    return lj_std(reg, v, args.d)


def _enumerate(args, reg: LineRegistry) -> list[Multisegment]:
    m = _label(args, reg, args.expr)
    steps = sorted({s.step for s in m.segments}) or [1]
    if len(steps) > 1:  # the support would be enumerated at one step only
        raise CliError(f"enumerate needs a label of one step, got steps {', '.join(map(str, steps))}", 1)
    found = enumerate_multisegments(m.support(), step=steps[0], limit=args.limit)
    return sorted(found)


def _lfun(args, reg: LineRegistry):
    from .lfactors import l_irr

    return l_irr(reg, _label(args, reg, args.expr))


def _eps(args, reg: LineRegistry):
    from .lfactors import eps_irr

    return eps_irr(reg, _label(args, reg, args.expr))


def _global_check(args, reg: LineRegistry):
    from .globalrep import GlobalAlgebra, GlobalCuspidalData, global_check

    alg = GlobalAlgebra.from_json(load_json(args.algebra))
    data = GlobalCuspidalData.from_json(load_json(args.cuspidal), reg)
    return global_check(reg, data, args.k, alg)


def _count_levi(args, reg: LineRegistry) -> int:
    from .globalrep import levi_conjugate_count

    return levi_conjugate_count(args.n, args.l)


# command -> (args, registry) -> value; ``run`` writes the value
COMMANDS = {
    "dual": lambda args, reg: dual_irr(_label(args, reg, args.expr)),
    "order": lambda args, reg: is_lower(_label(args, reg, args.a), _label(args, reg, args.b)),
    "expand-u": lambda args, reg: expand_u(*_unit_params(args.params, reg)),
    "expand-ubar": _expand_ubar,
    "lj": _lj,
    "recognize": lambda args, reg: recognize_unitary(_label(args, reg, args.expr)),
    "lfun": _lfun,
    "eps": _eps,
    "enumerate": _enumerate,
    "global-check": _global_check,
    "count-levi": _count_levi,
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
    if args.d < 1:
        raise CliError("--d must be >= 1", 1)
    reg = _registry(args)
    if args.command == "selfcheck":  # reports suite by suite, as text only
        from . import selfcheck

        return 0 if selfcheck.run_all() else 1
    value = COMMANDS[args.command](args, reg)
    if args.as_json:  # only --json output loads the json module
        import json

        value = json.dumps(_json(value), indent=2, sort_keys=True)
    print(value if args.as_json else _text(value))
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
    except (ValueError, OSError) as e:  # RegistryError, LimitExceeded and the like are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
