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
from .dsl import (
    ParseError,
    multisegment_to_json,
    parse_multisegment,
    parse_virtual,
    render_multisegment,
    render_unitary_product,
    render_virtual,
    unitary_product_to_json,
    virtual_to_json,
)
from .gkring import expand_u, expand_ubar, recognize_unitary
from .globalrep import (
    GlobalAlgebra,
    GlobalCuspidalData,
    IncompatibleLabel,
    d_compatible_mw,
    levi_conjugate_count,
    local_component,
    s_rho_d,
)
from .lfactors import eps_irr, l_irr
from .multiseg import LimitExceeded, Multisegment, enumerate_multisegments, is_lower, unitary_esi
from .transfer import NotTransferable, SignedUnitaryProduct, lj_std, lj_u
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


def _emit(args, text: str, payload) -> None:
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _signed_product_view(t: SignedUnitaryProduct):
    if t.sign == 0:
        return "0", {"sign": 0, "units": []}
    text = f"{t.sign:+d} * {render_unitary_product(t.product)}"
    return text, {"sign": t.sign, "units": unitary_product_to_json(t.product)}


def run(args) -> int:
    reg = _registry(args)
    cmd = args.command

    if cmd == "dual":
        m = parse_multisegment(args.expr, reg, args.d)
        out = dual_irr(m)
        _emit(args, render_multisegment(out), {"multisegment": multisegment_to_json(out)})
        return 0

    if cmd == "order":
        a = parse_multisegment(args.a, reg, args.d)
        b = parse_multisegment(args.b, reg, args.d)
        res = is_lower(a, b)
        _emit(args, "true" if res else "false", {"lower": res})
        return 0

    if cmd == "expand-u":
        v = expand_u(*_unit_params(args.params))
        _emit(args, render_virtual(v), {"terms": virtual_to_json(v)})
        return 0

    if cmd == "expand-ubar":
        l, line, k = _unit_params(args.params)
        if args.d < 2:
            raise CliError("expand-ubar needs --d >= 2", 1)
        s = s_invariant(reg[line].p, args.d)
        v = expand_ubar(unitary_esi(line, l, s), k, args.d)
        _emit(args, render_virtual(v), {"terms": virtual_to_json(v)})
        return 0

    if cmd == "lj":
        if args.d < 2:
            raise CliError("lj needs --d >= 2", 1)
        if args.unit:
            t = lj_u(reg, *_unit_params(args.unit), args.d)
            text, payload = _signed_product_view(t)
            _emit(args, text, payload)
            return 0
        if args.expand_u:
            v = expand_u(*_unit_params(args.expand_u))
        elif args.expr:
            v = parse_virtual(args.expr, reg, 1)
        else:
            raise CliError("lj needs an expression, --expand-u or --u", 2)
        out = lj_std(reg, v, args.d)
        _emit(args, render_virtual(out), {"terms": virtual_to_json(out)})
        return 0

    if cmd == "recognize":
        m = parse_multisegment(args.expr, reg, args.d)
        up = recognize_unitary(m)
        if up is None:
            _emit(args, "none", {"units": None})
        else:
            _emit(args, render_unitary_product(up), {"units": unitary_product_to_json(up)})
        return 0

    if cmd == "lfun":
        m = parse_multisegment(args.expr, reg, args.d)
        lf = l_irr(reg, m)
        _emit(args, lf.render(), {"shifts": [str(a) for a in lf.shifts]})
        return 0

    if cmd == "eps":
        m = parse_multisegment(args.expr, reg, args.d)
        ef = eps_irr(reg, m)
        _emit(
            args,
            ef.render(),
            {"psi": ef.psi, "shifts": [{"tag": t, "shift": str(a)} for t, a in ef.shifts]},
        )
        return 0

    if cmd == "enumerate":
        m = parse_multisegment(args.expr, reg, args.d)
        step = m.segments[0].step if m.segments else 1
        found = sorted(
            enumerate_multisegments(m.support(), step=step, limit=args.limit),
            key=Multisegment.sort_key,
        )
        text = "\n".join(render_multisegment(x) for x in found)
        _emit(args, text, [multisegment_to_json(x) for x in found])
        return 0

    if cmd == "global-check":
        with open(args.algebra) as fh:
            alg = GlobalAlgebra.from_json(json.load(fh))
        with open(args.cuspidal) as fh:
            data = GlobalCuspidalData.from_json(json.load(fh), reg)
        s = s_rho_d(reg, data, alg)
        compatible = d_compatible_mw(reg, data, args.k, alg)
        lines = [f"s_rho_D = {s}", f"MW(rho, {args.k}) D-compatible: {str(compatible).lower()}"]
        payload = {"s_rho_D": s, "k": args.k, "compatible": compatible, "places": {}}
        for place, _ in data.locals:
            comp = local_component(reg, data, args.k, place, alg)
            if isinstance(comp, Multisegment):
                lines.append(f"{place} (split): {render_multisegment(comp)}")
                payload["places"][place] = {"label": multisegment_to_json(comp)}
            else:
                text, view = _signed_product_view(comp)
                lines.append(f"{place} (d_v={alg.d_at(place)}): {text}")
                payload["places"][place] = view
        _emit(args, "\n".join(lines), payload)
        return 0

    if cmd == "count-levi":
        n = levi_conjugate_count(args.n, args.l)
        _emit(args, str(n), {"count": n})
        return 0

    if cmd == "selfcheck":
        ok = selfcheck.run_all()
        return 0 if ok else 1

    raise CliError(f"unknown command {cmd!r}", 2)


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
