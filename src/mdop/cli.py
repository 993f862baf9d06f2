"""Command-line front end.

One subcommand per kernel operation plus the suite runner.  Exit codes:
0 on success, 1 when a verify run reports any failing check, 2 on parse
or usage errors.  All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra, expr, reps, verify
from .exact import Poly
from .reps import Family, ModuleParams


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=1, metavar="N", help="matrix rank (default 1)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_module_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family", choices=("V", "Vbar"), default="V", help="module family (default V)"
    )
    sub.add_argument("--m", type=int, default=1, help="Jordan block size (default 1)")
    sub.add_argument(
        "--lambda",
        dest="lam",
        default="formal",
        metavar="VALUE",
        help=(
            "module parameter: a rational like 3/2, or 'formal' (default); "
            "write a negative value as --lambda=-1/3"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdop",
        description="Exact computations with matrix differential operators on the circle.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bracket = commands.add_parser("bracket", help="centrally extended bracket of two elements")
    _add_common(bracket)
    bracket.add_argument("exprs", nargs=2, metavar="EXPR")
    bracket.set_defaults(func=_cmd_bracket)

    product = commands.add_parser("product", help="associative product of two elements")
    _add_common(product)
    product.add_argument("exprs", nargs=2, metavar="EXPR")
    product.set_defaults(func=_cmd_product)

    cocycle = commands.add_parser("cocycle", help="value of the defining 2-cocycle")
    _add_common(cocycle)
    cocycle.add_argument("exprs", nargs=2, metavar="EXPR")
    cocycle.set_defaults(func=_cmd_cocycle)

    sig = commands.add_parser("sigma", help="twist automorphism of a central-free element")
    _add_common(sig)
    sig.add_argument("expr", metavar="EXPR")
    sig.set_defaults(func=_cmd_sigma)

    deg = commands.add_parser("degree", help="split an element into homogeneous components")
    _add_common(deg)
    deg.add_argument("expr", metavar="EXPR")
    deg.set_defaults(func=_cmd_degree)

    convert = commands.add_parser("convert", help="change between power and falling bases")
    _add_common(convert)
    convert.add_argument("--to", choices=("falling", "power"), required=True)
    convert.add_argument("expr", metavar="EXPR")
    convert.set_defaults(func=_cmd_convert)

    act = commands.add_parser("act", help="apply an element to a module vector")
    _add_common(act)
    _add_module_flags(act)
    act.add_argument("element", metavar="EXPR")
    act.add_argument("vector", metavar="VECTOR")
    act.set_defaults(func=_cmd_act)

    pair = commands.add_parser(
        "pair", help="pair a twisted-family vector against its family-V partner"
    )
    _add_common(pair)
    pair.add_argument(
        "--lambda",
        dest="lam",
        default="formal",
        metavar="VALUE",
        help=(
            "parameter of the twisted side, as for act; the partner carries its "
            "negative; write a negative value as --lambda=-1/3"
        ),
    )
    pair.add_argument("twisted", metavar="VBAR_VECTOR")
    pair.add_argument("vector", metavar="V_VECTOR")
    pair.set_defaults(func=_cmd_pair)

    ver = commands.add_parser("verify", help="run the identity verification suite")
    ver.add_argument("--n", type=_int_list, default=(1, 2), metavar="N1,N2", help="ranks")
    ver.add_argument("--m", type=_int_list, default=(1, 2), metavar="M1,M2", help="Jordan sizes")
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--i-bound", type=int, default=3)
    ver.add_argument("--j-bound", type=int, default=3)
    ver.add_argument(
        "--checks",
        type=_name_list,
        default=None,
        metavar="NAME1,NAME2",
        help="subset of checks to run (default all; see --list-checks)",
    )
    ver.add_argument("--list-checks", action="store_true", help="list check names and exit")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=_cmd_verify)

    return parser


def _module_params(args, family: Family, m: int) -> ModuleParams:
    if args.lam == "formal":
        return ModuleParams.formal(family, args.n, m)
    try:
        value = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--lambda must be a rational or 'formal', got {args.lam!r}")
    return ModuleParams(family, args.n, m, Poly.const(value))


def _emit_element(element, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(expr.element_to_json(element)))
    else:
        print(expr.format_element(element))


def _cmd_bracket(args) -> int:
    a = expr.parse_element(args.exprs[0], args.n)
    b = expr.parse_element(args.exprs[1], args.n)
    _emit_element(algebra.central_bracket(a, b), args.format)
    return 0


def _cmd_product(args) -> int:
    a = expr.parse_element(args.exprs[0], args.n)
    b = expr.parse_element(args.exprs[1], args.n)
    _emit_element(algebra.canonical_product(a, b), args.format)
    return 0


def _cmd_cocycle(args) -> int:
    a = expr.parse_element(args.exprs[0], args.n)
    b = expr.parse_element(args.exprs[1], args.n)
    value = algebra.cocycle_psi(a, b)
    if args.format == "json":
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def _cmd_sigma(args) -> int:
    a = expr.parse_element(args.expr, args.n)
    _emit_element(algebra.sigma(a), args.format)
    return 0


def _cmd_degree(args) -> int:
    components = algebra.homogeneous_components(expr.parse_element(args.expr, args.n))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "components": [
                        {"degree": d, "element": expr.element_to_json(c)}
                        for d, c in components.items()
                    ]
                }
            )
        )
    elif not components:
        print("0")
    else:
        for d, component in components.items():
            print(f"{d}: {expr.format_element(component)}")
    return 0


def _cmd_convert(args) -> int:
    element = expr.parse_element(args.expr, args.n)
    if args.to == "power":
        _emit_element(element, args.format)
        return 0
    falling = algebra.to_falling(element)
    if args.format == "json":
        print(json.dumps(expr.falling_element_to_json(falling)))
    else:
        print(expr.format_falling_element(falling))
    return 0


def _cmd_act(args) -> int:
    params = _module_params(args, Family(args.family), args.m)
    x = expr.parse_element(args.element, args.n)
    v = expr.parse_module_vector(args.vector, params)
    result = reps.act(x, v)
    if args.format == "json":
        print(json.dumps(expr.module_vector_to_json(result)))
    else:
        print(expr.format_module_vector(result))
    return 0


def _cmd_pair(args) -> int:
    params_w = _module_params(args, Family.VBAR, 1)
    w = expr.parse_module_vector(args.twisted, params_w)
    v = expr.parse_module_vector(args.vector, params_w.dual())
    value = reps.pairing(w, v)
    if args.format == "json":
        print(json.dumps(expr.poly_to_json(value)))
    else:
        print(expr.format_poly(value))
    return 0


def _cmd_verify(args) -> int:
    if args.list_checks:
        for name in verify.available_checks():
            print(name)
        return 0
    config = verify.SuiteConfig(
        ranks=args.n,
        i_bound=args.i_bound,
        j_bound=args.j_bound,
        m_values=args.m,
        samples=args.samples,
        seed=args.seed,
        checks=args.checks,
    )
    report = verify.run_suite(config)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and DimensionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
