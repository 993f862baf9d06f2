"""Command-line front end.

One subcommand per kernel operation plus the suite runner.  The five that
apply a single algebra function come from one table, and every result is
written as text or JSON by one renderer.  Exit codes:
0 on success, 1 when a verify run reports any failing check, 2 on parse
or usage errors.  All diagnostics go to stderr; each refusal is one line
`error: <message>`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra, expr, reps, verify
from .algebra import AlgebraElement, FallingElement
from .exact import Poly
from .reps import Family, ModuleParams, ModuleVector


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one line: exit 2 with `error: <message>`."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _name_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one check name")
    return names


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


# Subcommands that apply one algebra function to their parsed operands:
# name -> (help, operand count, name of the function in algebra).
_ELEMENT_COMMANDS = {
    "bracket": ("centrally extended bracket of two elements", 2, "central_bracket"),
    "product": ("associative product of two elements", 2, "canonical_product"),
    "cocycle": ("value of the defining 2-cocycle", 2, "cocycle_psi"),
    "sigma": ("twist automorphism of a central-free element", 1, "sigma"),
    "degree": ("split an element into homogeneous components", 1, "homogeneous_components"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdop",
        description="Exact computations with matrix differential operators on the circle.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, (help_text, arity, op) in _ELEMENT_COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        sub.add_argument("exprs", nargs=arity, metavar="EXPR")
        sub.set_defaults(func=_cmd_element, op=op)

    convert = commands.add_parser("convert", help="change between power and falling bases")
    _add_common(convert)
    convert.add_argument("--to", choices=("falling", "power"), required=True)
    convert.add_argument("exprs", nargs=1, metavar="EXPR")
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


def _render(value) -> tuple[object, str]:
    """The JSON object and the text of a command's result."""
    if isinstance(value, AlgebraElement):
        return expr.element_to_json(value), expr.format_element(value)
    if isinstance(value, FallingElement):
        return expr.falling_element_to_json(value), expr.format_falling_element(value)
    if isinstance(value, ModuleVector):
        return expr.module_vector_to_json(value), expr.format_module_vector(value)
    if isinstance(value, Poly):
        return expr.poly_to_json(value), expr.format_poly(value)
    if isinstance(value, dict):  # homogeneous components by degree
        rows = [{"degree": d, "element": expr.element_to_json(c)} for d, c in value.items()]
        text = "\n".join(f"{d}: {expr.format_element(c)}" for d, c in value.items())
        return {"components": rows}, text or "0"
    if isinstance(value, verify.Report):
        return value.to_json(), value.to_text()
    if isinstance(value, list):  # verify --list-checks
        return value, "\n".join(value)
    return {"value": str(value)}, str(value)  # a cocycle value


def _elements(args) -> list[AlgebraElement]:
    return [expr.parse_element(text, args.n) for text in args.exprs]


def _cmd_element(args):
    # Looked up per call, so a patched algebra function is the one called.
    return getattr(algebra, args.op)(*_elements(args))


def _cmd_convert(args):
    (element,) = _elements(args)
    return element if args.to == "power" else algebra.to_falling(element)


def _cmd_act(args) -> ModuleVector:
    params = _module_params(args, Family(args.family), args.m)
    x = expr.parse_element(args.element, args.n)
    v = expr.parse_module_vector(args.vector, params)
    return reps.act(x, v)


def _cmd_pair(args) -> Poly:
    params_w = _module_params(args, Family.VBAR, 1)
    w = expr.parse_module_vector(args.twisted, params_w)
    v = expr.parse_module_vector(args.vector, params_w.dual())
    return reps.pairing(w, v)


def _cmd_verify(args):
    if args.list_checks:
        return list(verify.available_checks())
    config = verify.SuiteConfig(
        ranks=args.n,
        i_bound=args.i_bound,
        j_bound=args.j_bound,
        m_values=args.m,
        samples=args.samples,
        seed=args.seed,
        checks=args.checks,
    )
    return verify.run_suite(config)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        value = args.func(args)
        as_json, text = _render(value)
    except ValueError as exc:  # ParseError and DimensionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(as_json) if args.format == "json" else text)
    return 1 if isinstance(value, verify.Report) and not value.passed else 0


if __name__ == "__main__":
    sys.exit(main())
