"""Command-line front end.

One subcommand per kernel operation plus the suite runner.  The five that
apply a single algebra function come from one table, and every result is
written as text or JSON by one renderer.  Exit codes:
0 on success, 1 when a verify run reports any failing check, 2 on parse
or usage errors, 3 on an internal error.  All diagnostics go to stderr;
each refusal is one line `error: <message>`.

A call imports only what its subcommand needs: reps only for act and
pair, verify only for verify, json only for JSON output.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import algebra, expr
from .algebra import AlgebraElement, FallingElement
from .exact import Poly


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one line: exit 2 with `error: <message>`."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    # argparse prefixes a refusal here with the flag ("argument --n: ..."),
    # so nonpositive ranks and Jordan sizes are refused in the user's terms.
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _capped(kind, what: str, top: int):
    # A reader of a size flag by kind, int or _int_list, that refuses a value above top as
    # argparse reads it, so the refusal names the flag: "argument --n: rank above ...".
    def read(text: str):
        value = kind(text)
        if max(value if isinstance(value, tuple) else (value,)) > top:
            raise argparse.ArgumentTypeError(f"{what} above the limit {top}")
        return value

    read.__name__ = kind.__name__  # argparse names malformed input by it: "invalid int value"
    return read


def _name_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one check name")
    return names


def _add_common(sub: argparse.ArgumentParser) -> None:
    rank = _capped(int, "rank", expr.MAX_RANK)
    sub.add_argument("--n", type=rank, default=1, metavar="N", help="matrix rank (default 1)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_module_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family", choices=("V", "Vbar"), default="V", help="module family (default V)"
    )
    jordan = _capped(int, "Jordan block size", expr.MAX_JORDAN)
    sub.add_argument("--m", type=jordan, default=1, help="Jordan block size (default 1)")
    _add_lambda(sub, "module parameter: a rational like 3/2, or 'formal' (default)")


def _add_lambda(sub: argparse.ArgumentParser, help_text: str) -> None:
    sub.add_argument(
        "--lambda",
        dest="lam",
        default="formal",
        metavar="VALUE",
        help=f"{help_text}; write a negative value as --lambda=-1/3",
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
    _add_lambda(pair, "parameter of the twisted side, as for act; the partner carries its negative")
    pair.add_argument("twisted", metavar="VBAR_VECTOR")
    pair.add_argument("vector", metavar="V_VECTOR")
    pair.set_defaults(func=_cmd_pair)

    # SuiteConfig holds the defaults of the suite, so a flag not given is left unset.
    ver = commands.add_parser(
        "verify", help="run the identity verification suite", argument_default=argparse.SUPPRESS
    )
    ranks = _capped(_int_list, "rank", expr.MAX_RANK)
    ver.add_argument("--n", type=ranks, dest="ranks", metavar="N1,N2", help="ranks")
    sizes = _capped(_int_list, "Jordan block size", expr.MAX_JORDAN)
    ver.add_argument("--m", type=sizes, dest="m_values", metavar="M1,M2", help="Jordan sizes")
    ver.add_argument("--samples", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--i-bound", type=_capped(int, "t power bound", expr.MAX_I_BOUND))
    ver.add_argument("--j-bound", type=_capped(int, "D power bound", expr.MAX_J_BOUND))
    ver.add_argument(
        "--checks",
        type=_name_list,
        metavar="NAME1,NAME2",
        help="subset of checks to run (default all; see --list-checks)",
    )
    ver.add_argument("--list-checks", action="store_true", help="list check names and exit")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=_cmd_verify)

    return parser


def _module_params(args, family: str, m: int):
    from .reps import Family, ModuleParams

    family = Family(family)
    if args.lam == "formal":
        return ModuleParams.formal(family, args.n, m)
    # Fraction builds 10**e for an exponent e: digit runs and e are held to the digit limit.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    text = args.lam.replace("_", "")
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if longest > cap:  # refused like a term literal, and not echoed
        raise ValueError(f"--lambda of {longest} digits exceeds the digit limit {cap}")
    exponent = re.search(r"e[-+]?(\d+)\s*$", text, re.IGNORECASE)
    if exponent and int(exponent[1]) > cap:
        raise ValueError(f"--lambda exponent exceeds the digit limit {cap}")
    try:
        value = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--lambda must be a rational or 'formal', got {args.lam!r}")
    return ModuleParams(family, args.n, m, Poly.const(value))


def _render(value, as_json: bool) -> str:
    """A command's result as JSON or as text; the form not asked for is not built."""
    if isinstance(value, AlgebraElement):
        out = (expr.element_to_json if as_json else expr.format_element)(value)
    elif isinstance(value, FallingElement):
        out = (expr.falling_element_to_json if as_json else expr.format_falling_element)(value)
    elif isinstance(value, Poly):
        out = (expr.poly_to_json if as_json else expr.format_poly)(value)
    elif isinstance(value, dict) and as_json:  # homogeneous components by degree
        rows = [{"degree": d, "element": expr.element_to_json(c)} for d, c in value.items()]
        out = {"components": rows}
    elif isinstance(value, dict):
        out = "\n".join(f"{d}: {expr.format_element(c)}" for d, c in value.items()) or "0"
    elif isinstance(value, list):  # verify --list-checks
        out = value if as_json else "\n".join(value)
    elif isinstance(value, (int, Fraction)):  # a cocycle value
        out = {"value": str(value)} if as_json else str(value)
    elif hasattr(value, "to_text"):  # a verify Report
        out = value.to_json() if as_json else value.to_text()
    else:  # a module vector
        out = (expr.module_vector_to_json if as_json else expr.format_module_vector)(value)
    if not as_json:
        return out
    import json

    return json.dumps(out)


def _elements(args) -> list[AlgebraElement]:
    return [expr.parse_element(text, args.n) for text in args.exprs]


def _cmd_element(args):
    # Looked up per call, so a patched algebra function is the one called.
    return getattr(algebra, args.op)(*_elements(args))


def _cmd_convert(args):
    (element,) = _elements(args)
    return element if args.to == "power" else algebra.to_falling(element)


def _cmd_act(args):
    from . import reps

    params = _module_params(args, args.family, args.m)
    x = expr.parse_element(args.element, args.n)
    v = expr.parse_module_vector(args.vector, params)
    return reps.act(x, v)


def _cmd_pair(args) -> Poly:
    from . import reps

    params_w = _module_params(args, "Vbar", 1)
    w = expr.parse_module_vector(args.twisted, params_w)
    v = expr.parse_module_vector(args.vector, params_w.dual())
    return reps.pairing(w, v)


def _cmd_verify(args):
    from dataclasses import fields

    from . import verify

    if "list_checks" in args:
        return list(verify.available_checks())
    given = {f.name: getattr(args, f.name) for f in fields(verify.SuiteConfig) if f.name in args}
    return verify.run_suite(verify.SuiteConfig(**given))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Input keeps the interpreter's cap on the digits of an int read from
    # text (Python 3.10.7+); an exact result is printed in full.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        value = args.func(args)
        if digits:
            sys.set_int_max_str_digits(0)
        text = _render(value, args.format == "json")
    except ValueError as exc:  # ParseError and DimensionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a verdict
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    print(text)
    return 0 if getattr(value, "passed", True) else 1  # only a verify Report has .passed


if __name__ == "__main__":
    sys.exit(main())
