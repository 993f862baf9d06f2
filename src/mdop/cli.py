"""Command-line front end.

One subcommand per kernel operation plus the suite runner.  The five that
apply a single algebra function come from one table, and every result is
written as text or JSON by one renderer.  Exit codes:
0 on success, 1 when a verify run reports any failing check, 2 on parse
or usage errors, 3 on an internal error; the process entry,
`mdop.__main__.run`, adds 141 for a closed stdout.  All diagnostics go to
stderr; each refusal is one line `error: <message>`.

A call imports only what its subcommand needs: reps only for act and
pair, verify only for verify, json only for JSON output.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction

from . import algebra, expr
from .algebra import AlgebraElement, FallingElement
from .exact import Poly


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one line: exit 2 with `error: <message>`."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")

    def _check_value(self, action, value):
        # argparse's own refusal of a choice, of a flag or the subcommand, echoes the value.
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"expected one of {', '.join(action.choices)}")


def _number(text: str, rational: bool = False):
    """expr.parse_number, whose refusal argparse prints as the flag's: no column, no value."""
    try:
        return expr.parse_number(text, rational)
    except expr.ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def _once(what: str, values: tuple) -> tuple:
    """values, refused as "<what> <entry> given twice" where a list names an entry twice."""
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"{what} {repeated[0]} given twice")
    return values


def _capped(what: str, low: int, top: int, many: bool = False):
    # A reader of an int flag, or with many of a comma-separated list, that refuses as
    # argparse reads it a value outside [low, top] or an entry given twice, naming the flag:
    # "argument --n: rank below 1", "argument --m: Jordan block size 1 given twice".
    def read(text: str):
        values = tuple(map(_number, text.split(",") if many else [text]))
        if min(values) < low:
            raise argparse.ArgumentTypeError(f"{what} below {low}")
        if max(values) > top:
            raise argparse.ArgumentTypeError(f"{what} above the limit {top}")
        return _once(what, values) if many else values[0]

    return read


def _name_list(text: str) -> tuple[str, ...]:
    from .verify import available_checks

    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one check name")
    if not set(names) <= set(available_checks()):
        raise argparse.ArgumentTypeError("unknown check name; see --list-checks")
    return _once("check name", names)  # a known name, so the echo is bounded


def _add_common(sub: argparse.ArgumentParser) -> None:
    rank = _capped("rank", 1, expr.MAX_RANK)
    sub.add_argument("--n", type=rank, default=1, metavar="N", help="matrix rank (default 1)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_module_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family", choices=("V", "Vbar"), default="V", help="module family (default V)"
    )
    jordan = _capped("Jordan block size", 1, expr.MAX_JORDAN)
    sub.add_argument("--m", type=jordan, default=1, help="Jordan block size (default 1)")
    _add_lambda(sub, "module parameter: a rational like 3/2, or 'formal' (default)")


def _lambda(text: str) -> Poly:
    return Poly.var() if text == "formal" else Poly.const(_number(text, rational=True))


def _add_lambda(sub: argparse.ArgumentParser, help_text: str) -> None:
    sub.add_argument(
        "--lambda",
        dest="lam",
        type=_lambda,
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


def _add_element_command(commands, name: str) -> None:
    help_text, arity, op = _ELEMENT_COMMANDS[name]
    sub = commands.add_parser(name, help=help_text)
    _add_common(sub)
    sub.add_argument("exprs", nargs=arity, metavar="EXPR")
    sub.set_defaults(func=_cmd_element, op=op)


def _add_convert(commands, name: str) -> None:
    convert = commands.add_parser(name, help="change between power and falling bases")
    _add_common(convert)
    convert.add_argument("--to", choices=("falling", "power"), required=True)
    convert.add_argument("exprs", nargs=1, metavar="EXPR")
    convert.set_defaults(func=_cmd_convert)


def _add_act(commands, name: str) -> None:
    act = commands.add_parser(name, help="apply an element to a module vector")
    _add_common(act)
    _add_module_flags(act)
    act.add_argument("element", metavar="EXPR")
    act.add_argument("vector", metavar="VECTOR")
    act.set_defaults(func=_cmd_act)


def _add_pair(commands, name: str) -> None:
    pair = commands.add_parser(
        name, help="pair a twisted-family vector against its family-V partner"
    )
    _add_common(pair)
    _add_lambda(pair, "parameter of the twisted side, as for act; the partner carries its negative")
    pair.add_argument("twisted", metavar="VBAR_VECTOR")
    pair.add_argument("vector", metavar="V_VECTOR")
    pair.set_defaults(func=_cmd_pair)


def _add_verify(commands, name: str) -> None:
    # SuiteConfig holds the defaults of the suite, so a flag not given is left unset.
    ver = commands.add_parser(
        name, help="run the identity verification suite", argument_default=argparse.SUPPRESS
    )
    ranks = _capped("rank", 1, expr.MAX_RANK, many=True)
    ver.add_argument("--n", type=ranks, dest="ranks", metavar="N1,N2", help="ranks")
    sizes = _capped("Jordan block size", 1, expr.MAX_JORDAN, many=True)
    ver.add_argument("--m", type=sizes, dest="m_values", metavar="M1,M2", help="Jordan sizes")
    ver.add_argument("--samples", type=_capped("sample count", 1, expr.MAX_SAMPLES))
    ver.add_argument("--seed", type=_capped("seed", 0, 2**64 - 1))
    ver.add_argument("--i-bound", type=_capped("t power bound", 0, expr.MAX_I_BOUND))
    ver.add_argument("--j-bound", type=_capped("D power bound", 0, expr.MAX_J_BOUND))
    ver.add_argument(
        "--checks",
        type=_name_list,
        metavar="NAME1,NAME2",
        help="subset of checks to run (default all; see --list-checks)",
    )
    ver.add_argument("--list-checks", action="store_true", help="list check names and exit")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=_cmd_verify)


# Every subcommand, in the order --help lists them: name -> the function that adds its parser.
_SUBCOMMANDS = {
    **dict.fromkeys(_ELEMENT_COMMANDS, _add_element_command),
    "convert": _add_convert,
    "act": _add_act,
    "pair": _add_pair,
    "verify": _add_verify,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one.

    A call names its subcommand first, so it needs only that parser; --help, an
    empty call and an unknown name get them all, for the listing and the refusal.
    """
    parser = _Parser(
        prog="mdop",
        description="Exact computations with matrix differential operators on the circle.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        _SUBCOMMANDS[name](commands, name)
    return parser


def _render(value, as_json: bool) -> str:
    """A command's result as JSON or as text; the form not asked for is not built."""
    if isinstance(value, (AlgebraElement, FallingElement)):
        out = (expr.element_to_json if as_json else expr.format_element)(value)
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


def _operand(name: str | None, parse, text: str, context):
    """parse(text, context); a ParseError from it, when named, opens with the operand's metavar."""
    try:
        return parse(text, context)
    except expr.ParseError as exc:
        if name:
            exc.args = (f"{name}: {exc}",)
        raise


def _elements(args) -> list[AlgebraElement]:
    # Two operands share the metavar EXPR, so a refusal names one by its 1-based position.
    names = ("EXPR 1", "EXPR 2") if len(args.exprs) == 2 else (None,)
    return [_operand(name, expr.parse_element, t, args.n) for name, t in zip(names, args.exprs)]


def _cmd_element(args):
    # Looked up per call, so a patched algebra function is the one called.
    return getattr(algebra, args.op)(*_elements(args))


def _cmd_convert(args):
    (element,) = _elements(args)
    return element if args.to == "power" else algebra.to_falling(element)


def _cmd_act(args):
    from . import reps

    params = reps.ModuleParams(reps.Family(args.family), args.n, args.m, args.lam)
    x = _operand("EXPR", expr.parse_element, args.element, args.n)
    v = _operand("VECTOR", expr.parse_module_vector, args.vector, params)
    return reps.act(x, v)


def _cmd_pair(args) -> Poly:
    from . import reps

    params_w = reps.ModuleParams(reps.Family.VBAR, args.n, 1, args.lam)
    w = _operand("VBAR_VECTOR", expr.parse_module_vector, args.twisted, params_w)
    v = _operand("V_VECTOR", expr.parse_module_vector, args.vector, params_w.dual())
    return reps.pairing(w, v)


def _cmd_verify(args):
    from dataclasses import fields

    from . import verify

    if "list_checks" in args:
        return list(verify.available_checks())
    given = {f.name: getattr(args, f.name) for f in fields(verify.SuiteConfig) if f.name in args}
    return verify.run_suite(verify.SuiteConfig(**given))


def main(argv: list[str]) -> int:
    """Run one call on argv, the arguments after the program name; return its exit code."""
    parser = build_parser(argv[0] if argv else None)
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
