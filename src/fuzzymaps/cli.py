"""Command line front end.

Exit codes (stable, scripted against): 0 on success, 2 for an unreadable
file or bad usage, and otherwise the `exit_code` of the raised error
class (see fuzzymaps.errors):
    2  malformed input (files or command line)
    3  validation failure (class rules, domains, bad initial vectors)
    4  shape or component-count mismatch
    5  iteration cap exceeded
    6  enumeration budget exceeded
    7  any other engine error
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .dynamics import DEFAULT_MAX_STEPS
from .errors import DomainError, FuzzymapsError, ParseError
from .fileformats import (
    parse_matrix_text,
    parse_model_structure,
    parse_model_text,
    parse_vector_text,
    serialize_matrix,
)
from .fre import failing_columns, minimal_solutions_bruteforce, solve_max
from .matrices import (
    elementwise_max,
    elementwise_min,
    mat_add,
    mat_mul,
    maxmin_compose,
    minmax_compose,
    transpose,
)
from .models import class_diagnostics, diagonal_diagnostics, run
from .special import SpecialMatrix
from .trace import render_trace
from .values import _NUMBER_RE, OrderPolicy, _ascii_int, render_row

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3

_POLICIES = [policy.value for policy in OrderPolicy]
_DEFAULT_POLICY = OrderPolicy.BOOK_DEFAULT.value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path!r} is not UTF-8 text: byte "
                         f"0x{exc.object[exc.start]:02x} on line {line}"
                         ) from None


def _report_invalid(problems) -> int:
    for problem in problems:
        print(f"problem: {problem}")
    print("invalid")
    return EXIT_VALIDATION


def cmd_validate(args) -> int:
    try:
        raw = parse_model_structure(_read(args.model))
    except DomainError as exc:  # an entry outside its declared domain
        return _report_invalid([exc])
    print(f"class: {raw.model_class.value}")
    if raw.name:
        print(f"name: {raw.name}")
    print(f"components: {len(raw.components)}")
    for idx, (mat, tag) in enumerate(raw.components):
        print(f"component {idx + 1}: {tag.kind} {tag.algebra} {tag.op} "
              f"{mat.domain.value} {mat.rows}x{mat.cols}")
    problems = []
    try:
        special = SpecialMatrix(raw.components)
    except FuzzymapsError as exc:
        problems.append(str(exc))
        special = None
    if special is not None:
        print(f"classification: {special.classification}")
        problems.extend(diagonal_diagnostics(special))
        problems.extend(class_diagnostics(raw.model_class, special))
    if problems:
        return _report_invalid(problems)
    print("valid")
    return EXIT_OK


def cmd_run(args) -> int:
    model_file = parse_model_text(_read(args.model))
    x0 = parse_vector_text(_read(args.input))
    model = model_file.model
    pattern = run(model, x0, policy=args.order_policy,
                  threshold_k=args.threshold_k, max_steps=args.max_steps)
    if args.trace:
        text = render_trace(pattern, model, name=model_file.name)
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"classification: {model.matrix.classification}")
    print(pattern.describe())
    print(f"steps: {pattern.steps}")
    return EXIT_OK


_COMPOSE_OPS = {
    "max": elementwise_max,
    "min": elementwise_min,
    "maxmin": maxmin_compose,
    "minmax": minmax_compose,
    "mul": mat_mul,
    "add": mat_add,
}


def cmd_compose(args) -> int:
    a = parse_matrix_text(_read(args.a))
    b = parse_matrix_text(_read(args.b))
    policy = OrderPolicy.parse(args.order_policy)
    fn = _COMPOSE_OPS[args.op]
    if args.op in ("mul", "add"):
        result = fn(a, b)
    else:
        result = fn(a, b, policy=policy)
    sys.stdout.write(serialize_matrix(result))
    return EXIT_OK


def cmd_fre(args) -> int:
    q = parse_matrix_text(_read(args.matrix))
    r = parse_matrix_text(_read(args.target))
    if r.rows != 1 and r.cols == 1:
        r = transpose(r)  # accept a column file for the target
    solution = solve_max(q, r, neutrosophic=args.neutrosophic)
    p = solution.max_solution
    print("max-solution: " + render_row(p.row(0)))
    print(f"solvable: {'yes' if solution.solvable else 'no'}")
    print("residual: " + render_row(solution.residual.row(0)))
    if not solution.solvable:
        bad = failing_columns(q, r)
        if bad:
            cols = " ".join(str(k + 1) for k in bad)
            print(f"necessary-condition: fails at column(s) {cols}")
    if args.minimal:
        minimal = minimal_solutions_bruteforce(q, r)
        if minimal:
            for vec in minimal:
                print("minimal: " + render_row(vec.row(0)))
        else:
            print("minimal: none")
    return EXIT_OK


def _step_cap(text: str) -> int:
    """--max-steps: an int in ASCII decimal digits (values._ascii_int),
    with an optional minus sign, so that the run, not the parser, rejects
    a cap below 1 (exit 3)."""
    try:
        return -_ascii_int(text[1:]) if text[:1] == "-" else _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an int in ASCII digits: {text!r}") from None


def _cut_constant(text: str) -> float:
    """--threshold-k: a decimal number as the file grammars spell one
    (values._NUMBER_RE, ASCII digits only). A spelling of an infinity or
    a NaN passes as its float, for the run to reject as not finite
    (exit 3)."""
    if _NUMBER_RE.match(text):
        return float(text)
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"not a decimal number in ASCII digits: {text!r}")
    return value


@functools.cache
def _parsers():
    """The top-level argument parser and its {command: subparser} map,
    built on the first call and shared by every later `main` call in the
    process."""
    parser = argparse.ArgumentParser(
        prog="fuzzymaps",
        description="Multi-expert fuzzy/neutrosophic map runner and "
                    "relational equation solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check a model file against its class rules")
    p_validate.add_argument("--model", required=True,
                            help="model file path")

    p_run = sub.add_parser(
        "run", help="iterate a model to its hidden pattern")
    p_run.add_argument("--model", required=True, help="model file path")
    p_run.add_argument("--input", required=True,
                       help="initial state vector file")
    p_run.add_argument("--trace", help="write the full trace here")
    p_run.add_argument("--order-policy", default=_DEFAULT_POLICY,
                       choices=_POLICIES,
                       help="how min/max treat indeterminate values")
    p_run.add_argument("--threshold-k", type=_cut_constant, default=0.0,
                       help="cut constant (strictly greater passes)")
    p_run.add_argument("--max-steps", type=_step_cap,
                       default=DEFAULT_MAX_STEPS,
                       help="iteration safety cap")

    p_compose = sub.add_parser(
        "compose", help="combine two matrices with a chosen operation")
    p_compose.add_argument("--op", required=True,
                           choices=sorted(_COMPOSE_OPS))
    p_compose.add_argument("--order-policy", default=_DEFAULT_POLICY,
                           choices=_POLICIES)
    p_compose.add_argument("a", help="left matrix file")
    p_compose.add_argument("b", help="right matrix file")

    p_fre = sub.add_parser(
        "fre", help="solve p o Q = r for the maximum p")
    p_fre.add_argument("--matrix", required=True,
                       help="Q membership matrix file")
    p_fre.add_argument("--target", required=True,
                       help="target vector r file (one row)")
    p_fre.add_argument("--minimal", action="store_true",
                       help="also print every minimal solution, exactly "
                            "(real-valued inputs only)")
    p_fre.add_argument("--neutrosophic", action="store_true",
                       help="allow indeterminate memberships")
    return parser, sub.choices


def _build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (see _parsers)."""
    return _parsers()[0]


# kept apart from the shared parsers, which hold no command function
_COMMANDS = {"validate": cmd_validate, "run": cmd_run,
             "compose": cmd_compose, "fre": cmd_fre}


def _parse(argv):
    """(command function, parsed arguments) of `argv`. A command word
    first is parsed by that command's own subparser: the parse the
    top-level parser would hand it, without going over the words twice.
    Anything else (no words, --help, an unknown command, `--` first) goes
    through the top-level parser."""
    parser, subparsers = _parsers()
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]], subparsers[argv[0]].parse_args(argv[1:])
    args = parser.parse_args(argv)
    return _COMMANDS[args.command], args


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return command(args)
    except (FuzzymapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, OSError) else exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
