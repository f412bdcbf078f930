"""Command-line front end.

Every subcommand prints a text verdict by default or a JSON envelope with
``--format json``; the envelope always has the four fields ``verdict``,
``witness``, ``error`` and ``report``.  Exit status: 0 when the decided
predicate is true (or the command simply succeeded), 1 when it is false,
2 for usage and syntax errors, 3 when a resource limit was exceeded.

Expressions may be given inline or as ``@path`` to read from a file; words
use the space-separated symbol serialization with ``%`` for the empty word.

Each subcommand is one row of ``COMMANDS``: its help text, its positional
arguments, the limit flags it honours and a function that turns the parsed
arguments into results ``(verdict, witness, text lines, report)``.  ``main``
does the rest: parsing, reading and validating arguments, printing and the
exit status.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .decision import DEFAULT_STATE_BUDGET, equivalent, includes, overlaps
from .engine import (
    DEFAULT_EXPANSION_CAP,
    DEFAULT_WORD_LIMIT,
    Word,
    enumerate_words,
    length_set,
    member,
    parse_word,
    render_word,
)
from .errors import CrekitError
from .partition import (
    TheoremReport,
    build_expressions,
    decide_partition_via_inclusion,
    even_total_instances,
    parse_weights,
    verify_theorem_instance,
)
from .syntax import parse_expr, render_expr
from .unambiguity import check_unambiguous

ENV_EXPANSION_CAP = "CREKIT_EXPANSION_CAP"

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_RESOURCE_CODES = {"EXPANSION_CAP", "STATE_BUDGET", "RESULT_TOO_LARGE"}

Result = tuple[bool, "Word | None", list[str], "dict | None"]


class UsageError(CrekitError):
    """Malformed command line, out-of-range count or unreadable input file."""

    code = "USAGE"


class _Parser(argparse.ArgumentParser):
    """Reports its errors through ``main``'s handler instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None


def _inline(value: str) -> str:
    """Inline argument, or @path indirection."""
    return _read(value[1:]) if value.startswith("@") else value


def _expr(value: str):
    return parse_expr(_inline(value))


# positional argument -> how main reads it; the others are integers
_READERS = {
    "expr": _expr,
    "left": _expr,
    "right": _expr,
    "word": lambda value: parse_word(_inline(value)),
    "weights_file": lambda value: parse_weights(_read(value)),
}

# limit flag -> (help, default); a cap not given as a flag comes from the
# environment, which main checks for every command
_FLAGS = {
    "cap": ("expansion node cap", None),
    "budget": ("product-state budget", DEFAULT_STATE_BUDGET),
    "limit": ("enumeration word limit", DEFAULT_WORD_LIMIT),
}

# integer argument -> the smallest value it accepts
_MINIMUM = dict(cap=1, budget=1, limit=1, cutoff=1, maxlen=0, kmax=1, wmax=1)


def _wants_json(argv: list[str]) -> bool:
    """Whether argv asks for JSON; read before argparse, which may fail first."""
    pairs = zip(argv, argv[1:] + [None])
    return any(a == "--format=json" or (a, b) == ("--format", "json") for a, b in pairs)


def _env_cap() -> int:
    text = os.environ.get(ENV_EXPANSION_CAP)
    if not text:
        return DEFAULT_EXPANSION_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(
            f"{ENV_EXPANSION_CAP} must be an integer of at least 1, got {text!r}"
        )
    return cap


def _conflict_dict(conflict) -> dict | None:
    if conflict is None:
        return None
    return {
        "symbol": conflict.symbol,
        "positions": list(conflict.positions),
        "locus": "first-set"
        if conflict.locus_kind == "first-set"
        else f"follow-set of {conflict.locus_position}",
    }


def _report_dict(report: TheoremReport) -> dict:
    inst = report.instance
    return {
        "weights": list(inst.weights),
        "k": inst.k,
        "total": inst.total,
        "n": inst.n,
        "e1": render_expr(report.e1),
        "e2": render_expr(report.e2),
        "partition_exists": report.partition_exists,
        "partition_witness": list(report.partition_witness)
        if report.partition_witness is not None
        else None,
        "inclusion_holds": report.inclusion_holds,
        "inclusion_witness": list(report.inclusion_witness)
        if report.inclusion_witness is not None
        else None,
        "unambiguity_ok": list(report.unambiguity_ok),
        "length_laws_ok": report.length_laws_ok,
        "theorem_holds": report.theorem_holds,
    }


def _report_line(report: TheoremReport) -> str:
    witness_len = (
        str(len(report.inclusion_witness))
        if report.inclusion_witness is not None
        else "-"
    )
    return (
        f"weights={','.join(map(str, report.instance.weights))}"
        f" n={report.instance.n}"
        f" partition={'yes' if report.partition_exists else 'no'}"
        f" inclusion={'holds' if report.inclusion_holds else 'fails'}"
        f" witness_len={witness_len}"
        f" unambiguous={'ok' if all(report.unambiguity_ok) else 'FAIL'}"
        f" lengths={'ok' if report.length_laws_ok else 'FAIL'}"
        f" theorem={'ok' if report.theorem_holds else 'MISMATCH'}"
    )


# --- subcommands ---------------------------------------------------------------


def _parse(a) -> Iterator[Result]:
    rendered = render_expr(a.expr)
    yield True, None, [rendered], {"expr": rendered}


def _member(a) -> Iterator[Result]:
    ok = member(a.expr, a.word, cap=a.cap)
    yield ok, None, ["true" if ok else "false"], None


def _enumerate(a) -> Iterator[Result]:
    words = enumerate_words(a.expr, a.maxlen, cap=a.cap, word_limit=a.limit)
    report = {"words": [list(w) for w in words]}
    yield True, None, [render_word(w) for w in words], report


def _lengths(a) -> Iterator[Result]:
    lengths = length_set(a.expr, a.cutoff)
    members = sorted(lengths.members)
    line = " ".join(map(str, members)) if members else "(none)"
    if lengths.saturated:
        line += " (saturated)"
    yield True, None, [line], {"members": members, "saturated": lengths.saturated}


def _unambiguous(a) -> Iterator[Result]:
    verdict = check_unambiguous(a.expr)
    if verdict.unambiguous:
        line = "unambiguous"
    else:
        line = f"ambiguous: {verdict.conflict.describe()}"
    report = {"conflict": _conflict_dict(verdict.conflict)}
    yield verdict.unambiguous, None, [line], report


def _witness(word: Word) -> str:
    return f"witness: {render_word(word)}"


def _include(a) -> Iterator[Result]:
    verdict = includes(a.left, a.right, cap=a.cap, state_budget=a.budget)
    if verdict.holds:
        yield True, None, ["holds"], None
    else:
        yield False, verdict.witness, ["fails", _witness(verdict.witness)], None


def _overlap(a) -> Iterator[Result]:
    verdict = overlaps(a.left, a.right, cap=a.cap, state_budget=a.budget)
    if verdict.overlaps:
        yield True, verdict.witness, ["overlaps", _witness(verdict.witness)], None
    else:
        yield False, None, ["disjoint"], None


def _equiv(a) -> Iterator[Result]:
    verdict = equivalent(a.left, a.right, cap=a.cap, state_budget=a.budget)
    if verdict.equivalent:
        yield True, None, ["equivalent"], None
    else:
        where = f"(only in the {verdict.side} language)"
        lines = ["not equivalent", f"{_witness(verdict.witness)} {where}"]
        yield False, verdict.witness, lines, {"side": verdict.side}


def _reduce(a) -> Iterator[Result]:
    e1, e2 = map(render_expr, build_expressions(a.weights_file))
    yield True, None, [e1, e2], {"e1": e1, "e2": e2}


def _partition(a) -> Iterator[Result]:
    exists = decide_partition_via_inclusion(
        a.weights_file, cap=a.cap, state_budget=a.budget
    )
    yield exists, None, ["yes" if exists else "no"], None


def _verify(a) -> Iterator[Result]:
    report = verify_theorem_instance(a.weights_file, cap=a.cap, state_budget=a.budget)
    lines = [_report_line(report)]
    if report.inclusion_witness is not None:
        lines.append(_witness(report.inclusion_witness))
    yield report.all_checks_pass, report.inclusion_witness, lines, _report_dict(report)


def _verify_suite(a) -> Iterator[Result]:
    checked = mismatches = 0
    for inst in even_total_instances(a.kmax, a.wmax):
        report = verify_theorem_instance(inst, cap=a.cap, state_budget=a.budget)
        checked += 1
        mismatches += not report.all_checks_pass
        yield report.all_checks_pass, None, [_report_line(report)], _report_dict(report)
    print(f"checked {checked} instances, {mismatches} mismatches", file=sys.stderr)


class Command(NamedTuple):
    help: str
    args: tuple[str, ...]  # positional arguments
    flags: tuple[str, ...]  # the limit flags the command honours
    run: Callable[[argparse.Namespace], Iterator[Result]]


_DECIDE = ("cap", "budget")

COMMANDS = {
    "parse": Command("parse and re-render", ("expr",), (), _parse),
    "member": Command("word membership", ("expr", "word"), ("cap",), _member),
    "enumerate": Command(
        "list words up to a length", ("expr", "maxlen"), ("cap", "limit"), _enumerate
    ),
    "lengths": Command("word lengths up to a cutoff", ("expr", "cutoff"), (), _lengths),
    "unambiguous": Command("weak unambiguity check", ("expr",), (), _unambiguous),
    "include": Command("language inclusion", ("left", "right"), _DECIDE, _include),
    "overlap": Command("language overlap", ("left", "right"), _DECIDE, _overlap),
    "equiv": Command("language equivalence", ("left", "right"), _DECIDE, _equiv),
    "reduce": Command("print E1 and E2 for weights", ("weights_file",), (), _reduce),
    "partition": Command(
        "decide PARTITION via inclusion", ("weights_file",), _DECIDE, _partition
    ),
    "verify": Command("verify one instance", ("weights_file",), _DECIDE, _verify),
    "verify-suite": Command(
        "verify all small instances", ("kmax", "wmax"), _DECIDE, _verify_suite
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crekit",
        description="Counted regular expressions: semantics, unambiguity, "
        "inclusion, and PARTITION via inclusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            p.add_argument(arg, type=None if arg in _READERS else int)
        for flag in command.flags:
            help_text, default = _FLAGS[flag]
            p.add_argument(
                f"--{flag}", type=int, metavar="N", default=default, help=help_text
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.set_defaults(row=command)
    return parser


def _envelope(verdict=False, witness=None, error=None, report=None) -> dict:
    return {
        "verdict": verdict,
        "witness": list(witness) if witness is not None else None,
        "error": error,
        "report": report,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    output_format = "json" if _wants_json(argv) else "text"
    try:
        args = _parser().parse_args(argv)
        output_format = args.format
        command = args.row
        for name, minimum in _MINIMUM.items():
            value = getattr(args, name, None)
            if value is not None and value < minimum:
                label = name if name in command.args else f"--{name}"
                raise UsageError(f"{label} must be at least {minimum}, got {value}")
        if getattr(args, "cap", None) is None:
            args.cap = _env_cap()
        for name in command.args:
            if name in _READERS:
                setattr(args, name, _READERS[name](getattr(args, name)))
        status = EXIT_TRUE
        # flush each result so that verify-suite's progress survives interruption
        for verdict, witness, lines, report in command.run(args):
            if output_format == "json":
                print(json.dumps(_envelope(verdict, witness, None, report)), flush=True)
            elif lines:
                print(*lines, sep="\n", flush=True)
            if not verdict:
                status = EXIT_FALSE
        return status
    except CrekitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        if output_format == "json":
            print(json.dumps(_envelope(error={"code": exc.code, "message": str(exc)})))
        return EXIT_RESOURCE if exc.code in _RESOURCE_CODES else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
