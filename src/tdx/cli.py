"""Command-line front end: file I/O, subcommand dispatch, deterministic output.

Commands that read a source instance (``chase``, ``certain``) run in the view
of its kind, concrete or abstract; ``achase`` is an alias of ``chase``.

Exit codes: 0 success; 1 usage, parse, or validation error; 2 chase failure or
no solution; 3 the equivalence check returned false.  A path of ``-`` reads
stdin or writes stdout.  Setting TDX_COLOR=0 disables ANSI diagnostics.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from pathlib import Path

from .chase import Failure, chase
from .errors import TdxError
from .homomorphism import equivalent
from .mapping_lang import Mapping, parse_mapping
from .model import (
    CONCRETE,
    Instance,
    Value,
    _A_KIND,
    _default_horizon,
    _encode,
    _list_text,
    _time_text,
    dumps_instance,
    loads_instance,
    normalize_instance,
    sem_instance,
)
from .query import NoSolution, answers_to_instance, certain, naive_eval

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SOLUTION = 2
EXIT_NOT_EQUIVALENT = 3


def _read_text(path: str) -> str:
    """The text of a file or stdin, without a leading byte-order mark."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, replacing what the file held before.

    An existing file is overwritten in place and then cut to the new length
    instead of being truncated to zero on open: on ext4, truncating a file
    to zero queues its pages for writeback (``auto_da_alloc``), and the next
    truncate waits for that disk write, which added tens of milliseconds of
    variable disk latency to each command that rewrites its output.  Only a
    regular file is cut: a device such as ``/dev/null``, or a pipe, cannot
    be truncated or sought.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _diag(message: str, *, error: bool = True) -> None:
    prefix = "error: " if error else ""
    if error and os.environ.get("TDX_COLOR", "1") != "0" and sys.stderr.isatty():
        prefix = f"\x1b[31m{prefix}\x1b[0m"
    sys.stderr.write(f"{prefix}{message}\n")


def _load_instance(path: str, kind: str | None = None) -> Instance:
    inst = loads_instance(_read_text(path))
    if kind is not None and inst.kind != kind:
        raise TdxError(f"{path}: expected {_A_KIND[kind]}, got {inst.kind}")
    return inst


def _load_mapping(path: str) -> Mapping:
    return parse_mapping(_read_text(path))


def _failure_text(failure: Failure) -> str:
    """The witness as the text of ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)``, written as ``dumps_instance`` writes instances;
    each null is written with the failure's time."""
    time = _time_text(failure.time)

    def text(v: Value) -> str:
        if isinstance(v, str):
            return _encode(v)
        members = sorted([time, '"null": ' + _encode(v.label)])  # by key: "interval" < "null" < "time"
        return "{\n          " + ",\n          ".join(members) + "\n        }"

    trace = _list_text([_list_text([text(x), text(y)], "      ") for x, y in failure.trace], "    ")
    constants = _list_text([_encode(c) for c in failure.constants], "    ")
    return f'{{\n  "failure": {{\n    "constants": {constants},\n    "trace": {trace}\n  }}\n}}\n'


def _cmd_normalize(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input, CONCRETE)
    _write_text(args.output, dumps_instance(normalize_instance(inst)))
    return EXIT_OK


def _cmd_sem(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input, CONCRETE)
    horizon = _default_horizon([inst]) if args.horizon is None else args.horizon
    _write_text(args.output, dumps_instance(sem_instance(inst, horizon), horizon))
    return EXIT_OK


def _cmd_chase(args: argparse.Namespace) -> int:
    mapping = _load_mapping(args.mapping)
    outcome = chase(_load_instance(args.input), mapping)
    if isinstance(outcome, Failure):
        _write_text(args.output, _failure_text(outcome))
        _diag(f"chase failed: {outcome.constants[0]} != {outcome.constants[1]}", error=False)
        return EXIT_NO_SOLUTION
    _write_text(args.output, dumps_instance(outcome.instance))
    return EXIT_OK


def _find_query(mapping: Mapping, name: str):
    q = mapping.query(name)
    if q is None:
        known = ", ".join(sorted(u.name for u in mapping.queries)) or "none"
        raise TdxError(f"unknown query {name!r} (known queries: {known})")
    return q


def _cmd_query(args: argparse.Namespace) -> int:
    mapping = _load_mapping(args.mapping)
    inst = _load_instance(args.input)
    answers = naive_eval(_find_query(mapping, args.query), inst)
    _write_text(args.output, dumps_instance(answers_to_instance(answers)))
    return EXIT_OK


def _cmd_certain(args: argparse.Namespace) -> int:
    mapping = _load_mapping(args.mapping)
    src = _load_instance(args.input)
    result = certain(_find_query(mapping, args.query), src, mapping)
    if isinstance(result, NoSolution):
        _write_text(args.output, _failure_text(result.failure))
        _diag(f"no solution: {result.failure.constants[0]} != {result.failure.constants[1]}",
              error=False)
        return EXIT_NO_SOLUTION
    _write_text(args.output, dumps_instance(answers_to_instance(result)))
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    if equivalent(_load_instance(args.a), _load_instance(args.b), args.horizon):
        sys.stdout.write("equivalent\n")
        return EXIT_OK
    sys.stdout.write("not equivalent\n")
    return EXIT_NOT_EQUIVALENT


@functools.cache  # built once per process: a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdx",
        description="Temporal data exchange over concrete (interval) and abstract "
                    "(time-point) instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def io(p: argparse.ArgumentParser, mapping: bool = False, query: bool = False) -> None:
        if mapping:
            p.add_argument("-m", "--mapping", required=True, help="mapping file (.tdx)")
        p.add_argument("-i", "--input", required=True, help="input instance (JSON, '-' for stdin)")
        if query:
            p.add_argument("-q", "--query", required=True, help="query name from the mapping")
        p.add_argument("-o", "--output", required=True, help="output file ('-' for stdout)")

    p = sub.add_parser("normalize", help="split a concrete instance over its endpoint grid")
    io(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("sem", help="expand a concrete instance into its abstract view")
    io(p)
    p.add_argument("--horizon", type=int, help="materialization bound (default: max endpoint + 1)")
    p.set_defaults(func=_cmd_sem)

    p = sub.add_parser("chase", aliases=["achase"],
                       help="chase a complete source instance in its own view (concrete or abstract)")
    io(p, mapping=True)
    p.set_defaults(func=_cmd_chase)

    p = sub.add_parser("query", help="evaluate a named query naively on an instance")
    io(p, mapping=True, query=True)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("certain", help="certain answers of a named query over a source")
    io(p, mapping=True, query=True)
    p.set_defaults(func=_cmd_certain)

    p = sub.add_parser("equiv", help="check homomorphic equivalence of two instances")
    p.add_argument("-a", required=True, help="first instance")
    p.add_argument("-b", required=True, help="second instance")
    p.add_argument("--horizon", type=int,
                   help="expansion bound for concrete inputs (default: max endpoint + 1)")
    p.set_defaults(func=_cmd_equiv)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (TdxError, json.JSONDecodeError, OSError, ValueError) as exc:
        _diag(str(exc))
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run_cli())
