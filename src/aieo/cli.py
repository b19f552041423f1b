"""Command-line interface: seed, parse, reason, check, query, ingest,
metrics, export, diff.

Results go to stdout, diagnostics to stderr; the exit code is the machine
signal (0 ok, 1 usage/parse or internal error, 2 validation, 3 inconsistent,
4 I/O). An error in one input names it: a parse error as
``FILE:line:column: error: message`` with ``<query>`` for ``query --text``,
a validation error as ``FILE: error: message``. Output files are written
atomically (temp file + rename) so failures never leave partial files
behind. An output that exists and is not a regular file (a FIFO, a device
such as ``/dev/null``, or a symlink to one) is written in place instead;
what a failing command has written there cannot be rolled back.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
import tempfile
import warnings
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path
from typing import Iterator, TextIO

from .errors import (
    AieoError,
    ParseError,
)
from .jsonio import (
    canonical_json,
    parse_config,
    parse_framework_document,
    store_from_json,
    store_to_json,
    traces_to_json,
)
from .kgexport import DetailLevel, export_graph, render_dot, render_json
from .lexer import fail
from .model import OntologyStore, compute_metrics, sorted_axioms
from .pipeline import detect_saturation, run_iteration
from .query import CANNED_QUERY_NAMES, canned_query, evaluate, parse_query
from .reasoner import Materialization, materialize
from .schema import seed_schema
from .turtle import TermText, axiom_line, parse_turtle, serialize_turtle


class ExitStatus(IntEnum):
    SUCCESS = 0
    PARSE_ERROR = 1
    INTERNAL_ERROR = 1  # an alias: what an uncaught exception exits with
    VALIDATION_ERROR = 2
    INCONSISTENT = 3
    IO_ERROR = 4


class _InputError(Exception):
    """A parse or validation error, its text prefixed with the name of its
    input; ``status`` is the exit status of the error it stands for."""

    def __init__(self, text: str, status: ExitStatus):
        super().__init__(text)
        self.status = status


@contextmanager
def _input(name: str) -> Iterator[None]:
    """Report a parse or validation error raised in the block as one in
    input ``name``."""
    try:
        yield
    except ParseError as exc:
        raise _InputError(f"{name}:{exc}", ExitStatus.PARSE_ERROR) from None
    except (AieoError, ValueError) as exc:
        raise _InputError(f"{name}: error: {exc}", ExitStatus.VALIDATION_ERROR) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "argparse.NoReturn":  # usage errors exit 1
        self.print_usage(sys.stderr)
        self.exit(ExitStatus.PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a parse error at the
    line and column of the first of them."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Count lines as the text reading would see them.
            before = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            fail(before, len(before), f"invalid UTF-8 byte 0x{data[exc.start]:02x}")
        raise


def _write_mode(st: os.stat_result | None) -> int:
    """The mode of the target whose status is ``st``, or for a new file
    (``None``) the one ``open()`` would give it: ``0o666`` less the umask."""
    if st is not None:
        return stat.S_IMODE(st.st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


# Characters encoded per write: a file's encoded bytes are never all in
# memory at once beside its text.
_WRITE_SLICE = 1 << 20


def _write_slices(fh: TextIO, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        fh.write(text[start:start + _WRITE_SLICE])


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it to
    ``path``. A target that exists and is not a regular file once symlinks
    are followed (a FIFO, a device) is written in place instead, since a
    rename would put a regular file where it was. An ``OSError`` names
    ``path`` as given, never the temp file, and leaves no temp file behind."""
    target = Path(path)
    tmp = None
    try:
        try:
            st = target.stat()
        except FileNotFoundError:
            st = None
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(target, "w", encoding="utf-8") as fh:
                _write_slices(fh, text)
            return
        mode = _write_mode(st)
        fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=".aieo-tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_slices(fh, text)
        os.chmod(tmp, mode)  # mkstemp always creates 0600
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _load_store(path: str) -> OntologyStore:
    with _input(path):
        text = _read(path)
        return store_from_json(text) if path.endswith(".json") else parse_turtle(text)


def _closure(path: str) -> Materialization:
    return materialize(_load_store(path))


def _serialize_store(store: OntologyStore, path: str | None) -> str:
    if path is not None and path.endswith(".json"):
        return store_to_json(store)
    return serialize_turtle(store)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_seed(args: argparse.Namespace) -> int:
    store = seed_schema()
    _emit(_serialize_store(store, args.out), args.out)
    return ExitStatus.SUCCESS


def _cmd_reason(args: argparse.Namespace) -> int:
    mat = _closure(args.file)
    closed = mat.base.copy().update(mat.inferred)
    _emit(_serialize_store(closed, args.out), args.out)
    if args.trace:
        sidecar = str(Path(args.out).with_suffix(".trace.json"))
        _atomic_write(sidecar, traces_to_json(mat))
    if not mat.consistent:
        sys.stderr.write(
            f"warning: store is inconsistent ({len(mat.violations)} violations); "
            "run `check` for the report\n"
        )
    return ExitStatus.SUCCESS


def _cmd_check(args: argparse.Namespace) -> int:
    mat = _closure(args.file)
    if mat.consistent:
        sys.stdout.write("consistent: no disjointness violations\n")
        return ExitStatus.SUCCESS
    sys.stdout.write(f"inconsistent: {len(mat.violations)} violation(s)\n")
    compact = mat.base.compact
    for v in mat.violations:
        sys.stdout.write(
            f"{compact(v.individual)} {compact(v.class_a)} {compact(v.class_b)} [{v.rule.value}]\n"
        )
    return ExitStatus.INCONSISTENT


def _cmd_query(args: argparse.Namespace) -> int:
    mat = _closure(args.file)
    # Both --text and --arg resolve CURIEs against the store's own prefixes.
    if args.text is not None:
        # The library warns; the CLI reports each warning as one line.
        with warnings.catch_warnings(record=True) as caught, _input("<query>"):
            warnings.simplefilter("always")
            query = parse_query(args.text, mat.base.prefixes)
        for message in dict.fromkeys(str(w.message) for w in caught):
            sys.stderr.write(f"warning: {message}\n")
        result = evaluate(query, mat)
    else:
        arg = mat.base.resolve(args.arg) if args.arg else None
        result = canned_query(args.ask, mat, arg)
    sys.stdout.write(result.to_json() if args.format == "json" else result.to_tsv())
    return ExitStatus.SUCCESS


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    with _input(args.doc):
        doc = parse_framework_document(_read(args.doc))
    with _input(args.config):
        config = parse_config(_read(args.config))
    result, record = run_iteration(store, doc, config)
    saturated = detect_saturation([record], args.saturation_threshold)[0]
    record = record._replace(saturated=saturated)
    _emit(_serialize_store(result, args.out), args.out)
    if args.report is not None:
        _atomic_write(args.report, canonical_json(record.as_dict()))
    sys.stderr.write(
        f"ingested {store.compact(doc.id)}: iteration {record.iteration_index}, "
        f"axioms {record.before.axiom_count} -> {record.after.axiom_count} "
        f"(+{record.increment})\n"
    )
    return ExitStatus.SUCCESS


def _cmd_metrics(args: argparse.Namespace) -> int:
    store = _load_store(args.file)
    report = compute_metrics(store)
    if args.format == "json":
        sys.stdout.write(canonical_json(report.as_dict()))
    else:
        sys.stdout.write(report.as_table() + "\n")
    return ExitStatus.SUCCESS


def _cmd_export(args: argparse.Namespace) -> int:
    mat = _closure(args.file)
    graph = export_graph(mat, DetailLevel(args.level))
    rendered = render_dot(graph) if args.format == "dot" else render_json(graph)
    _emit(rendered, args.out)
    return ExitStatus.SUCCESS


def _cmd_diff(args: argparse.Namespace) -> int:
    before = _load_store(args.before)
    after = _load_store(args.after)
    old, new = before.axioms, after.axioms
    added = sorted_axioms(new - old)
    removed = sorted_axioms(old - new)
    text = TermText(before)
    for ax in removed:
        sys.stdout.write(f"- {axiom_line(before, ax, text)}\n")
    text = TermText(after)
    for ax in added:
        sys.stdout.write(f"+ {axiom_line(after, ax, text)}\n")
    mb, ma = compute_metrics(before).as_dict(), compute_metrics(after).as_dict()
    for key in sorted(mb):
        delta = ma[key] - mb[key]
        sys.stdout.write(f"{key}: {mb[key]} -> {ma[key]} ({delta:+d})\n")
    return ExitStatus.SUCCESS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aieo", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("seed", help="write the bundled seed schema")
    p.add_argument("--out", help="output file (.ttl or .json); default stdout")
    p.set_defaults(func=_cmd_seed)

    p = sub.add_parser("parse", help="validate a store file and print its metrics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_metrics, format="table")

    p = sub.add_parser("reason", help="materialize inferences and emit the closed store")
    p.add_argument("file")
    p.add_argument("--out", help="output file; default stdout")
    p.add_argument(
        "--trace", action="store_true",
        help="also write a JSON sidecar with one trace per inferred fact",
    )
    p.set_defaults(func=_cmd_reason)

    p = sub.add_parser("check", help="run the consistency check (exit 3 on violations)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("query", help="evaluate a query over the materialized store")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="query text: SELECT [DISTINCT] ?v ... WHERE { ... }")
    group.add_argument("--ask", choices=CANNED_QUERY_NAMES, help="canned query name")
    p.add_argument("--arg", help="concept or framework IRI for canned queries")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("ingest", help="run one pipeline iteration over a framework document")
    p.add_argument("store")
    p.add_argument("doc")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", help="output store file; default stdout")
    p.add_argument("--report", help="write the IterationRecord JSON here")
    p.add_argument(
        "--saturation-threshold", type=float, default=0.05,
        help="relative-increment ratio below which the iteration counts as saturated",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("metrics", help="print store metrics")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("export", help="render the store as a knowledge graph")
    p.add_argument("file")
    p.add_argument("--level", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--out", help="output file; default stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("diff", help="axiom additions/removals and metric deltas")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(func=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit status as a plain int, which prints
    alike on every Python version (an IntEnum member does not before 3.11).

    The cyclic garbage collector is paused for the command and switched back
    on afterwards only if it was on. Stores and closures hold no reference
    cycles (facts are tuples of IRIs), so its passes over every tracked
    ``Iri`` and axiom find nothing; the only cyclic garbage a command leaves
    is argparse's parser, the same size for every store."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "reason" and args.trace and args.out is None:
        sys.stderr.write("error: --trace needs --out to name the sidecar file\n")
        return int(ExitStatus.PARSE_ERROR)
    try:
        return int(args.func(args))
    except _InputError as exc:
        sys.stderr.write(f"{exc}\n")
        return int(exc.status)
    except ParseError as exc:
        sys.stderr.write(f"{exc}\n")
        return int(ExitStatus.PARSE_ERROR)
    except (AieoError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return int(ExitStatus.VALIDATION_ERROR)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return int(ExitStatus.IO_ERROR)
    except Exception as exc:  # a fault in aieo itself: one line, no traceback
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return int(ExitStatus.INTERNAL_ERROR)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
