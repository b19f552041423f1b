"""Command-line interface: seed, parse, reason, check, query, ingest,
metrics, export, diff.

Results go to stdout, diagnostics to stderr; the exit code is the machine
signal (0 ok, 1 usage/parse, 2 validation, 3 inconsistent, 4 I/O). Output
files are written atomically (temp file + rename) so failures never leave
partial files behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from enum import IntEnum
from pathlib import Path

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
from .reasoner import materialize
from .schema import seed_schema
from .turtle import TermText, axiom_line, parse_turtle, serialize_turtle


class ExitStatus(IntEnum):
    SUCCESS = 0
    PARSE_ERROR = 1
    VALIDATION_ERROR = 2
    INCONSISTENT = 3
    IO_ERROR = 4


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


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=".aieo-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _load_store(path: str) -> OntologyStore:
    text = _read(path)
    if path.endswith(".json"):
        return store_from_json(text)
    return parse_turtle(text)


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


def _cmd_parse(args: argparse.Namespace) -> int:
    store = _load_store(args.file)
    store.require_valid()
    sys.stdout.write(compute_metrics(store).as_table() + "\n")
    return ExitStatus.SUCCESS


def _cmd_reason(args: argparse.Namespace) -> int:
    store = _load_store(args.file)
    mat = materialize(store)
    closed = store.copy().update(mat.inferred)
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
    store = _load_store(args.file)
    mat = materialize(store)
    if mat.consistent:
        sys.stdout.write("consistent: no disjointness violations\n")
        return ExitStatus.SUCCESS
    sys.stdout.write(f"inconsistent: {len(mat.violations)} violation(s)\n")
    for v in mat.violations:
        sys.stdout.write(
            f"{store.compact(v.individual)} {store.compact(v.class_a)} "
            f"{store.compact(v.class_b)} [{v.rule.value}]\n"
        )
    return ExitStatus.INCONSISTENT


def _cmd_query(args: argparse.Namespace) -> int:
    store = _load_store(args.file)
    mat = materialize(store)
    if args.text is not None:
        prefixes = dict(store.prefixes) or None
        # The library warns; the CLI reports each warning as one line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            query = parse_query(args.text, prefixes)
        for message in dict.fromkeys(str(w.message) for w in caught):
            sys.stderr.write(f"warning: {message}\n")
        result = evaluate(query, mat)
    else:
        arg = store.resolve(args.arg) if args.arg else None
        result = canned_query(args.ask, mat, arg)
    sys.stdout.write(result.to_json() if args.format == "json" else result.to_tsv())
    return ExitStatus.SUCCESS


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    doc = parse_framework_document(_read(args.doc))
    cfg = parse_config(_read(args.config))
    result, record = run_iteration(
        store,
        doc,
        cfg.extraction,
        cfg.classification,
        cfg.confirmations,
        threshold=cfg.threshold,
    )
    record_dict = record.as_dict()
    record_dict["saturated"] = detect_saturation([record], args.saturation_threshold)[0]
    _emit(_serialize_store(result, args.out), args.out)
    if args.report is not None:
        _atomic_write(args.report, canonical_json(record_dict))
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
    store = _load_store(args.file)
    mat = materialize(store)
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
    p.set_defaults(func=_cmd_parse)

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "reason" and args.trace and args.out is None:
        sys.stderr.write("error: --trace needs --out to name the sidecar file\n")
        return ExitStatus.PARSE_ERROR
    try:
        return int(args.func(args))
    except ParseError as exc:  # includes UnsupportedFeature
        for diag in exc.diagnostics:
            sys.stderr.write(f"{diag}\n")
        return ExitStatus.PARSE_ERROR
    except (AieoError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return ExitStatus.VALIDATION_ERROR
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return ExitStatus.IO_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
