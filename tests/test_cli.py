"""End-to-end tests for the command-line interface."""

import collections
import contextlib
import copy
import errno
import gc
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from aieo import cli
from aieo.cli import ExitStatus, main
from aieo.jsonio import parse_config, parse_framework_document, store_to_json
from aieo.model import (
    ClassAssertion,
    EntityKind,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
)
from aieo.pipeline import detect_saturation, run_iteration
from aieo.query import PRINCIPLES_BY_FRAMEWORK_QUERY
from aieo.schema import aieo, seed_schema
from aieo.turtle import serialize_turtle

from oracles import random_store

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        # An internal fault exits 1 as a parse error does; keep the two apart.
        assert "error: internal error:" not in captured.err
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def seed_file(tmp_path, run):
    path = tmp_path / "seed.ttl"
    code, _, _ = run("seed", "--out", str(path))
    assert code == 0
    return str(path)


def _write_store(tmp_path, store, name="store.ttl"):
    path = tmp_path / name
    path.write_text(serialize_turtle(store), encoding="utf-8")
    return str(path)


def _inconsistent_store(tmp_path):
    store = seed_schema()
    store.declare(aieo("x"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("x")))
    store.add(ClassAssertion(aieo("Principle"), aieo("x")))
    return _write_store(tmp_path, store, "bad.ttl")


# ---------------------------------------------------------------------------
# seed / parse / metrics
# ---------------------------------------------------------------------------


def test_seed_writes_turtle_to_stdout(run):
    code, out, _ = run("seed")
    assert code == ExitStatus.SUCCESS == 0
    assert out.startswith("@prefix")
    assert out == serialize_turtle(seed_schema())


def test_seed_out_extension_picks_json(run, tmp_path):
    path = tmp_path / "seed.json"
    code, out, _ = run("seed", "--out", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert set(doc) == {"prefixes", "axioms"}


def test_seed_is_deterministic(run, tmp_path):
    a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
    run("seed", "--out", str(a))
    run("seed", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", ["seed.ttl", "seed.json", "random.json"])
def test_parse_prints_metrics_table(run, tmp_path, name):
    store = random_store(3) if name.startswith("random") else seed_schema()
    path = tmp_path / name
    path.write_text(store_to_json(store) if name.endswith(".json") else serialize_turtle(store),
                    encoding="utf-8")
    parsed = run("parse", str(path))
    assert parsed == run("metrics", str(path), "--format", "table")
    code, out, _ = parsed
    assert code == 0 and out
    assert name.startswith("random") or "65" in out  # total axiom count of the bundled schema


def test_parse_missing_file_is_io_error(run, tmp_path):
    code, _, err = run("parse", str(tmp_path / "absent.ttl"))
    assert code == ExitStatus.IO_ERROR == 4
    assert "error:" in err


def test_parse_bad_turtle_reports_position(run, tmp_path):
    path = tmp_path / "bad.ttl"
    path.write_text("@prefix aieo: <https://w3id.org/aieo#> .\nnonsense here\n")
    code, _, err = run("parse", str(path))
    assert code == ExitStatus.PARSE_ERROR == 1
    assert "2:" in err


def test_parse_bad_json_exits_parse_error(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"axioms": [')
    code, _, _ = run("parse", str(path))
    assert code == 1


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_deeply_nested_json_exits_parse_error(run, tmp_path, opener):
    path = tmp_path / "deep.json"
    path.write_text(opener * 200_000)
    code, out, err = run("metrics", str(path))
    assert code == ExitStatus.PARSE_ERROR
    assert out == "" and err == f"{path}:1:1: error: document nested too deeply\n"


def test_an_integer_too_long_for_int_exits_parse_error(run, tmp_path):
    path = tmp_path / "huge.json"
    limit = sys.get_int_max_str_digits()
    path.write_text('{"axioms": [\n  1' + "0" * limit + "]}")
    code, out, err = run("parse", str(path))
    assert code == ExitStatus.PARSE_ERROR
    assert out == "" and err == f"{path}:2:3: error: integer longer than {limit} digits\n"


_NOTE_TURTLE = """\
@prefix ex: <https://example.org/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
ex:A a owl:Class .
ex:B a owl:Class .
ex:note a owl:AnnotationProperty .
ex:A ex:note ex:B .
"""
_NOTE_JSON = json.dumps({"prefixes": {"ex": "https://example.org/"}, "axioms": [
    {"kind": "Declaration", "iri": "ex:A", "entityKind": "OwlClass"},
    {"kind": "Declaration", "iri": "ex:B", "entityKind": "OwlClass"},
    {"kind": "Declaration", "iri": "ex:note", "entityKind": "AnnotationProperty"},
    {"kind": "ObjectPropertyAssertion", "subject": "ex:A", "prop": "ex:note", "object": "ex:B"},
]})


@pytest.mark.parametrize("name,text", [("note.ttl", _NOTE_TURTLE), ("note.json", _NOTE_JSON)],
                         ids=["turtle", "json"])
def test_a_kind_fault_exits_with_one_message_for_both_formats(run, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run("parse", str(path))
    assert code == ExitStatus.VALIDATION_ERROR
    assert out == "" and err == (
        f"{path}: error: https://example.org/note is declared as AnnotationProperty; "
        "ObjectPropertyAssertion requires ObjectProperty\n"
    )


_SWAP_VALUES = (None, True, 0, -1, 2.5, "", "x", "aieo:x", [], ["x", 1], {}, {"a": None})


def _json_sites(value):
    """Every (container, key) of a parsed JSON value, nested ones included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from _json_sites(item)


def _damage(rng: random.Random, doc):
    """The document with one or two values deleted or swapped for another
    JSON type."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        sites = list(_json_sites(doc))
        if not sites:
            break
        container, key = rng.choice(sites)
        if rng.random() < 0.5:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(_SWAP_VALUES))
    return doc


def test_damaged_json_inputs_exit_with_a_documented_status(run, tmp_path):
    store, doc, config = (tmp_path / name for name in ("store.json", "doc.json", "config.json"))
    assert run("seed", "--out", str(store))[0] == 0
    bases = {
        store: json.loads(store.read_text()),
        doc: json.loads((DATA / "au_framework.json").read_text()),
        config: json.loads((DATA / "pipeline_config.json").read_text()),
    }
    ingest = ("ingest", str(store), str(doc), "--config", str(config),
              "--out", str(tmp_path / "out.json"))
    rng = random.Random(404)
    codes = set()
    for n in range(180):
        for path, base in bases.items():
            path.write_text(json.dumps(base))
        damaged = list(bases)[n % 3]
        damaged.write_text(json.dumps(_damage(rng, bases[damaged])))
        code, _, _ = run("parse", str(store)) if damaged is store else run(*ingest)
        assert code in (0, 1, 2), (damaged.name, damaged.read_text())
        codes.add(code)
    assert codes == {0, 2}


# Byte strings a damaged Turtle file may gain: directives, blank node
# labels, a carriage return, a byte that is not UTF-8, a numeral that is
# no digit, and the punctuation of the grammar.
_TURTLE_SNIPPETS = (b"@prefix ", b"@prefix x: <https://e/> .\n", b"_:", b"\r", b"\xff",
                    "\u00b2".encode(), b"<", b">", b'"', b"\\", b".", b";", b",", b":",
                    b"#", b" ", b"\n", b"a", b"x:", b"@", b"^^", b"[", b"(")


def _damage_bytes(rng: random.Random, data: bytes) -> bytes:
    """The bytes with one to three edits: an insert of a snippet, a delete
    of a short run, or one byte swapped for another."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        roll = rng.random()
        if roll < 0.4:
            data = data[:at] + rng.choice(_TURTLE_SNIPPETS) + data[at:]
        elif roll < 0.7:
            data = data[:at] + data[at + rng.randint(1, 8):]
        else:  # any byte, or the first byte of a snippet
            byte = rng.choice((bytes([rng.randrange(256)]), rng.choice(_TURTLE_SNIPPETS)[:1]))
            data = data[:at] + byte + data[at + 1:]
    return data


def test_damaged_turtle_inputs_exit_with_a_documented_status(run, tmp_path):
    # A framework the same as a principle: inconsistent, so check exits 3.
    store = seed_schema()
    for name, cls in (("x", "Principle"), ("y", "Framework"), ("z", "Requirement")):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(aieo(cls), aieo(name)))
    store.add(SameIndividual(aieo("x"), aieo("y")))
    base = serialize_turtle(store).encode()
    path, out = tmp_path / "store.ttl", str(tmp_path / "out.ttl")
    commands = (("parse",), ("check",), ("export", "--level", "3", "--format", "json"),
                ("reason", "--out", out))
    rng = random.Random(21)
    codes = collections.Counter()
    for _ in range(200):
        path.write_bytes(_damage_bytes(rng, base))
        for command, *options in commands:
            code, _, err = run(command, str(path), *options)
            assert code in (0, 1, 2, 3, 4), (command, path.read_bytes())
            assert "Traceback" not in err, (command, path.read_bytes())
            codes[code] += 1
    assert set(codes) == {0, 1, 2, 3}, codes


@pytest.mark.parametrize("name,text", [
    ("sameas.ttl", "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                   "owl:sameAs a owl:ObjectProperty .\n"),
    ("type.json", '{"axioms": [{"kind": "Declaration", "iri": "rdf:type", '
                  '"entityKind": "AnnotationProperty"}]}'),
])
def test_declaring_a_structural_predicate_exits_validation_error(run, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run("parse", str(path))
    assert code == ExitStatus.VALIDATION_ERROR
    assert out == "" and err.startswith(f"{path}: error: ") and "reserved predicate" in err
    assert "Traceback" not in err


def _with_bad_byte(source: Path, target: Path) -> None:
    """Copy ``source`` to ``target`` with "é" and then byte 0xff put at the
    start of its third line, so the bad byte is at line 3, column 2."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[2] = "é".encode() + b"\xff" + lines[2]
    target.write_bytes(b"".join(lines))


_BAD_BYTE_ERROR = "3:2: error: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize("name", ["store.ttl", "store.json"])
def test_non_utf8_store_exits_parse_error(run, tmp_path, name):
    good = tmp_path / f"good{Path(name).suffix}"
    assert run("seed", "--out", str(good))[0] == 0
    _with_bad_byte(good, tmp_path / name)
    code, out, err = run("parse", str(tmp_path / name))
    assert code == ExitStatus.PARSE_ERROR
    assert out == "" and err == f"{tmp_path / name}:{_BAD_BYTE_ERROR}"


@pytest.mark.parametrize("bad", ["doc", "config"])
def test_non_utf8_ingest_input_exits_parse_error(run, seed_file, tmp_path, bad):
    paths = {"doc": DATA / "au_framework.json", "config": DATA / "pipeline_config.json"}
    _with_bad_byte(paths[bad], tmp_path / "bad.json")
    paths[bad] = tmp_path / "bad.json"
    code, _, err = run(
        "ingest", seed_file, str(paths["doc"]), "--config", str(paths["config"]),
        "--out", str(tmp_path / "out.ttl"),
    )
    assert code == ExitStatus.PARSE_ERROR
    assert err == f"{paths[bad]}:{_BAD_BYTE_ERROR}"
    assert not (tmp_path / "out.ttl").exists()


def test_parse_schema_violation_exits_validation_error(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"axioms": [{"kind": "Nope"}]}')
    code, _, err = run("parse", str(path))
    assert code == ExitStatus.VALIDATION_ERROR == 2
    assert "$.axioms[0]" in err


def test_json_store_the_turtle_writer_cannot_write_exits_validation_error(run, tmp_path):
    # A carriage return would be written into the Turtle IRI, and the file
    # reader takes it for a line break.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"axioms": [
        {"kind": "Declaration", "iri": "https://e/a\rb", "entityKind": "OwlClass"}
    ]}))
    code, _, err = run("reason", str(path), "--out", str(tmp_path / "out.ttl"))
    assert code == ExitStatus.VALIDATION_ERROR
    assert "$.axioms[0].iri" in err
    assert not (tmp_path / "out.ttl").exists()


def test_metrics_json_format(run, seed_file):
    code, out, _ = run("metrics", seed_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["classCount"] == 19
    assert report["axiomCount"] == 65


# ---------------------------------------------------------------------------
# reason / check
# ---------------------------------------------------------------------------


def _principle_store(tmp_path):
    store = seed_schema()
    for name in ("fw", "fair"):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    return _write_store(tmp_path, store)


def test_reason_emits_closed_store(run, tmp_path):
    code, out, err = run("reason", _principle_store(tmp_path))
    assert code == 0 and err == ""
    # fair was typed by the range axiom of aieo:principle
    assert "aieo:fair a owl:NamedIndividual, aieo:Principle ." in out


def test_reason_trace_sidecar(run, tmp_path):
    out_path = tmp_path / "closed.ttl"
    code, _, _ = run("reason", _principle_store(tmp_path), "--out", str(out_path),
                     "--trace")
    assert code == 0
    sidecar = tmp_path / "closed.trace.json"
    entries = json.loads(sidecar.read_text())
    assert entries and all({"conclusion", "traces"} == set(e) for e in entries)


def test_reason_trace_requires_out(run, tmp_path):
    code, _, err = run("reason", _principle_store(tmp_path), "--trace")
    assert code == 1
    assert "--trace needs --out" in err


def test_reason_is_byte_deterministic(run, tmp_path):
    src = _principle_store(tmp_path)
    a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
    run("reason", src, "--out", str(a), "--trace")
    run("reason", src, "--out", str(b), "--trace")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.trace.json").read_bytes() == (
        tmp_path / "b.trace.json"
    ).read_bytes()


def test_reason_warns_but_succeeds_on_inconsistency(run, tmp_path):
    code, out, err = run("reason", _inconsistent_store(tmp_path))
    assert code == 0
    assert "warning: store is inconsistent (1 violations)" in err
    assert "aieo:x" in out


def test_check_consistent(run, seed_file):
    code, out, _ = run("check", seed_file)
    assert code == 0
    assert out == "consistent: no disjointness violations\n"


def test_check_inconsistent_exits_3(run, tmp_path):
    code, out, _ = run("check", _inconsistent_store(tmp_path))
    assert code == ExitStatus.INCONSISTENT == 3
    lines = out.splitlines()
    assert lines[0] == "inconsistent: 1 violation(s)"
    assert lines[1] == "aieo:x aieo:Framework aieo:Principle [D1_DisjointTyping]"


def test_check_verdict_survives_reasoning(run, tmp_path):
    # materializing an inconsistent store and checking the closure agrees
    src = _inconsistent_store(tmp_path)
    closed = tmp_path / "closed.ttl"
    run("reason", src, "--out", str(closed))
    code_direct, out_direct, _ = run("check", src)
    code_closed, out_closed, _ = run("check", str(closed))
    assert code_direct == code_closed == 3
    assert out_direct.splitlines()[0] == out_closed.splitlines()[0]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_text_tsv(run, tmp_path):
    store = seed_schema()
    for name in ("fw", "fair"):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    path = _write_store(tmp_path, store)
    code, out, _ = run(
        "query", path, "--text",
        "SELECT ?f ?p WHERE { ?f a aieo:Framework . ?f aieo:principle ?p }",
    )
    assert code == 0
    assert out == (
        "?f\t?p\n"
        "https://w3id.org/aieo#fw\thttps://w3id.org/aieo#fair\n"
    )


def test_query_disconnected_pattern_warns_in_one_stderr_line(run, tmp_path):
    store = seed_schema()
    for name in ("fw", "fair"):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ClassAssertion(aieo("Principle"), aieo("fair")))
    path = _write_store(tmp_path, store)
    code, out, err = run(
        "query", path, "--text",
        "SELECT ?x WHERE { ?x a aieo:Principle . ?y a aieo:Framework }",
    )
    assert code == 0
    assert out == "?x\nhttps://w3id.org/aieo#fair\n"
    assert err == (
        "warning: pattern shares no variable with the projection or any other "
        "pattern; result is a cartesian product\n"
    )


def test_query_json_format(run, seed_file):
    code, out, _ = run(
        "query", seed_file, "--format", "json",
        "--text", "SELECT ?c WHERE { ?c a owl:Class }",
    )
    assert code == 0
    assert len(json.loads(out)) == 19


def test_an_iri_holding_a_tab_exits_parse_error_before_any_row(run, tmp_path):
    # A tab in an IRI would split its TSV field in two.
    path = tmp_path / "tab.ttl"
    path.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "<https://e/a\tb> a owl:Class .\n<https://e/c> a owl:Class .\n"
    )
    code, out, err = run(
        "query", str(path), "--text", "SELECT ?x ?y WHERE { ?x a owl:Class . ?y a owl:Class }"
    )
    assert (code, out) == (ExitStatus.PARSE_ERROR, "")
    assert err == f"{path}:2:1: error: an IRI cannot contain '>', a tab or a line break\n"


def test_a_parse_error_names_its_input(run, tmp_path, seed_file):
    # The same bad IRI at line 2 of the store and of the query text.
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                   "<https://e/a\tb> a owl:Class .\n")
    query = "SELECT ?x WHERE {\n  ?x a <https://e/a\tb> }"
    message = "error: an IRI cannot contain '>', a tab or a line break\n"
    assert run("query", str(bad), "--text", query) == (1, "", f"{bad}:2:1: {message}")
    assert run("query", seed_file, "--text", query) == (1, "", f"<query>:2:8: {message}")
    for argv in (("diff", seed_file, str(bad)), ("diff", str(bad), seed_file),
                 ("ingest", str(bad), str(DATA / "au_framework.json"),
                  "--config", str(DATA / "pipeline_config.json"))):
        assert run(*argv) == (1, "", f"{bad}:2:1: {message}"), argv


def test_a_validation_error_names_its_input(run, tmp_path, seed_file):
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix ex: <https://example.org/> .\nex:a ex:p ex:b .\n")
    doc, config = str(DATA / "au_framework.json"), str(DATA / "pipeline_config.json")
    message = "error: https://example.org/p is not declared\n"
    for argv in (("diff", seed_file, str(bad)), ("diff", str(bad), seed_file),
                 ("parse", str(bad)), ("ingest", str(bad), doc, "--config", config)):
        assert run(*argv) == (2, "", f"{bad}: {message}"), argv
    store = tmp_path / "store.json"
    store.write_text('{"axioms": [{"kind": "Declaration", "iri": 5, "entityKind": "Class"}]}')
    assert run("metrics", str(store)) == (
        2, "", f"{store}: error: $.axioms[0].iri: expected str\n")
    bad_doc, bad_config = tmp_path / "doc.json", tmp_path / "config.json"
    bad_doc.write_text('{"id": 5}')
    bad_config.write_text('{"x": 1}')
    assert run("ingest", seed_file, str(bad_doc), "--config", config) == (
        2, "", f"{bad_doc}: error: $.id: expected str\n")
    assert run("ingest", seed_file, doc, "--config", str(bad_config)) == (
        2, "", f"{bad_config}: error: $.x: unknown field\n")
    # An error of no single input keeps the plain prefix.
    first = tmp_path / "au.ttl"
    assert run("ingest", seed_file, doc, "--config", config, "--out", str(first))[0] == 0
    code, out, err = run("ingest", str(first), doc, "--config", config)
    assert (code, out) == (2, "") and err.startswith("error: ") and "already ingested" in err


# Text a damaged query may gain: keywords, terms, the punctuation of the
# grammar, and constructs outside the query subset.
_QUERY_SNIPPETS = ("SELECT ", "DISTINCT ", "WHERE ", "FILTER ", "?", "?x", "{", "}", ".",
                   ";", ",", '"', "@en", "^^", "<", ">", "<https://e/a>", ":", "aieo:",
                   "nope:", "a", "owl:Class", " ", "\n", "\t", "\r", "#", "\\", "[", "(",
                   "_:b", "\u00b2")


def _damage_text(rng: random.Random, text: str) -> str:
    """The text with one or two edits: an insert of a snippet, a delete
    of a short run, or one character swapped for another."""
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(_QUERY_SNIPPETS) + text[at:]
        elif roll < 0.7:
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            char = rng.choice((chr(rng.randrange(0x20, 0x3000)), rng.choice(_QUERY_SNIPPETS)[:1]))
            text = text[:at] + char + text[at + 1:]
    return text


def test_damaged_query_text_exits_with_a_documented_status(run, seed_file, tmp_path):
    queries = (
        PRINCIPLES_BY_FRAMEWORK_QUERY,
        "SELECT ?x WHERE { ?x a owl:Class }",
        'SELECT DISTINCT ?sub ?sup WHERE {\n  ?sub rdfs:subClassOf ?sup . # c\n'
        '  ?sup a owl:Class . ?sup rdfs:label "Requirements"\n}',
    )
    rng = random.Random(26)
    codes = collections.Counter()
    for n in range(200):
        text = _damage_text(rng, queries[n % len(queries)])
        code, _, err = run("query", seed_file, f"--text={text}")
        assert code in (0, 1, 2), text
        if code == 1:
            assert err.startswith("<query>:") and err.count("\n") == 1, (text, err)
        codes[code] += 1
    assert set(codes) >= {0, 1}, codes
    # A damaged --arg is not parsed: it names no individual, or no IRI at all.
    for _ in range(40):
        arg = _damage_text(rng, "aieo:Principle")
        code, _, err = run("query", seed_file, "--ask", "scenarios_for", f"--arg={arg}")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (arg, err)
    # Both inputs damaged: the store is read first, so it is the one named.
    bad = tmp_path / "bad.ttl"
    bad.write_text("aieo:x")
    code, out, err = run("query", str(bad), "--text", "SELECT ?x WHERE { ?x a nope:C ")
    assert (code, out) == (1, "") and err.startswith(f"{bad}:1:")


def test_query_bad_text_exits_parse_error(run, seed_file):
    code, _, err = run("query", seed_file, "--text", "SELECT bogus")
    assert code == 1 and "1:" in err


def test_query_unsupported_keyword_exits_parse_error(run, seed_file):
    code, _, err = run(
        "query", seed_file, "--text",
        "SELECT ?x WHERE { ?x a aieo:Framework . FILTER (?x) }",
    )
    assert code == 1
    assert "outside the query subset" in err


def test_query_requires_text_or_ask(run, seed_file):
    code, _, _ = run("query", seed_file)
    assert code == 1


def test_query_rejects_unknown_canned_name(run, seed_file):
    code, _, _ = run("query", seed_file, "--ask", "everything")
    assert code == 1


def test_canned_query_without_argument_exits_validation_error(run, seed_file):
    code, _, err = run("query", seed_file, "--ask", "describe_concept")
    assert code == 2
    assert "needs a concept IRI" in err


def test_every_exit_status_is_a_plain_int(run, tmp_path, seed_file):
    # str() of an IntEnum member is its name before Python 3.11.
    bad = tmp_path / "bad.ttl"
    bad.write_text("aieo:x", encoding="utf-8")
    for argv, status in [
        (("parse", str(bad)), 1),
        (("reason", seed_file, "--trace"), 1),
        (("query", seed_file, "--ask", "describe_concept"), 2),
        (("parse", str(tmp_path / "missing.ttl")), 4),
        (("check", seed_file), 0),
    ]:
        code, _, _ = run(*argv)
        assert (type(code), code) == (int, status), argv


def test_internal_error_is_one_stderr_line(seed_file, monkeypatch, capsys):
    def fault(args):
        raise RuntimeError("index out of step")

    monkeypatch.setattr(cli, "_cmd_metrics", fault)
    code = main(["metrics", seed_file])
    out, err = capsys.readouterr()
    assert (type(code), code) == (int, 1)
    assert out == ""
    assert err == "error: internal error: RuntimeError: index out of step\n"
    assert "Traceback" not in err


def test_canned_query_argument_that_is_no_iri_exits_validation_error(run, seed_file):
    code, _, err = run("query", seed_file, "--ask", "describe_concept", "--arg", "https://e/a\rb")
    assert code == ExitStatus.VALIDATION_ERROR
    assert err == "error: an IRI cannot contain '>', a tab or a line break\n"
    code, _, err = run("query", seed_file, "--ask", "describe_concept", "--arg", "https://e/a\tb")
    assert code == ExitStatus.VALIDATION_ERROR
    assert err == "error: an IRI cannot contain '>', a tab or a line break\n"


def test_canned_query_resolves_curie_argument(run, tmp_path):
    store = seed_schema()
    for name in ("fair", "hiring"):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("useCase"), aieo("hiring")))
    path = _write_store(tmp_path, store)
    code, out, _ = run("query", path, "--ask", "scenarios_for", "--arg", "aieo:fair")
    assert code == 0
    assert out == "?scenario\nhttps://w3id.org/aieo#hiring\n"


@pytest.mark.parametrize("links, lines", [
    ('aieo:x aieo:scenario aieo:loans .\naieo:x aieo:application "hiring" , "hiring"@en , "audit" .',
     ["https://w3id.org/aieo#loans", '"audit"', '"hiring"', '"hiring"@en']),
    ('aieo:x aieo:application "hiring"@en , "hiring" .', ['"hiring"', '"hiring"@en']),
])
def test_scenarios_for_with_literal_scenarios(run, tmp_path, links, lines):
    # aieo:application is an annotation property here, so a concept's
    # scenarios mix IRIs and literals: IRIs come first, then literals in
    # term order.
    path = tmp_path / "mixed.ttl"
    path.write_text(
        "@prefix aieo: <https://w3id.org/aieo#> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "aieo:application a owl:AnnotationProperty .\n"
        "aieo:scenario a owl:ObjectProperty .\n"
        "aieo:x a owl:NamedIndividual .\n"
        "aieo:loans a owl:NamedIndividual .\n"
        f"{links}\n",
        encoding="utf-8",
    )
    code, out, _ = run("query", str(path), "--ask", "scenarios_for", "--arg", "aieo:x")
    assert code == 0
    assert out.splitlines() == ["?scenario", *lines]


def test_query_flags_resolve_against_the_store_prefixes_only(run, tmp_path):
    # A store without prefixes: neither flag falls back to the standard map.
    store = OntologyStore()
    store.declare(aieo("Principle"), EntityKind.OWL_CLASS)
    store.declare(aieo("c1"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Principle"), aieo("c1")))
    path = tmp_path / "bare.json"
    path.write_text(store_to_json(store), encoding="utf-8")
    code, out, err = run("query", str(path), "--text", "SELECT ?x WHERE { ?x a aieo:Principle }")
    assert (code, out, err) == (1, "", "<query>:1:24: error: unknown prefix 'aieo:'\n")
    code, out, err = run("query", str(path), "--ask", "scenarios_for", "--arg", "aieo:c1")
    assert (code, out, err) == (2, "", "error: aieo:c1 is not a declared individual\n")
    code, out, _ = run("query", str(path), "--text",
                       "SELECT ?x WHERE { ?x a <https://w3id.org/aieo#Principle> }")
    assert (code, out) == (0, "?x\nhttps://w3id.org/aieo#c1\n")
    code, out, _ = run("query", str(path), "--ask", "scenarios_for",
                       "--arg", "https://w3id.org/aieo#c1")
    assert (code, out) == (0, "?scenario\n")


def test_canned_query_principles_by_framework(run, tmp_path):
    code, out, _ = run("query", _principle_store(tmp_path),
                       "--ask", "principles_by_framework")
    assert code == 0
    assert out.splitlines() == [
        "?framework\t?principle",
        "https://w3id.org/aieo#fw\thttps://w3id.org/aieo#fair",
    ]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_full_run(run, seed_file, tmp_path):
    out_path = tmp_path / "au.ttl"
    report_path = tmp_path / "report.json"
    code, out, err = run(
        "ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"),
        "--out", str(out_path), "--report", str(report_path),
    )
    assert code == 0 and out == ""
    assert err.startswith("ingested aieo:AU: iteration 1, axioms 65 -> ")
    report = json.loads(report_path.read_text())
    assert set(report) == {"iterationIndex", "before", "after", "increment", "saturated"}
    assert report["iterationIndex"] == 1
    assert report["increment"] > 0
    assert report["saturated"] is False  # a first framework is a large jump
    code2, out2, _ = run("check", str(out_path))
    assert code2 == 0 and "consistent" in out2


def test_ingest_saturation_threshold_flag(run, seed_file, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        "ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"),
        "--out", str(tmp_path / "au.ttl"), "--report", str(report_path),
        "--saturation-threshold", "100",
    )
    assert code == 0
    assert json.loads(report_path.read_text())["saturated"] is True


def test_ingest_nan_saturation_threshold_exits_validation_error(run, seed_file, tmp_path):
    code, _, err = run(
        "ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"),
        "--out", str(tmp_path / "au.ttl"), "--saturation-threshold", "nan",
    )
    assert code == ExitStatus.VALIDATION_ERROR
    assert err == "error: saturation threshold must be > 0\n"
    assert not (tmp_path / "au.ttl").exists()


def test_ingest_duplicate_fails_atomically(run, seed_file, tmp_path):
    first = tmp_path / "au.ttl"
    run("ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(first))
    second = tmp_path / "again.ttl"
    code, _, err = run(
        "ingest", str(first), str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(second),
    )
    assert code == 2
    assert "already ingested" in err
    assert not second.exists()
    assert not list(tmp_path.glob(".aieo-tmp-*"))  # no temp litter either


def test_ingest_rejects_concept_names_with_one_iri(run, seed_file, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "id": "aieo:ZH",
        "title": "zh",
        "conceptDeclarations": [
            {"name": "a b", "kind": "Principle"},
            {"name": "a-b", "kind": "Requirement"},
        ],
    }))
    out = tmp_path / "zh.ttl"
    code, _, err = run(
        "ingest", seed_file, str(doc),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(out),
    )
    assert code == 2
    assert "both map to https://w3id.org/aieo#ZH_a_b" in err
    assert not out.exists()


def test_ingest_rejects_an_unknown_concept_kind_at_its_declaration(run, seed_file, tmp_path):
    doc = json.loads((DATA / "au_framework.json").read_text())
    doc["conceptDeclarations"][2]["kind"] = "Bogus"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "au.ttl"
    code, _, err = run(
        "ingest", seed_file, str(path),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(out),
    )
    assert code == ExitStatus.VALIDATION_ERROR
    assert err.startswith(f"{path}: error: $.conceptDeclarations[2]: concept kind must be one of ")
    assert err.endswith(", got 'Bogus'\n")
    assert not out.exists()


def test_ingest_rejects_a_huge_integer_threshold(run, seed_file, tmp_path):
    config = tmp_path / "big.json"
    config.write_text('{"threshold": 1' + "0" * 400 + "}")
    out = tmp_path / "au.ttl"
    code, _, err = run(
        "ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(config), "--out", str(out),
    )
    assert code == ExitStatus.VALIDATION_ERROR
    assert err == f"{config}: error: $.threshold: threshold must be in (0, 1]\n"
    assert not out.exists()


def test_ingest_requires_config(run, seed_file, tmp_path):
    code, _, _ = run("ingest", seed_file, str(DATA / "au_framework.json"))
    assert code == 1


def test_ingest_two_frameworks_merges_confirmed_pairs(run, seed_file, tmp_path):
    mid, out = tmp_path / "au.ttl", tmp_path / "both.ttl"
    run("ingest", seed_file, str(DATA / "au_framework.json"),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(mid))
    code, _, err = run(
        "ingest", str(mid), str(DATA / "eu_framework.json"),
        "--config", str(DATA / "pipeline_config.json"), "--out", str(out),
    )
    assert code == 0
    assert "iteration 2" in err
    text = out.read_text()
    assert "owl:sameAs" in text


def test_ingest_adds_only_io_to_run_iteration(run, seed_file, tmp_path):
    cfg = parse_config((DATA / "pipeline_config.json").read_text())
    store, previous = seed_schema(), seed_file
    for name in ("au", "eu"):
        doc_path = DATA / f"{name}_framework.json"
        store, record = run_iteration(store, parse_framework_document(doc_path.read_text()), cfg)
        out, report = tmp_path / f"{name}.ttl", tmp_path / f"{name}.json"
        code, _, _ = run(
            "ingest", previous, str(doc_path), "--config", str(DATA / "pipeline_config.json"),
            "--out", str(out), "--report", str(report),
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == serialize_turtle(store)
        saturated = detect_saturation([record], 0.05)[0]
        assert json.loads(report.read_text()) == {**record.as_dict(), "saturated": saturated}
        previous = str(out)


# ---------------------------------------------------------------------------
# export / diff
# ---------------------------------------------------------------------------


def test_export_dot_to_stdout(run, seed_file):
    code, out, _ = run("export", seed_file, "--level", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph aieo {")
    assert out.count("shape=box") == 19


def test_export_json_to_file(run, seed_file, tmp_path):
    path = tmp_path / "graph.json"
    code, _, _ = run("export", seed_file, "--level", "3", "--format", "json",
                     "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"nodes", "edges"}


def test_export_gives_a_node_whose_curie_is_another_iri_its_full_iri(run, tmp_path):
    path = tmp_path / "clash.ttl"
    path.write_text(
        "@prefix ex: <https://e/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "ex:a a owl:Class .\n"
        "<ex:a> a owl:Class .\n",
        encoding="utf-8",
    )
    code, out, err = run("export", str(path), "--level", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert [n["id"] for n in json.loads(out)["nodes"]] == ["ex:a", "https://e/a"]


def test_export_rejects_bad_level(run, seed_file):
    code, _, _ = run("export", seed_file, "--level", "4", "--format", "dot")
    assert code == 1


def test_export_requires_level_and_format(run, seed_file):
    assert run("export", seed_file, "--format", "dot")[0] == 1
    assert run("export", seed_file, "--level", "1")[0] == 1


def test_diff_reports_additions_and_deltas(run, seed_file, tmp_path):
    grown = seed_schema()
    grown.declare(aieo("fw"), EntityKind.NAMED_INDIVIDUAL)
    grown.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    grown_path = _write_store(tmp_path, grown, "grown.ttl")
    code, out, _ = run("diff", seed_file, grown_path)
    assert code == 0
    lines = out.splitlines()
    assert "+ aieo:fw a owl:NamedIndividual ." in lines
    assert "+ aieo:fw a aieo:Framework ." in lines
    assert not any(line.startswith("- ") for line in lines)
    assert "axiomCount: 65 -> 67 (+2)" in lines
    assert "individualCount: 0 -> 1 (+1)" in lines


def test_diff_reports_removals(run, seed_file, tmp_path):
    grown = seed_schema()
    grown.declare(aieo("fw"), EntityKind.NAMED_INDIVIDUAL)
    grown.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    grown_path = _write_store(tmp_path, grown, "grown.ttl")
    code, out, _ = run("diff", grown_path, seed_file)
    assert code == 0
    lines = out.splitlines()
    assert "- aieo:fw a aieo:Framework ." in lines
    assert not any(line.startswith("+ ") for line in lines)
    assert "axiomCount: 67 -> 65 (-2)" in lines


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(run):
    assert run()[0] == 1


def test_unknown_subcommand_is_usage_error(run):
    assert run("frobnicate")[0] == 1


def test_write_to_missing_directory_is_io_error(run, tmp_path):
    code, _, err = run("seed", "--out", str(tmp_path / "nodir" / "x.ttl"))
    assert code == 4
    assert "error:" in err


def _io_error(number: int, path: str) -> str:
    return f"error: [Errno {number}] {os.strerror(number)}: '{path}'\n"


def test_an_unwritable_out_names_the_output_as_given(run, seed_file, tmp_path, monkeypatch):
    missing = str(tmp_path / "nodir" / "x.json")
    assert run("export", seed_file, "--level", "2", "--format", "json", "--out", missing) == (
        4, "", _io_error(errno.ENOENT, missing))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    assert run("seed", "--out", "d") == (4, "", _io_error(errno.EISDIR, "d"))
    assert not list((tmp_path / "d").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "seed.ttl"]  # no temp file


def test_an_unwritable_trace_sidecar_names_it(run, seed_file, tmp_path):
    sidecar = tmp_path / "closed.trace.json"
    sidecar.mkdir()
    out = str(tmp_path / "closed.ttl")
    assert run("reason", seed_file, "--out", out, "--trace") == (
        4, "", _io_error(errno.EISDIR, str(sidecar)))
    assert not list(tmp_path.glob(".aieo-tmp-*"))


def test_an_unwritable_report_names_it(run, seed_file, tmp_path):
    report = str(tmp_path / "nodir" / "report.json")
    code, _, err = run("ingest", seed_file, str(DATA / "au_framework.json"),
                       "--config", str(DATA / "pipeline_config.json"),
                       "--out", str(tmp_path / "au.ttl"), "--report", report)
    assert (code, err) == (4, _io_error(errno.ENOENT, report))
    assert not list(tmp_path.glob(".aieo-tmp-*"))


# ---------------------------------------------------------------------------
# output file modes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def _mode(path):
    return os.stat(path).st_mode & 0o777


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)],
                         ids=["022", "027", "077"])
def test_new_out_files_get_the_mode_open_gives(run, tmp_path, mask, mode):
    closed = tmp_path / "closed.ttl"
    with _umask(mask):
        assert run("seed", "--out", str(tmp_path / "seed.ttl"))[0] == 0
        assert run("reason", str(tmp_path / "seed.ttl"), "--out", str(closed), "--trace")[0] == 0
    assert _mode(tmp_path / "seed.ttl") == mode
    assert _mode(closed) == _mode(tmp_path / "closed.trace.json") == mode


def test_rewritten_out_files_keep_their_mode(run, seed_file, tmp_path):
    out, report = tmp_path / "au.ttl", tmp_path / "au.json"
    for path in (out, report):
        path.write_text("old\n", encoding="utf-8")
        path.chmod(0o604)
    with _umask(0o077):
        code, _, _ = run("ingest", seed_file, str(DATA / "au_framework.json"),
                         "--config", str(DATA / "pipeline_config.json"),
                         "--out", str(out), "--report", str(report))
    assert code == 0
    assert out.read_text(encoding="utf-8") != "old\n"
    assert _mode(out) == _mode(report) == 0o604


def test_output_written_in_slices_has_the_bytes_of_the_whole_text(monkeypatch, tmp_path):
    text = "é\n€ab" * 5 + "𝒜\n"  # slices of 3 characters end on characters of 2-4 bytes
    monkeypatch.setattr(cli, "_WRITE_SLICE", 3)
    for size in (0, 1, 3, len(text)):
        cli._atomic_write(str(tmp_path / "out.txt"), text[:size])
        assert (tmp_path / "out.txt").read_bytes() == text[:size].encode("utf-8")


@pytest.mark.parametrize("via_symlink", [False, True], ids=["fifo", "symlink"])
def test_out_to_a_fifo_writes_into_it_and_keeps_it(run, tmp_path, via_symlink):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    out = fifo
    if via_symlink:
        out = tmp_path / "link"
        out.symlink_to(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code, stdout, _ = run("seed", "--out", str(out))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, stdout) == (0, "")
    assert received == [serialize_turtle(seed_schema()).encode("utf-8")]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert out.is_symlink() == via_symlink
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"pipe", out.name})


# ---------------------------------------------------------------------------
# the cyclic garbage collector
# ---------------------------------------------------------------------------


@pytest.fixture
def collector():
    """Puts the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_every_exit_path_restores_the_collector_state(
    enabled, collector, tmp_path, seed_file, monkeypatch, capsys
):
    broken = tmp_path / "broken.ttl"
    broken.write_text("aieo:x", encoding="utf-8")

    seen = []

    def fault(args):
        seen.append(gc.isenabled())
        raise RuntimeError("index out of step")

    monkeypatch.setattr(cli, "_cmd_diff", fault)
    for argv, status, err_start in [
        (("seed",), 0, ""),
        (("parse", str(broken)), 1, f"{broken}:1:"),
        (("frobnicate",), 1, "usage:"),  # SystemExit inside parse_args
        (("reason", seed_file, "--trace"), 1, "error: --trace needs --out"),
        (("query", seed_file, "--ask", "describe_concept"), 2, "error:"),
        (("check", _inconsistent_store(tmp_path)), 3, ""),
        (("parse", str(tmp_path / "missing.ttl")), 4, "error:"),
        (("diff", seed_file, seed_file), 1, "error: internal error: RuntimeError"),
    ]:
        (gc.enable if enabled else gc.disable)()
        code = main(list(argv))
        assert gc.isenabled() is enabled, argv
        assert code == status, argv
        assert capsys.readouterr().err.startswith(err_start), argv
    assert seen == [False]  # the command itself ran with the collector paused


def _cyclic_garbage(argv):
    """The number of unreachable objects one command leaves for the collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_a_commands_cyclic_garbage_does_not_grow_with_the_store(tmp_path):
    # What main leaves while the collector is paused must not scale with the
    # store: facts are tuples of IRIs, so only argparse's parser is cyclic.
    small = random_store(1)
    large = random_store(1, max_individuals=100, max_assertions=400)
    assert 3.5 < len(large.axioms) / len(small.axioms) < 5
    counts = []
    for name, store in (("small", small), ("large", large)):
        (tmp_path / name).mkdir()
        src = _write_store(tmp_path / name, store)
        closed = str(tmp_path / name / "closed.ttl")
        counts.append([_cyclic_garbage(argv) for argv in (
            ["reason", src, "--out", closed, "--trace"],
            ["check", src],
            ["export", src, "--level", "3", "--format", "json"],
            ["diff", src, closed],
        )])
    assert counts[0] == counts[1]
    assert all(counts[0])  # the parser's cycles are there to be counted


# ---------------------------------------------------------------------------
# determinism across hash seeds
# ---------------------------------------------------------------------------

# Runs each command of the JSON list in argv[1] through main(), in order,
# and writes its stdout, stderr and exit code to <n>.out, <n>.err, <n>.code.
_TOUR_DRIVER = """
import contextlib, io, json, sys
from aieo.cli import main
for n, argv in enumerate(json.loads(sys.argv[1])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    for suffix, text in (("out", out.getvalue()), ("err", err.getvalue()), ("code", str(code))):
        with open(f"{n}.{suffix}", "w", encoding="utf-8") as f:
            f.write(text)
"""

_TOUR = [
    ["seed", "--out", "seed.ttl"],
    ["ingest", "seed.ttl", str(DATA / "au_framework.json"),
     "--config", str(DATA / "pipeline_config.json"), "--out", "au.ttl", "--report", "au.json"],
    ["ingest", "au.ttl", str(DATA / "eu_framework.json"),
     "--config", str(DATA / "pipeline_config.json"), "--out", "full.ttl", "--report", "eu.json"],
    ["reason", "full.ttl", "--out", "closed.ttl", "--trace"],
    ["export", "closed.ttl", "--level", "3", "--format", "json", "--out", "graph.json"],
    ["query", "full.ttl", "--text", "SELECT ?c ?p WHERE { ?c owl:sameAs ?d . ?c ?p ?d }"],
    ["query", "closed.ttl", "--ask", "describe_concept", "--arg", "aieo:AU_Fairness"],
    ["diff", "seed.ttl", "closed.ttl"],
    ["export", "closed.ttl", "--level", "1", "--format", "dot", "--out", "graph.dot"],
    ["export", "full.ttl", "--level", "2", "--format", "json", "--out", "graph2.json"],
    ["parse", "bad.ttl"],
]


def _run_tour(directory: Path, hash_seed: str) -> dict[str, bytes]:
    directory.mkdir()
    (directory / "bad.ttl").write_text(
        "@prefix ex: <https://example.org/> .\nex:a ex:p ex:b , 42 .\n", encoding="utf-8"
    )
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    subprocess.run(
        [sys.executable, "-c", _TOUR_DRIVER, json.dumps(_TOUR)],
        cwd=directory, env=env, check=True, timeout=300,
    )
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_tour_is_byte_identical_under_two_hash_seeds(tmp_path):
    first = _run_tour(tmp_path / "seed1", "1")
    second = _run_tour(tmp_path / "seed2", "2")
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
    assert {"closed.trace.json", "graph.json", "graph.dot", "graph2.json", "au.json",
            "eu.json"} <= first.keys()
    codes = [int(first[f"{n}.code"]) for n in range(len(_TOUR))]
    assert codes == [0] * (len(_TOUR) - 1) + [1]
    assert b"numeric literals are not supported" in first[f"{len(_TOUR) - 1}.err"]
    assert first["6.out"].count(b"\n") > 1 and first["5.out"].count(b"\n") > 1
