"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from aieo.cli import ExitStatus, main
from aieo.model import ClassAssertion, EntityKind, ObjectPropertyAssertion
from aieo.schema import aieo, seed_schema
from aieo.turtle import serialize_turtle

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
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


def test_parse_prints_metrics_table(run, seed_file):
    code, out, _ = run("parse", seed_file)
    assert code == 0
    assert "65" in out  # total axiom count of the bundled schema
    code2, out2, _ = run("metrics", seed_file)
    assert code2 == 0 and out2 == out


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
    assert out == "" and err == "1:1: error: document nested too deeply\n"


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
    assert out == "" and err.startswith("error: ") and "reserved predicate" in err
    assert "Traceback" not in err


def test_parse_schema_violation_exits_validation_error(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"axioms": [{"kind": "Nope"}]}')
    code, _, err = run("parse", str(path))
    assert code == ExitStatus.VALIDATION_ERROR == 2
    assert "$.axioms[0]" in err


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


def test_query_json_format(run, seed_file):
    code, out, _ = run(
        "query", seed_file, "--format", "json",
        "--text", "SELECT ?c WHERE { ?c a owl:Class }",
    )
    assert code == 0
    assert len(json.loads(out)) == 19


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


def test_canned_query_resolves_curie_argument(run, tmp_path):
    store = seed_schema()
    for name in ("fair", "hiring"):
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("useCase"), aieo("hiring")))
    path = _write_store(tmp_path, store)
    code, out, _ = run("query", path, "--ask", "scenarios_for", "--arg", "aieo:fair")
    assert code == 0
    assert out == "?scenario\nhttps://w3id.org/aieo#hiring\n"


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
