"""Tests for the JSON interchange, document, config, and trace forms."""

import json
from pathlib import Path

import pytest

from aieo.errors import ParseError, SchemaViolation
from aieo.jsonio import (
    axiom_to_obj,
    parse_config,
    parse_framework_document,
    store_from_json,
    store_to_json,
    traces_to_json,
)
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    Declaration,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
)
from aieo.pipeline import run_iteration
from aieo.reasoner import materialize
from aieo.schema import aieo, seed_schema

from oracles import random_small_store, random_store

DATA = Path(__file__).resolve().parent.parent / "data"


def _stores_equal(a, b):
    return (
        set(a.axioms) == set(b.axioms)
        and a.prefixes == b.prefixes
        and {k: a.kind_of(k) for k in a.declared()} == {k: b.kind_of(k) for k in b.declared()}
    )


# ---------------------------------------------------------------------------
# Store interchange
# ---------------------------------------------------------------------------


def test_seed_round_trip():
    store = seed_schema()
    assert _stores_equal(store_from_json(store_to_json(store)), store)


def test_random_round_trips():
    for seed in range(10):
        for store in (random_store(seed), random_small_store(seed)):
            recovered = store_from_json(store_to_json(store))
            assert _stores_equal(recovered, store), seed


def test_serialization_is_deterministic():
    store = seed_schema()
    text = store_to_json(store)
    assert text == store_to_json(store.copy())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"prefixes", "axioms"}


def test_declaration_object_shape():
    obj = axiom_to_obj(Declaration(aieo("Framework"), EntityKind.OWL_CLASS))
    assert obj == {
        "kind": "Declaration",
        "iri": "https://w3id.org/aieo#Framework",
        "entityKind": "OwlClass",
    }


def test_annotation_object_shape():
    plain = axiom_to_obj(
        AnnotationAssertion(aieo("x"), aieo("reference"), AnnotationValue("ch. 1"))
    )
    assert plain["annProp"] == "https://w3id.org/aieo#reference"
    assert plain["value"] == {"text": "ch. 1"}
    tagged = axiom_to_obj(
        AnnotationAssertion(aieo("x"), aieo("reference"), AnnotationValue("hi", "en"))
    )
    assert tagged["value"] == {"text": "hi", "languageTag": "en"}


def _doc_with_axioms(*axioms, prefixes=None):
    return json.dumps({"prefixes": prefixes or {}, "axioms": list(axioms)})


def test_curie_and_bare_name_resolution():
    text = _doc_with_axioms(
        {"kind": "Declaration", "iri": "ex:A", "entityKind": "OwlClass"},
        {"kind": "Declaration", "iri": "Framework", "entityKind": "OwlClass"},
        {"kind": "Declaration", "iri": "https://other.org/x", "entityKind": "OwlClass"},
        prefixes={"ex": "http://example.org/"},
    )
    store = store_from_json(text)
    declared = set(store.declared(EntityKind.OWL_CLASS))
    assert declared == {
        Iri("http://example.org/A"),
        aieo("Framework"),  # bare names land in the ontology namespace
        Iri("https://other.org/x"),  # unknown scheme-like prefixes pass through
    }


def test_axiom_order_in_file_does_not_matter():
    text = _doc_with_axioms(
        {"kind": "ClassAssertion", "cls": "aieo:Framework", "ind": "aieo:fw"},
        {"kind": "Declaration", "iri": "aieo:Framework", "entityKind": "OwlClass"},
        {"kind": "Declaration", "iri": "aieo:fw", "entityKind": "NamedIndividual"},
    )
    store = store_from_json(text)
    assert ClassAssertion(aieo("Framework"), aieo("fw")) in store.axioms


def test_bad_json_reports_position():
    with pytest.raises(ParseError) as exc:
        store_from_json('{"prefixes": {}\n "axioms": []}')
    assert exc.value.diagnostics[0].line == 2


@pytest.mark.parametrize(
    "doc,path",
    [
        ("[]", "$"),
        ('{"extra": 1}', "$.extra"),
        ('{"axioms": [[]]}', "$.axioms[0]"),
        ('{"axioms": [{"kind": "Nope"}]}', "$.axioms[0].kind"),
        ('{"axioms": [{"kind": "SubClassOf", "sub": "A"}]}', "$.axioms[0].sup"),
        ('{"axioms": [{"kind": "SubClassOf", "sub": "A", "sup": "B", "x": 1}]}',
         "$.axioms[0].x"),
        ('{"axioms": [{"kind": "Declaration", "iri": "A", "entityKind": "Class"}]}',
         "$.axioms[0].entityKind"),
        ('{"axioms": [{"kind": "Declaration", "iri": "", "entityKind": "OwlClass"}]}',
         "$.axioms[0].iri"),
        ('{"axioms": {}}', "$.axioms"),
        ('{"prefixes": {"ex": ""}}', "$.prefixes.ex"),
        ('{"axioms": [{"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",'
         ' "value": {"text": 5}}]}', "$.axioms[0].value.text"),
    ],
)
def test_schema_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as exc:
        store_from_json(doc)
    assert exc.value.field_name == path


def test_degenerate_axioms_become_schema_violations():
    same = _doc_with_axioms({"kind": "DisjointClasses", "a": "A", "b": "A"})
    with pytest.raises(SchemaViolation):
        store_from_json(same)
    single = _doc_with_axioms({"kind": "EquivalentClasses", "classes": ["A"]})
    with pytest.raises(SchemaViolation):
        store_from_json(single)


# ---------------------------------------------------------------------------
# Framework documents
# ---------------------------------------------------------------------------


def test_parse_framework_document_full():
    doc = parse_framework_document(json.dumps({
        "id": "aieo:AU",
        "title": "A framework",
        "sections": [{"heading": "Scope", "body": "Risk."}],
        "conceptDeclarations": [
            {"name": "Fairness", "kind": "Principle",
             "shortDescription": "be fair", "reference": "p. 1"},
            {"name": "Safety", "kind": "Requirement"},
        ],
    }))
    assert doc.id == aieo("AU")
    assert doc.sections[0].body == "Risk."
    assert doc.concept_declarations[0].short_description == "be fair"
    assert doc.concept_declarations[1].reference is None


def test_parse_framework_document_minimal():
    doc = parse_framework_document('{"id": "aieo:X", "title": ""}')
    assert doc.sections == () and doc.concept_declarations == ()


@pytest.mark.parametrize(
    "doc,path",
    [
        ('{"title": "x"}', "$.id"),
        ('{"id": "aieo:X", "title": "x", "body": "y"}', "$.body"),
        ('{"id": "aieo:X", "title": "x", "sections": [{"heading": "h"}]}',
         "$.sections[0].body"),
        ('{"id": "aieo:X", "title": "x", "conceptDeclarations": [{"kind": "Principle"}]}',
         "$.conceptDeclarations[0].name"),
        ('{"id": "aieo:X", "title": "x", "conceptDeclarations": '
         '[{"name": "", "kind": "Principle"}]}', "$.conceptDeclarations[0]"),
    ],
)
def test_framework_document_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as exc:
        parse_framework_document(doc)
    assert exc.value.field_name == path


def test_framework_document_duplicate_concepts_rejected():
    with pytest.raises(SchemaViolation, match="duplicate concept name"):
        parse_framework_document(json.dumps({
            "id": "aieo:X",
            "title": "x",
            "conceptDeclarations": [
                {"name": "Fairness", "kind": "Principle"},
                {"name": "Fairness", "kind": "Requirement"},
            ],
        }))


# ---------------------------------------------------------------------------
# Pipeline config
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config("{}")
    assert cfg.extraction.top_k == 10
    assert cfg.classification.entries == {}
    assert cfg.confirmations == ()
    assert cfg.threshold == 0.5


def test_parse_config_full():
    cfg = parse_config(json.dumps({
        "extraction": {"stopwords": ["The", "and"], "minTokenLength": 4,
                       "topK": 5, "relevantTopK": 2},
        "classificationMap": {"risk": "Risk_keyword"},
        "confirmations": [{"left": "aieo:a", "right": "aieo:b"}],
        "threshold": 0.7,
    }))
    assert cfg.extraction.stopwords == frozenset({"the", "and"})
    assert cfg.extraction.top_k == 5
    assert cfg.classification.entries == {"risk": aieo("Risk_keyword")}
    assert cfg.confirmations == (frozenset((aieo("a"), aieo("b"))),)
    assert cfg.threshold == 0.7


@pytest.mark.parametrize(
    "doc,path",
    [
        ('{"threshold": true}', "$.threshold"),
        ('{"threshold": 0}', "$.threshold"),
        ('{"extraction": {"minTokenLength": true}}', "$.extraction.minTokenLength"),
        ('{"extraction": {"topK": 0}}', "$.extraction"),
        ('{"classificationMap": {"risk": "Principle"}}', "$.classificationMap"),
        ('{"confirmations": [{"left": "a", "right": "a"}]}', "$.confirmations[0]"),
        ('{"confirmations": [{"left": "a"}]}', "$.confirmations[0].right"),
        ('{"unknown": 1}', "$.unknown"),
        ('{"framework": {"id": "aieo:X", "title": "t"}}', "$.framework"),
    ],
)
def test_parse_config_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as exc:
        parse_config(doc)
    assert exc.value.field_name == path


def test_shipped_sample_files_parse_and_ingest():
    au = parse_framework_document((DATA / "au_framework.json").read_text())
    eu = parse_framework_document((DATA / "eu_framework.json").read_text())
    cfg = parse_config((DATA / "pipeline_config.json").read_text())
    assert len(au.concept_declarations) == 8
    assert len(eu.concept_declarations) == 14
    store, rec1 = run_iteration(
        seed_schema(), au, cfg.extraction, cfg.classification,
        cfg.confirmations, threshold=cfg.threshold,
    )
    store, rec2 = run_iteration(
        store, eu, cfg.extraction, cfg.classification,
        cfg.confirmations, threshold=cfg.threshold,
    )
    assert rec1.increment > 0 and rec2.increment > 0
    assert materialize(store).consistent


# ---------------------------------------------------------------------------
# Trace sidecar
# ---------------------------------------------------------------------------


def test_traces_json_shape():
    store = seed_schema()
    store.declare(aieo("fw"), EntityKind.NAMED_INDIVIDUAL)
    store.declare(aieo("fair"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    mat = materialize(store)
    entries = json.loads(traces_to_json(mat))
    assert len(entries) == len(mat.inferred)
    by_kind = {
        (e["conclusion"]["kind"], e["conclusion"].get("cls", "")): e for e in entries
    }
    typed = by_kind[("ClassAssertion", str(aieo("Principle")))]
    assert typed["traces"][0]["rule"] == "R1_RangeTyping"
    assert [p["kind"] for p in typed["traces"][0]["premises"]] == [
        "ObjectPropertyAssertion",
        "ObjectPropertyRange",
    ]


def test_traces_json_is_deterministic_and_sorted():
    store = random_store(5)
    a = traces_to_json(materialize(store))
    b = traces_to_json(materialize(store.copy()))
    assert a == b
    conclusions = [json.dumps(e["conclusion"]) for e in json.loads(a)]
    assert len(conclusions) == len(set(conclusions))


def test_traces_json_empty():
    assert traces_to_json(materialize(seed_schema())) == "[]\n"
