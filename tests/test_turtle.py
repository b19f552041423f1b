from __future__ import annotations

import pytest

from aieo.errors import KindMismatch, ParseError, UndeclaredEntity, UnsupportedFeature
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
)
from aieo.schema import RDFS_LABEL, aieo, seed_schema
from aieo.turtle import axiom_line, parse_turtle, serialize_turtle

from oracles import random_small_store, random_store

HEADER = """\
@prefix aieo: <https://w3id.org/aieo#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
"""


def test_seed_round_trips():
    store = seed_schema()
    again = parse_turtle(serialize_turtle(store))
    assert again.axioms == store.axioms
    assert again.prefixes == store.prefixes


@pytest.mark.parametrize("seed", range(15))
def test_random_stores_round_trip(seed):
    for store in (random_store(seed, schema_mutations=(seed % 2 == 0)), random_small_store(seed)):
        assert parse_turtle(serialize_turtle(store)).axioms == store.axioms


def test_serialize_is_byte_deterministic():
    store = random_store(4)
    assert serialize_turtle(store) == serialize_turtle(store.copy())
    assert serialize_turtle(store).endswith("\n")
    assert "\r" not in serialize_turtle(store)


def test_statement_lists_and_object_lists_parse():
    text = HEADER + """
rdfs:label rdf:type owl:AnnotationProperty .
aieo:Framework rdf:type owl:Class .
aieo:Principle rdf:type owl:Class .
aieo:f rdf:type owl:NamedIndividual , aieo:Framework ;
    rdfs:label "framework one" .
"""
    store = parse_turtle(text)
    assert ClassAssertion(aieo("Framework"), aieo("f")) in store.axioms
    assert AnnotationAssertion(
        aieo("f"), RDFS_LABEL, AnnotationValue("framework one")
    ) in store.axioms


def test_language_tagged_literal_round_trips():
    store = OntologyStore({"ex": "https://example.org/", "rdfs": "http://www.w3.org/2000/01/rdf-schema#"})
    store.declare(RDFS_LABEL, EntityKind.ANNOTATION_PROPERTY)
    store.declare(Iri("https://example.org/x"), EntityKind.NAMED_INDIVIDUAL)
    store.add(
        AnnotationAssertion(
            Iri("https://example.org/x"), RDFS_LABEL, AnnotationValue("Stufe", "de")
        )
    )
    text = serialize_turtle(store)
    assert '"Stufe"@de' in text
    assert parse_turtle(text).axioms == store.axioms


def test_literal_escapes_round_trip():
    tricky = 'say "hi"\\twice\nplease'
    store = OntologyStore({"ex": "https://example.org/", "rdfs": "http://www.w3.org/2000/01/rdf-schema#"})
    store.declare(RDFS_LABEL, EntityKind.ANNOTATION_PROPERTY)
    store.declare(Iri("https://example.org/x"), EntityKind.NAMED_INDIVIDUAL)
    store.add(
        AnnotationAssertion(
            Iri("https://example.org/x"), RDFS_LABEL, AnnotationValue(tricky)
        )
    )
    roundtripped = parse_turtle(serialize_turtle(store))
    [ann] = roundtripped.axioms_of(AnnotationAssertion)
    assert ann.value.text == tricky


def test_unknown_prefix_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_turtle(HEADER + "\nmissing:x rdf:type owl:NamedIndividual .\n")
    diag = err.value.diagnostics[0]
    assert diag.line == 6
    assert "missing" in diag.message


def test_diagnostics_carry_position():
    with pytest.raises(ParseError) as err:
        parse_turtle(HEADER + "\naieo:x rdf:type\n")
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.severity) == (7, "error")
    assert str(diag).startswith("7:")


@pytest.mark.parametrize(
    "snippet",
    [
        "aieo:x rdf:type [ rdf:type owl:Class ] .",
        "aieo:x aieo:p ( aieo:y aieo:z ) .",
        'aieo:x rdfs:label "v"^^<http://www.w3.org/2001/XMLSchema#string> .',
        "@base <https://example.org/> .",
        "_:b rdf:type owl:Class .",
        "aieo:x aieo:p 42 .",
        "aieo:x aieo:p true .",
        'aieo:x rdfs:label """block""" .',
        "PREFIX aieo: <https://w3id.org/aieo#>",
    ],
)
def test_constructs_outside_subset_are_rejected_with_position(snippet):
    with pytest.raises(UnsupportedFeature) as err:
        parse_turtle(HEADER + "\n" + snippet + "\n")
    assert err.value.diagnostics[0].line >= 1


def test_undeclared_subject_fails_validation():
    with pytest.raises(UndeclaredEntity):
        parse_turtle(HEADER + "\naieo:ghost rdf:type aieo:Framework .\n")


def test_object_property_used_as_annotation_is_kind_mismatch():
    text = HEADER + """
aieo:keyword rdf:type owl:ObjectProperty .
aieo:x rdf:type owl:NamedIndividual .
aieo:x aieo:keyword "literal value" .
"""
    with pytest.raises(KindMismatch):
        parse_turtle(text)


def test_serialized_output_is_sorted_and_grouped():
    store = seed_schema()
    text = serialize_turtle(store)
    lines = text.splitlines()
    prefix_lines = [l for l in lines if l.startswith("@prefix")]
    assert prefix_lines == sorted(prefix_lines)
    # one blank line separates the preamble from the body
    assert lines[len(prefix_lines)] == ""
    # subjects appear once, i.e. statements are grouped into blocks
    subjects = [l.split()[0] for l in lines if l and not l.startswith(("@", " "))]
    assert subjects == sorted(set(subjects), key=subjects.index)
    assert len(subjects) == len(set(subjects))


def test_axiom_line_is_a_single_statement():
    store = seed_schema()
    line = axiom_line(store, ClassAssertion(aieo("Framework"), aieo("Framework")))
    assert line == "aieo:Framework a aieo:Framework ."
    same = axiom_line(store, SameIndividual(aieo("b"), aieo("a")))
    assert same == "aieo:a owl:sameAs aieo:b ."


def test_parse_rejects_garbage_after_statement():
    with pytest.raises(ParseError):
        parse_turtle(HEADER + "\naieo:x rdf:type owl:Class . trailing\n")


def test_round_trip_preserves_object_property_assertions():
    store = seed_schema()
    store.declare(aieo("f"), EntityKind.NAMED_INDIVIDUAL)
    store.declare(aieo("k"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ObjectPropertyAssertion(aieo("f"), aieo("keyword"), aieo("k")))
    again = parse_turtle(serialize_turtle(store))
    assert ObjectPropertyAssertion(aieo("f"), aieo("keyword"), aieo("k")) in again.axioms
