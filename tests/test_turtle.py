from __future__ import annotations

import json
import random

import pytest

from aieo.errors import KindMismatch, ParseError, UndeclaredEntity, UnsupportedFeature
from aieo.jsonio import store_from_json, store_to_json
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
)
from aieo.schema import RDFS_LABEL, aieo, seed_schema
from aieo.turtle import TermText, axiom_line, parse_turtle, serialize_turtle

from oracles import (
    random_linked_store,
    random_small_store,
    random_store,
    reference_axiom_line,
    reference_axiom_obj,
    reference_parse_turtle,
    reference_serialize_turtle,
    with_prefixes,
)

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
    tricky = 'say "hi"\\twice\nplease\r\n\tand\ttabs'
    store = OntologyStore({"ex": "https://example.org/", "rdfs": "http://www.w3.org/2000/01/rdf-schema#"})
    store.declare(RDFS_LABEL, EntityKind.ANNOTATION_PROPERTY)
    store.declare(Iri("https://example.org/x"), EntityKind.NAMED_INDIVIDUAL)
    store.add(
        AnnotationAssertion(
            Iri("https://example.org/x"), RDFS_LABEL, AnnotationValue(tricky)
        )
    )
    text = serialize_turtle(store)
    assert r'rdfs:label "say \"hi\"\\twice\nplease\r\n\tand\ttabs" .' in text
    roundtripped = parse_turtle(text)
    [ann] = roundtripped.axioms_of(AnnotationAssertion)
    assert ann.value.text == tricky


def test_unknown_prefix_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_turtle(HEADER + "\nmissing:x rdf:type owl:NamedIndividual .\n")
    assert err.value.line == 6
    assert "missing" in err.value.message


@pytest.mark.parametrize("text, position", [
    ("<https://e/x> <https://e/p>\n  <https://e/a\rb> .", (2, 3)),
    ("@prefix ex: <https://e/\r> .\nex:a a owl:Class .", (1, 13)),
])
def test_a_carriage_return_in_an_iri_is_a_positioned_error(text, position):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert (err.value.line, err.value.column) == position
    assert err.value.message == "an IRI cannot contain '>', a tab or a line break"


def test_diagnostics_carry_position():
    with pytest.raises(ParseError) as err:
        parse_turtle(HEADER + "\naieo:x rdf:type\n")
    assert err.value.line == 7
    assert str(err.value) == "7:1: error: expected an object"


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
    assert err.value.line >= 1


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


_FAULTS = {
    "undeclared": ("aieo:x a aieo:Ghost .", UndeclaredEntity),
    "mismatch": ("aieo:x a aieo:x .", KindMismatch),
    "degenerate": ("aieo:x owl:sameAs aieo:x .", ParseError),
    "undeclared-predicate": ("aieo:x aieo:nothing aieo:x .", UndeclaredEntity),
    "literal-predicate": ('aieo:x aieo:keyword "v" .', KindMismatch),
}


@pytest.mark.parametrize("first", sorted(_FAULTS))
@pytest.mark.parametrize("second", sorted(_FAULTS))
def test_the_first_faulty_statement_gives_the_error(first, second):
    """Statements are read in file order, whether the fault is found while
    the triple is mapped to an axiom or while the axiom is added."""
    text = HEADER + (
        "aieo:x a owl:NamedIndividual .\naieo:ok a owl:NamedIndividual .\n"
        "aieo:Framework a owl:Class .\naieo:keyword a owl:ObjectProperty .\n"
    )
    body = f"{_FAULTS[first][0]}\naieo:ok a aieo:Framework .\n{_FAULTS[second][0]}\n"
    with pytest.raises(_FAULTS[first][1]) as err:
        parse_turtle(text + body)
    with pytest.raises(_FAULTS[first][1]) as alone:
        parse_turtle(text + _FAULTS[first][0] + "\n")
    assert str(err.value).split(": ", 1)[-1] == str(alone.value).split(": ", 1)[-1]


_PLANTED = Iri("https://example.org/planted/")


def _planted_fault(rng: random.Random, store: OntologyStore, fault: str):
    """One property assertion that ``store`` rejects for the kind of its
    predicate; ``store`` gets the (valid) declarations the fault names."""
    kinds = {kind: Iri(f"{_PLANTED}{kind.name}") for kind in EntityKind}
    for kind, iri in kinds.items():
        store.declare(iri, kind)
    entities = store.declared()
    s, o = rng.choice(entities), rng.choice(entities)
    if fault == "undeclared-predicate":
        return ObjectPropertyAssertion(s, Iri(f"{_PLANTED}nothing"), o)
    if fault == "annotation-property-with-iri":
        return ObjectPropertyAssertion(s, kinds[EntityKind.ANNOTATION_PROPERTY], o)
    if fault == "object-property-with-literal":
        prop = kinds[EntityKind.OBJECT_PROPERTY]
        return AnnotationAssertion(s, prop, AnnotationValue(f"v{rng.randint(0, 9)}"))
    if fault == "class-as-predicate":
        return ObjectPropertyAssertion(s, rng.choice(store.declared(EntityKind.OWL_CLASS)), o)
    bad = rng.choice((EntityKind.ANNOTATION_PROPERTY, EntityKind.OWL_CLASS))  # undeclared subject
    return ObjectPropertyAssertion(Iri(f"{_PLANTED}ghost"), kinds[bad], o)


@pytest.mark.parametrize("fault", [
    "undeclared-predicate", "annotation-property-with-iri", "object-property-with-literal",
    "class-as-predicate", "undeclared-subject-under-bad-predicate",
])
@pytest.mark.parametrize("seed", range(8))
def test_a_kind_fault_reads_the_same_in_turtle_and_json(seed, fault):
    """The store, not the reader, reports a wrong-kind or undeclared entity:
    both forms of one faulty store raise one error, and it names the
    predicate, which is checked before the subject and object."""
    rng = random.Random(seed)
    for store in (random_store(seed), random_linked_store(seed), random_small_store(seed)):
        ax = _planted_fault(rng, store, fault)
        lines = serialize_turtle(store).splitlines()
        ends = [n for n, line in enumerate(lines) if line.endswith(" .")]
        lines.insert(rng.choice(ends) + 1, reference_axiom_line(store, ax))
        doc = json.loads(store_to_json(store))
        doc["axioms"].insert(rng.randint(0, len(doc["axioms"])), reference_axiom_obj(ax))
        errors = []
        for read, text in ((parse_turtle, "\n".join(lines) + "\n"),
                           (reference_parse_turtle, "\n".join(lines) + "\n"),
                           (store_from_json, json.dumps(doc))):
            with pytest.raises((UndeclaredEntity, KindMismatch)) as err:
                read(text)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == errors[2], (seed, fault, ax)
        assert errors[0][1].startswith(f"{ax.prop} is "), errors[0]


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


def test_only_a_typing_with_a_meta_class_is_a_declaration():
    # owl:Class named as an individual, and the object of another predicate.
    text = HEADER + (
        "aieo:keyword a owl:ObjectProperty .\n"
        "owl:Class a owl:NamedIndividual .\n"
        "aieo:x a owl:NamedIndividual ; aieo:keyword owl:Class .\n"
    )
    store = parse_turtle(text)
    owl_class = Iri("http://www.w3.org/2002/07/owl#Class")
    assert ObjectPropertyAssertion(aieo("x"), aieo("keyword"), owl_class) in store
    assert store.kind_of(aieo("x")) is EntityKind.NAMED_INDIVIDUAL
    assert store.kind_of(owl_class) is EntityKind.NAMED_INDIVIDUAL
    assert len(store) == 4


# ---------------------------------------------------------------------------
# The writer against the reference serializer
# ---------------------------------------------------------------------------

_TRICKY_LOCALS = ("a.b", "t~x", "公平", "", "x-y_z", "dot.", "%41")
_TRICKY_TEXTS = ('say "hi"', "back\\slash\\", "two\nlines", "tab\there", "cr\rlf", "公平性", "")


def _decorated(store: OntologyStore, seed: int) -> OntologyStore:
    """The store plus what the writer must get right: a nested prefix base
    (the longest one wins) and a tied one under a lesser name, in shuffled
    declaration order; locals outside the CURIE alphabet or empty; literals
    with quotes, backslashes, line breaks, tabs and language tags; and
    merged equivalences."""
    rng = random.Random(seed)
    base = store.prefixes.get("ex") or store.prefixes["aieo"]
    under = sorted(iri for iri in store.declared() if iri.startswith(base) and iri != base)
    nested = rng.choice(under)[: len(base) + 1]
    prefixes = list(store.prefixes.items()) + [("deep", nested), ("aa", base)]
    rng.shuffle(prefixes)
    store = with_prefixes(store, dict(prefixes))
    note, link = Iri(base + "note"), Iri(base + "link")
    store.declare(note, EntityKind.ANNOTATION_PROPERTY)
    store.declare(link, EntityKind.OBJECT_PROPERTY)
    tricky = [Iri(base + local) for local in _TRICKY_LOCALS] + [Iri(nested + ".x")]
    for ind in tricky:
        store.declare(ind, EntityKind.NAMED_INDIVIDUAL)
    for ind in tricky:
        text = rng.choice(_TRICKY_TEXTS) + rng.choice(_TRICKY_TEXTS) or "x"
        store.add(AnnotationAssertion(ind, note, AnnotationValue(text, rng.choice((None, "en", "de-CH")))))
        store.add(AnnotationAssertion(ind, note, AnnotationValue(text)))
        store.add(ObjectPropertyAssertion(ind, link, rng.choice(tricky)))
    store.add(SameIndividual(*rng.sample(tricky, 2)))
    for kind, make in ((EntityKind.OWL_CLASS, EquivalentClasses),
                       (EntityKind.OBJECT_PROPERTY, EquivalentObjectProperties)):
        pool = store.declared(kind)
        if len(pool) >= 3:
            a, b, c = rng.sample(pool, 3)
            store.add(make(frozenset((a, b)))).add(make(frozenset((b, c))))
    return store


def _random_stores(seed: int) -> list[OntologyStore]:
    return [
        random_store(seed, schema_mutations=seed % 2 == 0),
        random_linked_store(seed),
        random_small_store(seed),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_reference_serializer(seed):
    for plain in _random_stores(seed):
        for store in (plain, _decorated(plain, seed)):
            text = serialize_turtle(store)
            assert text == reference_serialize_turtle(store)
            shared = TermText(store)
            for ax in store.axioms:
                line = reference_axiom_line(store, ax)
                assert axiom_line(store, ax) == line
                assert axiom_line(store, ax, shared) == line
            again = parse_turtle(text)
            assert again.axioms == store.axioms
            assert serialize_turtle(again) == text


def test_decorated_stores_reach_every_writer_case():
    texts = [serialize_turtle(_decorated(s, seed)) for seed in range(20) for s in _random_stores(seed)]
    joined = "\n".join(texts)
    for fragment in ("deep:", "<https://example.org/a.b>", "<https://example.org/t~x>",
                     "\naa: a owl:NamedIndividual", "aa:C", '\\"hi\\"', "\\\\", "\\n", "\\t", "\\r", "@de-CH",
                     "owl:equivalentClass", "owl:equivalentProperty", "<https://example.org/公平>"):
        assert fragment in joined, fragment


@pytest.mark.parametrize("seed", range(8))
def test_prefix_ties_give_one_canonical_text(seed):
    rng = random.Random(seed)
    lines = [f"@prefix {name}: <https://example.org/> ." for name in ("z", "a", "m", "ex")]
    lines += ["@prefix deep: <https://example.org/d/> .",
              "@prefix owl: <http://www.w3.org/2002/07/owl#> ."]
    rng.shuffle(lines)
    body = "z:C a owl:Class .\n<https://example.org/d/x> a owl:NamedIndividual .\nm:x a owl:NamedIndividual .\n"
    text = serialize_turtle(parse_turtle("\n".join(lines) + "\n" + body))
    assert "a:C a owl:Class ." in text and "deep:x a owl:NamedIndividual ." in text
    assert "a:x a owl:NamedIndividual ." in text
    assert serialize_turtle(parse_turtle(text)) == text
    assert serialize_turtle(store_from_json(store_to_json(parse_turtle(text)))) == text
    assert text == serialize_turtle(parse_turtle("\n".join(sorted(lines)) + "\n" + body))


def test_a_redeclared_prefix_applies_to_the_names_after_it():
    text = HEADER + """
@prefix ex: <https://a.example/> .
ex:x a owl:NamedIndividual .
ex:C a owl:Class .
@prefix ex: <https://b.example/> .
ex:x a owl:NamedIndividual .
ex:y a owl:NamedIndividual .
"""
    store = parse_turtle(text)
    assert store.declared(EntityKind.NAMED_INDIVIDUAL) == [
        Iri("https://a.example/x"), Iri("https://b.example/x"), Iri("https://b.example/y"),
    ]
    assert store.prefixes["ex"] == "https://b.example/"
    with pytest.raises(UndeclaredEntity, match="https://b.example/C"):
        parse_turtle(text + "ex:y a ex:C .\n")
