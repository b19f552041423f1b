from __future__ import annotations

import dataclasses
import random
import sys

import pytest

from aieo.errors import KindConflict, KindMismatch, UndeclaredEntity, ValidationError
from aieo.model import (
    AXIOM_TYPES,
    AnnotationAssertion,
    AnnotationValue,
    Axiom,
    ClassAssertion,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    compute_metrics,
    sorted_axioms,
)
from aieo.reasoner import materialize
from aieo.schema import aieo, seed_schema

from oracles import random_small_store, random_store, reference_sort_key, tally_metrics


def _store() -> OntologyStore:
    store = OntologyStore({"ex": "https://example.org/"})
    for name in ("A", "B", "C"):
        store.declare(Iri(f"https://example.org/{name}"), EntityKind.OWL_CLASS)
    for name in ("x", "y", "z"):
        store.declare(Iri(f"https://example.org/{name}"), EntityKind.NAMED_INDIVIDUAL)
    store.declare(Iri("https://example.org/p"), EntityKind.OBJECT_PROPERTY)
    return store


def ex(name: str) -> Iri:
    return Iri(f"https://example.org/{name}")


def test_iri_local_name():
    assert aieo("Framework").local == "Framework"
    assert Iri("https://example.org/path#frag").local == "frag"
    assert Iri("https://example.org/just/path").local == "path"


def test_unordered_pairs_normalize():
    assert DisjointClasses(ex("B"), ex("A")) == DisjointClasses(ex("A"), ex("B"))
    assert SameIndividual(ex("y"), ex("x")).a == ex("x")
    with pytest.raises(ValueError):
        DisjointClasses(ex("A"), ex("A"))
    with pytest.raises(ValueError):
        SameIndividual(ex("x"), ex("x"))


def test_equivalent_classes_is_a_set():
    eq = EquivalentClasses(frozenset({ex("A"), ex("B")}))
    assert eq == EquivalentClasses(frozenset({ex("B"), ex("A")}))
    with pytest.raises(ValueError):
        EquivalentClasses(frozenset({ex("A")}))


def test_declare_rejects_punning():
    store = _store()
    with pytest.raises(KindConflict):
        store.declare(ex("A"), EntityKind.NAMED_INDIVIDUAL)
    # re-declaring with the same kind is a no-op
    before = len(store.axioms)
    store.declare(ex("A"), EntityKind.OWL_CLASS)
    assert len(store.axioms) == before


_STRUCTURAL_PREDICATES = [
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "http://www.w3.org/2000/01/rdf-schema#subClassOf",
    "http://www.w3.org/2000/01/rdf-schema#subPropertyOf",
    "http://www.w3.org/2000/01/rdf-schema#domain",
    "http://www.w3.org/2000/01/rdf-schema#range",
    "http://www.w3.org/2002/07/owl#equivalentClass",
    "http://www.w3.org/2002/07/owl#equivalentProperty",
    "http://www.w3.org/2002/07/owl#disjointWith",
    "http://www.w3.org/2002/07/owl#sameAs",
]


@pytest.mark.parametrize("iri", _STRUCTURAL_PREDICATES)
def test_declare_rejects_structural_predicates(iri):
    store = _store()
    before = set(store.axioms)
    for kind in EntityKind:
        with pytest.raises(ValidationError, match="reserved predicate"):
            store.declare(Iri(iri), kind)
    assert store.axioms == before and store.kind_of(Iri(iri)) is None


def test_only_structural_predicates_are_reserved():
    store = _store()
    for iri in ("http://www.w3.org/2000/01/rdf-schema#label",
                "http://www.w3.org/2002/07/owl#Class",
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#typo"):
        store.declare(Iri(iri), EntityKind.ANNOTATION_PROPERTY)


def test_add_requires_declared_entities_of_right_kind():
    store = _store()
    with pytest.raises(UndeclaredEntity):
        store.add(ClassAssertion(ex("Missing"), ex("x")))
    with pytest.raises(KindMismatch):
        store.add(ClassAssertion(ex("x"), ex("A")))
    with pytest.raises(KindMismatch):
        store.add(ObjectPropertyAssertion(ex("x"), ex("A"), ex("y")))


def test_overlapping_equivalence_sets_merge():
    store = _store()
    store.add(EquivalentClasses(frozenset({ex("A"), ex("B")})))
    store.add(EquivalentClasses(frozenset({ex("B"), ex("C")})))
    merged = [ax for ax in store.axioms if isinstance(ax, EquivalentClasses)]
    assert merged == [EquivalentClasses(frozenset({ex("A"), ex("B"), ex("C")}))]


def test_equivalent_property_sets_merge_too():
    store = _store()
    store.declare(ex("q"), EntityKind.OBJECT_PROPERTY)
    store.declare(ex("r"), EntityKind.OBJECT_PROPERTY)
    store.add(EquivalentObjectProperties(frozenset({ex("p"), ex("q")})))
    store.add(EquivalentObjectProperties(frozenset({ex("q"), ex("r")})))
    merged = [ax for ax in store.axioms if isinstance(ax, EquivalentObjectProperties)]
    assert merged == [
        EquivalentObjectProperties(frozenset({ex("p"), ex("q"), ex("r")}))
    ]


def test_copy_is_independent():
    store = _store()
    clone = store.copy()
    clone.add(ClassAssertion(ex("A"), ex("x")))
    assert ClassAssertion(ex("A"), ex("x")) not in store.axioms
    assert store.prefixes == clone.prefixes


def test_indexes_track_mutation():
    store = _store()
    ca = ClassAssertion(ex("A"), ex("x"))
    opa = ObjectPropertyAssertion(ex("x"), ex("p"), ex("y"))
    store.add(ca).add(opa)
    assert opa in store.by_subject[ex("x")]
    # An equivalence merge replaces the old axiom under its subject.
    old = EquivalentClasses(frozenset({ex("B"), ex("C")}))
    store.add(old).add(EquivalentClasses(frozenset({ex("A"), ex("B")})))
    assert old not in store.by_subject[ex("B")]
    assert store.by_subject[ex("A")] == {
        Declaration(ex("A"), EntityKind.OWL_CLASS),
        EquivalentClasses(frozenset({ex("A"), ex("B"), ex("C")})),
    }


def test_sorted_axioms_is_insertion_order_free():
    rng = random.Random(7)
    base = random_store(7)
    axioms = list(base.axioms)
    orders = []
    for _ in range(3):
        rng.shuffle(axioms)
        store = OntologyStore(base.prefixes)
        for ax in axioms:
            if isinstance(ax, Declaration):
                store.declare(ax.iri, ax.kind)
        for ax in axioms:
            if not isinstance(ax, Declaration):
                store.add(ax)
        orders.append(sorted_axioms(store.axioms))
    assert orders[0] == orders[1] == orders[2]


# Annotations that differ only in their literal's language tag.
_TAGGED = {
    AnnotationAssertion(ex("x"), ex("note"), AnnotationValue("v", tag))
    for tag in (None, "de", "en")
}


@pytest.mark.parametrize("seed", range(12))
def test_sorted_axioms_matches_reference_order(seed):
    for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
        facts = store.axioms | materialize(store).inferred | _TAGGED
        assert sorted_axioms(facts) == sorted(facts, key=reference_sort_key)


def _concrete_axiom_types() -> set[type]:
    # dataclass(slots=True) replaces each class, so keep only the classes
    # their modules actually bind.
    found, todo = set(), [Axiom]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                found.add(sub)
    return found


def test_every_axiom_type_has_a_table_row():
    types = _concrete_axiom_types()
    assert len(types) == 12
    assert set(AXIOM_TYPES) == types
    for cls, row in AXIOM_TYPES.items():
        assert row.cls is cls and row.tag == cls.__name__
        assert [f.name for f in row.fields] == [f.name for f in dataclasses.fields(cls)]


def test_random_generators_cover_every_axiom_type():
    # The round-trip and ordering tests draw from both generators, so
    # together they exercise every row of the table.
    seen = {
        type(ax)
        for seed in range(12)
        for store in (random_store(seed, schema_mutations=True), random_small_store(seed))
        for ax in store.axioms
    }
    assert seen == set(AXIOM_TYPES)


def test_validation_catches_corrupted_store():
    store = _store()
    store.add(ClassAssertion(ex("A"), ex("x")))
    # simulate external corruption: axiom set references an undeclared entity
    store.axioms.add(ClassAssertion(ex("A"), Iri("https://example.org/ghost")))
    problems = store.validate()
    assert problems
    with pytest.raises(ValidationError):
        store.require_valid()


def test_metrics_match_recount_on_seed():
    assert compute_metrics(seed_schema()).as_dict() == tally_metrics(seed_schema())


@pytest.mark.parametrize("seed", range(12))
def test_metrics_match_recount_on_random_stores(seed):
    for store in (random_store(seed), random_small_store(seed)):
        assert compute_metrics(store).as_dict() == tally_metrics(store)


def test_metrics_total_is_sum_of_parts():
    report = compute_metrics(random_store(3))
    assert report.axiom_count == (
        report.logical_axiom_count
        + report.declaration_axiom_count
        + report.annotation_assertion_count
    )


def test_metrics_table_has_editor_style_rows():
    table = compute_metrics(seed_schema()).as_table()
    assert "Class count" in table
    assert "Object property count" in table
    assert "Data property count" in table
    assert "Annotation property count" in table


def test_annotation_value_language_tag():
    plain = AnnotationValue("hello")
    tagged = AnnotationValue("hello", "en")
    assert plain != tagged
    assert tagged.language_tag == "en"
