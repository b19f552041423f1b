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
from aieo.turtle import parse_turtle, serialize_turtle

from oracles import (
    naive_merged_sets,
    random_linked_store,
    random_small_store,
    random_store,
    reference_sort_key,
    tally_metrics,
)


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


def _stored_sets(store: OntologyStore) -> set[frozenset]:
    return {ax.classes for ax in store.axioms if isinstance(ax, EquivalentClasses)}


def _assert_indexed(store: OntologyStore) -> None:
    """by_subject holds every axiom once, under its subject."""
    indexed = [(s, ax) for s, axioms in store.by_subject.items() for ax in axioms]
    assert {ax for _, ax in indexed} == store.axioms and len(indexed) == len(store.axioms)
    for subject, ax in indexed:
        if isinstance(ax, EquivalentClasses):
            assert subject == min(ax.classes)


def test_a_merge_can_join_three_sets():
    store = _store()
    for name in ("D", "E", "F"):
        store.declare(ex(name), EntityKind.OWL_CLASS)
    for pair in ("AB", "CD", "EF"):
        store.add(EquivalentClasses(frozenset(map(ex, pair))))
    store.add(EquivalentClasses(frozenset(map(ex, "BDF"))))
    assert _stored_sets(store) == {frozenset(map(ex, "ABCDEF"))}
    _assert_indexed(store)


@pytest.mark.parametrize("seed", range(25))
def test_equivalence_merges_match_naive_union(seed):
    rng = random.Random(seed)
    store = OntologyStore()
    classes = [ex(f"C{n}") for n in range(rng.randint(3, 16))]
    for iri in classes:
        store.declare(iri, EntityKind.OWL_CLASS)
    added: list[frozenset] = []
    for _ in range(rng.randint(1, 14)):
        members = frozenset(rng.sample(classes, rng.randint(2, min(4, len(classes)))))
        store.add(EquivalentClasses(members))
        added.append(members)
        assert _stored_sets(store) == naive_merged_sets(added)
    _assert_indexed(store)
    # A copy merges on its own, and leaves the original as it was.
    clone, before = store.copy(), _stored_sets(store)
    extra = frozenset(rng.sample(classes, 2))
    clone.add(EquivalentClasses(extra))
    assert _stored_sets(clone) == naive_merged_sets(added + [extra])
    assert _stored_sets(store) == before


def test_long_equivalence_chains_merge_into_one_set():
    rng = random.Random(5)
    for n, oracle in ((120, True), (3000, False)):
        store = OntologyStore()
        classes = [ex(f"C{i}") for i in range(n)]
        for iri in classes:
            store.declare(iri, EntityKind.OWL_CLASS)
        links = [frozenset(pair) for pair in zip(classes, classes[1:])]
        rng.shuffle(links)
        for link in links:
            store.add(EquivalentClasses(link))
        expected = naive_merged_sets(links) if oracle else {frozenset(classes)}
        assert _stored_sets(store) == expected == {frozenset(classes)}
        _assert_indexed(store)


def test_compact_takes_the_longest_base_then_the_least_prefix_name():
    for order in (["z", "deep", "a"], ["a", "deep", "z"]):
        bases = {"z": "https://e.org/", "a": "https://e.org/", "deep": "https://e.org/d/"}
        store = OntologyStore({name: bases[name] for name in order})
        assert store.compact(Iri("https://e.org/x")) == "a:x"
        assert store.compact(Iri("https://e.org/d/x")) == "deep:x"
        assert store.compact(Iri("https://other.org/x")) == "https://other.org/x"


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


def _assert_read_api_agrees(store: OntologyStore, absent: list[Axiom]) -> None:
    """Every read of the per-type sets agrees with the snapshot."""
    snapshot = store.axioms
    assert isinstance(snapshot, frozenset) and len(store) == len(snapshot)
    assert sorted_axioms(store) == sorted_axioms(snapshot)
    for cls in AXIOM_TYPES:
        assert set(store.axioms_of(cls)) == {ax for ax in snapshot if type(ax) is cls}
    assert all(ax in store for ax in snapshot)
    assert not any(ax in store for ax in absent)
    _assert_indexed(store)
    with pytest.raises(AttributeError):
        store.axioms.add(next(iter(snapshot)))
    with pytest.raises(AttributeError):
        store.axioms = frozenset()


@pytest.mark.parametrize("seed", range(8))
def test_store_reads_agree_with_snapshot(seed):
    rng = random.Random(seed)
    stores = [
        random_store(seed, schema_mutations=True),
        random_linked_store(seed),
        random_small_store(seed),
    ]
    for store in stores:
        # Equivalence merges remove stored axioms, so the absent ones
        # include axioms that were in the store a moment ago.
        classes = store.declared(EntityKind.OWL_CLASS)
        absent = [ClassAssertion(ex("never"), ex("declared")), "not an axiom"]
        before = store.axioms
        for _ in range(4):
            store.add(EquivalentClasses(frozenset(rng.sample(classes, 2))))
        absent += sorted_axioms(before - store.axioms)
        _assert_read_api_agrees(store, absent)
        dup = store.copy()
        _assert_read_api_agrees(dup, absent)
        # The copy shares no set with the original.
        dup.declare(ex("fresh"), EntityKind.OWL_CLASS)
        assert Declaration(ex("fresh"), EntityKind.OWL_CLASS) not in store
        assert len(dup) == len(store) + 1


def test_validation_catches_corrupted_store():
    store = _store()
    store.add(ClassAssertion(ex("A"), ex("x")))
    # add/declare are the only writers, so corruption has to go behind them:
    # one axiom references an undeclared entity, one an entity of the wrong kind
    store._by_type[ClassAssertion].add(ClassAssertion(ex("A"), ex("ghost")))
    store._by_type[ClassAssertion].add(ClassAssertion(ex("A"), ex("B")))
    assert sorted(store.validate()) == [
        "ClassAssertion needs https://example.org/B to be NamedIndividual, found OwlClass",
        "ClassAssertion references undeclared https://example.org/ghost",
    ]
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


@pytest.mark.parametrize("tag", ["en-GB", "de", "x-1", "中文", "-"])
def test_language_tag_as_the_lexer_reads_it(tag):
    """A tag is what the Turtle lexer reads back after '@': letters,
    digits and '-', at least one of them."""
    store = OntologyStore()
    store.declare(ex("s"), EntityKind.NAMED_INDIVIDUAL)
    store.declare(ex("label"), EntityKind.ANNOTATION_PROPERTY)
    store.add(AnnotationAssertion(ex("s"), ex("label"), AnnotationValue("a", tag)))
    assert parse_turtle(serialize_turtle(store)).axioms == store.axioms


@pytest.mark.parametrize("tag", ["", "en US", "en_GB", "en@x", "fr\n"])
def test_language_tag_rejects_what_turtle_cannot_read_back(tag):
    with pytest.raises(ValueError, match="language tag"):
        AnnotationValue("a", tag)
