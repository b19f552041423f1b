from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import sys

import pytest

from aieo.errors import KindConflict, KindMismatch, UndeclaredEntity, ValidationError
from aieo.kgexport import GraphDoc, GraphEdge, GraphNode
from aieo.model import (
    AXIOM_TYPES,
    RDF_TYPE,
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
    MetricsReport,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    SubObjectPropertyOf,
    _LITERAL_ESCAPES,
    _Record,
    axiom_sort_key,
    compute_metrics,
    render_literal,
    sorted_axioms,
)
from aieo.pipeline import (
    ClassificationMap,
    ConceptDeclaration,
    EquivalenceProposal,
    ExtractionConfig,
    FrameworkDocument,
    IterationRecord,
    PipelineConfig,
    Section,
)
from aieo.query import Query, TriplePattern, Variable
from aieo.reasoner import ConsistencyViolation, InferenceTrace, RuleId, materialize
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


@pytest.mark.parametrize(
    "text", ["https://e/a>b", "https://e/a\nb", "https://e/a\rb", "https://e/a\tb"]
)
def test_iri_rejects_what_the_writers_cannot_write_back(text):
    with pytest.raises(ValueError, match="an IRI cannot contain '>', a tab or a line break"):
        Iri(text)


_ESCAPABLE = "\\\"\n\r\t"


@pytest.mark.parametrize("text", [
    "plain", "é ünïcode ✓",
    *_ESCAPABLE,
    *(f"{c}start" for c in _ESCAPABLE), *(f"end{c}" for c in _ESCAPABLE),
    *(f"in{c}side" for c in _ESCAPABLE),
    _ESCAPABLE, 'say "hi"\\twice\r\nplease\t', "\\\\" * 3,
])
@pytest.mark.parametrize("tag", [None, "en-GB"])
def test_render_literal_escapes_exactly_what_the_table_escapes(text, tag):
    # render_literal translates only a text that holds an escapable character.
    expected = f'"{text.translate(_LITERAL_ESCAPES)}"' + (f"@{tag}" if tag else "")
    assert render_literal(AnnotationValue(text, tag)) == expected


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


# The three writers that take a declaration, each given an IRI and a kind.
_DECLARING = {
    "declare": lambda store, iri, kind: store.declare(iri, kind),
    "add": lambda store, iri, kind: store.add(Declaration(iri, kind)),
    "update": lambda store, iri, kind: store.update([Declaration(iri, kind)]),
}


@pytest.mark.parametrize("declare", _DECLARING.values(), ids=_DECLARING)
def test_declare_rejects_punning(declare):
    store = _store()
    with pytest.raises(KindConflict):
        declare(store, ex("A"), EntityKind.NAMED_INDIVIDUAL)
    # re-declaring with the same kind is a no-op
    before = len(store.axioms)
    declare(store, ex("A"), EntityKind.OWL_CLASS)
    assert len(store.axioms) == before


def test_a_built_declaration_is_stored_as_built_with_an_iri():
    store = OntologyStore()
    built = Declaration(ex("A"), EntityKind.OWL_CLASS)
    store.update([built])
    assert next(store.axioms_of(Declaration)) is built
    for declare in _DECLARING.values():  # a plain string becomes an Iri
        declare(store, "https://example.org/B", EntityKind.OWL_CLASS)
    assert {type(ax.iri) for ax in store.axioms_of(Declaration)} == {Iri}
    assert len(store) == 2


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
        for declare in _DECLARING.values():
            with pytest.raises(ValidationError, match="reserved predicate"):
                declare(store, Iri(iri), kind)
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
    """The type index holds every axiom once, under its own type."""
    indexed = [(cls, ax) for cls in AXIOM_TYPES for ax in store.axioms_of(cls)]
    assert {ax for _, ax in indexed} == store.axioms and len(indexed) == len(store.axioms)
    assert all(type(ax) is cls for cls, ax in indexed)


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
    assert _state(clone) == _state(store)
    clone.add(ClassAssertion(ex("A"), ex("x")))
    assert ClassAssertion(ex("A"), ex("x")) not in store.axioms
    assert store.prefixes == clone.prefixes


_BAD_NAME = "expected a prefix name: a letter or '_', then letters, digits, '_' or '-'"


@pytest.mark.parametrize(
    "prefixes, message",
    [
        ({"x.y": "https://e/"}, _BAD_NAME),
        ({"_": "https://e/"}, _BAD_NAME),
        ({1: "https://e/"}, _BAD_NAME),
        ({"e": ""}, "expected a non-empty string"),
        ({"e": 5}, "expected a non-empty string"),
        ({"e": "https://e/a>"}, "an IRI cannot contain '>', a tab or a line break"),
        # The base's type, then the name, then the base as an IRI.
        ({"x.y": ""}, "expected a non-empty string"),
        ({"x.y": "https://e/\r"}, _BAD_NAME),
        ({"ok": "https://e/", "x.y": "https://e/"}, _BAD_NAME),
        ({"e": "https://e/a\tb"}, "an IRI cannot contain '>', a tab or a line break"),
    ],
)
def test_store_checks_each_prefix_at_construction(prefixes, message):
    with pytest.raises(ValueError) as exc:
        OntologyStore(prefixes)
    assert str(exc.value) == message


def test_store_prefixes_are_read_only():
    store = seed_schema()
    with pytest.raises(TypeError):
        store.prefixes["x"] = "https://e/"
    with pytest.raises(TypeError):
        del store.prefixes["aieo"]
    with pytest.raises(AttributeError):
        store.prefixes = {}
    assert store.copy().prefixes == store.prefixes == seed_schema().prefixes


def test_indexes_track_mutation():
    store = _store()
    ca = ClassAssertion(ex("A"), ex("x"))
    opa = ObjectPropertyAssertion(ex("x"), ex("p"), ex("y"))
    store.add(ca).add(opa)
    assert ca in store.axioms_of(ClassAssertion) and opa in store.axioms_of(ObjectPropertyAssertion)
    # An equivalence merge replaces the old axiom.
    old = EquivalentClasses(frozenset({ex("B"), ex("C")}))
    store.add(old).add(EquivalentClasses(frozenset({ex("A"), ex("B")})))
    assert old not in store
    assert set(store.axioms_of(EquivalentClasses)) == {
        EquivalentClasses(frozenset({ex("A"), ex("B"), ex("C")})),
    }
    _assert_indexed(store)


def _state(store: OntologyStore) -> tuple:
    """Everything a reader can see of a store."""
    return (
        {cls: set(store.axioms_of(cls)) for cls in AXIOM_TYPES},
        {iri: store.kind_of(iri) for iri in store.declared()},
        len(store),
    )


def _outcome(store: OntologyStore, write) -> tuple:
    """The error a write raises, if any, and the state it leaves."""
    try:
        write(store)
        error = None
    except Exception as exc:  # noqa: BLE001  the comparison is the point
        error = (type(exc), str(exc))
    return error, _state(store)


def _add_each(axioms: list[Axiom]):
    def write(store: OntologyStore) -> None:
        for ax in axioms:
            store.add(ax)
    return write


def _generated(seed: int) -> list[OntologyStore]:
    return [random_store(seed), random_linked_store(seed), random_small_store(seed)]


def _with_merges(store: OntologyStore, rng: random.Random) -> list[Axiom]:
    """The store's non-declaration axioms plus overlapping equivalence
    axioms, shuffled."""
    classes = store.declared(EntityKind.OWL_CLASS)
    props = store.declared(EntityKind.OBJECT_PROPERTY)
    axioms = sorted_axioms(ax for ax in store if type(ax) is not Declaration)
    for _ in range(4):
        axioms.append(EquivalentClasses(frozenset(rng.sample(classes, 2))))
    if len(props) >= 2:
        axioms.append(EquivalentObjectProperties(frozenset(rng.sample(props, 2))))
    rng.shuffle(axioms)
    return axioms


@pytest.mark.parametrize("seed", range(12))
def test_update_matches_sequential_add(seed):
    rng = random.Random(seed)
    for base in _generated(seed):
        declarations = list(base.axioms_of(Declaration))
        rest = _with_merges(base, rng)
        fresh = lambda: OntologyStore(base.prefixes).update(declarations)  # noqa: E731
        loop, batch = fresh(), fresh()
        _add_each(rest)(loop)
        assert batch.update(rest) is batch
        assert _state(batch) == _state(loop)
        _assert_indexed(batch)
        # The equivalence index came out the same too: a later merge agrees.
        classes = base.declared(EntityKind.OWL_CLASS)
        extra = EquivalentClasses(frozenset(rng.sample(classes, 2)))
        assert _state(batch.add(extra)) == _state(loop.add(extra))


@pytest.mark.parametrize("seed", range(12))
def test_update_with_declarations_anywhere_matches_sequential_add(seed):
    """Declarations interleaved with the rest: update still takes them in
    order, so the first axiom before its entities' declarations raises the
    same error and leaves the same store as the add loop."""
    rng = random.Random(seed)
    for base in _generated(seed):
        axioms = sorted_axioms(base.axioms_of(Declaration)) + _with_merges(base, rng)
        rng.shuffle(axioms)
        # An early run of declarations, so some batches go in before the error.
        axioms.sort(key=lambda ax: type(ax) is not Declaration and rng.random() < 0.5)
        fresh = lambda: OntologyStore(base.prefixes)  # noqa: E731
        assert _outcome(fresh(), lambda s: s.update(axioms)) == _outcome(
            fresh(), _add_each(axioms)
        )


_BAD_AXIOMS = (
    ClassAssertion(ex("Missing"), ex("x")),  # undeclared class
    ClassAssertion(ex("x"), ex("x")),  # an individual where a class goes
    ObjectPropertyAssertion(ex("x"), ex("A"), ex("y")),  # a class as property
    EquivalentClasses(frozenset({ex("A"), ex("ghost")})),  # undeclared member
    AnnotationAssertion(ex("nowhere"), ex("note"), AnnotationValue("v")),
)
# The entities the bad axioms name, other than the missing ones.
_BAD_AXIOM_DECLARATIONS = (
    *_store().axioms_of(Declaration), Declaration(ex("note"), EntityKind.ANNOTATION_PROPERTY)
)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("bad", _BAD_AXIOMS, ids=lambda ax: type(ax).__name__)
def test_update_raises_the_first_error_add_raises(seed, bad):
    rng = random.Random(seed)
    for base in _generated(seed):
        declarations = [*base.axioms_of(Declaration), *_BAD_AXIOM_DECLARATIONS]
        fresh = lambda: OntologyStore(base.prefixes).update(declarations)  # noqa: E731
        axioms = _with_merges(base, rng)
        axioms.insert(rng.randrange(len(axioms) + 1), bad)
        error, state = _outcome(fresh(), lambda s: s.update(axioms))
        assert error is not None and error[0] in (UndeclaredEntity, KindMismatch)
        assert (error, state) == _outcome(fresh(), _add_each(axioms))


def test_update_rejects_a_non_axiom_where_add_does():
    store, axioms = _store(), [ClassAssertion(ex("A"), ex("x")), "not an axiom"]
    assert _outcome(_store(), lambda s: s.update(axioms)) == _outcome(store, _add_each(axioms))
    assert ClassAssertion(ex("A"), ex("x")) in store


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


# Annotations whose literals have equal text, tagged and untagged, under
# subjects and properties that tie and that do not.
_TAGGED = {
    AnnotationAssertion(ex(subject), ex(prop), AnnotationValue(text, tag))
    for subject in ("x", "y") for prop in ("note", "label")
    for text in ("v", "v-", "w") for tag in (None, "de", "en", "en-GB")
}
# Equivalences whose sets share their least member, and so tie on it.
_SHARED_LEAST = {
    cls(frozenset(map(ex, names)))
    for cls in (EquivalentClasses, EquivalentObjectProperties)
    for names in ("AB", "AC", "ABC", "ABD", "AD", "BC", "AZ", "ABCD")
}


@pytest.mark.parametrize("seed", range(12))
def test_sorted_axioms_matches_reference_order(seed):
    for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
        facts = store.axioms | materialize(store).inferred | _TAGGED | _SHARED_LEAST
        expected = sorted(facts, key=reference_sort_key)
        assert sorted_axioms(facts) == expected
        assert sorted(facts, key=axiom_sort_key) == expected
        # Types interleaved, with repeats, as a list rather than a store.
        shuffled = list(facts) + random.Random(seed).sample(sorted(facts, key=repr), 20)
        random.Random(seed).shuffle(shuffled)
        assert sorted_axioms(shuffled) == sorted(shuffled, key=reference_sort_key)


def _concrete_axiom_types() -> set[type]:
    # Only the classes their modules bind: a class made inside a function
    # is not a type of the library.
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
        assert [f.name for f in row.fields] == list(cls._fields)


# One instance of each axiom type and of AnnotationValue, with its repr as
# the dataclass implementation printed it, except that a set prints its
# members sorted rather than in hash order.
_EX = "https://example.org/"
_PINNED_REPRS = [
    (Declaration(ex("A"), EntityKind.OWL_CLASS),
     f"Declaration(iri='{_EX}A', kind=<EntityKind.OWL_CLASS: 'OwlClass'>)"),
    (SubClassOf(ex("A"), ex("B")), f"SubClassOf(sub='{_EX}A', sup='{_EX}B')"),
    (EquivalentClasses([ex("A"), ex("B")]),
     f"EquivalentClasses(classes=frozenset({{'{_EX}A', '{_EX}B'}}))"),
    (DisjointClasses(ex("B"), ex("A")), f"DisjointClasses(a='{_EX}A', b='{_EX}B')"),
    (SubObjectPropertyOf(ex("p"), ex("q")), f"SubObjectPropertyOf(sub='{_EX}p', sup='{_EX}q')"),
    (EquivalentObjectProperties([ex("p"), ex("q")]),
     f"EquivalentObjectProperties(properties=frozenset({{'{_EX}p', '{_EX}q'}}))"),
    (ObjectPropertyRange(ex("p"), ex("A")), f"ObjectPropertyRange(prop='{_EX}p', cls='{_EX}A')"),
    (ObjectPropertyDomain(ex("p"), ex("A")),
     f"ObjectPropertyDomain(prop='{_EX}p', cls='{_EX}A')"),
    (ClassAssertion(ex("A"), ex("x")), f"ClassAssertion(cls='{_EX}A', ind='{_EX}x')"),
    (ObjectPropertyAssertion(ex("x"), ex("p"), ex("y")),
     f"ObjectPropertyAssertion(subject='{_EX}x', prop='{_EX}p', object='{_EX}y')"),
    (SameIndividual(ex("y"), ex("x")), f"SameIndividual(a='{_EX}x', b='{_EX}y')"),
    (AnnotationAssertion(ex("x"), ex("label"), AnnotationValue("v", "en")),
     f"AnnotationAssertion(subject='{_EX}x', prop='{_EX}label', "
     "value=AnnotationValue(text='v', language_tag='en'))"),
    (AnnotationValue("v"), "AnnotationValue(text='v', language_tag=None)"),
]

# One instance of each other public record type, with its repr as the
# dataclass implementation printed it.
_X = f"{_EX}x"
_PATTERN = TriplePattern(Variable("x"), RDF_TYPE, ex("A"))
_PATTERN_REPR = (f"TriplePattern(subject='x', predicate='{RDF_TYPE}', "
                 f"object='{_EX}A')")
_SECTION = Section("Intro", "Fairness matters.")
_SECTION_REPR = "Section(heading='Intro', body='Fairness matters.')"
_CONCEPT = ConceptDeclaration("Fairness", "Principle", "Treat alike.")
_CONCEPT_REPR = ("ConceptDeclaration(name='Fairness', kind='Principle', "
                 "short_description='Treat alike.', reference=None)")
_EXTRACTION = ExtractionConfig(frozenset({"the"}), 2, 5, 1)
_EXTRACTION_REPR = ("ExtractionConfig(stopwords=frozenset({'the'}), min_token_length=2, "
                    "top_k=5, relevant_top_k=1)")
_CLASSIFICATION = ClassificationMap({"risk": aieo("Risk_keyword")})
_CLASSIFICATION_REPR = ("ClassificationMap(entries=(('risk', "
                        "'https://w3id.org/aieo#Risk_keyword'),))")
_METRICS = MetricsReport(*range(9))
_METRICS_REPR = (
    "MetricsReport(axiom_count=0, logical_axiom_count=1, declaration_axiom_count=2, "
    "annotation_assertion_count=3, class_count=4, object_property_count=5, "
    "data_property_count=6, individual_count=7, annotation_property_count=8)"
)
_NODES = (GraphNode("ex:A", "A [1]", "class", ""), GraphNode("ex:B", "B [0]", "class", "Bee"))
_NODES_REPR = ("GraphNode(id='ex:A', label='A [1]', kind='class', annotation=''), "
               "GraphNode(id='ex:B', label='B [0]', kind='class', annotation='Bee')")
_EDGE = GraphEdge("ex:A", "ex:B", "subClassOf", "subclass")
_EDGE_REPR = "GraphEdge(src='ex:A', dst='ex:B', label='subClassOf', kind='subclass')"
_VALUE_REPRS = [
    (InferenceTrace(ClassAssertion(ex("A"), ex("x")), RuleId.R2_SUBCLASS,
                    (ClassAssertion(ex("B"), ex("x")), SubClassOf(ex("B"), ex("A")))),
     f"InferenceTrace(conclusion=ClassAssertion(cls='{_EX}A', ind='{_X}'), "
     "rule=<RuleId.R2_SUBCLASS: 'R2_SubClass'>, "
     f"premises=(ClassAssertion(cls='{_EX}B', ind='{_X}'), "
     f"SubClassOf(sub='{_EX}B', sup='{_EX}A')))"),
    (ConsistencyViolation(ex("x"), ex("A"), ex("B"), RuleId.D1_DISJOINT_TYPING),
     f"ConsistencyViolation(individual='{_X}', class_a='{_EX}A', class_b='{_EX}B', "
     "rule=<RuleId.D1_DISJOINT_TYPING: 'D1_DisjointTyping'>)"),
    (_PATTERN, _PATTERN_REPR),
    (Query((Variable("x"),), (_PATTERN,), True),
     f"Query(projected_variables=('x',), patterns=({_PATTERN_REPR},), distinct=True)"),
    (_SECTION, _SECTION_REPR),
    (_CONCEPT, _CONCEPT_REPR),
    (FrameworkDocument(ex("FW"), "FW", (_SECTION,), (_CONCEPT,)),
     f"FrameworkDocument(id='{_EX}FW', title='FW', sections=({_SECTION_REPR},), "
     f"concept_declarations=({_CONCEPT_REPR},))"),
    (_EXTRACTION, _EXTRACTION_REPR),
    (_CLASSIFICATION, _CLASSIFICATION_REPR),
    (EquivalenceProposal(ex("a"), ex("b"), 0.8, "confirmed"),
     f"EquivalenceProposal(left='{_EX}a', right='{_EX}b', score=0.8, status='confirmed')"),
    (IterationRecord(2, _METRICS, _METRICS, 0, True),
     f"IterationRecord(iteration_index=2, before={_METRICS_REPR}, after={_METRICS_REPR}, "
     "increment=0, saturated=True)"),
    (PipelineConfig(_EXTRACTION, _CLASSIFICATION, (), 0.75),
     f"PipelineConfig(extraction={_EXTRACTION_REPR}, classification={_CLASSIFICATION_REPR}, "
     "confirmations=(), threshold=0.75)"),
    (_METRICS, _METRICS_REPR),
    (_NODES[0], "GraphNode(id='ex:A', label='A [1]', kind='class', annotation='')"),
    (_EDGE, _EDGE_REPR),
    (GraphDoc(_NODES, (_EDGE,)), f"GraphDoc(nodes=({_NODES_REPR}), edges=({_EDGE_REPR},))"),
]
_PINNED_REPRS += _VALUE_REPRS
_VALUES = [pinned[0] for pinned in _PINNED_REPRS]


def _public_record_types() -> set[type]:
    """Every record type of the package with a public name."""
    found, stack = set(), [_Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub._fields and not sub.__name__.startswith("_"):
                found.add(sub)
    return found


def test_pinned_values_cover_every_type():
    assert {type(v) for v in _VALUES} == _public_record_types()
    assert _public_record_types() >= set(AXIOM_TYPES) | {AnnotationValue}


@pytest.mark.parametrize("pinned", _PINNED_REPRS, ids=lambda p: type(p[0]).__name__)
def test_repr_is_the_dataclass_repr(pinned):
    value, expected = pinned
    assert repr(value) == expected and str(value) == repr(value)


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_values_are_type_tagged_tuples_not_dataclasses(value):
    assert isinstance(value, tuple) and not dataclasses.is_dataclass(value)
    names = type(value)._fields
    assert [getattr(value, name) for name in names] == list(value[1:])


def test_equal_fields_of_two_types_are_two_axioms():
    store = _store()
    pairs = [
        (SubClassOf(ex("A"), ex("B")), DisjointClasses(ex("A"), ex("B"))),
        (ObjectPropertyRange(ex("p"), ex("A")), ObjectPropertyDomain(ex("p"), ex("A"))),
    ]
    for first, second in pairs:
        assert first != second and len(frozenset((first, second))) == 2
        store.add(first).add(second)
    assert len(store.axioms) == len(store)
    assert all(ax in store for pair in pairs for ax in pair)
    assert sum(1 for _ in store.axioms_of(SubClassOf, DisjointClasses)) == 2


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_no_field_can_be_assigned(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_keyword_and_positional_construction_agree(value):
    cls, names = type(value), type(value)._fields
    fields = {name: getattr(value, name) for name in names}
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position == value
    assert hash(by_keyword) == hash(by_position) == hash(value)
    assert type(by_keyword) is type(by_position) is cls


@pytest.mark.parametrize("row", list(AXIOM_TYPES.values()), ids=lambda row: row.tag)
def test_from_pair_agrees_with_keyword_construction(row):
    if {f.name for f in row.fields} - {row.subject, row.obj}:  # its own prop besides
        assert row.from_pair is None
        return
    s = ex("s")
    o = EntityKind.OWL_CLASS if row.obj == "kind" else ex("o")
    if row.members is not None:
        expected = row.cls(**{row.members: frozenset((s, o))})
    else:
        expected = row.cls(**{row.subject: s, row.obj: o})
    built = row.from_pair(s, o)
    assert built == expected and type(built) is row.cls
    if row.symmetric:
        assert row.from_pair(o, s) == expected


def test_normalization_and_its_errors_are_unchanged():
    assert DisjointClasses(b=ex("A"), a=ex("B")) == DisjointClasses(ex("A"), ex("B"))
    assert (DisjointClasses(ex("B"), ex("A")).a, DisjointClasses(ex("B"), ex("A")).b) == (
        ex("A"), ex("B"))
    assert SameIndividual(b=ex("x"), a=ex("y")).a == ex("x")
    members = EquivalentClasses(classes=[ex("A"), ex("B"), ex("A")]).classes
    assert type(members) is frozenset and members == {ex("A"), ex("B")}
    assert type(EquivalentObjectProperties(iter([ex("p"), ex("q")])).properties) is frozenset
    assert AnnotationValue(text="v").language_tag is None
    for build, message in [
        (lambda: DisjointClasses(ex("A"), ex("A")), "DisjointClasses needs two distinct classes"),
        (lambda: SameIndividual(ex("x"), ex("x")),
         "SameIndividual needs two distinct individuals"),
        (lambda: EquivalentClasses([ex("A")]), "EquivalentClasses needs at least two classes"),
        (lambda: EquivalentObjectProperties([ex("p"), ex("p")]),
         "EquivalentObjectProperties needs at least two properties"),
        (lambda: AnnotationValue(""), "annotation text must be non-empty"),
        (lambda: AnnotationValue("v", "en US"),
         "language tag 'en US' must be letters, digits and '-', and non-empty"),
    ]:
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for dup in copies:
        assert dup == value and type(dup) is type(value)


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_equality_includes_the_type(value):
    class _Twin(_Record, fields=type(value)._fields):
        __slots__ = ()

    twin = _Twin(*(getattr(value, name) for name in type(value)._fields))
    assert twin != value and value != twin and twin[1:] == value[1:]


def test_value_class_errors_are_unchanged():
    pattern = TriplePattern(Variable("x"), RDF_TYPE, ex("A"))
    node = GraphNode("ex:A", "A", "class", "")
    for build, message in [
        (lambda: Query((Variable("y"),), (pattern,)), "projected variable ?y occurs in no pattern"),
        (lambda: ConceptDeclaration("", "Principle"), "concept name must be non-empty"),
        (lambda: ConceptDeclaration("F", "Rule"),
         "concept kind must be one of ('AI_Dimension', 'FundamentalRight', 'Principle', "
         "'Requirement'), got 'Rule'"),
        (lambda: FrameworkDocument(ex("FW"), "FW", (), (ConceptDeclaration("a b", "Principle"),
                                                        ConceptDeclaration("a-b", "Principle"))),
         "duplicate concept name in document: 'a b' and 'a-b' both map to "
         "https://w3id.org/aieo#FW_a_b"),
        (lambda: ExtractionConfig(min_token_length=0), "minTokenLength must be >= 1"),
        (lambda: ExtractionConfig(top_k=0), "topK must be >= 1"),
        (lambda: ExtractionConfig(top_k=2, relevant_top_k=3),
         "relevantTopK must be between 0 and topK"),
        (lambda: ClassificationMap({"risk": ex("A")}),
         f"classification target for 'risk' must be one of the Keyword subclasses, got {_EX}A"),
        (lambda: EquivalenceProposal(ex("a"), ex("b"), 1.5), "score must be in [0, 1]"),
        (lambda: EquivalenceProposal(ex("a"), ex("b"), 0.5, "maybe"),
         "unknown proposal status 'maybe'"),
        (lambda: PipelineConfig(threshold=0), "threshold must be in (0, 1]"),
        (lambda: GraphDoc((node, node), ()), "node ids must be unique"),
        (lambda: GraphDoc((node,), (GraphEdge("ex:A", "ex:B", "subClassOf", "subclass"),)),
         "edge endpoint not among nodes: ex:A -> ex:B"),
    ]:
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message
    for build in (lambda: Section("Intro"), lambda: MetricsReport(*range(10)),
                  lambda: GraphNode("ex:A", "A", "class", "", colour="red")):
        with pytest.raises(TypeError):
            build()


def test_replace_changes_fields_and_normalizes_again():
    proposal = EquivalenceProposal(ex("a"), ex("b"), 0.8)
    confirmed = proposal._replace(status="confirmed")
    assert confirmed == EquivalenceProposal(ex("a"), ex("b"), 0.8, "confirmed")
    assert proposal.status == "proposed"
    assert DisjointClasses(ex("A"), ex("B"))._replace(a=ex("C")) == DisjointClasses(
        ex("B"), ex("C"))
    assert type(PipelineConfig()._replace(threshold=1).threshold) is float
    with pytest.raises(ValueError, match="unknown proposal status 'maybe'"):
        proposal._replace(status="maybe")
    with pytest.raises(TypeError):
        proposal._replace(colour="red")


def test_classification_map_keeps_sorted_pairs():
    assert ClassificationMap() == PipelineConfig().classification
    assert ClassificationMap().entries == ()
    risk, privacy = ("risk", aieo("Risk_keyword")), ("privacy", aieo("SocialDimension_keyword"))
    by_mapping = ClassificationMap(dict((risk, privacy)))
    assert by_mapping.entries == (privacy, risk)
    assert by_mapping == ClassificationMap((privacy, risk)) == ClassificationMap([risk, privacy])
    assert hash(by_mapping) == hash(ClassificationMap((risk, privacy)))
    assert ClassificationMap(by_mapping.entries) == by_mapping
    # Of several bad targets, the first as given is reported, not the least keyword.
    with pytest.raises(ValueError, match="target for 'zeta'"):
        ClassificationMap({"zeta": aieo("Principle"), "alpha": aieo("Risk")})


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
    # one axiom references an undeclared entity, one an entity of the wrong
    # kind, and a declared class is declared a second time as an individual
    store._by_type[ClassAssertion].add(ClassAssertion(ex("A"), ex("ghost")))
    store._by_type[ClassAssertion].add(ClassAssertion(ex("A"), ex("B")))
    store._by_type[Declaration].add(Declaration(ex("A"), EntityKind.NAMED_INDIVIDUAL))
    with pytest.raises(ValidationError) as exc:
        store.require_valid()
    assert str(exc.value) == (
        "ClassAssertion needs https://example.org/B to be NamedIndividual, found OwlClass; "
        "ClassAssertion references undeclared https://example.org/ghost; "
        "https://example.org/A declared with multiple kinds"
    )


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
