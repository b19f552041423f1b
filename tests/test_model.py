from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import sys

import pytest

from aieo.errors import KindConflict, KindMismatch, UndeclaredEntity, ValidationError
from aieo.jsonio import axiom_to_obj, canonical_json
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
    ObjectPropertyDomain,
    ObjectPropertyRange,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    SubObjectPropertyOf,
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
    assert all(store.by_subject.values())  # no key outlives its last axiom
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


def test_a_merge_that_moves_an_axiom_leaves_no_empty_entry():
    store = _store()
    old = EquivalentClasses(frozenset({ex("B"), ex("C")}))
    store.add(old).add(EquivalentClasses(frozenset({ex("A"), ex("C")})))
    # The merged set lives under its least member; B keeps only its own
    # declaration, since every subject is a declared IRI.
    assert store.by_subject.get(ex("B"), ()) == {Declaration(ex("B"), EntityKind.OWL_CLASS)}
    _assert_indexed(store)


def test_by_subject_is_read_only():
    store = _store()
    with pytest.raises(TypeError):
        store.by_subject[ex("x")] = set()
    with pytest.raises(TypeError):
        del store.by_subject[ex("x")]
    with pytest.raises(AttributeError):
        store.by_subject.setdefault(ex("w"), set())
    assert ex("w") not in store.by_subject
    assert store.copy().by_subject == store.by_subject


def _state(store: OntologyStore) -> tuple:
    """Everything a reader can see of a store."""
    return (
        {cls: set(store.axioms_of(cls)) for cls in AXIOM_TYPES},
        {iri: store.kind_of(iri) for iri in store.declared()},
        dict(store.by_subject),
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
_VALUES = [pinned[0] for pinned in _PINNED_REPRS]


def test_pinned_values_cover_every_type():
    assert {type(v) for v in _VALUES} == set(AXIOM_TYPES) | {AnnotationValue}


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


@pytest.mark.parametrize("value", _VALUES[:-1], ids=lambda v: type(v).__name__)
def test_canonical_json_writes_a_nested_axiom_as_an_object(value):
    obj = axiom_to_obj(value)
    for doc, plain in [
        ([value], [obj]),
        ((value,), [obj]),
        ({"premises": (value, value)}, {"premises": [obj, obj]}),
    ]:
        assert canonical_json(doc) == json.dumps(plain, indent=2, sort_keys=True) + "\n"


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
