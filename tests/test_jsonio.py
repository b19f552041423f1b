"""Tests for the JSON interchange, document, config, and trace forms."""

import copy
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from aieo.cli import main
from aieo.errors import AieoError, ParseError, SchemaViolation
from aieo.jsonio import (
    _AXIOM_WRITERS,
    canonical_json,
    encode_string,
    object_template,
    parse_config,
    parse_framework_document,
    store_from_json,
    store_to_json,
    traces_to_json,
)
from aieo.kgexport import DetailLevel, GraphDoc, GraphNode, export_graph, render_json
from aieo.model import (
    AXIOM_TYPES,
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    Declaration,
    EntityKind,
    EquivalentClasses,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SubClassOf,
    render_literal,
    sorted_axioms,
)
from aieo.pipeline import run_iteration
from aieo.query import Query, TriplePattern, Variable, canned_query, evaluate
from aieo.reasoner import materialize
from aieo.schema import RDFS_LABEL, aieo, seed_schema
from aieo.turtle import parse_turtle, serialize_turtle

from oracles import (
    random_linked_store,
    random_query,
    random_small_store,
    random_store,
    reference_axiom_obj,
    reference_json,
    reference_parse_config,
    reference_parse_framework_document,
    reference_store_from_json,
    reference_store_to_json,
    reference_traces_to_json,
    with_prefixes,
)

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


def _axiom_objects(*axioms) -> list:
    """The interchange objects of a store holding just ``axioms``."""
    store = OntologyStore()
    store.update(axioms)
    return json.loads(store_to_json(store))["axioms"]


def test_declaration_object_shape():
    [obj] = _axiom_objects(Declaration(aieo("Framework"), EntityKind.OWL_CLASS))
    assert obj == {
        "kind": "Declaration",
        "iri": "https://w3id.org/aieo#Framework",
        "entityKind": "OwlClass",
    }


def test_annotation_object_shape():
    objs = _axiom_objects(
        Declaration(aieo("reference"), EntityKind.ANNOTATION_PROPERTY),
        Declaration(aieo("x"), EntityKind.NAMED_INDIVIDUAL),
        AnnotationAssertion(aieo("x"), aieo("reference"), AnnotationValue("ch. 1")),
        AnnotationAssertion(aieo("x"), aieo("reference"), AnnotationValue("hi", "en")),
    )
    by_text = {o["value"]["text"]: o for o in objs if o["kind"] == "AnnotationAssertion"}
    plain, tagged = by_text["ch. 1"], by_text["hi"]
    assert plain["annProp"] == "https://w3id.org/aieo#reference"
    assert plain["value"] == {"text": "ch. 1"}
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
    assert exc.value.line == 2


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
        ('{"axioms": [{"kind": "EquivalentClasses", "classes": ["A", ["B"]]}]}',
         "$.axioms[0].classes[1]"),
        ('{"prefixes": {"ex": ""}}', "$.prefixes.ex"),
        ('{"axioms": [{"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",'
         ' "value": {"text": 5}}]}', "$.axioms[0].value.text"),
        ('{"axioms": [{"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",'
         ' "value": {"text": "a", "languageTag": "en US"}}]}', "$.axioms[0]"),
        ('{"axioms": [{"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",'
         ' "value": {"text": "a", "languageTag": ""}}]}', "$.axioms[0]"),
        # Input the Turtle writer could not write back.
        *[(json.dumps({"prefixes": {name: "https://e/"}}), f"$.prefixes.{name}")
          for name in ("a:b", "a b", "1x", "x.y", "-x", "_", "\u00b2")],
        *[(json.dumps({"prefixes": {"e": "https://e/" + c}}), "$.prefixes.e") for c in ">\n\r"],
        *[(_doc_with_axioms({"kind": "Declaration", "iri": iri, "entityKind": "OwlClass"},
                            prefixes={"e": "https://e/"}), "$.axioms[0].iri")
          for iri in ("https://e/a>b", "https://e/a\nb", "https://e/a\rb", "e:a>", "a\nb")],
        ('{"axioms": [{"kind": "EquivalentClasses", "classes": ["A", "B>"]}]}',
         "$.axioms[0].classes[1]"),
    ],
)
def test_schema_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as exc:
        store_from_json(doc)
    assert exc.value.field_name == path


_PREFIX_NAMES = ("", "a", "_x", "z\u00e9-1", "x-", "a:b", "a b", "1x", "x.y", "-x", "_", "\u00b2")
_IRI_TAILS = ("", "a", "a b", 'q"t', "back\\slash", "caf\u00e9", "100%", "#x", ">", "\n", "a\rb")


def test_every_accepted_store_writes_turtle_that_reads_back():
    rng = random.Random(11)
    outcomes = set()
    for seed in range(12):
        for make in (random_store, random_linked_store, random_small_store):
            doc = json.loads(store_to_json(_with_odd_text(make(seed), seed)))
            doc["prefixes"][rng.choice(_PREFIX_NAMES)] = "https://e/" + rng.choice(_IRI_TAILS)
            doc["axioms"].append({"kind": "Declaration", "entityKind": "NamedIndividual",
                                  "iri": "https://e/" + rng.choice(_IRI_TAILS) + "i"})
            try:
                store = store_from_json(json.dumps(doc))
            except SchemaViolation:
                outcomes.add("rejected")
                continue
            outcomes.add("accepted")
            back = parse_turtle(serialize_turtle(store))
            assert set(back.axioms) == set(store.axioms), (make.__name__, seed)
            assert back.prefixes == store.prefixes, (make.__name__, seed)
    assert outcomes == {"accepted", "rejected"}


def test_json_prefix_names_are_the_ones_turtle_reads():
    chars = [chr(c) for c in range(0, 0x3000, 5)] + ["_", "-", "\u00b2", "\u216b", "\u0301"]
    for name in ["", "__", "_1", "a.b"] + chars + ["a" + c for c in chars]:
        try:
            read = parse_turtle(f"@prefix {name}: <https://e/> .").prefixes == {name: "https://e/"}
        except AieoError:
            read = False
        try:
            store_from_json(json.dumps({"prefixes": {name: "https://e/"}}))
            accepted = True
        except SchemaViolation:
            accepted = False
        try:
            OntologyStore({name: "https://e/"})
            built = True
        except ValueError:
            built = False
        assert accepted == read == built, repr(name)


def test_every_prefix_a_store_accepts_round_trips_through_both_writers():
    built = 0
    for name in _PREFIX_NAMES:
        for tail in _IRI_TAILS:
            try:
                store = OntologyStore({name: "https://e/" + tail})
            except ValueError:
                continue
            built += 1
            store.declare(Iri("https://e/" + tail + "i"), EntityKind.NAMED_INDIVIDUAL)
            for back in (parse_turtle(serialize_turtle(store)),
                         store_from_json(store_to_json(store))):
                assert back.prefixes == store.prefixes, (name, tail)
                assert set(back.axioms) == set(store.axioms), (name, tail)
    assert built == 5 * 8  # the five names and eight tails both readers take


@pytest.mark.parametrize("read", [store_from_json, parse_framework_document, parse_config])
@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_deep_nesting_is_a_positioned_parse_error(read, opener):
    # Past the decoder's limit on every supported Python version.
    with pytest.raises(ParseError) as exc:
        read(opener * 100_000)
    assert (exc.value.line, exc.value.column, exc.value.message) == (
        1, 1, "document nested too deeply"
    )


@pytest.mark.parametrize("read", [store_from_json, parse_framework_document, parse_config])
def test_an_integer_too_long_for_int_is_a_positioned_parse_error(read):
    limit = sys.get_int_max_str_digits()
    digits = "9" * (limit + 1)
    # Floats and a string with as many digits decode; the integer does not.
    text = f'{{"a": [1{digits}.5, 0.{digits}, 1e{digits}, "{digits}",\n  -{digits}]}}'
    with pytest.raises(ParseError) as exc:
        read(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (
        2, 3, f"integer longer than {limit} digits"
    )


def test_degenerate_axioms_become_schema_violations():
    same = _doc_with_axioms({"kind": "DisjointClasses", "a": "A", "b": "A"})
    with pytest.raises(SchemaViolation):
        store_from_json(same)
    single = _doc_with_axioms({"kind": "EquivalentClasses", "classes": ["A"]})
    with pytest.raises(SchemaViolation):
        store_from_json(single)


def _axiom(obj):
    return store_from_json(_doc_with_axioms(obj))


def _document(obj):
    return parse_framework_document(json.dumps(obj))


def _config(obj):
    return parse_config(json.dumps(obj))


# Objects with two faults: the one reported is the first in the one order
# every JSON object is read in (not an object, an axiom's kind, an unknown
# member, each member in schema order, the constructor's ValueError).
@pytest.mark.parametrize(
    "read,obj,expected",
    [
        # An entity kind is read after the IRI and after unknown members.
        (_axiom, {"kind": "Declaration", "entityKind": "Class"},
         "$.axioms[0].iri: required field is missing"),
        (_axiom, {"kind": "Declaration", "iri": "", "entityKind": 5},
         "$.axioms[0].iri: expected a non-empty IRI string"),
        (_axiom, {"kind": "Declaration", "iri": "A", "entityKind": "Class", "x": 1},
         "$.axioms[0].x: unknown field"),
        # A literal's object is read in field order, after the subject.
        (_axiom, {"kind": "AnnotationAssertion", "annProp": "p", "value": 5},
         "$.axioms[0].subject: required field is missing"),
        (_axiom, {"kind": "AnnotationAssertion", "subject": 5, "annProp": "p"},
         "$.axioms[0].subject: expected str"),
        (_axiom, {"kind": "AnnotationAssertion", "subject": "s", "annProp": "",
                  "value": {"text": "a", "x": 1}},
         "$.axioms[0].annProp: expected a non-empty IRI string"),
        (_axiom, {"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",
                  "value": {"x": 1, "languageTag": 5}},
         "$.axioms[0].value.x: unknown field"),
        (_axiom, {"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",
                  "value": {"languageTag": "en US"}},
         "$.axioms[0].value.text: required field is missing"),
        (_axiom, {"kind": "AnnotationAssertion", "subject": "s", "annProp": "p",
                  "value": {"text": 5, "languageTag": 5}},
         "$.axioms[0].value.text: expected str"),
        # The kind decides the members allowed, so it comes first.
        (_axiom, {"x": 1}, "$.axioms[0].kind: required field is missing"),
        (_axiom, {"kind": "Nope", "x": 1}, "$.axioms[0].kind: unknown axiom kind 'Nope'"),
        (_axiom, {"kind": "SubClassOf", "sub": "A", "x": 1}, "$.axioms[0].x: unknown field"),
        (_axiom, {"kind": "DisjointClasses", "a": "A", "b": "A", "c": 1},
         "$.axioms[0].c: unknown field"),
        (_axiom, {"kind": "EquivalentClasses", "classes": ["A", 5], "x": 1},
         "$.axioms[0].x: unknown field"),
        # Framework documents and configs follow the same order.
        (_document, {"id": 5, "title": 5, "x": 1}, "$.x: unknown field"),
        (_document, {"id": "aieo:X", "title": "x", "sections": [{"body": 5, "x": 1}]},
         "$.sections[0].x: unknown field"),
        (_document, {"id": "aieo:X", "title": "x",
                     "conceptDeclarations": [{"name": "", "kind": 5}]},
         "$.conceptDeclarations[0].kind: expected str"),
        (_config, {"extraction": {"topK": 0, "minTokenLength": "a"}},
         "$.extraction.minTokenLength: expected int"),
        (_config, {"confirmations": [{"left": 5, "z": 1}], "x": 1}, "$.x: unknown field"),
        (_config, {"confirmations": [{"right": 5, "z": 1}]},
         "$.confirmations[0].z: unknown field"),
    ],
)
def test_the_first_fault_in_the_one_order_is_reported(read, obj, expected):
    with pytest.raises(SchemaViolation) as exc:
        read(obj)
    assert str(exc.value) == expected


_OTHER_VALUES = (None, True, 0, 7, 2.5, "", "text", [], ["A", 1], {}, {"text": "t"})
_UNKNOWN_NAMES = ("x", "kind", "iri", "sub", "value", "text", "languageTag", "axioms", "")
_BAD_KINDS = ("Nope", "", "declaration", *(row.tag for row in AXIOM_TYPES.values()))
_ENTITY_KINDS = ("Class", "", "OwlClass", "NamedIndividual", "AnnotationProperty")
_BAD_IRIS = ("", "a>b", "https://e/x\n", "ex:z", "zz:q", "x", "https://example.org/C0")
_LANGUAGE_TAGS = ("en", "en US", "", "fr-CA", 5, None)


def _other_value(rng: random.Random):
    return copy.deepcopy(rng.choice(_OTHER_VALUES))


def _mutate_members(rng: random.Random, obj: dict) -> None:
    """Delete a member, swap one for another JSON type, or add an unknown one."""
    op = rng.randrange(3) if obj else 2
    if op == 0:
        del obj[rng.choice(list(obj))]
    elif op == 1:
        obj[rng.choice(list(obj))] = _other_value(rng)
    else:
        obj[rng.choice(_UNKNOWN_NAMES)] = _other_value(rng)


def _mutate_axiom(rng: random.Random, axioms: list, i: int) -> None:
    ax = axioms[i]
    lists = [key for key, value in ax.items() if type(value) is list] if type(ax) is dict else []
    if lists and rng.random() < 0.5:
        # A whole list-valued member becomes a string or an object, each of
        # which iterates as a list of strings would.
        key = rng.choice(lists)
        items = [str(item) for item in ax[key]]
        ax[key] = rng.choice(("".join(items), "".join(item[-1:] for item in items),
                              dict.fromkeys(items, 1)))
        return
    op = rng.randrange(8)
    if not isinstance(ax, dict) or op == 3:
        axioms[i] = _other_value(rng)
    elif op < 3:
        _mutate_members(rng, ax)
    elif op == 4:
        ax["kind"] = rng.choice(_BAD_KINDS)
    elif op == 5:
        ax["entityKind"] = rng.choice(_ENTITY_KINDS)
    elif op == 6:
        key = rng.choice([key for key in ax if key != "kind"] or ["iri"])
        if isinstance(ax.get(key), list) and ax[key]:
            ax[key][rng.randrange(len(ax[key]))] = rng.choice(_BAD_IRIS + _OTHER_VALUES[:4])
        else:
            ax[key] = rng.choice(_BAD_IRIS)
    elif isinstance(ax.get("value"), dict):  # a fault inside a literal
        roll = rng.randrange(3)
        if roll == 0:
            _mutate_members(rng, ax["value"])
        elif roll == 1:
            ax["value"]["text"] = rng.choice(("", 5, "t"))
        else:
            ax["value"]["languageTag"] = rng.choice(_LANGUAGE_TAGS)
    else:
        ax["value"] = rng.choice(({"text": "t", "languageTag": "en US"}, {"text": ""}, 5))


def _mutate_store_document(rng: random.Random, doc: dict, near: int | None) -> int | None:
    """One fault in the document: in an axiom (the one at ``near`` when
    given, to put two faults in one object), the prefix map or the
    document itself. Returns the axiom index hit, if any."""
    axioms = doc.get("axioms")
    roll = rng.random()
    if isinstance(axioms, list) and axioms and roll < 0.8:
        i = near if near is not None and near < len(axioms) else rng.randrange(len(axioms))
        _mutate_axiom(rng, axioms, i)
        return i
    prefixes = doc.get("prefixes")
    if isinstance(prefixes, dict) and roll < 0.9:
        if prefixes and rng.random() < 0.5:
            prefixes[rng.choice(list(prefixes))] = rng.choice(_OTHER_VALUES[:6] + _BAD_IRIS[:3])
        else:
            prefixes[rng.choice(("a b", "1x", "_", "ok", ""))] = rng.choice(("https://e/", ""))
        return None
    _mutate_members(rng, doc)
    return None


def _read_outcome(read, text: str):
    try:
        store = read(text)
    except AieoError as exc:
        return type(exc).__name__, str(exc)
    return set(store.axioms), store.prefixes


def test_store_reader_matches_the_fault_order_reference():
    bases = [store_to_json(random_small_store(seed, max_axioms=30)) for seed in range(4)]
    bases += [store_to_json(_with_odd_text(random_small_store(seed, max_axioms=20), seed))
              for seed in range(4, 6)]
    bases.append(store_to_json(random_linked_store(1)))
    bases.append(_doc_with_axioms(*_EVERY_KIND, prefixes=_EX))  # list-valued members
    rng = random.Random(1812)
    outcomes = set()
    for n in range(3000):
        doc = json.loads(bases[n % len(bases)])
        hit = _mutate_store_document(rng, doc, None)
        if n % 2:  # a second fault, in the same axiom half of the time
            _mutate_store_document(rng, doc, hit if rng.random() < 0.5 else None)
        text = json.dumps(doc)
        outcome = _read_outcome(store_from_json, text)
        assert outcome == _read_outcome(reference_store_from_json, text), text
        outcomes.add(outcome[0] if isinstance(outcome[0], str) else "store")
        if outcome[0] == "SchemaViolation":
            outcomes.add(outcome[1].split(": ", 1)[1].split(" '")[0])
    assert {"store", "SchemaViolation", "UndeclaredEntity", "unknown field",
            "required field is missing", "expected dict", "expected a JSON object",
            "unknown axiom kind", "expected a non-empty IRI string"} <= outcomes, outcomes


# A valid document with an object of every kind: objects a reader of the
# common case takes whole, each a base for one fault.
_EVERY_KIND = (
    {"kind": "Declaration", "iri": "A", "entityKind": "OwlClass"},
    {"kind": "Declaration", "iri": "ex:B", "entityKind": "OwlClass"},
    {"kind": "Declaration", "iri": "https://example.org/C", "entityKind": "OwlClass"},
    {"kind": "Declaration", "iri": "p", "entityKind": "ObjectProperty"},
    {"kind": "Declaration", "iri": "q", "entityKind": "ObjectProperty"},
    {"kind": "Declaration", "iri": "x", "entityKind": "NamedIndividual"},
    {"kind": "Declaration", "iri": "y", "entityKind": "NamedIndividual"},
    {"kind": "Declaration", "iri": "note", "entityKind": "AnnotationProperty"},
    {"kind": "SubClassOf", "sub": "A", "sup": "ex:B"},
    {"kind": "EquivalentClasses", "classes": ["A", "ex:C"]},
    {"kind": "DisjointClasses", "a": "ex:B", "b": "ex:C"},
    {"kind": "SubObjectPropertyOf", "sub": "p", "sup": "q"},
    {"kind": "EquivalentObjectProperties", "properties": ["q", "p"]},
    {"kind": "ObjectPropertyRange", "prop": "p", "cls": "A"},
    {"kind": "ObjectPropertyDomain", "prop": "p", "cls": "ex:B"},
    {"kind": "ClassAssertion", "cls": "A", "ind": "x"},
    {"kind": "ObjectPropertyAssertion", "subject": "x", "prop": "p", "object": "y"},
    {"kind": "SameIndividual", "a": "y", "b": "x"},
    {"kind": "AnnotationAssertion", "subject": "x", "annProp": "note", "value": {"text": "t"}},
    {"kind": "AnnotationAssertion", "subject": "ex:C", "annProp": "note",
     "value": {"text": "t", "languageTag": "en"}},
)
_EX = {"ex": "https://example.org/"}


def _every_kind_with(i: int, change) -> str:
    """The document with ``change`` applied to a copy of object ``i``."""
    axioms = copy.deepcopy(list(_EVERY_KIND))
    change(axioms[i])
    return _doc_with_axioms(*axioms, prefixes=_EX)


def _as_the_reference_reads(text: str):
    outcome = _read_outcome(store_from_json, text)
    assert outcome == _read_outcome(reference_store_from_json, text), text
    return outcome


def _set(key, value, inside=None):
    def change(obj):
        (obj if inside is None else obj[inside])[key] = value
    return change


def test_every_kind_document_reads_as_the_reference_does():
    outcome = _as_the_reference_reads(_doc_with_axioms(*_EVERY_KIND, prefixes=_EX))
    assert len(outcome[0]) == len(_EVERY_KIND)


def test_a_null_language_tag_is_a_fault_where_an_absent_one_is_not():
    for i in (18, 19):
        outcome = _as_the_reference_reads(_every_kind_with(i, _set("languageTag", None, "value")))
        assert outcome == ("SchemaViolation", f"$.axioms[{i}].value.languageTag: expected str")


@pytest.mark.parametrize("value", [True, 1, 0, False, None, 2.5])
def test_a_non_string_where_a_string_is_expected(value):
    for i, obj in enumerate(_EVERY_KIND):
        for key in obj:
            assert _as_the_reference_reads(_every_kind_with(i, _set(key, value)))[0] == (
                "SchemaViolation")
        if "value" in obj:
            for key in ("text", "languageTag"):
                assert _as_the_reference_reads(
                    _every_kind_with(i, _set(key, value, "value")))[0] == "SchemaViolation"


@pytest.mark.parametrize("key", ["kind", "entityKind"])
@pytest.mark.parametrize("value", [["Declaration"], ["OwlClass"], [], {"kind": "Declaration"}])
def test_a_list_or_object_as_a_kind(key, value):
    for i in range(len(_EVERY_KIND)):
        outcome = _as_the_reference_reads(_every_kind_with(i, _set(key, value)))
        assert outcome[0] == "SchemaViolation"


@pytest.mark.parametrize("member", [1, True, None, 2.5, "", ["A"], {"iri": "A"}, "a>b"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_bad_member_of_an_equivalence_list(member, at):
    for i, key in ((9, "classes"), (12, "properties")):
        def change(obj, key=key):
            obj[key].insert(at, member)
        outcome = _as_the_reference_reads(_every_kind_with(i, change))
        assert outcome[0] == "SchemaViolation" and outcome[1].startswith(f"$.axioms[{i}].{key}[")


@pytest.mark.parametrize("value", ["A", "AC", {"A": 1, "ex:C": 2}, ("A", "ex:C")])
def test_a_string_or_an_object_where_a_list_is_expected(value):
    # Each iterates as a list of strings would; a tuple is written as a list.
    for i, key in ((9, "classes"), (12, "properties")):
        outcome = _as_the_reference_reads(_every_kind_with(i, _set(key, value)))
        if isinstance(value, tuple):
            assert outcome[0] != "SchemaViolation"
        else:
            assert outcome == ("SchemaViolation", f"$.axioms[{i}].{key}: expected list")


@pytest.mark.parametrize("extra", ["x", "", "Kind", "iri", "text"])
def test_an_extra_member_on_an_otherwise_valid_object(extra):
    for i, obj in enumerate(_EVERY_KIND):
        if extra not in obj:
            assert _as_the_reference_reads(_every_kind_with(i, _set(extra, "A"))) == (
                "SchemaViolation", f"$.axioms[{i}].{extra}: unknown field")
        if extra not in obj.get("value", {extra: None}):
            assert _as_the_reference_reads(_every_kind_with(i, _set(extra, "t", "value"))) == (
                "SchemaViolation", f"$.axioms[{i}].value.{extra}: unknown field")


@pytest.mark.parametrize("first", [
    {"kind": "SubClassOf", "sub": "D", "sup": 5},  # D resolved, then a fault
    {"kind": "SubClassOf", "sub": "D", "sup": "A", "x": 1},
    {"kind": "DisjointClasses", "a": "D", "b": "D"},  # a constructor fault
    {"kind": "EquivalentClasses", "classes": ["D", "A", None]},
    {"kind": "AnnotationAssertion", "subject": "D", "annProp": "note", "value": {"text": ""}},
    {"kind": "ClassAssertion", "cls": "D", "ind": "z"},  # z is never declared
    {"kind": "ClassAssertion", "cls": "D>", "ind": "x"},
    {"kind": "Declaration", "iri": "D", "entityKind": "Class"},
])
def test_an_iri_seen_first_in_a_faulty_object_then_in_a_valid_one(first):
    later = ({"kind": "Declaration", "iri": "D", "entityKind": "OwlClass"},
             {"kind": "SubClassOf", "sub": "D", "sup": "A"},
             {"kind": "ClassAssertion", "cls": "D", "ind": "x"})
    text = _doc_with_axioms(first, *_EVERY_KIND, *later, prefixes=_EX)
    assert _as_the_reference_reads(text)[0] in ("SchemaViolation", "UndeclaredEntity")
    valid = _doc_with_axioms(*_EVERY_KIND, *later, prefixes=_EX)
    assert ClassAssertion(aieo("D"), aieo("x")) in _as_the_reference_reads(valid)[0]


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
        ('{"id": "aieo:X", "title": "x", "conceptDeclarations": '
         '[{"name": "a", "kind": "Principle"}, {"name": "b", "kind": "Bogus"}]}',
         "$.conceptDeclarations[1]"),
    ],
)
def test_framework_document_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as exc:
        parse_framework_document(doc)
    assert exc.value.field_name == path


@pytest.mark.parametrize("a,b", [("Fairness", "Fairness"), ("a b", "a-b")])
def test_framework_document_duplicate_concepts_rejected(a, b):
    with pytest.raises(SchemaViolation, match="duplicate concept name") as exc:
        parse_framework_document(json.dumps({
            "id": "aieo:X",
            "title": "x",
            "conceptDeclarations": [
                {"name": a, "kind": "Principle"},
                {"name": b, "kind": "Requirement"},
            ],
        }))
    assert exc.value.field_name == "$.conceptDeclarations"


# ---------------------------------------------------------------------------
# Pipeline config
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config("{}")
    assert cfg.extraction.top_k == 10
    assert cfg.classification.entries == ()
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
    assert cfg.classification.entries == (("risk", aieo("Risk_keyword")),)
    assert cfg.confirmations == (frozenset((aieo("a"), aieo("b"))),)
    assert cfg.threshold == 0.7
    assert type(parse_config('{"threshold": 1}').threshold) is float


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


_IRI_ERROR = "an IRI cannot contain '>', a tab or a line break"


@pytest.mark.parametrize(
    "member,message",
    [
        (5, ": expected a JSON object"),
        ("ab", ": expected a JSON object"),
        (["left"], ": expected a JSON object"),
        (None, ": expected a JSON object"),
        ({}, ".left: required field is missing"),
        ({"left": "a"}, ".right: required field is missing"),
        ({"left": "a", "x": "b"}, ".x: unknown field"),
        ({"left": "a", "right": "b", "x": 1}, ".x: unknown field"),
        ({"left": 5, "right": "b"}, ".left: expected str"),
        ({"left": [1], "right": "b"}, ".left: expected str"),
        ({"left": "a", "right": {"x": 1}}, ".right: expected str"),
        ({"left": "", "right": "b"}, ".left: expected a non-empty IRI string"),
        ({"left": "a>b", "right": "b"}, f".left: {_IRI_ERROR}"),
        ({"left": "a", "right": "a\tb"}, f".right: {_IRI_ERROR}"),
        ({"left": "a", "right": "a"}, ": left and right must differ"),
        ({"right": "b", "left": "aieo:b"}, ": left and right must differ"),
    ],
)
def test_a_faulty_confirmation_after_a_good_one_reports_its_first_fault(member, message):
    doc = json.dumps({"confirmations": [{"left": "a", "right": "b"}, member]})
    with pytest.raises(SchemaViolation) as exc:
        parse_config(doc)
    assert str(exc.value) == "$.confirmations[1]" + message


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"extraction": {"stopwords": ["the", 1]}}', "$.extraction.stopwords[1]: expected str"),
        ('{"classificationMap": {"risk": 3}}', "$.classificationMap.risk: expected str"),
        ('{"threshold": "0.5"}', "$.threshold: expected a number"),
        # Too large for a float: the range is checked first.
        *[(f'{{"threshold": {sign}1{"0" * 400}}}', "$.threshold: threshold must be in (0, 1]")
          for sign in ("", "-")],
    ],
)
def test_parse_config_type_messages(doc, message):
    with pytest.raises(SchemaViolation) as exc:
        parse_config(doc)
    assert str(exc.value) == message


# Bases with every member of each form, for the document and config
# differentials below.
_FULL_DOCUMENT = {
    "id": "aieo:ZZ",
    "title": "Full",
    "sections": [{"heading": "Scope", "body": "Risk."}, {"heading": "", "body": ""}],
    "conceptDeclarations": [
        {"name": "Fairness", "kind": "Principle", "shortDescription": "d", "reference": "r"},
        {"name": "a b", "kind": "Requirement"},
        {"name": "Safety", "kind": "Nope", "reference": ""},
    ],
}
_FULL_CONFIG = {
    "extraction": {"stopwords": ["The", "and"], "minTokenLength": 2, "topK": 5,
                   "relevantTopK": 5},
    "classificationMap": {"risk": "Risk_keyword", "x": "aieo:Characteristic_keyword"},
    "confirmations": [{"left": "a", "right": "aieo:b"}, {"left": "https://e/x", "right": "c"}],
    "threshold": 1,
}
_TREE_VALUES = _OTHER_VALUES + (
    -1, 1, 0.75, "a>b", "zz:q", "Principle", "Risk_keyword", "aieo:AU_Fairness",
    ["The", 5], {"left": "a", "right": "a"},
)
_TREE_NAMES = ("x", "", "id", "kind", "name", "left", "right", "topK", "stopwords", "heading")


def _containers(value, out: list) -> list:
    """Every object and array inside ``value``, itself first."""
    if isinstance(value, (dict, list)):
        out.append(value)
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, out)
    return out


def _mutate_tree(rng: random.Random, doc):
    """One fault anywhere in the document: a member or item deleted,
    replaced by another value, copied over another, or added. Returns the
    document, which the fault may replace whole."""
    containers = _containers(doc, [])
    if not containers or rng.random() < 0.03:
        return copy.deepcopy(rng.choice(_TREE_VALUES))
    target = rng.choice(containers)
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    value = copy.deepcopy(rng.choice(_TREE_VALUES))
    op = rng.randrange(4) if keys else 3
    if op == 0:
        del target[rng.choice(keys)]
    elif op == 1:
        target[rng.choice(keys)] = value
    elif op == 2:  # equal sides, duplicate names, an item twice
        target[rng.choice(keys)] = copy.deepcopy(target[rng.choice(keys)])
    elif isinstance(target, dict):
        target[rng.choice(_TREE_NAMES)] = value
    else:
        target.insert(rng.randint(0, len(target)), value)
    return doc


def _reader_outcome(read, text: str):
    try:
        return read(text)
    except AieoError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("read,reference,bases,checks", [
    (parse_framework_document, reference_parse_framework_document,
     [(DATA / "au_framework.json").read_text(), (DATA / "eu_framework.json").read_text(),
      json.dumps(_FULL_DOCUMENT)],
     {"duplicate concept name in document:", "concept name must be non-empty"}),
    (parse_config, reference_parse_config,
     [(DATA / "pipeline_config.json").read_text(), json.dumps(_FULL_CONFIG)],
     {"expected int", "expected a number", "left and right must differ",
      "classification target for", "topK must be >= 1", "threshold must be in (0, 1]"}),
], ids=["document", "config"])
def test_document_and_config_readers_match_the_fault_order_reference(
    read, reference, bases, checks
):
    rng = random.Random(2032)
    outcomes = set()
    for n in range(1500):
        doc = _mutate_tree(rng, json.loads(bases[n % len(bases)]))
        if n % 2:
            doc = _mutate_tree(rng, doc)
        text = json.dumps(doc)
        outcome = _reader_outcome(read, text)
        assert outcome == _reader_outcome(reference, text), text
        if type(outcome) is tuple:  # an error; a read value is a tagged record
            outcomes.add(outcome[1].split(": ", 1)[1].split(" '")[0])
        else:
            outcomes.add("read")
    # Every kind of fault, the checks across members included, is met.
    assert {"read", "unknown field", "required field is missing", "expected str",
            "expected list", "expected a JSON object",
            "expected a non-empty IRI string"} | checks <= outcomes, outcomes


def test_shipped_sample_files_parse_and_ingest():
    au = parse_framework_document((DATA / "au_framework.json").read_text())
    eu = parse_framework_document((DATA / "eu_framework.json").read_text())
    cfg = parse_config((DATA / "pipeline_config.json").read_text())
    assert len(au.concept_declarations) == 8
    assert len(eu.concept_declarations) == 14
    store, rec1 = run_iteration(seed_schema(), au, cfg)
    store, rec2 = run_iteration(store, eu, cfg)
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


# ---------------------------------------------------------------------------
# Canonical JSON: the writer against the stdlib encoder
# ---------------------------------------------------------------------------

# Non-ASCII (an emoji escapes as a surrogate pair), JSON's own escapes,
# control characters, DEL, and the separators U+2028 and U+2029.
_TEXTS = (
    "caf\u00e9", "\u4e2d\u6587", "rocket \U0001F680", 'say "hi"', "back\\slash",
    "tab\tnew\nline\r", "nul\x00 bell\x07 esc\x1b \x7f", "line\u2028para\u2029",
    "plain",
)
_TAGS = (None, "en", "fr-CA", "zh-Hans")


def _with_odd_text(store: OntologyStore, seed: int) -> OntologyStore:
    """The store plus a non-ASCII prefix and individual, and labels drawn
    from the texts and language tags above."""
    rng = random.Random(seed)
    store = with_prefixes(store, {**store.prefixes, "z\u00e9": "https://example.org/zo\u00eb/"})
    store.declare(Iri("https://example.org/zo\u00eb/\u4e2d"), EntityKind.NAMED_INDIVIDUAL)
    store.declare(RDFS_LABEL, EntityKind.ANNOTATION_PROPERTY)
    subjects = store.declared(EntityKind.OWL_CLASS) + store.declared(EntityKind.NAMED_INDIVIDUAL)
    for _ in range(rng.randint(1, 8)):
        text = "".join(rng.sample(_TEXTS, rng.randint(1, 3)))
        store.add(AnnotationAssertion(
            rng.choice(subjects), RDFS_LABEL, AnnotationValue(text, rng.choice(_TAGS))
        ))
    return store


def _graph_obj(graph) -> dict:
    return {
        "nodes": [
            {"id": n.id, "label": n.label, "kind": n.kind, "annotation": n.annotation}
            for n in graph.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "label": e.label, "kind": e.kind}
            for e in graph.edges
        ],
    }


def _rows_obj(result) -> list:
    return [
        {str(v): render_literal(t) if isinstance(t, AnnotationValue) else str(t)
         for v, t in zip(result.variables, row)}
        for row in result.rows
    ]


_LABELS = Query(
    (Variable("x"), Variable("l")),
    (TriplePattern(Variable("x"), RDFS_LABEL, Variable("l")),),
)


def _assert_canonical(store: OntologyStore, seed: int) -> None:
    assert store_to_json(store) == reference_store_to_json(store)
    mat = materialize(store)
    assert traces_to_json(mat) == reference_traces_to_json(mat)
    for level in DetailLevel:
        graph = export_graph(mat, level)
        assert render_json(graph) == reference_json(_graph_obj(graph))
    rng = random.Random(seed)
    patterns, projected, distinct = random_query(rng)
    results = [
        evaluate(_LABELS, mat),
        evaluate(Query(projected, tuple(patterns), distinct), mat),
        canned_query("principles_by_framework", mat),
    ]
    for result in results:
        assert result.to_json() == reference_json(_rows_obj(result))


@pytest.mark.filterwarnings("ignore::UserWarning")  # random queries may be cartesian
@pytest.mark.parametrize("make", [random_store, random_linked_store, random_small_store])
def test_canonical_json_matches_the_stdlib_encoder(make):
    for seed in range(25):
        _assert_canonical(make(seed), seed)
        _assert_canonical(_with_odd_text(make(seed), seed), seed)


def test_canonical_json_edge_stores():
    _assert_canonical(OntologyStore(), 0)
    assert store_to_json(OntologyStore()) == '{\n  "axioms": [],\n  "prefixes": {}\n}\n'
    bare = with_prefixes(_with_odd_text(random_small_store(3), 3), {})
    _assert_canonical(bare, 3)
    assert store_to_json(bare).endswith('  "prefixes": {}\n}\n')
    _assert_canonical(seed_schema(), 0)  # consistent, nothing inferred


def test_prefix_maps_with_odd_text_write_as_the_stdlib_does():
    # Names are what a store admits, non-ASCII ones included; the odd text
    # (JSON's escapes, '%', control characters but the tab and line breaks
    # an IRI refuses, U+2028) goes into bases.
    names = ("caf\u00e9", "\u4e2d\u6587", "", "_x", "a-1")
    bases = ("100%", "%s %% %(k)s", 'say "hi"', "back\\slash", "nul\x00 bell\x07 \x7f",
             "ctl\x01\x1f\x08\x0c", "line\u2028para\u2029", "rocket \U0001F680", "caf\u00e9")
    for i, text in enumerate(bases):
        name = names[i % len(names)]
        store = random_small_store(i)
        prefixes = {**store.prefixes, name: "https://e/" + text, "p" + name: text}
        store = with_prefixes(store, prefixes)
        assert store_to_json(store) == reference_store_to_json(store), text
    only_prefixes = OntologyStore(dict(zip(names, reversed(bases))))
    assert store_to_json(only_prefixes) == reference_store_to_json(only_prefixes)


def _one_of_each_type() -> list:
    """Axioms of every type from odd-text stores, with a tagged and an
    untagged literal among them."""
    found: dict = {}
    for seed in range(6):
        for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
            for ax in sorted_axioms(_with_odd_text(store, seed).axioms):
                if isinstance(ax, AnnotationAssertion):
                    found.setdefault((AnnotationAssertion, ax.value.language_tag is None), ax)
                else:
                    found.setdefault(type(ax), ax)
    assert {key if isinstance(key, type) else key[0] for key in found} == set(AXIOM_TYPES)
    assert (AnnotationAssertion, True) in found and (AnnotationAssertion, False) in found
    return list(found.values())


def test_every_axiom_type_writes_at_every_nesting_depth():
    for ax in _one_of_each_type():
        for depth in range(4):
            indent = "\n" + "  " * depth
            expected = json.dumps(reference_axiom_obj(ax), indent=2, sort_keys=True)
            assert _AXIOM_WRITERS[type(ax)](ax, indent) == expected.replace("\n", indent), (
                ax, depth)


def _store_of_classes(names: str) -> OntologyStore:
    store = OntologyStore({"ex": "https://example.org/"})
    for name in names:
        store.declare(aieo(name), EntityKind.OWL_CLASS)
    store.declare(aieo("x"), EntityKind.NAMED_INDIVIDUAL)
    return store


def test_trace_sidecar_with_set_premises_and_several_traces():
    store = _store_of_classes("ABC")
    store.add(EquivalentClasses([aieo("A"), aieo("B")]))
    store.add(SubClassOf(aieo("A"), aieo("C"))).add(SubClassOf(aieo("B"), aieo("C")))
    store.add(ClassAssertion(aieo("A"), aieo("x")))
    mat = materialize(store)
    assert len(mat.traces[ClassAssertion(aieo("C"), aieo("x"))]) > 1
    (trace,) = mat.traces[ClassAssertion(aieo("B"), aieo("x"))]
    assert any(type(premise) is EquivalentClasses for premise in trace.premises)
    assert traces_to_json(mat) == reference_traces_to_json(mat)


# The sidecar's text is one join over pieces it shares, so its memory peak is
# the text plus each distinct axiom's text once. A writer that also holds a
# string per trace and per fact peaks above 2.5 times its text on these
# stores (CPython 3.10 to 3.13); this one stays under 1.75.
_SIDECAR_PEAK_PER_BYTE = 2.1


@pytest.mark.parametrize("store", [random_linked_store(3), random_store(3)],
                         ids=["linked", "random"])
def test_trace_sidecar_peak_memory_is_bounded_by_its_size(store):
    mat = materialize(store)
    tracemalloc.start()
    try:
        sidecar = traces_to_json(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sidecar == reference_traces_to_json(mat)
    assert peak < _SIDECAR_PEAK_PER_BYTE * len(sidecar)


def test_trace_sidecar_with_nothing_inferred():
    for store in (OntologyStore(), _store_of_classes("AB"), seed_schema()):
        mat = materialize(store)
        assert not mat.inferred
        assert traces_to_json(mat) == reference_traces_to_json(mat) == "[]\n"


def test_render_json_of_graphs_without_edges():
    empty = GraphDoc((), ())
    assert render_json(empty) == reference_json(_graph_obj(empty))
    assert render_json(empty) == '{\n  "edges": [],\n  "nodes": []\n}\n'
    lonely = GraphDoc(tuple(
        GraphNode(f"ex:n{i}", text, "class" if i % 2 else "individual", text[::-1])
        for i, text in enumerate(_TEXTS)
    ), ())
    assert render_json(lonely) == reference_json(_graph_obj(lonely))


def test_object_template_writes_members_in_sorted_key_order():
    fmt = object_template({"a": None, "b": encode_string("100%")}, "\n")
    assert fmt % (encode_string("x"),) + "\n" == reference_json({"b": "100%", "a": "x"})
    with pytest.raises(ValueError):
        object_template({"b": None, "a": None}, "\n")


def _random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        return rng.choice([
            True, False, None, 0, -7, 2**70, 1.0, -0.0, 0.1, 1e300, 5e-324,
            math.inf, -math.inf, math.nan, "", *_TEXTS,
        ])
    if roll < 0.7:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.8:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    keys = rng.sample(_TEXTS + ("a", "B", "kind", ""), rng.randint(0, 4))
    return {key: _random_value(rng, depth + 1) for key in keys}


def test_canonical_json_scalars_and_nesting():
    rng = random.Random(7)
    for _ in range(500):
        value = _random_value(rng, 0)
        assert canonical_json(value) == reference_json(value)
    assert canonical_json({1: "a"}) == reference_json({1: "a"})


def test_cli_tour_writes_canonical_json(tmp_path, capsys):
    def cli(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    config = ("--config", DATA / "pipeline_config.json")
    assert cli("seed", "--out", tmp_path / "seed.ttl")[0] == 0
    assert cli("ingest", tmp_path / "seed.ttl", DATA / "au_framework.json", *config,
               "--out", tmp_path / "au.ttl", "--report", tmp_path / "au.json")[0] == 0
    assert cli("ingest", tmp_path / "au.ttl", DATA / "eu_framework.json", *config,
               "--out", tmp_path / "full.ttl")[0] == 0
    assert cli("reason", tmp_path / "full.ttl", "--out", tmp_path / "closed.json",
               "--trace")[0] == 0

    full = parse_turtle((tmp_path / "full.ttl").read_text(encoding="utf-8"))
    mat = materialize(full)
    closed = full.copy()
    for fact in mat.inferred:
        closed.add(fact)
    assert (tmp_path / "closed.json").read_text() == reference_store_to_json(closed)
    sidecar = (tmp_path / "closed.trace.json").read_text()
    assert sidecar == reference_traces_to_json(mat) and sidecar != "[]\n"

    report = (tmp_path / "au.json").read_text()
    code, metrics = cli("metrics", tmp_path / "full.ttl", "--format", "json")
    assert code == 0
    for text in (report, metrics):
        assert reference_json(json.loads(text)) == text
