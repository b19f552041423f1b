"""JSON forms: store interchange, framework documents, pipeline configs,
the reasoner's trace sidecar, and the canonical writer all JSON output uses.

The interchange document is ``{"prefixes": {...}, "axioms": [...]}`` with
one object per axiom whose ``kind`` field names the variant. IRIs are
emitted absolute; on input, CURIEs are resolved against the document's own
prefixes (falling back to the standard map).

Each axiom type has one reader and one writer, both built once at import
from its :data:`AXIOM_TYPES` row. Every JSON object read, in a store, a
framework document or a config, is checked in the one fault order that
:func:`axiom_from_obj` describes. The store reader first tries each axiom
object with its type's compiled reader, which takes only an object that
the walk accepts, and reads it to the same axiom; any other object goes to
the walk, so the store and the first fault reported are the walk's.

Every JSON text written here has the bytes of
``json.dumps(value, indent=2, sort_keys=True)`` plus a newline. Free-form
values (reports, metrics, query rows, the store's prefix map) are written
by ``json.dumps`` itself, through :func:`canonical_json`. Objects of a
fixed shape are written from ``%`` templates built once at import: each
axiom type's object, the store document, the trace sidecar's fact and
trace rows, and, through :func:`object_template`, the graph nodes and
edges of :mod:`aieo.kgexport`. :func:`axiom_to_obj` is the parse of the
text its type's template writes, so the object and the text cannot differ.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Callable

from .errors import ParseError, SchemaViolation
from .model import (
    AXIOM_TYPES,
    AnnotationValue,
    Axiom,
    AxiomType,
    Declaration,
    EntityKind,
    Iri,
    OntologyStore,
    axiom_type,
    check_prefix,
    resolve_curie,
    sorted_axioms,
)
from .pipeline import (
    ClassificationMap,
    ConceptDeclaration,
    ExtractionConfig,
    FrameworkDocument,
    PipelineConfig,
    Section,
)
from .reasoner import Materialization, RuleId
from .schema import DEFAULT_PREFIXES, aieo


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    except RecursionError:  # the decoder recurses once per nested array/object
        raise ParseError(1, 1, "document nested too deeply") from None


class _IriTable(dict):
    """A document's IRI and CURIE strings -> their ``Iri``: each is resolved
    against the document's prefixes (then the standard map) on its first
    lookup. Looking up any other value raises ``ValueError``, or
    ``TypeError`` when it is unhashable; so does a string no ``Iri``
    accepts."""

    __slots__ = ("_table",)

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self._table = {**DEFAULT_PREFIXES, **prefixes}

    def __missing__(self, name: str) -> Iri:
        if not isinstance(name, str) or not name:
            raise ValueError("expected a non-empty IRI string")
        iri = self[name] = resolve_curie(name, self._table) if ":" in name else aieo(name)
        return iri

    def resolve(self, name: str, path: str) -> Iri:
        """The name's ``Iri``, or :class:`SchemaViolation` at ``path``."""
        # Checked first: a malformed value may be an unhashable list.
        if not isinstance(name, str) or not name:
            raise SchemaViolation(path, "expected a non-empty IRI string")
        try:
            return self[name]
        except ValueError as exc:
            raise SchemaViolation(path, str(exc)) from None


_MISSING = object()


def _object(value: Any, path: str, members: set[str] | frozenset[str] | None = None) -> dict:
    """The value, checked to be a JSON object and, when ``members`` is
    given, to have no member outside them: the first unknown one is
    reported."""
    if not isinstance(value, dict):
        raise SchemaViolation(path, "expected a JSON object")
    if members is not None and not value.keys() <= members:
        key = next(key for key in value if key not in members)
        raise SchemaViolation(f"{path}.{key}", "unknown field")
    return value


def _field(obj: dict, name: str, typ: type, path: str, default: Any = _MISSING) -> Any:
    value = obj.get(name, _MISSING)
    if type(value) is typ:
        return value
    if value is _MISSING:
        if default is _MISSING:
            raise SchemaViolation(f"{path}.{name}", "required field is missing")
        return default
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise SchemaViolation(f"{path}.{name}", f"expected {typ.__name__}")
    return value


# ---------------------------------------------------------------------------
# Store interchange
# ---------------------------------------------------------------------------

_ENTITY_KIND_VALUES = {k.value: k for k in EntityKind}


def axiom_to_obj(ax: Axiom) -> dict:
    """The axiom's interchange object, as plain JSON values: the parse of
    the text its type's template writes. No writer here calls it; it stays
    public for library callers that build their own documents."""
    return json.loads(_AXIOM_WRITERS[axiom_type(ax).cls](ax, "\n"))


def _iri_from_obj(obj: dict, key: str, resolve: Callable, path: str) -> Iri:
    return resolve(_field(obj, key, str, path), f"{path}.{key}")


def _iris_from_obj(obj: dict, key: str, resolve: Callable, path: str) -> frozenset[Iri]:
    raw = _field(obj, key, list, path)
    return frozenset(resolve(item, f"{path}.{key}[{i}]") for i, item in enumerate(raw))


def _kind_from_obj(obj: dict, key: str, resolve: Callable, path: str) -> EntityKind:
    value = _field(obj, key, str, path)
    if value not in _ENTITY_KIND_VALUES:
        raise SchemaViolation(f"{path}.{key}", f"expected one of {sorted(_ENTITY_KIND_VALUES)}")
    return _ENTITY_KIND_VALUES[value]


def _literal_from_obj(obj: dict, key: str, resolve: Callable, path: str) -> AnnotationValue:
    vpath = f"{path}.{key}"
    value = _object(_field(obj, key, dict, path), vpath, {"text", "languageTag"})
    return AnnotationValue(
        _field(value, "text", str, vpath), _field(value, "languageTag", str, vpath, None)
    )


# A field's reader by shape: (the axiom object, the field's JSON key,
# resolve, the object's path) -> the field's value.
_FROM_JSON: dict[type, Callable[[dict, str, Callable, str], Any]] = {
    Iri: _iri_from_obj,
    frozenset: _iris_from_obj,
    EntityKind: _kind_from_obj,
    AnnotationValue: _literal_from_obj,
}

# One reader per AXIOM_TYPES row, by JSON kind: the class, the members an
# object of the kind may have, and each field's JSON key and reader in
# field order.
_AXIOM_READERS = {
    row.tag: (
        row.cls,
        frozenset({"kind", *(f.json for f in row.fields)}),
        tuple((f.json, _FROM_JSON[f.shape]) for f in row.fields),
    )
    for row in AXIOM_TYPES.values()
}


def _iri_set(value: Any, iris: _IriTable) -> frozenset[Iri]:
    if type(value) is not list:
        raise TypeError("expected list")
    return frozenset(map(iris.__getitem__, value))


def _literal(value: Any) -> AnnotationValue:
    if type(value) is not dict or type(value["text"]) is not str:
        raise TypeError("expected a literal object")
    if len(value) == 1:
        return AnnotationValue(value["text"], None)
    tag = value["languageTag"]  # null is a fault, as an absent tag is not
    if len(value) != 2 or type(tag) is not str:
        raise TypeError("expected a literal object")
    return AnnotationValue(value["text"], tag)


# A field's value, read whole or not at all, by shape: the expression that
# reads it from the member's JSON value (``{}``) and the document's IRI
# table ``iris``.
_FIELD_CODE = {
    Iri: "iris[{}]",
    frozenset: "iri_set({}, iris)",
    EntityKind: "kinds[{}]",
    AnnotationValue: "literal({})",
}


def _compiled_reader(row: AxiomType) -> Callable[[dict, _IriTable], Axiom]:
    """The reader of the common case for the row's JSON kind: an object that
    has its kind, every field and no other member -> its axiom, as
    :func:`axiom_from_obj` reads it. It is one generated function that
    builds no path and reads each field by key; any other object raises
    ``KeyError``, ``TypeError`` or ``ValueError``."""
    fields = ", ".join(_FIELD_CODE[f.shape].format(f"obj[{f.json!r}]") for f in row.fields)
    # Each field is read by key, and "kind" was read already: a size that
    # matches means no other member.
    source = (f"def read(obj, iris):\n"
              f"    if len(obj) != {len(row.fields) + 1}:\n"
              f"        raise KeyError('a member missing or unknown')\n"
              f"    return cls({fields})\n")
    namespace = {"cls": row.cls, "iri_set": _iri_set, "kinds": _ENTITY_KIND_VALUES,
                 "literal": _literal}
    exec(source, namespace)
    return namespace["read"]


_COMPILED_READERS = {row.tag: _compiled_reader(row) for row in AXIOM_TYPES.values()}


def axiom_from_obj(obj: dict, resolve: Callable[[str, str], Iri], path: str) -> Axiom:
    """The axiom an interchange object describes; ``path`` names the object
    in messages (``$.axioms[3]``, say). ``resolve(name, path)`` turns an IRI
    or CURIE string into an ``Iri``, or raises :class:`SchemaViolation` at
    ``path``; it is also handed non-string values, and must reject them.

    Of several faults, the one reported is the first in this order, which
    every JSON object read here follows: the value is not an object; its
    ``kind``, which decides the members allowed; an unknown member; each
    field in field order (a literal's object checked in this same order,
    its constructor's ``ValueError`` reported at ``path``); then the axiom
    constructor's ``ValueError``, at ``path``.
    """
    tag = _field(_object(obj, path), "kind", str, path)
    reader = _AXIOM_READERS.get(tag)
    if reader is None:
        raise SchemaViolation(f"{path}.kind", f"unknown axiom kind {tag!r}")
    cls, members, fields = reader
    _object(obj, path, members)
    try:
        return cls(*[read(obj, key, resolve, path) for key, read in fields])
    except ValueError as exc:
        raise SchemaViolation(path, str(exc)) from None


def store_from_json(text: str) -> OntologyStore:
    doc = _object(_loads(text), "$", {"prefixes", "axioms"})
    prefixes = _field(doc, "prefixes", dict, "$", {})
    for prefix, base in prefixes.items():
        try:
            check_prefix(prefix, base)
        except ValueError as exc:
            raise SchemaViolation(f"$.prefixes.{prefix}", str(exc)) from None
    iris = _IriTable(prefixes)
    axioms = []
    for i, obj in enumerate(_field(doc, "axioms", list, "$", [])):
        try:
            ax = _COMPILED_READERS[obj["kind"]](obj, iris)
        except (KeyError, TypeError, ValueError):
            # Not the common case: the fault-order walk reads the object,
            # to the same axiom or to its first fault.
            ax = axiom_from_obj(obj, iris.resolve, f"$.axioms[{i}]")
        axioms.append(ax)
    # Declarations first; file order must not matter.
    declarations = [ax for ax in axioms if type(ax) is Declaration]
    rest = [ax for ax in axioms if type(ax) is not Declaration]
    return OntologyStore(prefixes).update(declarations).update(rest)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

encode_string = json.encoder.encode_basestring_ascii  # a string's JSON text


def array_text(items: list[str], indent: str) -> str:
    """The JSON array of items already written as JSON text, as it appears
    after ``indent``, the newline and spaces that start its line."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def object_template(members: dict[str, str | None], indent: str) -> str:
    """The ``%`` format of a JSON object as it appears after ``indent``.
    ``members`` maps each key, in sorted order, to its JSON text, or to None
    for a slot; ``%`` fills the slots with JSON text in key order."""
    keys = list(members)
    if keys != sorted(keys):
        raise ValueError(f"object keys must be in sorted order: {keys}")
    inner = indent + "  "
    return "{" + ",".join(
        inner + encode_string(key) + ": " + ("%s" if text is None else text.replace("%", "%%"))
        for key, text in members.items()
    ) + indent + "}"


def _literal_text(value: AnnotationValue, indent: str) -> str:
    inner = indent + "  "
    text = inner + '"text": ' + encode_string(value.text) + indent + "}"
    if value.language_tag:
        return "{" + inner + '"languageTag": ' + encode_string(value.language_tag) + "," + text
    return "{" + text


_ENTITY_KIND_TEXT = {kind: encode_string(kind.value) for kind in EntityKind}

# A field value's JSON text, as it appears after the indent given.
_TEXT_OF_SHAPE: dict[type, Callable[[Any, str], str]] = {
    Iri: lambda iri, indent: encode_string(iri),
    frozenset: lambda iris, indent: array_text(list(map(encode_string, sorted(iris))), indent),
    EntityKind: lambda kind, indent: _ENTITY_KIND_TEXT[kind],
    AnnotationValue: _literal_text,
}


def _axiom_writer(row: AxiomType) -> Callable[[Axiom, str], str]:
    """The writer of the type's interchange object: an axiom and the indent
    it appears after -> its JSON text, from one template per indent."""
    fields = sorted(row.fields, key=attrgetter("json"))
    members = dict(sorted(
        {"kind": encode_string(row.tag), **dict.fromkeys(f.json for f in fields)}.items()
    ))
    templates: dict[str, str] = {}  # one per indent met

    def template(indent: str) -> str:
        text = templates[indent] = object_template(members, indent)
        return text

    if len(fields) > 1 and all(f.shape is Iri for f in fields):
        values = attrgetter(*(f.name for f in fields))

        def write(ax: Axiom, indent: str) -> str:
            fmt = templates.get(indent) or template(indent)
            return fmt % tuple(map(encode_string, values(ax)))
    else:
        readers = tuple((attrgetter(f.name), _TEXT_OF_SHAPE[f.shape]) for f in fields)

        def write(ax: Axiom, indent: str) -> str:
            fmt, inner = templates.get(indent) or template(indent), indent + "  "
            return fmt % tuple(text(read(ax), inner) for read, text in readers)

    return write


_AXIOM_WRITERS = {row.cls: _axiom_writer(row) for row in AXIOM_TYPES.values()}


def canonical_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``: the writer of
    free-form values such as reports, metrics and query rows. Objects of a
    fixed shape (axioms, the store document, trace sidecar rows, graph
    nodes and edges) are written from templates built once at import, to
    the same bytes."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_STORE = object_template({"axioms": None, "prefixes": None}, "\n")


def store_to_json(store: OntologyStore) -> str:
    axioms = [_AXIOM_WRITERS[type(ax)](ax, "\n    ") for ax in sorted_axioms(store)]
    # json.dumps escapes every newline inside a string, so each newline it
    # writes starts a line and takes the document's indent.
    prefixes = json.dumps(dict(store.prefixes), indent=2, sort_keys=True).replace("\n", "\n  ")
    return _STORE % (array_text(axioms, "\n  "), prefixes) + "\n"


# ---------------------------------------------------------------------------
# Framework documents
# ---------------------------------------------------------------------------

def parse_framework_document(text: str) -> FrameworkDocument:
    obj = _object(_loads(text), "$", {"id", "title", "sections", "conceptDeclarations"})
    resolve = _IriTable({}).resolve
    doc_id = resolve(_field(obj, "id", str, "$"), "$.id")
    title = _field(obj, "title", str, "$")
    sections = []
    for i, raw in enumerate(_field(obj, "sections", list, "$", [])):
        spath = f"$.sections[{i}]"
        _object(raw, spath, {"heading", "body"})
        sections.append(
            Section(_field(raw, "heading", str, spath), _field(raw, "body", str, spath))
        )
    concepts = []
    for i, raw in enumerate(_field(obj, "conceptDeclarations", list, "$", [])):
        cpath = f"$.conceptDeclarations[{i}]"
        _object(raw, cpath, {"name", "kind", "shortDescription", "reference"})
        try:
            concepts.append(ConceptDeclaration(
                name=_field(raw, "name", str, cpath),
                kind=_field(raw, "kind", str, cpath),
                short_description=_field(raw, "shortDescription", str, cpath, None),
                reference=_field(raw, "reference", str, cpath, None),
            ))
        except ValueError as exc:
            raise SchemaViolation(cpath, str(exc)) from None
    try:
        return FrameworkDocument(doc_id, title, tuple(sections), tuple(concepts))
    except ValueError as exc:
        raise SchemaViolation("$.conceptDeclarations", str(exc)) from None


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

def _confirmation(raw: Any, path: str, resolve: Callable[[str, str], Iri]) -> frozenset[Iri]:
    """The pair of IRIs a confirmation names, or its first fault."""
    _object(raw, path, {"left", "right"})
    left = resolve(_field(raw, "left", str, path), f"{path}.left")
    right = resolve(_field(raw, "right", str, path), f"{path}.right")
    if left == right:
        raise SchemaViolation(path, "left and right must differ")
    return frozenset((left, right))


def parse_config(text: str) -> PipelineConfig:
    """Parse a pipeline config; every field is optional and defaulted."""
    obj = _object(
        _loads(text), "$", {"extraction", "classificationMap", "confirmations", "threshold"}
    )
    table = _IriTable({})
    resolve = table.resolve

    extraction = ExtractionConfig()
    if "extraction" in obj:
        raw = _object(
            obj["extraction"], "$.extraction",
            {"stopwords", "minTokenLength", "topK", "relevantTopK"},
        )
        kwargs: dict = {}
        if "stopwords" in raw:
            words = _field(raw, "stopwords", list, "$.extraction")
            for i, w in enumerate(words):
                if not isinstance(w, str):
                    raise SchemaViolation(f"$.extraction.stopwords[{i}]", "expected str")
            kwargs["stopwords"] = frozenset(w.lower() for w in words)
        for key, name in (("minTokenLength", "min_token_length"), ("topK", "top_k"),
                          ("relevantTopK", "relevant_top_k")):
            if key in raw:
                kwargs[name] = _field(raw, key, int, "$.extraction")
        try:
            extraction = ExtractionConfig(**kwargs)
        except ValueError as exc:
            raise SchemaViolation("$.extraction", str(exc)) from None

    classification = ClassificationMap()
    if "classificationMap" in obj:
        raw = _object(obj["classificationMap"], "$.classificationMap")
        entries = {}
        for keyword, target in raw.items():
            if not isinstance(target, str):
                raise SchemaViolation(f"$.classificationMap.{keyword}", "expected str")
            entries[keyword] = resolve(target, f"$.classificationMap.{keyword}")
        try:
            classification = ClassificationMap(entries)
        except ValueError as exc:
            raise SchemaViolation("$.classificationMap", str(exc)) from None

    confirmations = []
    for i, raw in enumerate(_field(obj, "confirmations", list, "$", [])):
        # A well-formed member is read without building its paths; any other
        # goes to _confirmation, which reports its first fault.
        try:
            pair = frozenset((table[raw["left"]], table[raw["right"]]))
        except (KeyError, TypeError, ValueError):
            pair = None
        if pair is None or len(pair) != 2 or type(raw) is not dict or len(raw) != 2:
            pair = _confirmation(raw, f"$.confirmations[{i}]", resolve)
        confirmations.append(pair)

    threshold = obj.get("threshold", 0.5)
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise SchemaViolation("$.threshold", "expected a number")

    try:
        return PipelineConfig(
            extraction=extraction,
            classification=classification,
            confirmations=tuple(confirmations),
            threshold=float(threshold),
        )
    except ValueError as exc:
        raise SchemaViolation("$.threshold", str(exc)) from None


# ---------------------------------------------------------------------------
# Reasoner trace sidecar
# ---------------------------------------------------------------------------

_FACT = object_template({"conclusion": None, "traces": None}, "\n  ")
_TRACE = object_template({"premises": None, "rule": None}, "\n      ")
_RULE_TEXT = {rule: encode_string(rule.value) for rule in RuleId}


def traces_to_json(mat: Materialization) -> str:
    """Every inferred fact with all of its one-step derivations."""
    premises: dict[Axiom, str] = {}  # each distinct premise is written once

    def premise(ax: Axiom) -> str:
        text = premises.get(ax)
        if text is None:
            text = premises[ax] = _AXIOM_WRITERS[type(ax)](ax, "\n          ")
        return text

    facts = []
    for fact in sorted_axioms(mat.inferred):
        traces = [
            _TRACE % (array_text(list(map(premise, trace.premises)), "\n        "),
                      _RULE_TEXT[trace.rule])
            for trace in mat.traces[fact]
        ]
        facts.append(_FACT % (_AXIOM_WRITERS[type(fact)](fact, "\n    "),
                              array_text(traces, "\n    ")))
    if not facts:
        return "[]\n"
    # The text of array_text(facts, "\n") + "\n", made by one join: the
    # sidecar can be the largest text the CLI writes, and a "+" would copy
    # all of it.
    facts[0] = "[\n  " + facts[0]
    facts[-1] += "\n]\n"
    return ",\n  ".join(facts)
