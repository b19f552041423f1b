"""JSON forms: store interchange, framework documents, pipeline configs,
the reasoner's trace sidecar, and the canonical writer all JSON output uses.

The interchange document is ``{"prefixes": {...}, "axioms": [...]}`` with
one object per axiom whose ``kind`` field names the variant. IRIs are
emitted absolute; on input, CURIEs are resolved against the document's own
prefixes (falling back to the standard map).

Each axiom type has one reader and one writer, both built once at import
from its :data:`AXIOM_TYPES` row. Every JSON object read, in a store, a
framework document or a config, is read by one function, which checks it
in the one fault order that :func:`_axiom` describes. A fault is raised
with its path relative to the object being read (``.sup``,
``.classes[2]``, ``.value.text``); each reader it passes through puts its
own step in front (``.axioms[3]``), and the document reader reports it as
a :class:`SchemaViolation` at ``$`` and that path. So a member that reads
cleanly builds no path.

Every JSON text written here has the bytes of
``json.dumps(value, indent=2, sort_keys=True)`` plus a newline. Free-form
values (reports, metrics, query rows, the store's prefix map) are written
by ``json.dumps`` itself, through :func:`canonical_json`. Objects of a
fixed shape are written from ``%`` templates built once at import: each
axiom type's object, the store document, and, through
:func:`object_template`, the graph nodes and edges of :mod:`aieo.kgexport`.
The trace sidecar is one join over a flat list of pieces: the fixed text
of its arrays and objects, cut once at import from the same templates;
each conclusion's axiom text; and each distinct premise's text, written
once per call and referenced from every trace that names it.
"""

from __future__ import annotations

import json
import re
import sys
from functools import partial
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
from .reasoner import Materialization, RuleId, explain
from .schema import DEFAULT_PREFIXES, aieo


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    except RecursionError:  # the decoder recurses once per nested array/object
        raise ParseError(1, 1, "document nested too deeply") from None
    except ValueError:  # int() refuses a long integer, and the decoder says not where
        limit = sys.get_int_max_str_digits()
        at = next((m.start() for m in _STRING_OR_NUMBER.finditer(text)
                   if m[1] and len(m[1].lstrip("-")) > limit), 0)
        error = json.JSONDecodeError(f"integer longer than {limit} digits", text, at)
        raise ParseError(error.lineno, error.colno, error.msg) from None


# A JSON string, or a number; group 1 is a number without fraction or exponent.
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+[.eE][-+.\deE]*|(-?\d+)')


class _Fault(Exception):
    """A fault in a JSON value being read, at ``path`` relative to that
    value (``""`` for the value itself)."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message


class _IriTable(dict):
    """A document's IRI and CURIE strings -> their ``Iri``: each is resolved
    against the document's prefixes (then the standard map) on its first
    lookup. A lookup reads the value of a member that holds an IRI string:
    looking up any other value (``_MISSING`` for an absent member), or a
    string no ``Iri`` accepts, raises a :class:`_Fault` at the value
    (``TypeError`` when the value is unhashable)."""

    __slots__ = ("_table",)

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self._table = {**DEFAULT_PREFIXES, **prefixes}

    def __missing__(self, name: Any) -> Iri:
        if type(name) is not str:
            raise _shape_fault(name, str)
        if not name:
            raise _Fault("", "expected a non-empty IRI string")
        try:
            iri = resolve_curie(name, self._table) if ":" in name else aieo(name)
        except ValueError as exc:
            raise _Fault("", str(exc)) from None
        self[name] = iri
        return iri


_MISSING = object()


def _object(value: Any, members: set[str] | frozenset[str] | None = None) -> dict:
    """The value, checked to be a JSON object and, when ``members`` is
    given, to have no member outside them: the first unknown one is
    reported."""
    if type(value) is not dict:
        raise _Fault("", "expected a JSON object")
    if members is not None and not members.issuperset(value):
        raise _unknown_member(value, members)
    return value


def _unknown_member(obj: dict, members: set[str] | frozenset[str]) -> _Fault:
    """The fault of the first member of ``obj`` outside ``members``."""
    return _Fault(f".{next(key for key in obj if key not in members)}", "unknown field")


def _shape_fault(value: Any, typ: type, path: str = "") -> _Fault:
    """The fault of a member that is absent (``value`` is ``_MISSING``) or
    holds no JSON value of type ``typ``."""
    return _Fault(path, "required field is missing" if value is _MISSING
                  else f"expected {typ.__name__}")


def _field(obj: dict, name: str, typ: type, default: Any = _MISSING) -> Any:
    """The member ``name`` of ``obj``, a JSON value of type ``typ`` (``true``
    is no int), or ``default`` when the member is absent and one is given."""
    value = obj.get(name, _MISSING)
    if type(value) is typ:
        return value
    if value is _MISSING and default is not _MISSING:
        return default
    raise _shape_fault(value, typ, f".{name}")


def _made(path: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, its ``ValueError`` a fault at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _Fault(path, str(exc)) from None


def _member(obj: dict, name: str, read: Callable[[Any], Any]) -> Any:
    """``read(value)`` of the member ``name`` of ``obj``, which is present;
    a fault in it is put under ``.name``."""
    try:
        return read(obj[name])
    except _Fault as fault:
        fault.path = f".{name}{fault.path}"
        raise


def _items(obj: dict, name: str, read: Callable[[Any], Any]) -> list:
    """``read(item)`` of each item of the optional array member ``name`` of
    ``obj``; a fault in item ``i`` is put under ``.name[i]``."""
    items, values = _field(obj, name, list, []), []
    try:
        for item in items:
            values.append(read(item))
    except _Fault as fault:
        fault.path = f".{name}[{len(values)}]{fault.path}"
        raise
    return values


def _iri(obj: dict, name: str, iris: _IriTable) -> Iri:
    """The member ``name`` of ``obj``, an IRI string, looked up in ``iris``."""
    try:
        return iris[obj.get(name, _MISSING)]
    except TypeError:  # an unhashable value
        raise _Fault(f".{name}", "expected str") from None
    except _Fault as fault:
        fault.path = f".{name}"
        raise


# ---------------------------------------------------------------------------
# Store interchange
# ---------------------------------------------------------------------------

_ENTITY_KIND_VALUES = {k.value: k for k in EntityKind}
_LITERAL_MEMBERS = frozenset({"text", "languageTag"})


def _iri_set(value: Any, iris: _IriTable) -> frozenset[Iri]:
    """An array of IRI strings, each looked up in ``iris``."""
    if type(value) is not list:
        raise _shape_fault(value, list)
    members = []
    for i, item in enumerate(value):
        if type(item) is not str:
            raise _Fault(f"[{i}]", "expected a non-empty IRI string")
        try:
            members.append(iris[item])
        except _Fault as fault:
            fault.path = f"[{i}]"
            raise
    return frozenset(members)


def _entity_kind(value: Any) -> EntityKind:
    if type(value) is not str:
        raise _shape_fault(value, str)
    kind = _ENTITY_KIND_VALUES.get(value)
    if kind is None:
        raise _Fault("", f"expected one of {sorted(_ENTITY_KIND_VALUES)}")
    return kind


def _literal(value: Any) -> AnnotationValue:
    """A literal object; the axiom's reader reports its ``ValueError``."""
    if type(value) is not dict:
        raise _shape_fault(value, dict)
    _object(value, _LITERAL_MEMBERS)
    return AnnotationValue(_field(value, "text", str), _field(value, "languageTag", str, None))


# The reader of a field that holds neither an IRI nor a set of IRIs, by
# shape: the member's value or _MISSING -> the field's value.
_FIELD_READERS: dict[type, Callable[[Any], Any]] = {
    EntityKind: _entity_kind,
    AnnotationValue: _literal,
}

# One reader per AXIOM_TYPES row, by JSON kind: the class, the members an
# object of the kind may have, and each field's JSON key and shape in field
# order.
_AXIOM_READERS = {
    row.tag: (row.cls, frozenset({"kind", *(f.json for f in row.fields)}),
              tuple((f.json, f.shape) for f in row.fields))
    for row in AXIOM_TYPES.values()
}


def _axiom(iris: _IriTable, obj: Any) -> Axiom:
    """The axiom an interchange object describes, its IRIs looked up in
    ``iris``. Of several faults, the one reported is the first in this
    order, which every JSON object read here follows: the value is not an
    object; its ``kind``, which decides the members allowed; an unknown
    member; each field in field order (a literal's object checked in this
    same order); then a constructor's ``ValueError``, the literal's
    included, at the object itself."""
    if type(obj) is not dict:
        raise _Fault("", "expected a JSON object")
    tag = obj.get("kind", _MISSING)
    if type(tag) is not str:
        raise _shape_fault(tag, str, ".kind")
    reader = _AXIOM_READERS.get(tag)
    if reader is None:
        raise _Fault(".kind", f"unknown axiom kind {tag!r}")
    cls, members, fields = reader
    if not members.issuperset(obj):
        raise _unknown_member(obj, members)
    values = []
    try:
        for key, shape in fields:
            value = obj.get(key, _MISSING)
            values.append(iris[value] if shape is Iri
                          else _iri_set(value, iris) if shape is frozenset
                          else _FIELD_READERS[shape](value))
        return cls(*values)
    except _Fault as fault:
        fault.path = f".{fields[len(values)][0]}{fault.path}"
        raise
    except TypeError:  # an unhashable value where an IRI string belongs
        raise _Fault(f".{fields[len(values)][0]}", "expected str") from None
    except ValueError as exc:
        raise _Fault("", str(exc)) from None


def store_from_json(text: str) -> OntologyStore:
    try:
        doc = _object(_loads(text), {"prefixes", "axioms"})
        prefixes = _field(doc, "prefixes", dict, {})
        for prefix, base in prefixes.items():
            try:
                check_prefix(prefix, base)
            except ValueError as exc:
                raise _Fault(f".prefixes.{prefix}", str(exc)) from None
        axioms = _items(doc, "axioms", partial(_axiom, _IriTable(prefixes)))
    except _Fault as fault:
        raise SchemaViolation("$" + fault.path, fault.message) from None
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
    fixed shape (axioms, the store document, the trace sidecar, graph
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

_SECTION_MEMBERS = frozenset({"heading", "body"})
_CONCEPT_MEMBERS = frozenset({"name", "kind", "shortDescription", "reference"})


def _section(raw: Any) -> Section:
    _object(raw, _SECTION_MEMBERS)
    return Section(_field(raw, "heading", str), _field(raw, "body", str))


def _concept(raw: Any) -> ConceptDeclaration:
    _object(raw, _CONCEPT_MEMBERS)
    return _made("", ConceptDeclaration, _field(raw, "name", str), _field(raw, "kind", str),
                 _field(raw, "shortDescription", str, None), _field(raw, "reference", str, None))


def parse_framework_document(text: str) -> FrameworkDocument:
    try:
        obj = _object(_loads(text), {"id", "title", "sections", "conceptDeclarations"})
        doc_id = _iri(obj, "id", _IriTable({}))
        title = _field(obj, "title", str)
        sections = _items(obj, "sections", _section)
        concepts = _items(obj, "conceptDeclarations", _concept)
        return _made(".conceptDeclarations", FrameworkDocument,
                     doc_id, title, tuple(sections), tuple(concepts))
    except _Fault as fault:
        raise SchemaViolation("$" + fault.path, fault.message) from None


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

def _extraction(raw: Any) -> ExtractionConfig:
    _object(raw, {"stopwords", "minTokenLength", "topK", "relevantTopK"})
    kwargs: dict = {}
    if "stopwords" in raw:
        words = _field(raw, "stopwords", list)
        for i, w in enumerate(words):
            if type(w) is not str:
                raise _Fault(f".stopwords[{i}]", "expected str")
        kwargs["stopwords"] = frozenset(w.lower() for w in words)
    for key, name in (("minTokenLength", "min_token_length"), ("topK", "top_k"),
                      ("relevantTopK", "relevant_top_k")):
        if key in raw:
            kwargs[name] = _field(raw, key, int)
    return _made("", ExtractionConfig, **kwargs)


def _classification(iris: _IriTable, raw: Any) -> ClassificationMap:
    entries = {keyword: _iri(raw, keyword, iris) for keyword in _object(raw)}
    return _made("", ClassificationMap, entries)


_CONFIRMATION_MEMBERS = frozenset({"left", "right"})


def _confirmation(iris: _IriTable, raw: Any) -> frozenset[Iri]:
    """The pair of IRIs a confirmation names."""
    _object(raw, _CONFIRMATION_MEMBERS)
    left, right = _iri(raw, "left", iris), _iri(raw, "right", iris)
    if left == right:
        raise _Fault("", "left and right must differ")
    return frozenset((left, right))


def parse_config(text: str) -> PipelineConfig:
    """Parse a pipeline config; every field is optional and defaulted."""
    try:
        members = {"extraction", "classificationMap", "confirmations", "threshold"}
        obj = _object(_loads(text), members)
        iris = _IriTable({})
        extraction = (_member(obj, "extraction", _extraction) if "extraction" in obj
                      else ExtractionConfig())
        classification = (_member(obj, "classificationMap", partial(_classification, iris))
                          if "classificationMap" in obj else ClassificationMap())
        confirmations = _items(obj, "confirmations", partial(_confirmation, iris))
        threshold = obj.get("threshold", 0.5)
        if type(threshold) is not int and type(threshold) is not float:
            raise _Fault(".threshold", "expected a number")
        return _made(".threshold", PipelineConfig, extraction=extraction,
                     classification=classification, confirmations=tuple(confirmations),
                     threshold=threshold)
    except _Fault as fault:
        raise SchemaViolation("$" + fault.path, fault.message) from None


# ---------------------------------------------------------------------------
# Reasoner trace sidecar
# ---------------------------------------------------------------------------

# The sidecar's fixed text, cut at import from the writers of its arrays
# and objects so the bytes cannot drift: each array's opening, separator
# and closing at its indent, and each object's text around its two slots.
_FACTS = array_text(["\0", "\0"], "\n").split("\0")
_TRACES = array_text(["\0", "\0"], "\n    ").split("\0")
_PREMISES = array_text(["\0", "\0"], "\n        ").split("\0")
_FACT = object_template({"conclusion": None, "traces": None}, "\n  ").split("%s")
_TRACE = object_template({"premises": None, "rule": None}, "\n      ").split("%s")
_PREMISE_INDENT = "\n          "
# The text before a fact's conclusion: the first fact's, then every other's.
_FIRST_FACT, _NEXT_FACT = _FACTS[0] + _FACT[0], _FACTS[1] + _FACT[0]
# The text after a fact's conclusion, up to its first premise.
_FIRST_TRACE = _FACT[1] + _TRACES[0] + _TRACE[0] + _PREMISES[0]
# Per rule, the text after a trace's last premise, up to the next trace's
# first premise, or to the end of the fact.
_TRACE_THEN_NEXT, _TRACE_THEN_FACT_END = (
    {rule: _PREMISES[2] + _TRACE[1] + encode_string(rule.value) + _TRACE[2] + after
     for rule in RuleId}
    for after in (_TRACES[1] + _TRACE[0] + _PREMISES[0], _TRACES[2] + _FACT[2])
)


class _PremiseTexts(dict):
    """Each premise looked up -> its JSON text in a trace's premises,
    written on the first lookup."""

    __slots__ = ()

    def __missing__(self, ax: Axiom) -> str:
        text = self[ax] = _AXIOM_WRITERS[type(ax)](ax, _PREMISE_INDENT)
        return text


def traces_to_json(mat: Materialization) -> str:
    """Every inferred fact with all of its one-step derivations.

    The text is one join over a flat list of pieces: the fixed text above,
    each conclusion's axiom text and each distinct premise's text, written
    once and referenced from every trace that names it, so no string is
    built per trace or per fact. Every inferred fact has a derivation, and
    every derivation has premises."""
    premises, pieces = _PremiseTexts(), []
    append, between, before = pieces.append, _PREMISES[1], _FIRST_FACT
    for fact in sorted_axioms(mat.inferred):
        pieces += (before, _AXIOM_WRITERS[type(fact)](fact, "\n    "), _FIRST_TRACE)
        before = _NEXT_FACT
        for trace in explain(mat, fact):
            first, *rest = trace.premises
            append(premises[first])
            for ax in rest:
                append(between)
                append(premises[ax])
            append(_TRACE_THEN_NEXT[trace.rule])
        pieces[-1] = _TRACE_THEN_FACT_END[trace.rule]
    if not pieces:
        return "[]\n"
    append(_FACTS[2] + "\n")
    return "".join(pieces)
