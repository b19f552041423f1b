"""JSON forms: store interchange, framework documents, pipeline configs,
the reasoner's trace sidecar, and the canonical writer all JSON output uses.

The interchange document is ``{"prefixes": {...}, "axioms": [...]}`` with
one object per axiom whose ``kind`` field names the variant. IRIs are
emitted absolute; on input, CURIEs are resolved against the document's own
prefixes (falling back to the standard map).
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable

from .errors import ParseDiagnostic, ParseError, SchemaViolation
from .model import (
    AXIOM_TYPES,
    AnnotationValue,
    Axiom,
    AxiomType,
    Declaration,
    EntityKind,
    Field,
    Iri,
    OntologyStore,
    axiom_type,
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
from .reasoner import Materialization
from .schema import DEFAULT_PREFIXES, aieo


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([ParseDiagnostic(exc.lineno, exc.colno, exc.msg)]) from None
    except RecursionError:  # the decoder recurses once per nested array/object
        raise ParseError([ParseDiagnostic(1, 1, "document nested too deeply")]) from None


def _resolver(prefixes: dict[str, str]) -> Callable[[str, str], Iri]:
    table = dict(DEFAULT_PREFIXES)
    table.update(prefixes)

    def resolve(name: str, path: str) -> Iri:
        if not isinstance(name, str) or not name:
            raise SchemaViolation(path, "expected a non-empty IRI string")
        return resolve_curie(name, table) if ":" in name else aieo(name)

    return resolve


def _expect_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(path, "expected a JSON object")
    return value


def _field(obj: dict, name: str, typ: type, path: str, default: Any = ...) -> Any:
    if name not in obj:
        if default is ...:
            raise SchemaViolation(f"{path}.{name}", "required field is missing")
        return default
    value = obj[name]
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise SchemaViolation(f"{path}.{name}", f"expected {typ.__name__}")
    return value


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(f"{path}.{key}", "unknown field")


# ---------------------------------------------------------------------------
# Store interchange
# ---------------------------------------------------------------------------

_ENTITY_KIND_VALUES = {k.value: k for k in EntityKind}


def _literal_to_obj(value: AnnotationValue) -> dict:
    obj = {"text": value.text}
    if value.language_tag:
        obj["languageTag"] = value.language_tag
    return obj


_TO_JSON: dict[type, Callable[[Any], Any]] = {
    Iri: str,
    frozenset: lambda iris: sorted(map(str, iris)),
    EntityKind: lambda kind: kind.value,
    AnnotationValue: _literal_to_obj,
}


def axiom_to_obj(ax: Axiom) -> dict:
    row = axiom_type(ax)
    obj = {"kind": row.tag}
    for f in row.fields:
        obj[f.json] = _TO_JSON[f.shape](getattr(ax, f.name))
    return obj


def _iri_from_obj(obj: dict, f: Field, resolve: Callable, path: str) -> Iri:
    return resolve(_field(obj, f.json, str, path), f"{path}.{f.json}")


def _iris_from_obj(obj: dict, f: Field, resolve: Callable, path: str) -> frozenset[Iri]:
    raw = _field(obj, f.json, list, path)
    return frozenset(resolve(item, f"{path}.{f.json}[{i}]") for i, item in enumerate(raw))


def _kind_from_obj(obj: dict, f: Field, resolve: Callable, path: str) -> EntityKind:
    value = _field(obj, f.json, str, path)
    if value not in _ENTITY_KIND_VALUES:
        raise SchemaViolation(
            f"{path}.{f.json}", f"expected one of {sorted(_ENTITY_KIND_VALUES)}"
        )
    return _ENTITY_KIND_VALUES[value]


def _literal_object(obj: dict, f: Field, path: str) -> dict:
    value = _expect_obj(_field(obj, f.json, dict, path), f"{path}.{f.json}")
    _reject_unknown(value, {"text", "languageTag"}, f"{path}.{f.json}")
    return value


def _literal_from_obj(obj: dict, f: Field, resolve: Callable, path: str) -> AnnotationValue:
    vpath = f"{path}.{f.json}"
    value = _literal_object(obj, f, path)
    return AnnotationValue(
        _field(value, "text", str, vpath), _field(value, "languageTag", str, vpath, None)
    )


_FROM_JSON: dict[type, Callable[[dict, Field, Callable, str], Any]] = {
    Iri: _iri_from_obj,
    frozenset: _iris_from_obj,
    EntityKind: _kind_from_obj,
    AnnotationValue: _literal_from_obj,
}


_TYPE_OF_TAG = {row.tag: row for row in AXIOM_TYPES.values()}


def axiom_from_obj(obj: dict, resolve: Callable[[str, str], Iri], path: str) -> Axiom:
    _expect_obj(obj, path)
    tag = _field(obj, "kind", str, path)
    row = _TYPE_OF_TAG.get(tag)
    if row is None:
        raise SchemaViolation(f"{path}.kind", f"unknown axiom kind {tag!r}")
    # For an object with several faults, the one reported is the first in
    # this order: an entity kind, unknown fields, a literal's object, then
    # the fields in order.
    try:
        for f in row.fields:
            if f.shape is EntityKind:
                _kind_from_obj(obj, f, resolve, path)
        _reject_unknown(obj, {"kind", *(f.json for f in row.fields)}, path)
        for f in row.fields:
            if f.shape is AnnotationValue:
                _literal_object(obj, f, path)
        return row.cls(*[_FROM_JSON[f.shape](obj, f, resolve, path) for f in row.fields])
    except ValueError as exc:
        raise SchemaViolation(path, str(exc)) from None


def store_to_json(store: OntologyStore) -> str:
    return canonical_json(
        {"prefixes": store.prefixes, "axioms": sorted_axioms(store)}
    )


def store_from_json(text: str) -> OntologyStore:
    doc = _expect_obj(_loads(text), "$")
    _reject_unknown(doc, {"prefixes", "axioms"}, "$")
    prefixes = _field(doc, "prefixes", dict, "$", {})
    for prefix, base in prefixes.items():
        if not isinstance(base, str) or not base:
            raise SchemaViolation(f"$.prefixes.{prefix}", "expected a non-empty string")
    resolve = _resolver(prefixes)
    raw_axioms = _field(doc, "axioms", list, "$", [])
    axioms = [
        axiom_from_obj(obj, resolve, f"$.axioms[{i}]")
        for i, obj in enumerate(raw_axioms)
    ]
    # Declarations first; file order must not matter.
    declarations = [ax for ax in axioms if type(ax) is Declaration]
    rest = [ax for ax in axioms if type(ax) is not Declaration]
    return OntologyStore(prefixes).update(declarations).update(rest)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode  # compact, so the C encoder runs


def _json_members(row: AxiomType) -> tuple[tuple[str, Callable[[Axiom], Any]], ...]:
    """The members of the type's JSON object in key order, each as its
    encoded key and a reader of its value."""
    members = [("kind", lambda ax, tag=row.tag: tag)]
    for f in row.fields:
        read = lambda ax, get=attrgetter(f.name), conv=_TO_JSON[f.shape]: conv(get(ax))  # noqa: E731
        members.append((f.json, read))
    return tuple((_encode_str(key), read) for key, read in sorted(members, key=itemgetter(0)))


_JSON_MEMBERS = {row.cls: _json_members(row) for row in AXIOM_TYPES.values()}


def canonical_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    where an :class:`Axiom` anywhere in ``value`` stands for its
    :func:`axiom_to_obj` object. Dict keys must be strings.

    The stdlib encoder takes its pure-Python path whenever ``indent`` is set;
    here strings and scalars go through its C helpers, and each distinct
    axiom is rendered once per nesting depth, however often it recurs.
    """
    memo: dict[tuple[Axiom, str], str] = {}
    chunks: list[str] = []
    _write(value, "\n", chunks.append, memo)
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, indent: str, emit: Callable[[str], None], memo: dict) -> None:
    """Emit ``value`` as it appears after ``indent``, the newline and spaces
    that start its line."""
    if isinstance(value, str):
        emit(_encode_str(value))
    elif isinstance(value, dict):
        if value:
            members = ((_encode_str(key), item) for key, item in sorted(value.items()))
            _write_object(members, indent, emit, memo)
        else:
            emit("{}")
    elif isinstance(value, (list, tuple)):
        if value:
            inner = indent + "  "
            sep = "[" + inner
            for item in value:
                emit(sep)
                _write(item, inner, emit, memo)
                sep = "," + inner
            emit(indent + "]")
        else:
            emit("[]")
    elif isinstance(value, Axiom):
        text = memo.get((value, indent))
        if text is None:
            chunks: list[str] = []
            members = ((key, read(value)) for key, read in _JSON_MEMBERS[type(value)])
            _write_object(members, indent, chunks.append, memo)
            text = memo[(value, indent)] = "".join(chunks)
        emit(text)
    else:
        emit(_encode_scalar(value))


def _write_object(
    members: Iterable[tuple[str, Any]], indent: str, emit: Callable[[str], None], memo: dict
) -> None:
    """Emit a non-empty object from its (encoded key, value) pairs."""
    inner = indent + "  "
    sep = "{" + inner
    for key, item in members:
        if isinstance(item, str):
            emit(sep + key + ": " + _encode_str(item))
        else:
            emit(sep + key + ": ")
            _write(item, inner, emit, memo)
        sep = "," + inner
    emit(indent + "}")


# ---------------------------------------------------------------------------
# Framework documents
# ---------------------------------------------------------------------------

def parse_framework_document(text: str) -> FrameworkDocument:
    obj = _expect_obj(_loads(text), "$")
    _reject_unknown(obj, {"id", "title", "sections", "conceptDeclarations"}, "$")
    resolve = _resolver({})
    doc_id = resolve(_field(obj, "id", str, "$"), "$.id")
    title = _field(obj, "title", str, "$")
    sections = []
    for i, raw in enumerate(_field(obj, "sections", list, "$", [])):
        spath = f"$.sections[{i}]"
        _expect_obj(raw, spath)
        _reject_unknown(raw, {"heading", "body"}, spath)
        sections.append(
            Section(_field(raw, "heading", str, spath), _field(raw, "body", str, spath))
        )
    concepts = []
    for i, raw in enumerate(_field(obj, "conceptDeclarations", list, "$", [])):
        cpath = f"$.conceptDeclarations[{i}]"
        _expect_obj(raw, cpath)
        _reject_unknown(
            raw, {"name", "kind", "shortDescription", "reference"}, cpath
        )
        try:
            concepts.append(
                ConceptDeclaration(
                    name=_field(raw, "name", str, cpath),
                    kind=_field(raw, "kind", str, cpath),
                    short_description=_field(raw, "shortDescription", str, cpath, None),
                    reference=_field(raw, "reference", str, cpath, None),
                )
            )
        except ValueError as exc:
            raise SchemaViolation(cpath, str(exc)) from None
    try:
        return FrameworkDocument(doc_id, title, tuple(sections), tuple(concepts))
    except ValueError as exc:
        raise SchemaViolation("$.conceptDeclarations", str(exc)) from None


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

def parse_config(text: str) -> PipelineConfig:
    """Parse a pipeline config; every field is optional and defaulted."""
    obj = _expect_obj(_loads(text), "$")
    _reject_unknown(
        obj, {"extraction", "classificationMap", "confirmations", "threshold"}, "$"
    )
    resolve = _resolver({})

    extraction = ExtractionConfig()
    if "extraction" in obj:
        raw = _expect_obj(obj["extraction"], "$.extraction")
        _reject_unknown(
            raw, {"stopwords", "minTokenLength", "topK", "relevantTopK"}, "$.extraction"
        )
        kwargs: dict = {}
        if "stopwords" in raw:
            words = _field(raw, "stopwords", list, "$.extraction")
            for i, w in enumerate(words):
                if not isinstance(w, str):
                    raise SchemaViolation(f"$.extraction.stopwords[{i}]", "expected string")
            kwargs["stopwords"] = frozenset(w.lower() for w in words)
        if "minTokenLength" in raw:
            kwargs["min_token_length"] = _field(raw, "minTokenLength", int, "$.extraction")
        if "topK" in raw:
            kwargs["top_k"] = _field(raw, "topK", int, "$.extraction")
        if "relevantTopK" in raw:
            kwargs["relevant_top_k"] = _field(raw, "relevantTopK", int, "$.extraction")
        try:
            extraction = ExtractionConfig(**kwargs)
        except ValueError as exc:
            raise SchemaViolation("$.extraction", str(exc)) from None

    classification = ClassificationMap()
    if "classificationMap" in obj:
        raw = _expect_obj(obj["classificationMap"], "$.classificationMap")
        entries = {}
        for keyword, target in raw.items():
            if not isinstance(target, str):
                raise SchemaViolation(f"$.classificationMap.{keyword}", "expected string")
            entries[keyword] = resolve(target, f"$.classificationMap.{keyword}")
        try:
            classification = ClassificationMap(entries)
        except ValueError as exc:
            raise SchemaViolation("$.classificationMap", str(exc)) from None

    confirmations = []
    for i, raw in enumerate(_field(obj, "confirmations", list, "$", [])):
        cpath = f"$.confirmations[{i}]"
        _expect_obj(raw, cpath)
        _reject_unknown(raw, {"left", "right"}, cpath)
        left = resolve(_field(raw, "left", str, cpath), f"{cpath}.left")
        right = resolve(_field(raw, "right", str, cpath), f"{cpath}.right")
        if left == right:
            raise SchemaViolation(cpath, "left and right must differ")
        confirmations.append(frozenset((left, right)))

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

def traces_to_json(mat: Materialization) -> str:
    """Every inferred fact with all of its one-step derivations."""
    return canonical_json([
        {
            "conclusion": fact,
            "traces": [
                {"rule": trace.rule.value, "premises": trace.premises}
                for trace in mat.traces[fact]
            ],
        }
        for fact in sorted_axioms(mat.inferred)
    ])
