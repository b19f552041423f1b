"""Turtle subset parser and canonical serializer.

Accepted subset: ``@prefix`` directives, subject-grouped statements with
``;``/``,`` lists, the ``a`` shorthand, prefixed names, ``<absolute>`` IRIs,
and plain or language-tagged string literals. Blank nodes, collections,
datatyped/numeric/boolean literals, and ``@base`` are rejected as
unsupported features with a position. The text is read through the
:class:`~aieo.lexer.Cursor` that query text uses too: one pass splits it
into tokens, each distinct token is read once, a bad token anywhere is
reported before any grammar error, and a diagnostic's line and column are
worked out only when it is raised. This module reads ``@prefix``
directives and the statement structure; a triple keeps the index of its
object token, not an offset, for the errors of mapping it to an axiom.

Serialization is canonical: prefixes sorted, subjects sorted by absolute
IRI, predicates in a fixed order, object lists sorted. Two serializations
of equal stores are byte-identical.
"""

from __future__ import annotations

import re

from .errors import KindMismatch, UndeclaredEntity
from .lexer import Cursor, Token, fail_at, reject, unexpected
from .model import (
    AXIOM_TYPES,
    META_CLASS_KINDS,
    RDF_TYPE,
    AnnotationAssertion,
    AnnotationValue,
    Axiom,
    Declaration,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    axiom_subject,
    axiom_type,
    render_literal,
    term_key,
)


def _word(tok: Token) -> None:
    value = tok[1]
    if value == "a":
        return
    if value.lower() in ("true", "false"):
        reject("boolean literals are not supported", unsupported=True)
    if value.upper() in ("PREFIX", "BASE"):
        reject("SPARQL-style directives are not supported", unsupported=True)
    reject(f"expected a prefixed name, found '{value}'")


def _directive(tok: Token) -> None:
    value = tok[1]
    if value == "base":
        reject("@base is not supported", unsupported=True)
    if value != "prefix":
        reject(f"unexpected directive '@{value}'")


# Turtle's reading of bare words and directives; the tokens only the query
# language has are rejected.
_CHECKS = {"word": _word, "@": _directive, "?": unexpected, "{": unexpected, "}": unexpected}


# A parsed triple: subject, predicate, object (Iri or AnnotationValue),
# plus the object token's index for error reporting.
_Triple = tuple[Iri, Iri, "Iri | AnnotationValue", int]


def _document(cur: Cursor) -> list[_Triple]:
    """The triples of the document, in order; ``@prefix`` directives go
    into the cursor's prefixes."""
    triples: list[_Triple] = []
    while (kind := cur.peek()) != "eof":
        if kind == "@":  # @prefix, the one directive _CHECKS lets through
            cur.take()
            prefix, local = cur.expect("pname", "a prefix name ending in ':'")[1]
            if local:
                cur.fail("prefix declaration must end in ':'")
            base = cur.expect("iri", "an IRI reference")[1]
            cur.expect(".", "'.' after prefix directive")
            cur.declare(prefix, base)
            continue
        subject = cur.term("subject")
        while True:
            predicate = cur.term("predicate")
            while True:
                at = cur.at
                triples.append((subject, predicate, cur.term("object"), at))
                if cur.peek() != ",":
                    break
                cur.take()
            sep = cur.take()[0]
            if sep == ";":
                if cur.peek() != ".":
                    continue
                cur.take()  # tolerate trailing ';'
            elif sep != ".":
                cur.fail("expected ';', ',' or '.'")
            break
    return triples


def parse_turtle(text: str) -> OntologyStore:
    """Parse a document in the subset into a validated store."""
    cur = Cursor(text, _CHECKS, {}, "prefix '{}:' used before declaration")
    triples = _document(cur)
    store = OntologyStore(cur.prefixes)
    del cur  # the token list is not needed from here on
    # Declarations first so statement order inside the file never matters.
    rest: list[_Triple] = []
    for triple in triples:
        s, p, o, _ = triple
        if p == RDF_TYPE and isinstance(o, Iri) and o in META_CLASS_KINDS:
            store.declare(s, META_CLASS_KINDS[o])
        else:
            rest.append(triple)
    axioms: list[Axiom] = []
    for s, p, o, at in rest:
        try:
            axioms.append(_map_triple(store, s, p, o))
        except (ValueError, UndeclaredEntity, KindMismatch) as exc:
            store.update(axioms)  # an earlier axiom's own error comes first
            if isinstance(exc, ValueError):  # degenerate pair/set axioms
                fail_at(text, at, str(exc))
            raise
    return store.update(axioms)


# Axiom types by their fixed predicate. An rdf:type triple is a class
# assertion here: typings with a meta-class were taken as declarations first.
_TYPE_OF_PREDICATE = {
    row.predicate: row
    for row in AXIOM_TYPES.values()
    if row.predicate is not None and row.cls is not Declaration
}


def _map_triple(store: OntologyStore, s: Iri, p: Iri, o: Iri | AnnotationValue) -> Axiom:
    if isinstance(o, AnnotationValue):
        kind = store.kind_of(p)
        if kind is EntityKind.ANNOTATION_PROPERTY:
            return AnnotationAssertion(s, p, o)
        if kind is None:
            raise UndeclaredEntity(f"{p} is not declared")
        raise KindMismatch(f"literal object requires {p} to be an annotation property")
    row = _TYPE_OF_PREDICATE.get(p)
    if row is not None:
        return row.from_pair(s, o)
    kind = store.kind_of(p)
    if kind is None:
        raise UndeclaredEntity(f"{p} is not declared")
    if kind is EntityKind.ANNOTATION_PROPERTY:
        raise KindMismatch(f"annotation property {p} requires a literal object")
    if kind is not EntityKind.OBJECT_PROPERTY:
        raise KindMismatch(f"{p} is declared as {kind.value}, not usable as a predicate")
    return ObjectPropertyAssertion(s, p, o)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _entries(ax: Axiom) -> list[tuple[int, Iri, "Iri | AnnotationValue"]]:
    """(order, predicate, object) rows contributed by one axiom. A symmetric
    axiom is written once, from its least member to each of the others."""
    row = axiom_type(ax)
    if row.symmetric:
        rest = sorted(row.pair(ax))[1:]
        return [(row.order, row.predicate, o) for o in rest]
    _, pred, obj = row.triple(ax)
    return [(row.order, pred, obj)]


_LOCAL_SAFE = re.compile(r"[A-Za-z0-9_-]*")


class TermText(dict):
    """The Turtle text of each term over one store's prefixes, rendered on
    first use: a CURIE when a prefix covers the IRI and leaves a local part
    of ASCII letters, digits, '_' and '-', else ``<IRI>``; literals quoted
    and escaped."""

    def __init__(self, store: OntologyStore):
        super().__init__()
        self.store = store

    def __missing__(self, term: "Iri | AnnotationValue") -> str:
        if isinstance(term, AnnotationValue):
            text = render_literal(term)
        else:
            compact = self.store.compact(term)
            if compact != str(term) and _LOCAL_SAFE.fullmatch(compact.split(":", 1)[1]):
                text = compact
            else:
                text = f"<{term}>"
        self[term] = text
        return text


def _objects(objects: list) -> list:
    """Objects in term_key order: IRIs, by their text, before literals."""
    return sorted(objects, key=term_key) if len(objects) > 1 else objects


def serialize_turtle(store: OntologyStore) -> str:
    """Canonical, byte-deterministic text for the store's axiom set."""
    text = TermText(store)
    lines = [
        f"@prefix {prefix}: <{base}> ."
        for prefix, base in sorted(store.prefixes.items())
    ]
    subjects = sorted(store.by_subject)
    if lines and subjects:
        lines.append("")
    for subject in subjects:
        groups: dict[tuple[int, Iri], list[Iri | AnnotationValue]] = {}
        for ax in store.by_subject[subject]:
            for order, pred, obj in _entries(ax):
                groups.setdefault((order, pred), []).append(obj)
        parts = [
            f"{'a' if pred == RDF_TYPE else text[pred]} "
            + ", ".join([text[o] for o in _objects(groups[order, pred])])
            for order, pred in sorted(groups)
        ]
        body = " ;\n    ".join(parts)
        lines.append(f"{text[subject]} {body} .")
    return "\n".join(lines) + "\n"


def axiom_line(store: OntologyStore, ax: Axiom, text: TermText | None = None) -> str:
    """One-line rendering of a single axiom, for diffs and reports. Lines
    over one store can share the ``text`` of its terms."""
    if text is None:
        text = TermText(store)
    parts = [
        f"{'a' if pred == RDF_TYPE else text[pred]} {text[obj]}"
        for _, pred, obj in _entries(ax)
    ]
    return f"{text[axiom_subject(ax)]} {' ; '.join(parts)} ."
