"""Turtle subset parser and canonical serializer.

Accepted subset: ``@prefix`` directives, subject-grouped statements with
``;``/``,`` lists, the ``a`` shorthand, prefixed names, ``<absolute>`` IRIs,
and plain or language-tagged string literals. Blank nodes, collections,
datatyped/numeric/boolean literals, and ``@base`` are rejected as
unsupported features with a position.

Serialization is canonical: prefixes sorted, subjects sorted by absolute
IRI, predicates in a fixed order, object lists sorted. Two serializations
of equal stores are byte-identical.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import KindMismatch, UndeclaredEntity
from .lexer import Token, fail, scan, token_errors_first, unexpected
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


def _word(text: str, tok: Token) -> None:
    _, value, off = tok
    if value == "a":
        return
    if value.lower() in ("true", "false"):
        fail(text, off, "boolean literals are not supported", unsupported=True)
    if value.upper() in ("PREFIX", "BASE"):
        fail(text, off, "SPARQL-style directives are not supported", unsupported=True)
    fail(text, off, f"expected a prefixed name, found '{value}'")


def _directive(text: str, tok: Token) -> None:
    _, value, off = tok
    if value == "base":
        fail(text, off, "@base is not supported", unsupported=True)
    if value != "prefix":
        fail(text, off, f"unexpected directive '@{value}'")


# Turtle's reading of bare words and directives; the tokens only the query
# language has are rejected.
_CHECKS = {"word": _word, "@": _directive, "?": unexpected, "{": unexpected, "}": unexpected}


# A parsed triple: subject, predicate, object (Iri or AnnotationValue),
# plus the object token's offset for error reporting.
_Triple = tuple[Iri, Iri, "Iri | AnnotationValue", int]


class _Parser:
    """Pulls one token at a time from the scanner, keeping one of lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = scan(text, _CHECKS)
        self.tok = next(self.tokens)
        self.prefixes: dict[str, str] = {}
        self.triples: list[_Triple] = []
        # Resolved IRIs by token value; a redeclared prefix clears it.
        self.iris: dict[object, Iri] = {}

    def peek(self) -> str:
        return self.tok[0]

    def next(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)  # eof repeats
        return tok

    def fail(self, tok: Token, message: str) -> NoReturn:
        fail(self.text, tok[2], message)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(tok, f"expected {what}")
        return tok

    def resolve(self, tok: Token) -> Iri:
        kind, value, _ = tok
        iri = self.iris.get(value)
        if iri is not None:
            return iri
        if kind == "iri":
            iri = Iri(value)
        else:
            prefix, local = value
            base = self.prefixes.get(prefix)
            if base is None:
                self.fail(tok, f"prefix '{prefix}:' used before declaration")
            iri = Iri(base + local)
        self.iris[value] = iri
        return iri

    def document(self) -> None:
        while True:
            kind = self.peek()
            if kind == "eof":
                return
            if kind == "@":  # @prefix, the one directive _CHECKS lets through
                self.directive()
            else:
                self.statement()

    def directive(self) -> None:
        self.next()
        name = self.expect("pname", "a prefix name ending in ':'")
        prefix, local = name[1]
        if local:
            self.fail(name, "prefix declaration must end in ':'")
        base = self.expect("iri", "an IRI reference")
        self.expect(".", "'.' after prefix directive")
        if prefix in self.prefixes:
            self.iris.clear()
        self.prefixes[prefix] = base[1]

    def statement(self) -> None:
        subj_tok = self.next()
        if subj_tok[0] == "string":
            self.fail(subj_tok, "a literal cannot be a subject")
        if subj_tok[0] not in ("iri", "pname"):
            self.fail(subj_tok, "expected a subject IRI")
        subject = self.resolve(subj_tok)
        while True:
            pred_tok = self.next()
            if pred_tok[0] == "word":  # 'a', the one word _CHECKS lets through
                predicate = RDF_TYPE
            elif pred_tok[0] in ("iri", "pname"):
                predicate = self.resolve(pred_tok)
            else:
                self.fail(pred_tok, "expected a predicate")
            while True:
                obj_tok = self.next()
                kind, value, off = obj_tok
                obj: Iri | AnnotationValue
                if kind in ("iri", "pname"):
                    obj = self.resolve(obj_tok)
                elif kind == "string":
                    text, lang = value
                    if not text:
                        self.fail(obj_tok, "empty literal")
                    obj = AnnotationValue(text, lang)
                else:
                    self.fail(obj_tok, "expected an object")
                self.triples.append((subject, predicate, obj, off))
                if self.peek() == ",":
                    self.next()
                    continue
                break
            sep = self.next()
            if sep[0] == ";":
                if self.peek() == ".":  # tolerate trailing ';'
                    self.next()
                    return
                continue
            if sep[0] == ".":
                return
            self.fail(sep, "expected ';', ',' or '.'")


def parse_turtle(text: str) -> OntologyStore:
    """Parse a document in the subset into a validated store."""
    parser = _Parser(text)
    with token_errors_first(parser.tokens):
        parser.document()
    store = OntologyStore(parser.prefixes)
    # Declarations first so statement order inside the file never matters.
    rest: list[_Triple] = []
    for triple in parser.triples:
        s, p, o, _ = triple
        if p == RDF_TYPE and isinstance(o, Iri) and o in META_CLASS_KINDS:
            store.declare(s, META_CLASS_KINDS[o])
        else:
            rest.append(triple)
    axioms: list[Axiom] = []
    for s, p, o, off in rest:
        try:
            axioms.append(_map_triple(store, s, p, o))
        except (ValueError, UndeclaredEntity, KindMismatch) as exc:
            store.update(axioms)  # an earlier axiom's own error comes first
            if isinstance(exc, ValueError):  # degenerate pair/set axioms
                fail(text, off, str(exc))
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
