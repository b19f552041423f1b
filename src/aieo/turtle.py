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

from typing import Iterator, NoReturn

from .errors import KindMismatch, UndeclaredEntity
from .lexer import Token, fail, scan, token_errors_first
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


def _tokens(text: str) -> Iterator[Token]:
    """The scanner's tokens, with Turtle's reading of bare words and
    directives; tokens only the query language has are rejected."""
    for tok in scan(text):
        kind, value, off = tok
        if kind == "word" and value != "a":
            if value.lower() in ("true", "false"):
                fail(text, off, "boolean literals are not supported", unsupported=True)
            if value.upper() in ("PREFIX", "BASE"):
                fail(text, off, "SPARQL-style directives are not supported", unsupported=True)
            fail(text, off, f"expected a prefixed name, found '{value}'")
        elif kind == "@" and value != "prefix":
            if value == "base":
                fail(text, off, "@base is not supported", unsupported=True)
            fail(text, off, f"unexpected directive '@{value}'")
        elif kind in ("?", "{", "}"):
            fail(text, off, f"unexpected character {kind!r}")
        yield tok


# A parsed triple: subject, predicate, object (Iri or AnnotationValue),
# plus the object token's offset for error reporting.
_Triple = tuple[Iri, Iri, "Iri | AnnotationValue", int]


class _Parser:
    """Pulls one token at a time from _tokens, keeping one of lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.tok = next(self.tokens)
        self.prefixes: dict[str, str] = {}
        self.triples: list[_Triple] = []

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
        if kind == "iri":
            return Iri(value)
        prefix, local = value
        base = self.prefixes.get(prefix)
        if base is None:
            self.fail(tok, f"prefix '{prefix}:' used before declaration")
        return Iri(base + local)

    def document(self) -> None:
        while True:
            kind = self.peek()
            if kind == "eof":
                return
            if kind == "@":  # @prefix, the one directive _tokens lets through
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
            if pred_tok[0] == "word":  # 'a', the one word _tokens lets through
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
    for s, p, o, off in rest:
        try:
            store.add(_map_triple(store, s, p, o))
        except ValueError as exc:  # degenerate pair/set axioms
            fail(text, off, str(exc))
    return store


# Axiom types by their fixed predicate. An rdf:type triple is a class
# assertion here: typings with a meta-class were taken as declarations first.
_TYPE_OF_PREDICATE = {
    row.predicate: row
    for row in AXIOM_TYPES.values()
    if row.predicate is not None and row.cls is not Declaration
}


def _map_triple(store: OntologyStore, s: Iri, p: Iri, o: Iri | AnnotationValue) -> Axiom:
    if isinstance(o, AnnotationValue):
        if store.kind_of(p) is EntityKind.ANNOTATION_PROPERTY:
            return AnnotationAssertion(s, p, o)
        if store.kind_of(p) is None:
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


_LOCAL_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _term(store: OntologyStore, term: "Iri | AnnotationValue") -> str:
    if isinstance(term, AnnotationValue):
        return render_literal(term)
    compact = store.compact(term)
    if compact != str(term):
        prefix, local = compact.split(":", 1)
        if all(c in _LOCAL_SAFE for c in local):
            return compact
    return f"<{term}>"


def _predicate(store: OntologyStore, pred: Iri) -> str:
    return "a" if pred == RDF_TYPE else _term(store, pred)


def serialize_turtle(store: OntologyStore) -> str:
    """Canonical, byte-deterministic text for the store's axiom set."""
    lines = [
        f"@prefix {prefix}: <{base}> ."
        for prefix, base in sorted(store.prefixes.items())
    ]
    by_subject: dict[Iri, list[tuple[int, Iri, Iri | AnnotationValue]]] = {}
    for ax in store.axioms:
        by_subject.setdefault(axiom_subject(ax), []).extend(_entries(ax))
    if lines and by_subject:
        lines.append("")
    for subject in sorted(by_subject):
        groups: dict[tuple[int, Iri], list[Iri | AnnotationValue]] = {}
        for order, pred, obj in by_subject[subject]:
            groups.setdefault((order, pred), []).append(obj)
        parts = []
        for (order, pred), objects in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            rendered = ", ".join(_term(store, o) for o in sorted(objects, key=term_key))
            parts.append(f"{_predicate(store, pred)} {rendered}")
        body = " ;\n    ".join(parts)
        lines.append(f"{_term(store, subject)} {body} .")
    return "\n".join(lines) + "\n"


def axiom_line(store: OntologyStore, ax: Axiom) -> str:
    """One-line rendering of a single axiom, for diffs and reports."""
    subject = axiom_subject(ax)
    parts = [
        f"{_predicate(store, pred)} {_term(store, obj)}"
        for _, pred, obj in _entries(ax)
    ]
    return f"{_term(store, subject)} {' ; '.join(parts)} ."
