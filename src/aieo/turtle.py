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

from dataclasses import dataclass

from .errors import (
    KindMismatch,
    ParseDiagnostic,
    ParseError,
    UndeclaredEntity,
    UnsupportedFeature,
)
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

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _name_char(c: str) -> bool:
    return c.isalnum() or c in "_-"


@dataclass
class _Token:
    typ: str  # prefix_kw | iriref | pname | string | a | dot | semi | comma | eof
    value: object
    line: int
    col: int


def _fail(line: int, col: int, message: str, *, unsupported: bool = False) -> None:
    diag = ParseDiagnostic(line, col, message)
    raise (UnsupportedFeature if unsupported else ParseError)([diag])


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c.isspace():
            advance()
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        tline, tcol = line, col
        if c in ".;,":
            tokens.append(_Token({".": "dot", ";": "semi", ",": "comma"}[c], c, tline, tcol))
            advance()
            continue
        if c in "[]":
            _fail(tline, tcol, "blank nodes are not supported", unsupported=True)
        if c in "()":
            _fail(tline, tcol, "collections are not supported", unsupported=True)
        if c == "^" and text[i : i + 2] == "^^":
            _fail(tline, tcol, "datatyped literals are not supported", unsupported=True)
        if c == "@":
            j = i + 1
            word = ""
            while j < n and text[j].isalpha():
                word += text[j]
                j += 1
            if word == "prefix":
                tokens.append(_Token("prefix_kw", "@prefix", tline, tcol))
                advance(1 + len(word))
                continue
            if word == "base":
                _fail(tline, tcol, "@base is not supported", unsupported=True)
            _fail(tline, tcol, f"unexpected directive '@{word}'")
        if c == "<":
            j = i + 1
            while j < n and text[j] not in ">\n":
                j += 1
            if j >= n or text[j] != ">":
                _fail(tline, tcol, "unterminated IRI reference")
            value = text[i + 1 : j]
            if not value:
                _fail(tline, tcol, "empty IRI reference")
            tokens.append(_Token("iriref", value, tline, tcol))
            advance(j + 1 - i)
            continue
        if c == '"':
            if text[i : i + 3] == '"""':
                _fail(tline, tcol, "long string literals are not supported", unsupported=True)
            j = i + 1
            out: list[str] = []
            while j < n and text[j] not in '"\n':
                if text[j] == "\\":
                    if j + 1 >= n or text[j + 1] not in _ESCAPES:
                        _fail(tline, tcol, "unknown escape sequence in string")
                    out.append(_ESCAPES[text[j + 1]])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                _fail(tline, tcol, "unterminated string literal")
            j += 1
            lang = None
            if j < n and text[j] == "@":
                j += 1
                k = j
                while k < n and (text[k].isalnum() or text[k] == "-"):
                    k += 1
                if k == j:
                    _fail(tline, tcol, "empty language tag")
                lang = text[j:k]
                j = k
            tokens.append(_Token("string", ("".join(out), lang), tline, tcol))
            advance(j - i)
            continue
        if c == "_" and text[i : i + 2] == "_:":
            _fail(tline, tcol, "blank node labels are not supported", unsupported=True)
        if c.isdigit() or (c in "+-" and i + 1 < n and text[i + 1].isdigit()):
            _fail(tline, tcol, "numeric literals are not supported", unsupported=True)
        if _name_start(c) or c == ":":
            j = i
            while j < n and _name_char(text[j]):
                j += 1
            prefix = text[i:j]
            if j < n and text[j] == ":":
                j += 1
                k = j
                while k < n and _name_char(text[k]):
                    k += 1
                local = text[j:k]
                tokens.append(_Token("pname", (prefix, local), tline, tcol))
                advance(k - i)
                continue
            if prefix == "a":
                tokens.append(_Token("a", "a", tline, tcol))
                advance(1)
                continue
            if prefix.lower() in ("true", "false"):
                _fail(tline, tcol, "boolean literals are not supported", unsupported=True)
            if prefix.upper() in ("PREFIX", "BASE"):
                _fail(tline, tcol, "SPARQL-style directives are not supported", unsupported=True)
            _fail(tline, tcol, f"expected a prefixed name, found '{prefix}'")
        _fail(tline, tcol, f"unexpected character {c!r}")
    tokens.append(_Token("eof", None, line, col))
    return tokens


# A parsed triple: subject, predicate, object (Iri or AnnotationValue),
# plus the object token position for error reporting.
_Triple = tuple[Iri, Iri, "Iri | AnnotationValue", int, int]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.triples: list[_Triple] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, typ: str, what: str) -> _Token:
        tok = self.next()
        if tok.typ != typ:
            _fail(tok.line, tok.col, f"expected {what}")
        return tok

    def resolve(self, tok: _Token) -> Iri:
        if tok.typ == "iriref":
            return Iri(tok.value)
        prefix, local = tok.value
        base = self.prefixes.get(prefix)
        if base is None:
            _fail(tok.line, tok.col, f"prefix '{prefix}:' used before declaration")
        return Iri(base + local)

    def document(self) -> None:
        while True:
            tok = self.peek()
            if tok.typ == "eof":
                return
            if tok.typ == "prefix_kw":
                self.directive()
            else:
                self.statement()

    def directive(self) -> None:
        self.next()
        name = self.expect("pname", "a prefix name ending in ':'")
        prefix, local = name.value
        if local:
            _fail(name.line, name.col, "prefix declaration must end in ':'")
        base = self.expect("iriref", "an IRI reference")
        self.expect("dot", "'.' after prefix directive")
        self.prefixes[prefix] = base.value

    def statement(self) -> None:
        subj_tok = self.next()
        if subj_tok.typ == "string":
            _fail(subj_tok.line, subj_tok.col, "a literal cannot be a subject")
        if subj_tok.typ not in ("iriref", "pname"):
            _fail(subj_tok.line, subj_tok.col, "expected a subject IRI")
        subject = self.resolve(subj_tok)
        while True:
            pred_tok = self.next()
            if pred_tok.typ == "a":
                predicate = RDF_TYPE
            elif pred_tok.typ in ("iriref", "pname"):
                predicate = self.resolve(pred_tok)
            else:
                _fail(pred_tok.line, pred_tok.col, "expected a predicate")
            while True:
                obj_tok = self.next()
                obj: Iri | AnnotationValue
                if obj_tok.typ in ("iriref", "pname"):
                    obj = self.resolve(obj_tok)
                elif obj_tok.typ == "string":
                    text, lang = obj_tok.value
                    if not text:
                        _fail(obj_tok.line, obj_tok.col, "empty literal")
                    obj = AnnotationValue(text, lang)
                else:
                    _fail(obj_tok.line, obj_tok.col, "expected an object")
                self.triples.append((subject, predicate, obj, obj_tok.line, obj_tok.col))
                if self.peek().typ == "comma":
                    self.next()
                    continue
                break
            sep = self.next()
            if sep.typ == "semi":
                if self.peek().typ == "dot":  # tolerate trailing ';'
                    self.next()
                    return
                continue
            if sep.typ == "dot":
                return
            _fail(sep.line, sep.col, "expected ';', ',' or '.'")


def parse_turtle(text: str) -> OntologyStore:
    """Parse a document in the subset into a validated store."""
    parser = _Parser(_tokenize(text))
    parser.document()
    store = OntologyStore(parser.prefixes)
    # Declarations first so statement order inside the file never matters.
    rest: list[_Triple] = []
    for triple in parser.triples:
        s, p, o, line, col = triple
        if p == RDF_TYPE and isinstance(o, Iri) and o in META_CLASS_KINDS:
            store.declare(s, META_CLASS_KINDS[o])
        else:
            rest.append(triple)
    for s, p, o, line, col in rest:
        try:
            store.add(_map_triple(store, s, p, o))
        except ValueError as exc:  # degenerate pair/set axioms
            _fail(line, col, str(exc))
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
