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
directives and the statement structure in one loop over the token list,
with local indexes and the cursor's per-position term memos; the same loop
sets aside the typings with a meta-class as declarations. Each other
triple maps to its axiom by its shape alone; the store then reports an
undeclared or wrong-kind entity as it does for JSON, in document order.

Serialization is canonical: prefixes sorted, subjects sorted by absolute
IRI, predicates in a fixed order, object lists sorted. Two serializations
of equal stores are byte-identical. Each axiom type has one entry
function, built at import, that turns its axioms into the rows they are
written as, for the whole store and for :func:`axiom_line` alike.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from .lexer import Cursor, Token, fail_at, reject, unexpected
from .model import (
    AXIOM_TYPES,
    META_CLASS_KINDS,
    RDF_TYPE,
    AnnotationAssertion,
    AnnotationValue,
    Axiom,
    AxiomType,
    Declaration,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    check_prefix,
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


def _document(cur: Cursor) -> tuple[list[_Triple], list[tuple[Iri, EntityKind]]]:
    """The triples of the document, in order, but for the typings with a
    meta-class, which come out as the ``(IRI, kind)`` they declare; ``@prefix``
    directives go into the cursor's prefixes. One loop over the token
    texts: a term is read from its position's memo, and resolved through
    the cursor only on the first sight of its text there."""
    tokens, kinds, terms, resolve = cur.tokens, cur.kinds, cur.terms, cur.resolve
    subjects, predicates, objects = terms["subject"], terms["predicate"], terms["object"]
    triples: list[_Triple] = []
    declarations: list[tuple[Iri, EntityKind]] = []
    append = triples.append
    at = 0
    while (kind := kinds[tokens[at]][0]) != "eof":
        if kind == "@":  # @prefix, the one directive _CHECKS lets through
            cur.at = at + 1
            prefix, local = cur.expect("pname", "a prefix name ending in ':'")[1]
            if local:
                cur.fail("prefix declaration must end in ':'")
            base = cur.expect("iri", "an IRI reference")[1]
            try:
                check_prefix(prefix, base)
            except ValueError as exc:
                cur.fail(str(exc))
            cur.expect(".", "'.' after prefix directive")
            cur.declare(prefix, base)
            at = cur.at
            continue
        subject = subjects.get(tokens[at]) or resolve(at, "subject")
        while True:
            at += 1
            predicate = predicates.get(tokens[at]) or resolve(at, "predicate")
            typing = predicate == RDF_TYPE
            while True:
                at += 1
                obj = objects.get(tokens[at]) or resolve(at, "object")
                if typing and obj in META_CLASS_KINDS:
                    declarations.append((subject, META_CLASS_KINDS[obj]))
                else:
                    append((subject, predicate, obj, at))
                at += 1
                sep = tokens[at]  # a punctuation token's text is its kind
                if sep != ",":
                    break
            if sep == ";":
                if tokens[at + 1] != ".":
                    continue
                at += 1  # tolerate trailing ';'
            elif sep != ".":
                cur.fail("expected ';', ',' or '.'", at)
            at += 1
            break
    return triples, declarations


def parse_turtle(text: str) -> OntologyStore:
    """Parse a document in the subset into a validated store."""
    cur = Cursor(text, _CHECKS, {}, "prefix '{}:' used before declaration")
    triples, declarations = _document(cur)
    store = OntologyStore(cur.prefixes)
    del cur  # the token list is not needed from here on
    # Declarations first so statement order inside the file never matters.
    for iri, kind in declarations:
        store.declare(iri, kind)
    axioms: list[Axiom] = []
    try:
        for s, p, o, at in triples:
            if type(o) is AnnotationValue:
                axioms.append(AnnotationAssertion(s, p, o))
            elif (make := _FROM_PAIR.get(p)) is not None:
                axioms.append(make(s, o))
            else:
                axioms.append(ObjectPropertyAssertion(s, p, o))
    except ValueError as exc:  # degenerate pair/set axioms
        store.update(axioms)  # an earlier axiom's own error comes first
        fail_at(text, at, str(exc))
    return store.update(axioms)


# The axiom of a triple with an IRI object, by its fixed predicate. An
# rdf:type triple is a class assertion here: typings with a meta-class were
# taken as declarations already.
_FROM_PAIR = {
    row.predicate: row.from_pair
    for row in AXIOM_TYPES.values()
    if row.predicate is not None and row.cls is not Declaration
}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _entry_function(row: AxiomType) -> Callable[[Iterable[Axiom]], list[tuple]]:
    """The function from axioms of the row's type to the ``(subject,
    predicate, object)`` rows they are written as. A symmetric axiom is
    written once, from its least member to each of the others."""
    if row.symmetric:
        pair, pred = row.pair, row.predicate
        return lambda axioms: [
            (members[0], pred, other)
            for members in map(sorted, map(pair, axioms)) for other in members[1:]
        ]
    triple = row.triple
    return lambda axioms: list(map(triple, axioms))


_ENTRIES = {cls: _entry_function(row) for cls, row in AXIOM_TYPES.items()}


_GROUPS = " ;\n    "  # between a subject's predicate groups
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


def serialize_turtle(store: OntologyStore) -> str:
    """Canonical, byte-deterministic text for the store's axiom set."""
    # Each subject's (order, predicate) groups of objects.
    blocks: dict[Iri, dict[tuple[int, Iri], list]] = {}
    for cls, row in AXIOM_TYPES.items():
        order = row.order
        for subject, pred, obj in _ENTRIES[cls](store.axioms_of(cls)):
            key = order, pred
            groups = blocks.get(subject)
            if groups is None:
                blocks[subject] = {key: [obj]}
            elif key in groups:
                groups[key].append(obj)
            else:
                groups[key] = [obj]
    text = TermText(store)
    heads = {RDF_TYPE: "a "}  # each predicate's text and a space
    lines = [
        f"@prefix {prefix}: <{base}> ."
        for prefix, base in sorted(store.prefixes.items())
    ]
    subjects = sorted(blocks)
    if lines and subjects:
        lines.append("")
    for subject in subjects:
        groups = blocks[subject]
        parts = []
        for key in sorted(groups):
            objects = groups[key]
            head = heads.get(key[1]) or heads.setdefault(key[1], text[key[1]] + " ")
            if len(objects) == 1:
                parts.append(head + text[objects[0]])
                continue
            # IRIs sort as their text, which is term_key order; a group holds
            # IRIs only or literals only.
            objects.sort(key=term_key if type(objects[0]) is AnnotationValue else None)
            parts.append(head + ", ".join(map(text.__getitem__, objects)))
        lines.append(f"{text[subject]} {_GROUPS.join(parts)} .")
    return "\n".join(lines) + "\n"


def axiom_line(store: OntologyStore, ax: Axiom, text: TermText | None = None) -> str:
    """One-line rendering of a single axiom, for diffs and reports. Lines
    over one store can share the ``text`` of its terms."""
    if text is None:
        text = TermText(store)
    rows = _ENTRIES[type(ax)]((ax,))
    parts = [
        f"{'a' if pred == RDF_TYPE else text[pred]} {text[obj]}"
        for _, pred, obj in rows
    ]
    return f"{text[rows[0][0]]} {' ; '.join(parts)} ."
