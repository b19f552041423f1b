"""Basic-graph-pattern query engine over a materialization.

The evaluator sees a triples view of base plus inferred axioms, so range
typing, equivalence, and sameAs propagation are all visible to queries.
Four canned queries answer the federated questions the ontology is built
for: principles per framework, cross-framework concept descriptions,
scenarios for a concept, and concepts unique to one framework.
"""

from __future__ import annotations

import json
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import (
    MissingArgument,
    ParseDiagnostic,
    ParseError,
    UnknownConcept,
    UnsupportedFeature,
)
from .model import (
    AXIOM_TYPES,
    RDF_TYPE,
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    SameIndividual,
    render_literal,
    term_key,
)
from .reasoner import Materialization, _sameas_blocks
from .schema import (
    CONCEPT_LINK_PROPERTIES,
    DEFAULT_PREFIXES,
    REFERENCE,
    SHORT_DESCRIPTION,
    aieo,
)


class Variable(str):
    """A query variable, stored without the leading '?'."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not name:
            raise ValueError("variable name must be non-empty")
        return super().__new__(cls, name)


Term = "Iri | AnnotationValue | Variable"


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: "Iri | Variable"
    predicate: "Iri | Variable"
    object: "Iri | AnnotationValue | Variable"

    def variables(self) -> set[Variable]:
        return {
            t for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Variable)
        }


@dataclass(frozen=True)
class Query:
    projected_variables: tuple[Variable, ...]
    patterns: tuple[TriplePattern, ...]
    distinct: bool = False

    def __post_init__(self) -> None:
        seen: set[Variable] = set()
        for p in self.patterns:
            seen |= p.variables()
        for v in self.projected_variables:
            if v not in seen:
                raise ValueError(f"projected variable ?{v} occurs in no pattern")
        projected = set(self.projected_variables)
        for p in self.patterns:
            own = p.variables()
            shared = {v for q in self.patterns if q is not p for v in q.variables()}
            if own and not (own & projected) and not (own & shared):
                warnings.warn(
                    "pattern shares no variable with the projection or any "
                    "other pattern; result is a cartesian product",
                    stacklevel=2,
                )


Binding = dict  # Variable -> Iri | AnnotationValue


@dataclass(frozen=True)
class ResultSet:
    variables: tuple[Variable, ...]
    rows: tuple[Binding, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def values(self, var: str) -> list:
        return [row[var] for row in self.rows]

    def to_tsv(self) -> str:
        lines = ["\t".join(f"?{v}" for v in self.variables)]
        for row in self.rows:
            lines.append("\t".join(_render_term(row[v]) for v in self.variables))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [
            {str(v): _render_term(row[v]) for v in self.variables}
            for row in self.rows
        ]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_term(term: "Iri | AnnotationValue") -> str:
    if isinstance(term, AnnotationValue):
        return render_literal(term)
    return str(term)


# ---------------------------------------------------------------------------
# Query text parser
# ---------------------------------------------------------------------------

_UNSUPPORTED_KEYWORDS = {
    "OPTIONAL", "FILTER", "UNION", "GRAPH", "SERVICE", "PREFIX", "BASE",
    "ORDER", "GROUP", "LIMIT", "OFFSET", "MINUS", "BIND", "VALUES",
}


def _fail(line: int, col: int, message: str, *, unsupported: bool = False) -> None:
    diag = ParseDiagnostic(line, col, message)
    raise (UnsupportedFeature if unsupported else ParseError)([diag])


@dataclass
class _QTok:
    typ: str  # keyword | var | pname | iriref | string | lbrace | rbrace | dot | eof
    value: object
    line: int
    col: int


def _tokenize_query(text: str) -> list[_QTok]:
    toks: list[_QTok] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int) -> None:
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
            advance(1)
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        tline, tcol = line, col
        if c == "{":
            toks.append(_QTok("lbrace", c, tline, tcol))
            advance(1)
            continue
        if c == "}":
            toks.append(_QTok("rbrace", c, tline, tcol))
            advance(1)
            continue
        if c == ".":
            toks.append(_QTok("dot", c, tline, tcol))
            advance(1)
            continue
        if c == "?":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                _fail(tline, tcol, "empty variable name")
            toks.append(_QTok("var", text[i + 1 : j], tline, tcol))
            advance(j - i)
            continue
        if c == "<":
            j = i + 1
            while j < n and text[j] not in ">\n":
                j += 1
            if j >= n or text[j] != ">":
                _fail(tline, tcol, "unterminated IRI reference")
            toks.append(_QTok("iriref", text[i + 1 : j], tline, tcol))
            advance(j + 1 - i)
            continue
        if c == '"':
            j = i + 1
            out: list[str] = []
            escapes = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
            while j < n and text[j] not in '"\n':
                if text[j] == "\\":
                    if j + 1 >= n or text[j + 1] not in escapes:
                        _fail(tline, tcol, "unknown escape sequence in string")
                    out.append(escapes[text[j + 1]])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                _fail(tline, tcol, "unterminated string literal")
            j += 1
            lang = None
            if j < n and text[j] == "@":
                k = j + 1
                while k < n and (text[k].isalnum() or text[k] == "-"):
                    k += 1
                lang = text[j + 1 : k]
                j = k
            toks.append(_QTok("string", ("".join(out), lang), tline, tcol))
            advance(j - i)
            continue
        if c.isalpha() or c == "_" or c == ":":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            word = text[i:j]
            if j < n and text[j] == ":":
                j += 1
                k = j
                while k < n and (text[k].isalnum() or text[k] in "_-"):
                    k += 1
                toks.append(_QTok("pname", (word, text[j:k]), tline, tcol))
                advance(k - i)
                continue
            upper = word.upper()
            if upper in _UNSUPPORTED_KEYWORDS:
                _fail(tline, tcol, f"{upper} is outside the query subset", unsupported=True)
            if upper in ("SELECT", "DISTINCT", "WHERE") or word == "a":
                toks.append(_QTok("keyword", word, tline, tcol))
                advance(j - i)
                continue
            _fail(tline, tcol, f"unexpected token '{word}'")
        _fail(tline, tcol, f"unexpected character {c!r}")
    toks.append(_QTok("eof", None, line, col))
    return toks


def parse_query(text: str, prefixes: dict[str, str] | None = None) -> Query:
    """Parse ``SELECT [DISTINCT] ?vars WHERE { patterns }``.

    Prefixed names resolve against ``prefixes`` (defaults to the ontology's
    standard prefix map); the query language itself has no PREFIX form.
    """
    prefix_map = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
    toks = _tokenize_query(text)
    pos = 0

    def peek() -> _QTok:
        return toks[pos]

    def take() -> _QTok:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def resolve(tok: _QTok) -> Iri:
        if tok.typ == "iriref":
            return Iri(tok.value)
        prefix, local = tok.value
        base = prefix_map.get(prefix)
        if base is None:
            _fail(tok.line, tok.col, f"unknown prefix '{prefix}:'")
        return Iri(base + local)

    tok = take()
    if not (tok.typ == "keyword" and tok.value.upper() == "SELECT"):
        _fail(tok.line, tok.col, "query must start with SELECT")
    distinct = False
    if peek().typ == "keyword" and str(peek().value).upper() == "DISTINCT":
        take()
        distinct = True
    projected: list[Variable] = []
    while peek().typ == "var":
        projected.append(Variable(take().value))
    if not projected:
        _fail(peek().line, peek().col, "SELECT needs at least one ?variable")
    tok = take()
    if not (tok.typ == "keyword" and str(tok.value).upper() == "WHERE"):
        _fail(tok.line, tok.col, "expected WHERE")
    tok = take()
    if tok.typ != "lbrace":
        _fail(tok.line, tok.col, "expected '{'")

    def term(position: str, allow_literal: bool) -> "Iri | AnnotationValue | Variable":
        tok = take()
        if tok.typ == "var":
            return Variable(tok.value)
        if tok.typ in ("iriref", "pname"):
            return resolve(tok)
        if tok.typ == "keyword" and tok.value == "a" and position == "predicate":
            return RDF_TYPE
        if tok.typ == "string":
            if not allow_literal:
                _fail(tok.line, tok.col, f"a literal cannot be a {position}")
            text_, lang = tok.value
            if not text_:
                _fail(tok.line, tok.col, "empty literal")
            return AnnotationValue(text_, lang)
        if tok.typ == "lbrace":
            _fail(tok.line, tok.col, "nested groups are outside the query subset",
                  unsupported=True)
        _fail(tok.line, tok.col, f"expected a {position}")

    patterns: list[TriplePattern] = []
    while peek().typ != "rbrace":
        if peek().typ == "eof":
            _fail(peek().line, peek().col, "unterminated WHERE group")
        s = term("subject", allow_literal=False)
        p = term("predicate", allow_literal=False)
        o = term("object", allow_literal=True)
        patterns.append(TriplePattern(s, p, o))
        if peek().typ == "dot":
            take()
    take()  # rbrace
    tok = take()
    if tok.typ != "eof":
        _fail(tok.line, tok.col, "trailing content after '}'")
    if not patterns:
        _fail(1, 1, "WHERE group has no patterns")
    try:
        return Query(tuple(projected), tuple(patterns), distinct=distinct)
    except ValueError as exc:
        raise ParseError([ParseDiagnostic(1, 1, str(exc))]) from None


# ---------------------------------------------------------------------------
# Triples view and evaluation
# ---------------------------------------------------------------------------

Triple = tuple


def triples_view(mat: Materialization) -> list[Triple]:
    """Base plus inferred axioms rendered as (s, p, o) triples.

    Symmetric axioms (equivalence, disjointness, sameAs) are rendered in
    both directions so patterns match regardless of argument order.
    """
    out: list[Triple] = []
    append = out.append
    for ax in mat.facts():
        row = AXIOM_TYPES[type(ax)]
        if row.symmetric:
            members, pred = row.pair(ax), row.predicate
            out.extend((a, pred, b) for a in members for b in members if a != b)
        else:
            append(row.triple(ax))
    return out


class _TripleIndex:
    """One posting list per triple position: subject, predicate, object."""

    def __init__(self, triples: list[Triple]):
        self.all = triples
        by_subj, by_pred, by_obj = defaultdict(list), defaultdict(list), defaultdict(list)
        for t in triples:
            by_subj[t[0]].append(t)
            by_pred[t[1]].append(t)
            by_obj[t[2]].append(t)
        self.by_position = (by_subj, by_pred, by_obj)

    def candidates(self, pattern: TriplePattern, binding: Binding) -> list[Triple]:
        """The shortest posting list among the positions the pattern or the
        binding fixes; every triple when none is fixed."""
        best = self.all
        for postings, term in zip(
            self.by_position, (pattern.subject, pattern.predicate, pattern.object)
        ):
            if isinstance(term, Variable):
                term = binding.get(term)
                if term is None:
                    continue
            found = postings.get(term, ())
            if len(found) < len(best):
                best = found
        return best

    def count(self, pattern: TriplePattern) -> int:
        return len(self.candidates(pattern, {}))


def _index_of(mat: Materialization) -> _TripleIndex:
    """The materialization's triple index, built on first use. Everything
    it derives from is immutable except ``mat.base``, which must not be
    mutated once the materialization has been queried."""
    if mat._triple_index is None:
        object.__setattr__(mat, "_triple_index", _TripleIndex(triples_view(mat)))
    return mat._triple_index


def _match(pattern: TriplePattern, triple: Triple, binding: Binding) -> Binding | None:
    extended = binding
    for term, value in zip(
        (pattern.subject, pattern.predicate, pattern.object), triple
    ):
        if isinstance(term, Variable):
            bound = extended.get(term)
            if bound is None:
                if extended is binding:
                    extended = dict(binding)
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended if extended is not binding else dict(binding)


def evaluate(query: Query, mat: Materialization) -> ResultSet:
    """All pattern homomorphisms into the materialization's triples view,
    projected, optionally deduplicated, and sorted for determinism."""
    index = _index_of(mat)
    # Most-selective-first: joins are commutative, so any order is sound.
    patterns = sorted(query.patterns, key=index.count)
    bindings: list[Binding] = [{}]
    for pattern in patterns:
        next_bindings: list[Binding] = []
        for binding in bindings:
            for triple in index.candidates(pattern, binding):
                extended = _match(pattern, triple, binding)
                if extended is not None:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            break
    rows = [
        {v: b[v] for v in query.projected_variables}
        for b in bindings
    ]
    if query.distinct:
        unique = {tuple(term_key(r[v]) for v in query.projected_variables): r for r in rows}
        rows = list(unique.values())
    rows.sort(key=lambda r: tuple(term_key(r[v]) for v in query.projected_variables))
    return ResultSet(query.projected_variables, tuple(rows))


# ---------------------------------------------------------------------------
# Canned queries
# ---------------------------------------------------------------------------

CANNED_QUERY_NAMES = (
    "principles_by_framework",
    "describe_concept",
    "scenarios_for",
    "unique_concepts",
)

PRINCIPLES_BY_FRAMEWORK_QUERY = (
    "SELECT DISTINCT ?framework ?principle WHERE { "
    "?framework a aieo:Framework . ?framework aieo:principle ?principle }"
)

SCENARIOS_FOR_QUERY_TEMPLATE = (
    "SELECT DISTINCT ?scenario WHERE { <{concept}> aieo:scenario ?scenario }"
)

_SCENARIO_PROPERTIES = (aieo("application"), aieo("example"), aieo("scenario"), aieo("useCase"))


def canned_query(name: str, mat: Materialization, arg: Iri | None = None) -> ResultSet:
    """Run one of the four stock federated queries; see CANNED_QUERY_NAMES."""
    if name == "principles_by_framework":
        return evaluate(parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY), mat)
    if name == "describe_concept":
        return _describe_concept(mat, _required(name, arg))
    if name == "scenarios_for":
        return _scenarios_for(mat, _required(name, arg))
    if name == "unique_concepts":
        return _unique_concepts(mat, _required(name, arg))
    raise ValueError(f"unknown canned query '{name}'; expected one of {CANNED_QUERY_NAMES}")


def _required(name: str, arg: Iri | None) -> Iri:
    if arg is None:
        raise MissingArgument(f"canned query '{name}' needs a concept IRI argument")
    return arg


def _require_individual(mat: Materialization, concept: Iri) -> None:
    if mat.base.kind_of(concept) is not EntityKind.NAMED_INDIVIDUAL:
        raise UnknownConcept(f"{concept} is not a declared individual")


def _peers(mat: Materialization, concept: Iri) -> tuple[Iri, ...]:
    """The sameAs closure of the concept, concept included, sorted. The
    partition of all sameAs-linked individuals is built on first use."""
    if mat._sameas_peers is None:
        linked = {x for ax in mat.base.axioms_of(SameIndividual) for x in (ax.a, ax.b)}
        peers = {
            member: tuple(block)
            for block in _sameas_blocks(mat.base, linked)
            for member in block
        }
        object.__setattr__(mat, "_sameas_peers", peers)
    return mat._sameas_peers.get(concept, (concept,))


def _asserted_framework_links(mat: Materialization) -> dict[Iri, set[Iri]]:
    """concept -> frameworks that assert a concept link to it (base only,
    so sameAs propagation does not blur which framework said what)."""
    links: dict[Iri, set[Iri]] = defaultdict(set)
    concept_props = {aieo(p) for p in CONCEPT_LINK_PROPERTIES.values()}
    frameworks = {
        ax.ind
        for ax in mat.base.axioms_of(ClassAssertion)
        if ax.cls == aieo("Framework")
    }
    for ax in mat.base.axioms_of(ObjectPropertyAssertion):
        if ax.prop in concept_props and ax.subject in frameworks:
            links[ax.object].add(ax.subject)
    return links


def _describe_concept(mat: Materialization, concept: Iri) -> ResultSet:
    _require_individual(mat, concept)
    links = _asserted_framework_links(mat)
    variables = tuple(Variable(v) for v in ("framework", "concept", "property", "value"))
    rows: list[Binding] = []
    for peer in _peers(mat, concept):
        annotations = [
            ax
            for ax in mat.base.by_subject.get(peer, ())
            if isinstance(ax, AnnotationAssertion)
            and ax.prop in (SHORT_DESCRIPTION, REFERENCE)
        ]
        for ax in annotations:
            for fw in sorted(links.get(peer, ())):
                rows.append(
                    {
                        variables[0]: fw,
                        variables[1]: peer,
                        variables[2]: ax.prop,
                        variables[3]: ax.value,
                    }
                )
    rows.sort(key=lambda r: tuple(term_key(r[v]) for v in variables))
    return ResultSet(variables, tuple(rows))


def _scenarios_for(mat: Materialization, concept: Iri) -> ResultSet:
    _require_individual(mat, concept)
    peers = set(_peers(mat, concept))
    objects = {
        fact.object
        for fact in mat.facts()
        if isinstance(fact, ObjectPropertyAssertion)
        and fact.prop in _SCENARIO_PROPERTIES
        and fact.subject in peers
    }
    var = Variable("scenario")
    rows = tuple({var: o} for o in sorted(objects))
    return ResultSet((var,), rows)


def _unique_concepts(mat: Materialization, framework: Iri) -> ResultSet:
    links = _asserted_framework_links(mat)
    if mat.base.kind_of(framework) is not EntityKind.NAMED_INDIVIDUAL:
        raise UnknownConcept(f"{framework} is not a declared individual")
    own = {
        ax.object
        for ax in mat.base.axioms_of(ObjectPropertyAssertion)
        if ax.subject == framework
        and ax.prop in (aieo("principle"), aieo("requirement"))
    }
    var = Variable("concept")
    rows = []
    for concept in sorted(own):
        foreign = {
            fw
            for peer in _peers(mat, concept)
            if peer != concept
            for fw in links.get(peer, ())
        }
        if not (foreign - {framework}):
            rows.append({var: concept})
    return ResultSet((var,), tuple(rows))
