"""Basic-graph-pattern query engine over a materialization.

The evaluator sees a triples view of base plus inferred axioms, so range
typing, equivalence, and sameAs propagation are all visible to queries.
Four canned queries answer the federated questions the ontology is built
for: principles per framework, cross-framework concept descriptions,
scenarios for a concept, and concepts unique to one framework.

Query text is read through the :class:`~aieo.lexer.Cursor` that Turtle
files use too (one pass splits the text, each distinct token is read once,
token errors come first, positions are worked out on error); this module
reads only the ``SELECT``/``WHERE`` frame, ``?variables`` and the rejection
of nested groups.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass

from .errors import MissingArgument, UnknownConcept
from .jsonio import canonical_json
from .lexer import Cursor, Token, reject, unexpected
from .model import (
    AXIOM_TYPES,
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    OWL_SAME_AS,
    render_literal,
    term_key,
)
from .reasoner import Materialization
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
                    stacklevel=_stacklevel_outside_package(),
                )


def _stacklevel_outside_package() -> int:
    """The ``warnings.warn`` stacklevel, for the function that calls this,
    of the innermost caller outside this package: a warning then names the
    caller's own file and line, whether it built a :class:`Query` or called
    :func:`parse_query`."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        level, frame = level + 1, frame.f_back
    return level


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
        return canonical_json(payload)


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


def _word(tok: Token) -> None:
    value = tok[1]
    upper = value.upper()
    if upper in _UNSUPPORTED_KEYWORDS:
        reject(f"{upper} is outside the query subset", unsupported=True)
    if upper not in ("SELECT", "DISTINCT", "WHERE") and value != "a":
        reject(f"unexpected token '{value}'")


def _variable(tok: Token) -> None:
    if not tok[1]:
        reject("empty variable name")


# The query language's reading of bare words and variables; the tokens only
# Turtle has are rejected.
_CHECKS = {"word": _word, "?": _variable, "@": unexpected, ";": unexpected, ",": unexpected}


def _is_word(tok: Token, keyword: str) -> bool:
    return tok[0] == "word" and tok[1].upper() == keyword


def parse_query(text: str, prefixes: dict[str, str] | None = None) -> Query:
    """Parse ``SELECT [DISTINCT] ?vars WHERE { patterns }``.

    Prefixed names resolve against ``prefixes`` (defaults to the ontology's
    standard prefix map); the query language itself has no PREFIX form.
    """
    prefix_map = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
    return _parse(Cursor(text, _CHECKS, prefix_map, "unknown prefix '{}:'"))


def _term(cur: Cursor, position: str) -> "Iri | AnnotationValue | Variable":
    kind = cur.peek()
    if kind == "?":
        return Variable(cur.take()[1])
    if kind == "{":
        cur.fail("nested groups are outside the query subset", cur.at, unsupported=True)
    return cur.term(position)


def _parse(cur: Cursor) -> Query:
    if not _is_word(cur.take(), "SELECT"):
        cur.fail("query must start with SELECT")
    distinct = _is_word(cur.lookahead(), "DISTINCT")
    if distinct:
        cur.take()
    projected: list[tuple[Variable, int]] = []
    while cur.peek() == "?":
        projected.append((Variable(cur.take()[1]), cur.at - 1))
    if not projected:
        cur.fail("SELECT needs at least one ?variable", cur.at)
    if not _is_word(cur.take(), "WHERE"):
        cur.fail("expected WHERE")
    cur.expect("{", "'{'")
    patterns: list[TriplePattern] = []
    while cur.peek() != "}":
        if cur.peek() == "eof":
            cur.fail("unterminated WHERE group", cur.at)
        s = _term(cur, "subject")
        p = _term(cur, "predicate")
        patterns.append(TriplePattern(s, p, _term(cur, "object")))
        if cur.peek() == ".":
            cur.take()
    close = cur.at
    cur.take()
    if cur.take()[0] != "eof":
        cur.fail("trailing content after '}'")
    if not patterns:
        cur.fail("WHERE group has no patterns", close)
    try:
        return Query(tuple(v for v, _ in projected), tuple(patterns), distinct=distinct)
    except ValueError as exc:
        message = str(exc)
    # The one invalid query left: a projected variable that no pattern binds.
    bound = {v for p in patterns for v in p.variables()}
    cur.fail(message, next(at for v, at in projected if v not in bound))


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
    for ax in mat.facts():
        out.extend(AXIOM_TYPES[type(ax)].triples(ax))
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

_SCENARIO_PROPERTIES = (aieo("application"), aieo("example"), aieo("scenario"), aieo("useCase"))
_CONCEPT_LINK_PROPERTIES = frozenset(aieo(p) for p in CONCEPT_LINK_PROPERTIES.values())
_FRAMEWORK = aieo("Framework")


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


def _peers(mat: Materialization, concept: Iri) -> list[Iri]:
    """The sameAs closure of the concept, concept included, sorted. Every
    ``owl:sameAs`` triple is a SameIndividual axiom: the store rejects
    declaring that IRI, and the closure infers no sameAs facts."""
    by_subject = _index_of(mat).by_position[0]
    block, todo = {concept}, [concept]
    while todo:
        s = todo.pop()
        for _, p, o in by_subject.get(s, ()):
            if p == OWL_SAME_AS and o not in block:
                block.add(o)
                todo.append(o)
    return sorted(block)


def _framework_links(mat: Materialization, concept: Iri) -> set[Iri]:
    """The frameworks whose base assertions link to the concept (asserted
    only, so sameAs propagation does not blur which framework said what)."""
    base = mat.base
    return {
        s for s, p, _ in _index_of(mat).by_position[2].get(concept, ())
        if p in _CONCEPT_LINK_PROPERTIES
        and ObjectPropertyAssertion(s, p, concept) in base
        and ClassAssertion(_FRAMEWORK, s) in base
    }


def _describe_concept(mat: Materialization, concept: Iri) -> ResultSet:
    _require_individual(mat, concept)
    variables = tuple(Variable(v) for v in ("framework", "concept", "property", "value"))
    rows: list[Binding] = []
    for peer in _peers(mat, concept):
        annotations = [
            ax
            for ax in mat.base.by_subject.get(peer, ())
            if isinstance(ax, AnnotationAssertion)
            and ax.prop in (SHORT_DESCRIPTION, REFERENCE)
        ]
        frameworks = sorted(_framework_links(mat, peer))
        for ax in annotations:
            for fw in frameworks:
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
    # R6 copies every sameAs peer's assertions onto the concept itself.
    _require_individual(mat, concept)
    objects = {
        o for _, p, o in _index_of(mat).by_position[0].get(concept, ())
        if p in _SCENARIO_PROPERTIES
    }
    var = Variable("scenario")
    rows = tuple({var: o} for o in sorted(objects))
    return ResultSet((var,), rows)


def _unique_concepts(mat: Materialization, framework: Iri) -> ResultSet:
    _require_individual(mat, framework)
    own = {
        ax.object
        for ax in mat.base.by_subject.get(framework, ())
        if isinstance(ax, ObjectPropertyAssertion)
        and ax.prop in (aieo("principle"), aieo("requirement"))
    }
    var = Variable("concept")
    rows = []
    for concept in sorted(own):
        foreign = {
            fw
            for peer in _peers(mat, concept)
            if peer != concept
            for fw in _framework_links(mat, peer)
        }
        if not (foreign - {framework}):
            rows.append({var: concept})
    return ResultSet((var,), tuple(rows))
