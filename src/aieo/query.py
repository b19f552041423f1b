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
from itertools import chain
from operator import itemgetter
from typing import Mapping

from .errors import MissingArgument, UnknownConcept
from .jsonio import canonical_json
from .lexer import Cursor, Token, reject, unexpected
from .model import (
    AXIOM_TYPES,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    _Record,
    render_literal,
    term_key,
)
from .reasoner import Materialization
from .schema import (
    CONCEPT_LINK_PROPERTIES,
    DEFAULT_PREFIXES,
    FRAMEWORK,
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


class TriplePattern(_Record, fields=("subject", "predicate", "object")):
    __slots__ = ()

    def variables(self) -> set[Variable]:
        return {
            t for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Variable)
        }


class Query(_Record, fields=("projected_variables", "patterns", "distinct"), defaults=(False,)):
    __slots__ = ()

    @staticmethod
    def _normalize(projected_variables: tuple[Variable, ...],
                   patterns: tuple[TriplePattern, ...], distinct: bool) -> tuple:
        seen: set[Variable] = set()
        for p in patterns:
            seen |= p.variables()
        for v in projected_variables:
            if v not in seen:
                raise ValueError(f"projected variable ?{v} occurs in no pattern")
        projected = set(projected_variables)
        for p in patterns:
            own = p.variables()
            shared = {v for q in patterns if q is not p for v in q.variables()}
            if own and not (own & projected) and not (own & shared):
                warnings.warn(
                    "pattern shares no variable with the projection or any "
                    "other pattern; result is a cartesian product",
                    stacklevel=_stacklevel_outside_package(),
                )
        return projected_variables, patterns, distinct


def _stacklevel_outside_package() -> int:
    """The ``warnings.warn`` stacklevel, for the function that calls this,
    of the innermost caller outside this package: a warning then names the
    caller's own file and line, whether it built a :class:`Query` or called
    :func:`parse_query`."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        level, frame = level + 1, frame.f_back
    return level


class ResultSet:
    """Rows of terms, one tuple per row with one term per variable, in
    ``variables`` order. Its length and iteration are over the rows."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables: tuple[Variable, ...], rows: tuple[tuple, ...]):
        self.variables, self.rows = variables, rows

    def __eq__(self, other: object) -> bool:
        if type(other) is not ResultSet:
            return NotImplemented
        return (self.variables, self.rows) == (other.variables, other.rows)

    def __hash__(self) -> int:
        return hash((self.variables, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def values(self, var: str) -> list:
        """The column of ``var``; a ``KeyError`` if it is not a variable."""
        if var not in self.variables:
            raise KeyError(var)
        return list(map(itemgetter(self.variables.index(var)), self.rows))

    def to_tsv(self) -> str:
        lines = ["\t".join([f"?{v}" for v in self.variables])]
        lines += ["\t".join(map(_render_term, row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        names = list(map(str, self.variables))
        return canonical_json([dict(zip(names, map(_render_term, row))) for row in self.rows])


def _render_term(term: "Iri | AnnotationValue") -> str:
    if isinstance(term, AnnotationValue):
        return render_literal(term)
    return term


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


def parse_query(text: str, prefixes: Mapping[str, str] | None = None) -> Query:
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

    def candidates(self, fixed: list[tuple[int, "Iri | AnnotationValue"]]) -> list[Triple]:
        """Exactly the triples that hold each ``(position, term)`` of
        ``fixed``: the shortest of their posting lists (every triple when
        none is fixed), filtered on the other positions."""
        best, best_at = self.all, None
        for at, term in fixed:
            found = self.by_position[at].get(term, ())
            if len(found) < len(best):
                best, best_at = found, at
        for at, term in fixed:
            if at != best_at:
                best = [t for t in best if t[at] == term]
        return best

    def count(self, pattern: TriplePattern) -> int:
        """The length of the shortest posting list among the pattern's
        constant positions (every triple when it has none)."""
        best = len(self.all)
        for postings, term in zip(
            self.by_position, (pattern.subject, pattern.predicate, pattern.object)
        ):
            if not isinstance(term, Variable):
                best = min(best, len(postings.get(term, ())))
        return best


def _index_of(mat: Materialization) -> _TripleIndex:
    """The materialization's triple index, built on first use. Everything
    it derives from is immutable except ``mat.base``, which must not be
    mutated once the materialization has been queried."""
    if mat._triple_index is None:
        mat._triple_index = _TripleIndex(triples_view(mat))
    return mat._triple_index


def _join_order(patterns: tuple[TriplePattern, ...], index: _TripleIndex) -> list[tuple]:
    """Greedy connected order, as ``(count, n, pattern)`` triples with the
    pattern's :meth:`_TripleIndex.count` and its place in the query: first
    the cheapest pattern, then each time the cheapest that shares a variable
    with those already placed, or the cheapest left when none does; ties go
    to query order. Joins are commutative, so any order gives the same
    rows."""
    left = sorted([(index.count(p), n, p) for n, p in enumerate(patterns)])
    order: list[tuple] = []
    bound: set[Variable] = set()
    while len(left) > 1:
        best = next((e for e in left if bound and not bound.isdisjoint(e[2].variables())), left[0])
        left.remove(best)
        order.append(best)
        bound |= best[2].variables()
    return order + left


def _plan(pattern: TriplePattern, slot: dict[Variable, int]) -> tuple[list, list, list, list]:
    """What the pattern needs at its join level, given the binding slot of
    each variable that earlier patterns bound (the same for every binding at
    that level): its constant ``(position, term)`` pairs, its joined
    ``(position, slot)`` pairs, the positions of its free variables (which
    take the next slots, in this order), and the ``(first, again)``
    positions of a free variable that it repeats."""
    constants, joined, free, repeats = [], [], [], []
    first: dict[Variable, int] = {}
    for at, term in enumerate((pattern.subject, pattern.predicate, pattern.object)):
        if not isinstance(term, Variable):
            constants.append((at, term))
        elif term in first:
            repeats.append((first[term], at))
        elif term in slot:
            joined.append((at, slot[term]))
        else:
            first[term] = at
            free.append(at)
            slot[term] = len(slot)
    return constants, joined, free, repeats


def _pick(rows: list[tuple], positions: list[int]) -> list[tuple]:
    """The terms at ``positions`` of each row, as one tuple per row."""
    if len(positions) == 1:
        at = positions[0]
        return [(row[at],) for row in rows]
    if positions:
        return list(map(itemgetter(*positions), rows))
    return [()] * len(rows)


def evaluate(query: Query, mat: Materialization) -> ResultSet:
    """All pattern homomorphisms into the materialization's triples view,
    projected, optionally deduplicated, and sorted for determinism."""
    index = _index_of(mat)
    slot: dict[Variable, int] = {}
    bindings: list[tuple] = [()]
    for count, _, pattern in _join_order(query.patterns, index):
        constants, joined, free, repeats = _plan(pattern, slot)
        # Probing reads about the mean posting length at the shortest joined
        # position, len(index.all) / width, once per binding; a table reads
        # the constant candidates once. With nothing joined, width is 0.
        width = max([len(index.by_position[at]) for at, _ in joined], default=0)
        if count * width <= len(bindings) * len(index.all):
            triples = index.candidates(constants)
            for first, again in repeats:
                triples = [t for t in triples if t[first] == t[again]]
            values = _pick(triples, free)
            if joined:
                # Group the candidates on the joined positions, then look
                # each binding up by its terms for them.
                table = defaultdict(list)
                for key, value in zip(map(itemgetter(*[at for at, _ in joined]), triples), values):
                    table[key].append(value)
                key_of = itemgetter(*[s for _, s in joined])
                bindings = [b + v for b in bindings for v in table.get(key_of(b), ())]
            else:
                bindings = [b + v for b in bindings for v in values]
        else:
            grown: list[tuple] = []
            one = free[0] if len(free) == 1 else None
            for b in bindings:
                triples = index.candidates(constants + [(at, b[s]) for at, s in joined])
                for first, again in repeats:
                    triples = [t for t in triples if t[first] == t[again]]
                if one is None:
                    grown += [b + v for v in _pick(triples, free)]
                else:  # one free variable, bound inline
                    for t in triples:
                        grown.append(b + (t[one],))
            bindings = grown
        if not bindings:
            return _result(query.projected_variables, [], False, [])
    projected = query.projected_variables
    slots = [slot[v] for v in projected]
    if slots != list(range(len(slot))):  # else the bindings are the rows
        bindings = _pick(bindings, slots)
    # Only an object position can bind a literal.
    objects = {p.object for p in query.patterns}
    literal_columns = [n for n, v in enumerate(projected) if v in objects]
    return _result(projected, bindings, query.distinct, literal_columns)


def _result(
    variables: tuple[Variable, ...], rows: list[tuple], distinct: bool, literal_columns: list[int]
) -> ResultSet:
    """The rows, one term per variable, deduplicated when ``distinct`` and
    sorted in :func:`term_key` order of their terms, first column first.
    IRIs compare as their text, which is that order, so rows of IRIs sort as
    they are; a literal in one of ``literal_columns`` (the only columns that
    may hold one) falls back to one rank per distinct term: IRIs sorted,
    then literals by ``term_key``."""
    if distinct:
        rows = list(set(rows))
    if not any(AnnotationValue in set(map(type, map(itemgetter(n), rows)))
               for n in literal_columns):
        # A one-term key skips the tuple comparison's equality pass.
        rows.sort(key=itemgetter(0) if len(variables) == 1 else None)
    else:
        terms = set(chain.from_iterable(rows))
        literals = {t for t in terms if isinstance(t, AnnotationValue)}
        ranked = sorted(terms - literals) + sorted(literals, key=term_key)
        rank = dict(zip(ranked, range(len(ranked)))).__getitem__
        rows.sort(key=lambda row: tuple(map(rank, row)))
    return ResultSet(variables, tuple(rows))


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
_DESCRIPTION_PROPERTIES = (SHORT_DESCRIPTION, REFERENCE)
_OWN_CONCEPT_PROPERTIES = (aieo("principle"), aieo("requirement"))


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


def _framework_links(mat: Materialization, concept: Iri) -> set[Iri]:
    """The frameworks whose base assertions link to the concept (asserted
    only, so sameAs propagation does not blur which framework said what)."""
    base = mat.base
    return {
        s for s, p, _ in _index_of(mat).by_position[2].get(concept, ())
        if p in _CONCEPT_LINK_PROPERTIES
        and ObjectPropertyAssertion(s, p, concept) in base
        and ClassAssertion(FRAMEWORK, s) in base
    }


def _describe_concept(mat: Materialization, concept: Iri) -> ResultSet:
    _require_individual(mat, concept)
    variables = tuple(Variable(v) for v in ("framework", "concept", "property", "value"))
    by_subj = _index_of(mat).by_position[0]
    rows: list[tuple] = []
    for peer in mat.sameas_blocks[concept]:
        # The peer's annotations: no rule infers one, so they are asserted.
        annotations = [
            (p, o) for _, p, o in by_subj.get(peer, ())
            if p in _DESCRIPTION_PROPERTIES and type(o) is AnnotationValue
        ]
        frameworks = _framework_links(mat, peer)
        rows += [(fw, peer, p, o) for p, o in annotations for fw in frameworks]
    return _result(variables, rows, False, [3])


def _scenarios_for(mat: Materialization, concept: Iri) -> ResultSet:
    # R6 copies every sameAs peer's object property assertions onto the
    # concept itself, but not its annotations, so a peer's literal scenarios
    # are read from the peer.
    _require_individual(mat, concept)
    by_subj = _index_of(mat).by_position[0]
    objects = {
        o for peer in mat.sameas_blocks[concept] for _, p, o in by_subj.get(peer, ())
        if p in _SCENARIO_PROPERTIES
    }
    return _result((Variable("scenario"),), [(o,) for o in objects], False, [0])


def _unique_concepts(mat: Materialization, framework: Iri) -> ResultSet:
    _require_individual(mat, framework)
    base = mat.base
    own = {
        o for s, p, o in _index_of(mat).by_position[0].get(framework, ())
        if p in _OWN_CONCEPT_PROPERTIES and ObjectPropertyAssertion(s, p, o) in base
    }
    rows = []
    for concept in own:
        foreign = {
            fw
            for peer in mat.sameas_blocks[concept]
            if peer != concept
            for fw in _framework_links(mat, peer)
        }
        if not (foreign - {framework}):
            rows.append((concept,))
    return _result((Variable("concept"),), rows, False, [])
