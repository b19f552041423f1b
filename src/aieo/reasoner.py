"""Forward-chaining materialization, explanation traces, consistency checks.

Every inference rule joins one fact (a class or property assertion) on one
of its fields with the triples of one type of schema axiom, and no rule
derives schema axioms; :data:`_RULES` lists them. Evaluation is semi-naive:
a worklist holds facts not yet used as a rule premise, so each fact meets
each rule once against the static schema and every one-step derivation is
found exactly once. Traces therefore record all one-step proofs of every
inferred fact.

The closure records each derivation as a bare (rule, premises) row. A
fact's :class:`InferenceTrace` tuple is built and put in canonical order the
first time that fact's traces are read through :func:`explain`, their one
reader, so the sort costs nothing for facts no one asks about: the closure
and its consistency check build no trace.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import KeysView, Mapping
from enum import Enum
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator

from .errors import IterationLimitExceeded, UnknownFact
from .model import (
    AXIOM_TYPES,
    Axiom,
    ClassAssertion,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    SubObjectPropertyOf,
    _Record,
    axiom_sort_key,
    sorted_axioms,
)


class RuleId(Enum):
    R1_RANGE_TYPING = "R1_RangeTyping"
    R1_DOMAIN_TYPING = "R1_DomainTyping"
    R2_SUBCLASS = "R2_SubClass"
    R3_CLASS_EQUIV = "R3_ClassEquiv"
    R4_PROP_EQUIV = "R4_PropEquiv"
    R5_SUBPROP = "R5_SubProp"
    R6_SAME_INDIVIDUAL = "R6_SameIndividual"
    D1_DISJOINT_TYPING = "D1_DisjointTyping"
    D2_SAMEAS_DISJOINT = "D2_SameAsDisjoint"

    # As for EntityKind: a member is equal only to itself, and Enum's own
    # hash runs in Python, once per trace the sidecar writer looks up.
    __hash__ = object.__hash__


class _Rule(_Record, fields=("fact", "on", "schema", "rule", "conclude")):
    """From a ``fact`` whose field ``on`` is the subject of a triple of a
    ``schema`` axiom, ``conclude(fact, object of that triple)`` follows."""

    __slots__ = ()


_CA, _OPA = ClassAssertion, ObjectPropertyAssertion
_R6 = RuleId.R6_SAME_INDIVIDUAL
# The R6 rows come last: materialize runs them in a second pass.
_RULES: tuple[_Rule, ...] = (
    _Rule(_OPA, "prop", ObjectPropertyRange, RuleId.R1_RANGE_TYPING,
          lambda f, cls: _CA(cls, f.object)),
    _Rule(_OPA, "prop", ObjectPropertyDomain, RuleId.R1_DOMAIN_TYPING,
          lambda f, cls: _CA(cls, f.subject)),
    _Rule(_CA, "cls", SubClassOf, RuleId.R2_SUBCLASS, lambda f, cls: _CA(cls, f.ind)),
    _Rule(_CA, "cls", EquivalentClasses, RuleId.R3_CLASS_EQUIV, lambda f, cls: _CA(cls, f.ind)),
    _Rule(_OPA, "prop", EquivalentObjectProperties, RuleId.R4_PROP_EQUIV,
          lambda f, prop: _OPA(f.subject, prop, f.object)),
    _Rule(_OPA, "prop", SubObjectPropertyOf, RuleId.R5_SUBPROP,
          lambda f, prop: _OPA(f.subject, prop, f.object)),
    _Rule(_CA, "ind", SameIndividual, _R6, lambda f, ind: _CA(f.cls, ind)),
    _Rule(_OPA, "subject", SameIndividual, _R6, lambda f, ind: _OPA(ind, f.prop, f.object)),
    _Rule(_OPA, "object", SameIndividual, _R6, lambda f, ind: _OPA(f.subject, f.prop, ind)),
)


class InferenceTrace(_Record, fields=("conclusion", "rule", "premises")):
    """One-step derivation: the conclusion follows from the premises by rule."""

    __slots__ = ()


class ConsistencyViolation(_Record, fields=("individual", "class_a", "class_b", "rule")):
    """An individual typed with both halves of a disjoint class pair.

    ``rule`` is D1 when some individual carries both memberships without
    any sameAs step, D2 when the clash only appears after sameAs merging.
    Its support is read on demand: ``explain(mat, ClassAssertion(v.class_a,
    v.individual)) + explain(mat, ClassAssertion(v.class_b, v.individual))``.
    """

    __slots__ = ()


class _SortKeys(dict):
    """Each axiom looked up -> its :func:`axiom_sort_key`, computed on the
    first lookup."""

    __slots__ = ()

    def __missing__(self, ax: Axiom) -> tuple:
        key = self[ax] = axiom_sort_key(ax)
        return key


class Traces(Mapping):
    """Each inferred fact -> its one-step derivations, in canonical order.

    Read-only. ``materialize`` hands over a list of (rule, premises) rows
    per fact; the first read of a fact builds and sorts its traces and keeps
    them in place of the rows. Every derivation is found whatever the
    discovery order, so sorting makes equal stores yield identical tuples.
    Rows are ordered by rule value, then premise by premise; each distinct
    premise's sort key is computed once.
    """

    __slots__ = ("_rows", "_row_key")

    def __init__(self, rows: dict[Axiom, list[tuple[RuleId, tuple[Axiom, Axiom]]]]):
        self._rows: dict[Axiom, list | tuple[InferenceTrace, ...]] = rows
        premise_keys = _SortKeys()

        def row_key(row: tuple[RuleId, tuple[Axiom, Axiom]]) -> tuple:
            # A row's premises are the fact and the schema axiom it met.
            rule, (fact, schema_ax) = row
            # Enum's .value is a Python property; _value_ is a plain attribute.
            return rule._value_, premise_keys[fact], premise_keys[schema_ax]

        self._row_key = row_key

    def __getitem__(self, fact: Axiom) -> tuple[InferenceTrace, ...]:
        rows = self._rows[fact]
        if type(rows) is list:
            if len(rows) > 1:
                rows.sort(key=self._row_key)
            rows = self._rows[fact] = tuple(
                [InferenceTrace(fact, rule, premises) for rule, premises in rows]
            )
        return rows

    def __contains__(self, fact: object) -> bool:  # Mapping's would build traces
        return fact in self._rows

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class Materialization:
    """The closure of ``base`` under the inference rules, with each
    individual's closed class membership and the consistency violations
    (:func:`check_consistency`) read off it. Read-only: only the query
    layer's ``_triple_index`` memo is set after construction."""

    __slots__ = ("base", "inferred", "traces", "sameas_free", "sameas_blocks", "memberships",
                 "violations", "_triple_index")

    def __init__(self, base: OntologyStore, inferred: KeysView[Axiom], traces: Traces,
                 sameas_free: frozenset[Axiom], sameas_blocks: Mapping[Iri, tuple[Iri, ...]]):
        self.base = base
        # A read-only set view of the facts that ``traces`` maps.
        self.inferred = inferred
        self.traces = traces
        # The inferred facts that some derivation without R6 reaches.
        self.sameas_free = sameas_free
        # Each declared individual -> its sameAs block, sorted (read-only).
        self.sameas_blocks = sameas_blocks
        # Each individual with a class -> its asserted and inferred classes
        # (read-only), built once for every reader of membership.
        classes: dict[Iri, set[Iri]] = defaultdict(set)
        for fact in chain(base.axioms_of(ClassAssertion), inferred):
            if type(fact) is ClassAssertion:
                classes[fact.ind].add(fact.cls)
        self.memberships: Mapping[Iri, frozenset[Iri]] = MappingProxyType(
            {ind: frozenset(cls) for ind, cls in classes.items()})
        # Built by the query layer on first use and kept for later queries.
        self._triple_index = None
        self.violations: tuple[ConsistencyViolation, ...] = tuple(check_consistency(self))

    @property
    def consistent(self) -> bool:
        return not self.violations

    def facts(self) -> Iterable[Axiom]:
        yield from self.base
        yield from self.inferred


def _sameas_blocks(store: OntologyStore) -> dict[Iri, tuple[Iri, ...]]:
    """Each declared individual -> its sameAs block, sorted."""
    # Union-find; each root is the least member of its block.
    parent = {ind: ind for ind in store.declared(EntityKind.NAMED_INDIVIDUAL)}

    def find(x: Iri) -> Iri:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ax in store.axioms_of(SameIndividual):
        ra, rb = find(ax.a), find(ax.b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members: dict[Iri, list[Iri]] = defaultdict(list)
    for ind in parent:  # in sorted order, so each list is sorted
        members[find(ind)].append(ind)
    return {ind: block for block in map(tuple, members.values()) for ind in block}


def materialize(store: OntologyStore, *, fact_limit: int = 1_000_000) -> Materialization:
    """Close the store under R1-R6 and report disjointness violations.

    Inconsistency never aborts the closure; all violations are collected.
    """
    store.require_valid()

    # Per schema type, each axiom triple's subject -> [(its object, axiom)].
    joins: dict[type, dict[Iri, list[tuple[Iri, Axiom]]]] = {}
    for schema in {row.schema for row in _RULES}:
        join = joins[schema] = defaultdict(list)
        for ax in store.axioms_of(schema):
            for subject, _, obj in AXIOM_TYPES[schema].triples(ax):
                join[subject].append((obj, ax))

    def plan(rows: Iterable[_Rule]) -> dict[type, list[tuple]]:
        out: dict[type, list[tuple]] = {ClassAssertion: [], ObjectPropertyAssertion: []}
        for row in rows:
            out[row.fact].append((row.rule, row.conclude, attrgetter(row.on), joins[row.schema]))
        return out

    free_rows = plan(row for row in _RULES if row.rule is not _R6)
    r6_rows, every_row = plan(row for row in _RULES if row.rule is _R6), plan(_RULES)
    asserted = sorted_axioms(store.axioms_of(ClassAssertion, ObjectPropertyAssertion))
    # Every conclusion is a class or property assertion.
    asserted_set = set(asserted)
    # Each inferred fact -> its derivations: the one record of those facts.
    traces: dict[Axiom, list[tuple[RuleId, tuple[Axiom, ...]]]] = {}

    def close(seeds: Iterable[Axiom], seed_rows: dict, derived_rows: dict) -> None:
        """Meet each seed with ``seed_rows`` and each fact derived on the
        way with ``derived_rows``, so each fact meets each row once."""
        queue = deque((fact, seed_rows) for fact in seeds)
        while queue:
            fact, rows = queue.popleft()
            for rule, conclude, key, join in rows[type(fact)]:
                for joined, schema_ax in join.get(key(fact), ()):
                    conclusion = conclude(fact, joined)
                    if conclusion in asserted_set:  # asserted facts carry no traces
                        continue
                    derivations = traces.get(conclusion)
                    if derivations is None:
                        if len(traces) >= fact_limit:
                            raise IterationLimitExceeded(
                                f"materialization exceeded {fact_limit} derived facts"
                            )
                        derivations = traces[conclusion] = []
                        queue.append((conclusion, derived_rows))
                    derivations.append((rule, (fact, schema_ax)))

    close(asserted, free_rows, free_rows)
    sameas_free = frozenset(traces)
    # R6 on every fact known so far, and every rule on what R6 derives.
    close((*asserted, *sameas_free), r6_rows, every_row)
    return Materialization(store, traces.keys(), Traces(traces), sameas_free,
                           MappingProxyType(_sameas_blocks(store)))


def explain(mat: Materialization, fact: Axiom) -> list[InferenceTrace]:
    """All one-step derivations of the fact; empty iff it is asserted."""
    if fact in mat.inferred:  # disjoint from the base, and the case the sidecar reads
        return list(mat.traces[fact])
    if fact in mat.base:
        return []
    raise UnknownFact(f"fact is not part of the materialization: {fact}")


def check_consistency(mat: Materialization) -> list[ConsistencyViolation]:
    """One violation per (sameAs-merged individual, asserted disjoint pair)
    whose merged membership covers both classes.

    R6 copies every class assertion across a sameAs block, so each member's
    closed membership is the block's merged one: the check walks
    ``mat.memberships`` of the least member of each block of
    ``mat.sameas_blocks`` against ``partners`` (each class -> the greater
    class of each disjoint pair it is the lesser of), so it costs
    Σ memberships × partners.
    """
    partners: dict[Iri, list[Iri]] = defaultdict(list)
    for dj in mat.base.axioms_of(DisjointClasses):
        partners[dj.a].append(dj.b)

    def free_membership(cls: Iri, ind: Iri) -> bool:
        fact = ClassAssertion(cls, ind)
        return fact in mat.base or fact in mat.sameas_free

    violations: list[ConsistencyViolation] = []
    for least, block in mat.sameas_blocks.items():
        if block[0] != least:  # each block once, from its least member
            continue
        classes = mat.memberships.get(least, ())
        for a in classes:
            for b in partners.get(a, ()):
                if b not in classes:
                    continue
                # D1 at the least member in both classes without sameAs,
                # else D2 at the block's least member.
                witness = next(
                    (ind for ind in block if free_membership(a, ind) and free_membership(b, ind)),
                    None,
                )
                rule = RuleId.D1_DISJOINT_TYPING if witness else RuleId.D2_SAMEAS_DISJOINT
                violations.append(ConsistencyViolation(witness or least, a, b, rule))
    violations.sort(key=lambda v: (v.individual, v.class_a, v.class_b))
    return violations
