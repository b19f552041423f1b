"""Forward-chaining materialization, explanation traces, consistency checks.

Every inference rule joins one fact (a class or property assertion) on one
of its fields with the triples of one type of schema axiom, and no rule
derives schema axioms; :data:`_RULES` lists them. Evaluation is semi-naive:
a worklist holds facts not yet used as a rule premise, so each fact meets
each rule once against the static schema and every one-step derivation is
found exactly once. Traces therefore record all one-step proofs of every
inferred fact.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable

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


@dataclass(frozen=True, slots=True)
class _Rule:
    """From a ``fact`` whose field ``on`` is the subject of a triple of a
    ``schema`` axiom, ``conclude(fact, object of that triple)`` follows."""

    fact: type
    on: str
    schema: type
    rule: RuleId
    conclude: Callable[[Axiom, Iri], Axiom]


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


@dataclass(frozen=True, slots=True)
class InferenceTrace:
    """One-step derivation: the conclusion follows from the premises by rule."""

    conclusion: Axiom
    rule: RuleId
    premises: tuple[Axiom, ...]


@dataclass(frozen=True, slots=True)
class ConsistencyViolation:
    """An individual typed with both halves of a disjoint class pair.

    ``rule`` is D1 when some individual carries both memberships without
    any sameAs step, D2 when the clash only appears after sameAs merging.
    """

    individual: Iri
    class_a: Iri
    class_b: Iri
    rule: RuleId
    traces: tuple[InferenceTrace, ...]


@dataclass(frozen=True)
class Materialization:
    """An immutable closure of ``base`` under the inference rules."""

    base: OntologyStore
    inferred: frozenset[Axiom]
    traces: dict[Axiom, tuple[InferenceTrace, ...]]
    # The inferred facts that some derivation without R6 reaches.
    sameas_free: frozenset[Axiom]
    violations: tuple[ConsistencyViolation, ...]
    # Built by the query layer on first use and kept for later queries.
    _triple_index: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def has(self, fact: Axiom) -> bool:
        return fact in self.base.axioms or fact in self.inferred

    def facts(self) -> Iterable[Axiom]:
        yield from self.base.axioms
        yield from self.inferred


def materialize(store: OntologyStore, *, fact_limit: int = 1_000_000) -> Materialization:
    """Close the store under R1-R6 and report disjointness violations.

    Inconsistency never aborts the closure; all violations are collected.
    """
    store.require_valid()

    by_type: dict[type, list[Axiom]] = defaultdict(list)
    for ax in store.axioms:
        by_type[type(ax)].append(ax)
    # Per schema type, each axiom triple's subject -> [(its object, axiom)].
    joins: dict[type, dict[Iri, list[tuple[Iri, Axiom]]]] = {}
    for schema in {row.schema for row in _RULES}:
        join = joins[schema] = defaultdict(list)
        for ax in by_type[schema]:
            for subject, _, obj in AXIOM_TYPES[schema].triples(ax):
                join[subject].append((obj, ax))

    def plan(rows: Iterable[_Rule]) -> dict[type, list[tuple]]:
        out: dict[type, list[tuple]] = {ClassAssertion: [], ObjectPropertyAssertion: []}
        for row in rows:
            out[row.fact].append((row, attrgetter(row.on), joins[row.schema]))
        return out

    free_rows = plan(row for row in _RULES if row.rule is not _R6)
    r6_rows, every_row = plan(row for row in _RULES if row.rule is _R6), plan(_RULES)
    asserted = sorted_axioms(by_type[ClassAssertion] + by_type[ObjectPropertyAssertion])
    inferred: set[Axiom] = set()
    traces: dict[Axiom, list[InferenceTrace]] = {}
    sameas_free: frozenset[Axiom] | None = None
    # Each entry is a fact and the rows it has still to meet; what it
    # derives meets the rows of the current pass.
    queue: deque[tuple[Axiom, dict]] = deque((fact, free_rows) for fact in asserted)
    derived_rows = free_rows
    while queue or sameas_free is None:
        if not queue:
            # The first pass closed the asserted facts under R1-R5. The
            # second runs R6 on every fact known so far, and every rule on
            # each fact that R6 derives, so each fact meets each row once.
            sameas_free = frozenset(inferred)
            derived_rows = every_row
            queue.extend((fact, r6_rows) for fact in (*asserted, *sameas_free))
            continue
        fact, rows = queue.popleft()
        for row, key, join in rows[type(fact)]:
            for joined, schema_ax in join.get(key(fact), ()):
                conclusion = row.conclude(fact, joined)
                if conclusion in store.axioms:  # asserted facts carry no traces
                    continue
                if conclusion not in inferred:
                    if len(inferred) >= fact_limit:
                        raise IterationLimitExceeded(
                            f"materialization exceeded {fact_limit} derived facts"
                        )
                    inferred.add(conclusion)
                    traces[conclusion] = []
                    queue.append((conclusion, derived_rows))
                traces[conclusion].append(InferenceTrace(conclusion, row.rule, (fact, schema_ax)))

    # Every one-step derivation is found whatever the order; only the
    # discovery order varies. Sort so equal stores yield identical tuples.
    def trace_key(t: InferenceTrace) -> tuple:
        return (t.rule.value, tuple(axiom_sort_key(p) for p in t.premises))

    mat = Materialization(
        base=store,
        inferred=frozenset(inferred),
        traces={fact: tuple(sorted(ts, key=trace_key)) for fact, ts in traces.items()},
        sameas_free=sameas_free,
        violations=(),
    )
    return replace(mat, violations=tuple(check_consistency(mat)))


def explain(mat: Materialization, fact: Axiom) -> list[InferenceTrace]:
    """All one-step derivations of the fact; empty iff it is asserted."""
    if fact in mat.base.axioms:
        return []
    if fact in mat.inferred:
        return list(mat.traces[fact])
    raise UnknownFact(f"fact is not part of the materialization: {fact}")


def check_consistency(mat: Materialization) -> list[ConsistencyViolation]:
    """One violation per (sameAs-merged individual, asserted disjoint pair)
    whose merged membership covers both classes."""
    memberships: dict[Iri, set[Iri]] = defaultdict(set)
    for fact in mat.facts():
        if isinstance(fact, ClassAssertion):
            memberships[fact.ind].add(fact.cls)
    if not memberships:
        return []

    def free_membership(cls: Iri, ind: Iri) -> bool:
        fact = ClassAssertion(cls, ind)
        return fact in mat.base.axioms or fact in mat.sameas_free

    violations: list[ConsistencyViolation] = []
    disjoints = sorted(mat.base.axioms_of(DisjointClasses), key=lambda d: (d.a, d.b))
    for members in equivalence_classes(mat.base, EntityKind.NAMED_INDIVIDUAL):
        block = sorted(m for m in members if m in memberships)
        if not block:
            continue
        merged: set[Iri] = set()
        for ind in block:
            merged |= memberships[ind]
        for dj in disjoints:
            if dj.a not in merged or dj.b not in merged:
                continue
            witnesses = [
                ind
                for ind in block
                if free_membership(dj.a, ind) and free_membership(dj.b, ind)
            ]
            if witnesses:
                rule, individual = RuleId.D1_DISJOINT_TYPING, witnesses[0]
            else:
                rule, individual = RuleId.D2_SAMEAS_DISJOINT, block[0]
            support = [
                trace
                for cls in (dj.a, dj.b)
                for trace in explain(mat, ClassAssertion(cls, individual))
            ]
            violations.append(
                ConsistencyViolation(
                    individual=individual,
                    class_a=dj.a,
                    class_b=dj.b,
                    rule=rule,
                    traces=tuple(support),
                )
            )
    violations.sort(key=lambda v: (v.individual, v.class_a, v.class_b))
    return violations


_AXIOM_BY_KIND: dict[EntityKind, type] = {
    EntityKind.OWL_CLASS: EquivalentClasses,
    EntityKind.OBJECT_PROPERTY: EquivalentObjectProperties,
    EntityKind.NAMED_INDIVIDUAL: SameIndividual,
}


def equivalence_classes(store: OntologyStore, kind: EntityKind) -> list[frozenset[Iri]]:
    """Partition of the declared IRIs of one kind under its equivalence
    axioms; entities without any equivalence axiom form singleton blocks."""
    if kind not in _AXIOM_BY_KIND:
        raise ValueError(f"no equivalence axioms exist for kind {kind.value}")

    # Union-find; each root is the least member of its block.
    parent: dict[Iri, Iri] = {m: m for m in store.declared(kind)}

    def find(x: Iri) -> Iri:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ax in store.axioms_of(_AXIOM_BY_KIND[kind]):
        first, *rest = AXIOM_TYPES[type(ax)].pair(ax)
        for other in rest:
            ra, rb = find(first), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    blocks: dict[Iri, set[Iri]] = defaultdict(set)
    for m in parent:
        blocks[find(m)].add(m)
    return [frozenset(blocks[root]) for root in sorted(blocks)]
