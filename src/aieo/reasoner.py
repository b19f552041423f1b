"""Forward-chaining materialization, explanation traces, consistency checks.

Evaluation is semi-naive: a worklist holds facts not yet used as a rule
premise. Every rule joins exactly one fact (class or property assertion)
with one schema axiom, and no rule derives schema axioms, so processing
each fact once against the static schema enumerates every one-step
derivation exactly once. Traces therefore record all one-step proofs of
every inferred fact.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

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

    ranges: dict[Iri, list[ObjectPropertyRange]] = defaultdict(list)
    domains: dict[Iri, list[ObjectPropertyDomain]] = defaultdict(list)
    supers: dict[Iri, list[SubClassOf]] = defaultdict(list)
    class_equiv: dict[Iri, list[EquivalentClasses]] = defaultdict(list)
    prop_equiv: dict[Iri, list[EquivalentObjectProperties]] = defaultdict(list)
    prop_supers: dict[Iri, list[SubObjectPropertyOf]] = defaultdict(list)
    same_edges: dict[Iri, list[SameIndividual]] = defaultdict(list)
    for ax in store.axioms:
        if isinstance(ax, ObjectPropertyRange):
            ranges[ax.prop].append(ax)
        elif isinstance(ax, ObjectPropertyDomain):
            domains[ax.prop].append(ax)
        elif isinstance(ax, SubClassOf):
            supers[ax.sub].append(ax)
        elif isinstance(ax, EquivalentClasses):
            for c in ax.classes:
                class_equiv[c].append(ax)
        elif isinstance(ax, EquivalentObjectProperties):
            for p in ax.properties:
                prop_equiv[p].append(ax)
        elif isinstance(ax, SubObjectPropertyOf):
            prop_supers[ax.sub].append(ax)
        elif isinstance(ax, SameIndividual):
            same_edges[ax.a].append(ax)
            same_edges[ax.b].append(ax)

    inferred: set[Axiom] = set()
    traces: dict[Axiom, list[InferenceTrace]] = {}
    queue: deque[Axiom] = deque(
        sorted_axioms(
            ax
            for ax in store.axioms
            if isinstance(ax, (ClassAssertion, ObjectPropertyAssertion))
        )
    )

    def emit(conclusion: Axiom, rule: RuleId, *premises: Axiom) -> None:
        if conclusion in store.axioms:  # asserted facts carry no traces
            return
        if conclusion not in inferred:
            if len(inferred) >= fact_limit:
                raise IterationLimitExceeded(
                    f"materialization exceeded {fact_limit} derived facts"
                )
            inferred.add(conclusion)
            traces[conclusion] = []
            queue.append(conclusion)
        traces[conclusion].append(InferenceTrace(conclusion, rule, premises))

    while queue:
        fact = queue.popleft()
        if isinstance(fact, ClassAssertion):
            for sub_ax in supers[fact.cls]:
                emit(ClassAssertion(sub_ax.sup, fact.ind), RuleId.R2_SUBCLASS, fact, sub_ax)
            for eq_ax in class_equiv[fact.cls]:
                for peer in eq_ax.classes:
                    if peer != fact.cls:
                        emit(ClassAssertion(peer, fact.ind), RuleId.R3_CLASS_EQUIV, fact, eq_ax)
            for same_ax in same_edges[fact.ind]:
                other = same_ax.b if same_ax.a == fact.ind else same_ax.a
                emit(ClassAssertion(fact.cls, other), RuleId.R6_SAME_INDIVIDUAL, fact, same_ax)
        else:
            for rng_ax in ranges[fact.prop]:
                emit(
                    ClassAssertion(rng_ax.cls, fact.object),
                    RuleId.R1_RANGE_TYPING, fact, rng_ax,
                )
            for dom_ax in domains[fact.prop]:
                emit(
                    ClassAssertion(dom_ax.cls, fact.subject),
                    RuleId.R1_DOMAIN_TYPING, fact, dom_ax,
                )
            for eq_ax in prop_equiv[fact.prop]:
                for peer in eq_ax.properties:
                    if peer != fact.prop:
                        emit(
                            ObjectPropertyAssertion(fact.subject, peer, fact.object),
                            RuleId.R4_PROP_EQUIV, fact, eq_ax,
                        )
            for sub_ax in prop_supers[fact.prop]:
                emit(
                    ObjectPropertyAssertion(fact.subject, sub_ax.sup, fact.object),
                    RuleId.R5_SUBPROP, fact, sub_ax,
                )
            for same_ax in same_edges[fact.subject]:
                other = same_ax.b if same_ax.a == fact.subject else same_ax.a
                emit(
                    ObjectPropertyAssertion(other, fact.prop, fact.object),
                    RuleId.R6_SAME_INDIVIDUAL, fact, same_ax,
                )
            for same_ax in same_edges[fact.object]:
                other = same_ax.b if same_ax.a == fact.object else same_ax.a
                emit(
                    ObjectPropertyAssertion(fact.subject, fact.prop, other),
                    RuleId.R6_SAME_INDIVIDUAL, fact, same_ax,
                )

    # The worklist visits each fact once, so every one-step derivation is
    # found regardless of order; only the discovery order varies. Sort so
    # equal stores always yield identical trace tuples.
    def trace_key(t: InferenceTrace) -> tuple:
        return (t.rule.value, tuple(axiom_sort_key(p) for p in t.premises))

    mat = Materialization(
        base=store,
        inferred=frozenset(inferred),
        traces={fact: tuple(sorted(ts, key=trace_key)) for fact, ts in traces.items()},
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


def _sameas_free_facts(mat: Materialization) -> set[Axiom]:
    """Inferred facts derivable without any R6 step (asserted facts qualify
    implicitly). Computed as a least fixpoint over the recorded traces."""
    free: set[Axiom] = set()

    def grounded(premise: Axiom) -> bool:
        return premise in mat.base.axioms or premise in free

    changed = True
    while changed:
        changed = False
        for fact, fact_traces in mat.traces.items():
            if fact in free:
                continue
            for trace in fact_traces:
                if trace.rule is RuleId.R6_SAME_INDIVIDUAL:
                    continue
                if all(grounded(p) for p in trace.premises):
                    free.add(fact)
                    changed = True
                    break
    return free


def check_consistency(mat: Materialization) -> list[ConsistencyViolation]:
    """One violation per (sameAs-merged individual, asserted disjoint pair)
    whose merged membership covers both classes."""
    memberships: dict[Iri, set[Iri]] = defaultdict(set)
    for fact in mat.facts():
        if isinstance(fact, ClassAssertion):
            memberships[fact.ind].add(fact.cls)
    if not memberships:
        return []

    sameas_free = _sameas_free_facts(mat)

    def free_membership(cls: Iri, ind: Iri) -> bool:
        fact = ClassAssertion(cls, ind)
        return fact in mat.base.axioms or fact in sameas_free

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


_KIND_BY_NAME = {
    "class": EntityKind.OWL_CLASS,
    "property": EntityKind.OBJECT_PROPERTY,
    "individual": EntityKind.NAMED_INDIVIDUAL,
}
_AXIOM_BY_KIND: dict[EntityKind, type] = {
    EntityKind.OWL_CLASS: EquivalentClasses,
    EntityKind.OBJECT_PROPERTY: EquivalentObjectProperties,
    EntityKind.NAMED_INDIVIDUAL: SameIndividual,
}


def equivalence_classes(
    store: OntologyStore, kind: "EntityKind | str"
) -> list[frozenset[Iri]]:
    """Partition of the declared IRIs of one kind under its equivalence
    axioms; entities without any equivalence axiom form singleton blocks."""
    if isinstance(kind, str):
        try:
            kind = _KIND_BY_NAME[kind]
        except KeyError:
            raise ValueError(f"kind must be one of {sorted(_KIND_BY_NAME)}") from None
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
