"""Reference implementations the suite checks the library against.

Everything here is written the slow, obvious way on purpose: repeat-until-
no-change loops over full cross products, recount-from-scratch tallies, and
a standalone grammar. Agreement between these and the library is the main
correctness evidence, so nothing in this file may share logic with the
library modules (only data types and vocabulary constants are imported).
"""

from __future__ import annotations

import random
import re
from itertools import permutations

import pyparsing as pp

from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    Axiom,
    ClassAssertion,
    Declaration,
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
)
from aieo.pipeline import EquivalenceProposal
from aieo.query import TriplePattern, Variable
from aieo.schema import (
    CONCEPT_LINK_PROPERTIES,
    DISJOINT_PAIRS,
    META_CLASS_KINDS,
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    aieo,
    seed_schema,
)

Fact = Axiom  # ClassAssertion or ObjectPropertyAssertion


# ---------------------------------------------------------------------------
# Naive fixpoint reasoner
# ---------------------------------------------------------------------------

def naive_closure(store: OntologyStore, *, use_sameas: bool = True) -> set[Fact]:
    """All base and derivable assertion facts, by rule application until
    nothing new appears. ``use_sameas=False`` drops the individual-merge
    rule, giving the merge-free closure."""
    ranges = [(ax.prop, ax.cls) for ax in store.axioms_of(ObjectPropertyRange)]
    domains = [(ax.prop, ax.cls) for ax in store.axioms_of(ObjectPropertyDomain)]
    subclass = [(ax.sub, ax.sup) for ax in store.axioms_of(SubClassOf)]
    subprop = [(ax.sub, ax.sup) for ax in store.axioms_of(SubObjectPropertyOf)]
    class_equiv = [
        (a, b)
        for ax in store.axioms_of(EquivalentClasses)
        for a, b in permutations(ax.classes, 2)
    ]
    prop_equiv = [
        (a, b)
        for ax in store.axioms_of(EquivalentObjectProperties)
        for a, b in permutations(ax.properties, 2)
    ]
    same = [
        pair
        for ax in store.axioms_of(SameIndividual)
        for pair in ((ax.a, ax.b), (ax.b, ax.a))
    ]

    facts: set[Fact] = set(
        store.axioms_of(ClassAssertion, ObjectPropertyAssertion)
    )
    while True:
        fresh: set[Fact] = set()
        for fact in facts:
            if isinstance(fact, ClassAssertion):
                for sub, sup in subclass:
                    if fact.cls == sub:
                        fresh.add(ClassAssertion(sup, fact.ind))
                for a, b in class_equiv:
                    if fact.cls == a:
                        fresh.add(ClassAssertion(b, fact.ind))
                if use_sameas:
                    for x, y in same:
                        if fact.ind == x:
                            fresh.add(ClassAssertion(fact.cls, y))
            else:
                for prop, cls in ranges:
                    if fact.prop == prop:
                        fresh.add(ClassAssertion(cls, fact.object))
                for prop, cls in domains:
                    if fact.prop == prop:
                        fresh.add(ClassAssertion(cls, fact.subject))
                for a, b in prop_equiv:
                    if fact.prop == a:
                        fresh.add(ObjectPropertyAssertion(fact.subject, b, fact.object))
                for sub, sup in subprop:
                    if fact.prop == sub:
                        fresh.add(ObjectPropertyAssertion(fact.subject, sup, fact.object))
                if use_sameas:
                    for x, y in same:
                        if fact.subject == x:
                            fresh.add(ObjectPropertyAssertion(y, fact.prop, fact.object))
                        if fact.object == x:
                            fresh.add(ObjectPropertyAssertion(fact.subject, fact.prop, y))
        if fresh <= facts:
            return facts
        facts |= fresh


def naive_inferred(store: OntologyStore) -> set[Fact]:
    base = set(store.axioms_of(ClassAssertion, ObjectPropertyAssertion))
    return naive_closure(store) - base


def naive_violations(store: OntologyStore) -> list[tuple[Iri, Iri, Iri, str]]:
    """(individual, classA, classB, rule) per merged-individual block and
    asserted disjoint pair, sorted. A block built by sameAs merging gets the
    merge-caused rule unless one member carries both types on its own."""
    closure = naive_closure(store)
    merge_free = naive_closure(store, use_sameas=False)

    blocks: dict[Iri, set[Iri]] = {}

    def block_of(ind: Iri) -> set[Iri]:
        return blocks.setdefault(ind, {ind})

    for ax in store.axioms_of(SameIndividual):
        merged = block_of(ax.a) | block_of(ax.b)
        for member in merged:
            blocks[member] = merged

    individuals = {
        ax.iri
        for ax in store.axioms_of(Declaration)
        if ax.kind is EntityKind.NAMED_INDIVIDUAL
    }
    types: dict[Iri, set[Iri]] = {ind: set() for ind in individuals}
    free_types: dict[Iri, set[Iri]] = {ind: set() for ind in individuals}
    for fact in closure:
        if isinstance(fact, ClassAssertion) and fact.ind in types:
            types[fact.ind].add(fact.cls)
    for fact in merge_free:
        if isinstance(fact, ClassAssertion) and fact.ind in free_types:
            free_types[fact.ind].add(fact.cls)

    disjoints = sorted(
        (ax.a, ax.b) for ax in store.axioms_of(DisjointClasses)
    )
    seen_blocks: list[set[Iri]] = []
    out: list[tuple[Iri, Iri, Iri, str]] = []
    for ind in sorted(individuals):
        block = block_of(ind)
        if any(block is b or block == b for b in seen_blocks):
            continue
        seen_blocks.append(block)
        merged_types = set().union(*(types[m] for m in block))
        for a, b in disjoints:
            if a in merged_types and b in merged_types:
                solo = sorted(
                    m for m in block if a in free_types[m] and b in free_types[m]
                )
                if solo:
                    out.append((solo[0], a, b, "D1_DisjointTyping"))
                else:
                    out.append((min(block), a, b, "D2_SameAsDisjoint"))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Brute-force pattern matching
# ---------------------------------------------------------------------------

Term = object  # Iri or AnnotationValue
Triple = tuple


def flatten_triples(store: OntologyStore, facts: set[Fact]) -> set[Triple]:
    """The store and a fact set rendered as triples, symmetric axioms in
    both directions, declarations as meta-class typings."""
    triples: set[Triple] = set()
    for ax in store.axioms:
        if isinstance(ax, Declaration):
            for meta, kind in META_CLASS_KINDS.items():
                if kind is ax.kind:
                    triples.add((ax.iri, RDF_TYPE, meta))
        elif isinstance(ax, SubClassOf):
            triples.add((ax.sub, RDFS_SUBCLASSOF, ax.sup))
        elif isinstance(ax, SubObjectPropertyOf):
            triples.add((ax.sub, RDFS_SUBPROPERTYOF, ax.sup))
        elif isinstance(ax, ObjectPropertyRange):
            triples.add((ax.prop, RDFS_RANGE, ax.cls))
        elif isinstance(ax, ObjectPropertyDomain):
            triples.add((ax.prop, RDFS_DOMAIN, ax.cls))
        elif isinstance(ax, EquivalentClasses):
            for a, b in permutations(ax.classes, 2):
                triples.add((a, OWL_EQUIVALENT_CLASS, b))
        elif isinstance(ax, EquivalentObjectProperties):
            for a, b in permutations(ax.properties, 2):
                triples.add((a, OWL_EQUIVALENT_PROPERTY, b))
        elif isinstance(ax, DisjointClasses):
            triples.add((ax.a, OWL_DISJOINT_WITH, ax.b))
            triples.add((ax.b, OWL_DISJOINT_WITH, ax.a))
        elif isinstance(ax, SameIndividual):
            triples.add((ax.a, OWL_SAME_AS, ax.b))
            triples.add((ax.b, OWL_SAME_AS, ax.a))
        elif isinstance(ax, AnnotationAssertion):
            triples.add((ax.subject, ax.prop, ax.value))
    for fact in facts:
        if isinstance(fact, ClassAssertion):
            triples.add((fact.ind, RDF_TYPE, fact.cls))
        else:
            triples.add((fact.subject, fact.prop, fact.object))
    return triples


def brute_force_evaluate(
    patterns: list[TriplePattern],
    projected: tuple[Variable, ...],
    triples: set[Triple],
    distinct: bool,
) -> list[frozenset]:
    """Every homomorphism from the patterns into the triples, projected.
    Rows come back as frozensets of (variable, term) pairs; duplicates are
    kept unless ``distinct``."""
    rows: list[dict[Variable, Term]] = [{}]
    for pat in patterns:
        grown: list[dict[Variable, Term]] = []
        for env in rows:
            for triple in triples:
                bound = dict(env)
                ok = True
                for want, got in zip((pat.subject, pat.predicate, pat.object), triple):
                    if isinstance(want, Variable):
                        if want in bound and bound[want] != got:
                            ok = False
                            break
                        bound[want] = got
                    elif want != got:
                        ok = False
                        break
                if ok:
                    grown.append(bound)
        rows = grown
    projected_rows = [
        frozenset((v, env[v]) for v in projected) for env in rows
    ]
    if distinct:
        seen = set()
        unique = []
        for row in projected_rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique
    return projected_rows


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def naive_peers(store: OntologyStore, ind: Iri) -> set[Iri]:
    """The individual and everything sameAs-linked to it, directly or through
    others, by rescanning every sameAs pair until the set stops growing."""
    pairs = [(ax.a, ax.b) for ax in store.axioms_of(SameIndividual)]
    block = {ind}
    while True:
        grown = block | {x for a, b in pairs if a in block or b in block for x in (a, b)}
        if grown == block:
            return block
        block = grown


def naive_strict_supers(edges: dict[Iri, set[Iri]]) -> dict[Iri, set[Iri]]:
    """Per key, every node reachable through one or more edges, the key
    itself excluded, by widening each set one step at a time until it stops
    changing."""
    out: dict[Iri, set[Iri]] = {}
    for start, parents in edges.items():
        reached = set(parents)
        while True:
            grown = reached | {p for node in reached for p in edges.get(node, ())}
            if grown == reached:
                break
            reached = grown
        out[start] = reached - {start}
    return out


# ---------------------------------------------------------------------------
# All-pairs consolidation
# ---------------------------------------------------------------------------

_NAIVE_LINK_PROPERTIES = tuple(
    aieo(CONCEPT_LINK_PROPERTIES[kind])
    for kind in ("Principle", "Requirement", "FundamentalRight")
)


def naive_label_similarity(a: str, b: str) -> float:
    ta = re.findall(r"[a-z0-9]+", a.casefold())
    tb = re.findall(r"[a-z0-9]+", b.casefold())
    if ta == tb:
        return 1.0
    sa, sb = set(ta), set(tb)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _naive_concept_label(store: OntologyStore, ind: Iri) -> str:
    labels = sorted(
        ax.value.text
        for ax in store.by_subject.get(ind, ())
        if isinstance(ax, AnnotationAssertion) and ax.prop == RDFS_LABEL
    )
    return labels[0] if labels else ind.local.replace("_", " ")


def naive_proposals(
    store: OntologyStore, new_framework: Iri, threshold: float
) -> list[EquivalenceProposal]:
    """Every new concept scored against every concept linked from every
    other framework: the nested loop consolidation ran before its index."""
    frameworks = {
        ax.ind for ax in store.axioms
        if isinstance(ax, ClassAssertion) and ax.cls == aieo("Framework")
    }
    by_framework: dict[Iri, list[Iri]] = {
        fw: sorted({
            ax.object for ax in store.axioms
            if isinstance(ax, ObjectPropertyAssertion) and ax.subject == fw
            and ax.prop in _NAIVE_LINK_PROPERTIES
        })
        for fw in frameworks
    }
    proposals = []
    for concept in by_framework[new_framework]:
        label = _naive_concept_label(store, concept)
        for other_fw, peers in sorted(by_framework.items()):
            if other_fw == new_framework:
                continue
            for peer in peers:
                score = naive_label_similarity(label, _naive_concept_label(store, peer))
                if score >= threshold:
                    proposals.append(EquivalenceProposal(concept, peer, score))
    proposals.sort(key=lambda p: (-p.score, p.left, p.right))
    return proposals


# ---------------------------------------------------------------------------
# Canonical axiom order
# ---------------------------------------------------------------------------

def reference_sort_key(ax: Axiom) -> tuple:
    """The canonical axiom order, restated type by type: the type's name,
    then its fields in declaration order, with sets as sorted tuples, entity
    kinds by value and literals as (text, language tag or "")."""
    if isinstance(ax, Declaration):
        values = (ax.iri, ax.kind.value)
    elif isinstance(ax, (SubClassOf, SubObjectPropertyOf)):
        values = (ax.sub, ax.sup)
    elif isinstance(ax, EquivalentClasses):
        values = (tuple(sorted(ax.classes)),)
    elif isinstance(ax, EquivalentObjectProperties):
        values = (tuple(sorted(ax.properties)),)
    elif isinstance(ax, (DisjointClasses, SameIndividual)):
        values = (ax.a, ax.b)
    elif isinstance(ax, (ObjectPropertyRange, ObjectPropertyDomain)):
        values = (ax.prop, ax.cls)
    elif isinstance(ax, ClassAssertion):
        values = (ax.cls, ax.ind)
    elif isinstance(ax, ObjectPropertyAssertion):
        values = (ax.subject, ax.prop, ax.object)
    elif isinstance(ax, AnnotationAssertion):
        values = (ax.subject, ax.prop, (ax.value.text, ax.value.language_tag or ""))
    else:
        raise TypeError(f"no reference order for {type(ax).__name__}")
    return (type(ax).__name__, values)


# ---------------------------------------------------------------------------
# Metrics tally
# ---------------------------------------------------------------------------

def tally_metrics(store: OntologyStore) -> dict[str, int]:
    kinds = {kind: 0 for kind in EntityKind}
    declarations = annotations = 0
    for ax in store.axioms:
        if isinstance(ax, Declaration):
            declarations += 1
            kinds[ax.kind] += 1
        elif isinstance(ax, AnnotationAssertion):
            annotations += 1
    total = len(store.axioms)
    return {
        "axiomCount": total,
        "logicalAxiomCount": total - declarations - annotations,
        "declarationAxiomCount": declarations,
        "classCount": kinds[EntityKind.OWL_CLASS],
        "objectPropertyCount": kinds[EntityKind.OBJECT_PROPERTY],
        "dataPropertyCount": kinds[EntityKind.DATA_PROPERTY],
        "individualCount": kinds[EntityKind.NAMED_INDIVIDUAL],
        "annotationPropertyCount": kinds[EntityKind.ANNOTATION_PROPERTY],
        "annotationAssertionCount": annotations,
    }


# ---------------------------------------------------------------------------
# DOT grammar
# ---------------------------------------------------------------------------

def _dot_grammar() -> pp.ParserElement:
    identifier = pp.Word(pp.alphas + "_", pp.alphanums + "_")
    number = pp.Regex(r"-?(\.\d+|\d+(\.\d*)?)")
    quoted = pp.QuotedString('"', esc_char="\\", unquote_results=False)
    dot_id = quoted | number | identifier

    attr = dot_id + pp.Suppress("=") + dot_id
    attr_list = pp.Suppress("[") + pp.Optional(
        pp.DelimitedList(attr, delim=pp.one_of(", ;"))
    ) + pp.Suppress("]")
    node_stmt = dot_id + pp.Optional(attr_list)
    edge_stmt = dot_id + pp.OneOrMore(pp.Suppress("->") + dot_id) + pp.Optional(attr_list)
    graph_attr = dot_id + pp.Suppress("=") + dot_id
    stmt = (edge_stmt | graph_attr | node_stmt) + pp.Optional(pp.Suppress(";"))
    grammar = (
        pp.Keyword("digraph")
        + pp.Optional(dot_id)
        + pp.Suppress("{")
        + pp.ZeroOrMore(stmt)
        + pp.Suppress("}")
    )
    return grammar


DOT_GRAMMAR = _dot_grammar()


def assert_valid_dot(text: str) -> None:
    DOT_GRAMMAR.parse_string(text, parse_all=True)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

CLASS_POOL = tuple(
    aieo(n)
    for n in (
        "AI_Dimension", "Application", "Example", "Framework", "FundamentalRight",
        "Keyword", "Principle", "Requirement", "Scenario", "UseCase",
        "Characteristic_keyword", "Risk_keyword", "SocialDimension_keyword",
    )
)
PROPERTY_POOL = tuple(
    aieo(n)
    for n in (
        "application", "dimension", "example", "fundamentalRight", "keyword",
        "principle", "relevantKeyword", "requirement", "scenario", "useCase",
    )
)
ANNOTATION_POOL = (aieo("shortDescription"), aieo("reference"), aieo("method"), RDFS_LABEL)


def random_store(
    seed: int,
    *,
    max_individuals: int = 12,
    max_assertions: int = 25,
    schema_mutations: bool = False,
) -> OntologyStore:
    """Seed schema plus random individuals and assertions; always valid."""
    rng = random.Random(seed)
    store = seed_schema()
    individuals = [aieo(f"i{n}") for n in range(rng.randint(1, max_individuals))]
    for ind in individuals:
        store.declare(ind, EntityKind.NAMED_INDIVIDUAL)
    if schema_mutations:
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("subclass", "range", "domain", "subprop"))
            if kind == "subclass":
                sub, sup = rng.sample(CLASS_POOL, 2)
                store.add(SubClassOf(sub, sup))
            elif kind == "range":
                store.add(ObjectPropertyRange(rng.choice(PROPERTY_POOL), rng.choice(CLASS_POOL)))
            elif kind == "domain":
                store.add(ObjectPropertyDomain(rng.choice(PROPERTY_POOL), rng.choice(CLASS_POOL)))
            else:
                sub, sup = rng.sample(PROPERTY_POOL, 2)
                store.add(SubObjectPropertyOf(sub, sup))
    for _ in range(rng.randint(0, max_assertions)):
        roll = rng.random()
        if roll < 0.35:
            store.add(ClassAssertion(rng.choice(CLASS_POOL), rng.choice(individuals)))
        elif roll < 0.75:
            store.add(
                ObjectPropertyAssertion(
                    rng.choice(individuals),
                    rng.choice(PROPERTY_POOL),
                    rng.choice(individuals),
                )
            )
        elif roll < 0.9 and len(individuals) >= 2:
            a, b = rng.sample(individuals, 2)
            store.add(SameIndividual(a, b))
        else:
            store.add(
                AnnotationAssertion(
                    rng.choice(individuals),
                    rng.choice(ANNOTATION_POOL),
                    AnnotationValue(f"note {rng.randint(0, 99)}"),
                )
            )
    return store


_CONCEPT_LINKS = tuple(aieo(p) for p in ("principle", "requirement", "fundamentalRight", "dimension"))
_SCENARIO_LINKS = tuple(aieo(p) for p in ("application", "example", "scenario", "useCase"))


def random_linked_store(seed: int) -> OntologyStore:
    """``random_store(seed, schema_mutations=True)`` plus subclass and
    sub-property edges (one subclass cycle always), one EquivalentClasses
    axiom, Framework typings, framework-to-concept and scenario links, and
    concept descriptions."""
    rng = random.Random(seed + 10_000)
    store = random_store(seed, schema_mutations=True)
    individuals = store.declared(EntityKind.NAMED_INDIVIDUAL)
    for _ in range(rng.randint(0, 5)):
        store.add(SubClassOf(*rng.sample(CLASS_POOL, 2)))
    cycle = rng.sample(CLASS_POOL, rng.randint(2, 4))
    for sub, sup in zip(cycle, cycle[1:] + cycle[:1]):
        store.add(SubClassOf(sub, sup))
    for _ in range(rng.randint(0, 3)):
        store.add(SubObjectPropertyOf(*rng.sample(PROPERTY_POOL, 2)))
    store.add(EquivalentClasses(frozenset(rng.sample(CLASS_POOL, 2))))
    for fw in rng.sample(individuals, min(len(individuals), rng.randint(1, 3))):
        store.add(ClassAssertion(aieo("Framework"), fw))
        for _ in range(rng.randint(1, 4)):
            store.add(
                ObjectPropertyAssertion(fw, rng.choice(_CONCEPT_LINKS), rng.choice(individuals))
            )
    for _ in range(rng.randint(0, 4)):
        store.add(
            ObjectPropertyAssertion(
                rng.choice(individuals), rng.choice(_SCENARIO_LINKS), rng.choice(individuals)
            )
        )
    for _ in range(rng.randint(0, 4)):
        store.add(
            AnnotationAssertion(
                rng.choice(individuals), rng.choice(ANNOTATION_POOL[:2]),
                AnnotationValue(f"text {rng.randint(0, 9)}"),
            )
        )
    return store


def random_small_store(seed: int, *, max_axioms: int = 60) -> OntologyStore:
    """A from-scratch store (no bundled schema) of at most ``max_axioms``
    axioms with an arbitrary mix of every axiom type."""
    rng = random.Random(seed)
    store = OntologyStore({"ex": "https://example.org/"})
    ex = lambda n: Iri(f"https://example.org/{n}")
    classes = [ex(f"C{n}") for n in range(rng.randint(2, 6))]
    props = [ex(f"p{n}") for n in range(rng.randint(1, 4))]
    ann_props = [ex(f"a{n}") for n in range(rng.randint(0, 2))]
    individuals = [ex(f"x{n}") for n in range(rng.randint(1, 8))]
    for iri in classes:
        store.declare(iri, EntityKind.OWL_CLASS)
    for iri in props:
        store.declare(iri, EntityKind.OBJECT_PROPERTY)
    for iri in ann_props:
        store.declare(iri, EntityKind.ANNOTATION_PROPERTY)
    for iri in individuals:
        store.declare(iri, EntityKind.NAMED_INDIVIDUAL)
    budget = max_axioms - len(store.axioms)
    for _ in range(rng.randint(0, budget)):
        roll = rng.random()
        if roll < 0.2 and len(classes) >= 2:
            store.add(SubClassOf(*rng.sample(classes, 2)))
        elif roll < 0.3 and len(classes) >= 2:
            store.add(DisjointClasses(*rng.sample(classes, 2)))
        elif roll < 0.4:
            store.add(ObjectPropertyRange(rng.choice(props), rng.choice(classes)))
        elif roll < 0.6:
            store.add(ClassAssertion(rng.choice(classes), rng.choice(individuals)))
        elif roll < 0.8:
            store.add(
                ObjectPropertyAssertion(
                    rng.choice(individuals), rng.choice(props), rng.choice(individuals)
                )
            )
        elif roll < 0.9 and ann_props:
            store.add(
                AnnotationAssertion(
                    rng.choice(individuals + classes),
                    rng.choice(ann_props),
                    AnnotationValue(f"v{rng.randint(0, 9)}"),
                )
            )
        elif len(individuals) >= 2:
            store.add(SameIndividual(*rng.sample(individuals, 2)))
    assert len(store.axioms) <= max_axioms
    return store


def random_query(rng: random.Random) -> tuple[list[TriplePattern], tuple[Variable, ...], bool]:
    """A small connected-by-construction pattern list over the shared
    vocabulary, its projected variables, and a distinct flag."""
    variables = [Variable(v) for v in ("x", "y", "z")]
    patterns: list[TriplePattern] = []
    for i in range(rng.randint(1, 3)):
        subject = rng.choice(variables[: i + 1])
        roll = rng.random()
        if roll < 0.4:
            patterns.append(TriplePattern(subject, RDF_TYPE, rng.choice(CLASS_POOL)))
        elif roll < 0.8:
            obj = rng.choice(variables)
            patterns.append(TriplePattern(subject, rng.choice(PROPERTY_POOL), obj))
        else:
            patterns.append(TriplePattern(subject, rng.choice(PROPERTY_POOL), Variable("w")))
    used: list[Variable] = []
    for pat in patterns:
        for term in (pat.subject, pat.predicate, pat.object):
            if isinstance(term, Variable) and term not in used:
                used.append(term)
    count = rng.randint(1, len(used))
    projected = tuple(sorted(rng.sample(used, count)))
    return patterns, projected, rng.random() < 0.5
