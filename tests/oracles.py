"""Reference implementations the suite checks the library against.

Everything here is written the slow, obvious way on purpose: repeat-until-
no-change loops, scans over full cross products, recount-from-scratch
tallies, and a standalone grammar. Agreement between these and the library is the main
correctness evidence, so nothing in this file may share logic with the
library modules (only data types and vocabulary constants are imported).
The one exception is the token-at-a-time reader, which reads each token
through ``aieo.lexer.scan`` and the languages' checks on purpose: it pins
how the library splits text, reads repeated tokens, memoizes terms and
positions diagnostics, not how one token is read.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations

import pyparsing as pp

from aieo import query as _query, turtle as _turtle
from aieo.errors import KindMismatch, ParseDiagnostic, ParseError, UndeclaredEntity, UnsupportedFeature
from aieo.lexer import scan
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
from aieo.query import Query, TriplePattern, Variable
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
    DEFAULT_PREFIXES,
    aieo,
    seed_schema,
)

Fact = Axiom  # ClassAssertion or ObjectPropertyAssertion


# ---------------------------------------------------------------------------
# Naive fixpoint reasoner
# ---------------------------------------------------------------------------

def naive_closure(store: OntologyStore, *, use_sameas: bool = True) -> set[Fact]:
    """All base and derivable assertion facts, by rounds of rule application
    until a round adds nothing. A round applies every rule to the facts the
    round before added: rules have one fact premise and the schema never
    grows, so older facts would only derive again what is already known.
    ``use_sameas=False`` drops the individual-merge rule, giving the
    merge-free closure."""
    def lookup(pairs) -> dict:
        table: dict = {}
        for key, value in pairs:
            table.setdefault(key, []).append(value)
        return table

    ranges = lookup((ax.prop, ax.cls) for ax in store.axioms_of(ObjectPropertyRange))
    domains = lookup((ax.prop, ax.cls) for ax in store.axioms_of(ObjectPropertyDomain))
    subclass = lookup((ax.sub, ax.sup) for ax in store.axioms_of(SubClassOf))
    subprop = lookup((ax.sub, ax.sup) for ax in store.axioms_of(SubObjectPropertyOf))
    class_equiv = lookup(
        pair
        for ax in store.axioms_of(EquivalentClasses)
        for pair in permutations(ax.classes, 2)
    )
    prop_equiv = lookup(
        pair
        for ax in store.axioms_of(EquivalentObjectProperties)
        for pair in permutations(ax.properties, 2)
    )
    same = lookup(
        pair
        for ax in store.axioms_of(SameIndividual)
        for pair in ((ax.a, ax.b), (ax.b, ax.a))
    ) if use_sameas else {}

    facts: set[Fact] = set(
        store.axioms_of(ClassAssertion, ObjectPropertyAssertion)
    )
    added = set(facts)
    while added:
        fresh: set[Fact] = set()
        for fact in added:
            if isinstance(fact, ClassAssertion):
                for sup in subclass.get(fact.cls, ()):
                    fresh.add(ClassAssertion(sup, fact.ind))
                for peer in class_equiv.get(fact.cls, ()):
                    fresh.add(ClassAssertion(peer, fact.ind))
                for other in same.get(fact.ind, ()):
                    fresh.add(ClassAssertion(fact.cls, other))
            else:
                for cls in ranges.get(fact.prop, ()):
                    fresh.add(ClassAssertion(cls, fact.object))
                for cls in domains.get(fact.prop, ()):
                    fresh.add(ClassAssertion(cls, fact.subject))
                for peer in prop_equiv.get(fact.prop, ()):
                    fresh.add(ObjectPropertyAssertion(fact.subject, peer, fact.object))
                for sup in subprop.get(fact.prop, ()):
                    fresh.add(ObjectPropertyAssertion(fact.subject, sup, fact.object))
                for other in same.get(fact.subject, ()):
                    fresh.add(ObjectPropertyAssertion(other, fact.prop, fact.object))
                for other in same.get(fact.object, ()):
                    fresh.add(ObjectPropertyAssertion(fact.subject, fact.prop, other))
        added = fresh - facts
        facts |= added
    return facts


def naive_inferred(store: OntologyStore) -> set[Fact]:
    base = set(store.axioms_of(ClassAssertion, ObjectPropertyAssertion))
    return naive_closure(store) - base


def naive_traces(store: OntologyStore) -> dict[Fact, list[tuple[str, tuple[Axiom, ...]]]]:
    """Per inferred fact, every one-step derivation of it from a fact of the
    closure and one schema axiom, as (rule name, premises), sorted by rule
    name and then by the premises in the reference order."""
    closure = naive_closure(store)
    schema = {
        kind: list(store.axioms_of(kind))
        for kind in (
            ObjectPropertyRange, ObjectPropertyDomain, SubClassOf, EquivalentClasses,
            EquivalentObjectProperties, SubObjectPropertyOf, SameIndividual,
        )
    }
    found: dict[Fact, list[tuple[str, tuple[Axiom, ...]]]] = {}

    def record(conclusion: Fact, rule: str, fact: Fact, ax: Axiom) -> None:
        if conclusion not in store.axioms:
            found.setdefault(conclusion, []).append((rule, (fact, ax)))

    for fact in closure:
        if isinstance(fact, ClassAssertion):
            for ax in schema[SubClassOf]:
                if ax.sub == fact.cls:
                    record(ClassAssertion(ax.sup, fact.ind), "R2_SubClass", fact, ax)
            for ax in schema[EquivalentClasses]:
                for peer in ax.classes:
                    if fact.cls in ax.classes and peer != fact.cls:
                        record(ClassAssertion(peer, fact.ind), "R3_ClassEquiv", fact, ax)
            for ax in schema[SameIndividual]:
                for x, y in ((ax.a, ax.b), (ax.b, ax.a)):
                    if fact.ind == x:
                        record(ClassAssertion(fact.cls, y), "R6_SameIndividual", fact, ax)
            continue
        for ax in schema[ObjectPropertyRange]:
            if ax.prop == fact.prop:
                record(ClassAssertion(ax.cls, fact.object), "R1_RangeTyping", fact, ax)
        for ax in schema[ObjectPropertyDomain]:
            if ax.prop == fact.prop:
                record(ClassAssertion(ax.cls, fact.subject), "R1_DomainTyping", fact, ax)
        for ax in schema[EquivalentObjectProperties]:
            for peer in ax.properties:
                if fact.prop in ax.properties and peer != fact.prop:
                    record(
                        ObjectPropertyAssertion(fact.subject, peer, fact.object),
                        "R4_PropEquiv", fact, ax,
                    )
        for ax in schema[SubObjectPropertyOf]:
            if ax.sub == fact.prop:
                record(
                    ObjectPropertyAssertion(fact.subject, ax.sup, fact.object),
                    "R5_SubProp", fact, ax,
                )
        for ax in schema[SameIndividual]:
            for x, y in ((ax.a, ax.b), (ax.b, ax.a)):
                if fact.subject == x:
                    record(
                        ObjectPropertyAssertion(y, fact.prop, fact.object),
                        "R6_SameIndividual", fact, ax,
                    )
                if fact.object == x:
                    record(
                        ObjectPropertyAssertion(fact.subject, fact.prop, y),
                        "R6_SameIndividual", fact, ax,
                    )
    for derivations in found.values():
        derivations.sort(key=lambda d: (d[0], [reference_sort_key(p) for p in d[1]]))
    return found


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


def _naive_tokens(text: str) -> list[str]:
    """The casefolded text cut at every character that is not alphanumeric."""
    tokens, run = [], ""
    for ch in text.casefold() + " ":
        if ch.isalnum():
            run += ch
        elif run:
            tokens.append(run)
            run = ""
    return tokens


def naive_label_similarity(a: str, b: str) -> float:
    ta, tb = _naive_tokens(a), _naive_tokens(b)
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
# Canonical Turtle
# ---------------------------------------------------------------------------

_REFERENCE_META_CLASS = {kind: iri for iri, kind in META_CLASS_KINDS.items()}


def _reference_entries(ax: Axiom) -> list[tuple[Iri, int, Iri, "Iri | AnnotationValue"]]:
    """(subject, predicate rank, predicate, object) rows an axiom is written
    as. An unordered axiom is written from its least member to each other."""
    if isinstance(ax, Declaration):
        return [(ax.iri, 0, RDF_TYPE, _REFERENCE_META_CLASS[ax.kind])]
    if isinstance(ax, ClassAssertion):
        return [(ax.ind, 0, RDF_TYPE, ax.cls)]
    if isinstance(ax, SubClassOf):
        return [(ax.sub, 1, RDFS_SUBCLASSOF, ax.sup)]
    if isinstance(ax, (EquivalentClasses, EquivalentObjectProperties)):
        if isinstance(ax, EquivalentClasses):
            members, pred = sorted(ax.classes), OWL_EQUIVALENT_CLASS
        else:
            members, pred = sorted(ax.properties), OWL_EQUIVALENT_PROPERTY
        return [(members[0], 2, pred, other) for other in members[1:]]
    if isinstance(ax, DisjointClasses):
        return [(min(ax.a, ax.b), 3, OWL_DISJOINT_WITH, max(ax.a, ax.b))]
    if isinstance(ax, ObjectPropertyRange):
        return [(ax.prop, 4, RDFS_RANGE, ax.cls)]
    if isinstance(ax, ObjectPropertyDomain):
        return [(ax.prop, 5, RDFS_DOMAIN, ax.cls)]
    if isinstance(ax, SubObjectPropertyOf):
        return [(ax.sub, 6, RDFS_SUBPROPERTYOF, ax.sup)]
    if isinstance(ax, ObjectPropertyAssertion):
        return [(ax.subject, 7, ax.prop, ax.object)]
    if isinstance(ax, SameIndividual):
        return [(min(ax.a, ax.b), 7, OWL_SAME_AS, max(ax.a, ax.b))]
    if isinstance(ax, AnnotationAssertion):
        return [(ax.subject, 8, ax.prop, ax.value)]
    raise TypeError(f"no reference rows for {type(ax).__name__}")


_CURIE_LOCAL = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _reference_term(prefixes: dict[str, str], term: "Iri | AnnotationValue") -> str:
    if isinstance(term, AnnotationValue):
        text = term.text
        for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
            text = text.replace(raw, escaped)
        return f'"{text}"@{term.language_tag}' if term.language_tag else f'"{text}"'
    covering = [(prefix, base) for prefix, base in prefixes.items() if term.startswith(base)]
    if covering:
        # The longest base; of equal bases, the least prefix name.
        longest = max(len(base) for _, base in covering)
        prefix = min(p for p, base in covering if len(base) == longest)
        curie = f"{prefix}:{term[longest:]}"
        local = curie.split(":", 1)[1]
        if curie != term and all(c in _CURIE_LOCAL for c in local):
            return curie
    return f"<{term}>"


def _reference_object_key(term: "Iri | AnnotationValue") -> tuple:
    if isinstance(term, AnnotationValue):
        return (1, term.text, term.language_tag or "")
    return (0, str(term))


def _reference_predicate(prefixes: dict[str, str], pred: Iri) -> str:
    return "a" if pred == RDF_TYPE else _reference_term(prefixes, pred)


def reference_serialize_turtle(store: OntologyStore) -> str:
    """The canonical Turtle text, regrouped from ``store.axioms``: sorted
    prefix lines, a blank line, then one block per subject in IRI order,
    predicates by (rank, IRI), each object list IRIs first, then literals."""
    rows = [row for ax in store.axioms for row in _reference_entries(ax)]
    lines = [f"@prefix {p}: <{b}> ." for p, b in sorted(store.prefixes.items())]
    if lines and rows:
        lines.append("")
    for subject in sorted({row[0] for row in rows}):
        keys = sorted({(rank, pred) for s, rank, pred, _ in rows if s == subject})
        parts = []
        for rank, pred in keys:
            objects = sorted(
                (o for s, r, p, o in rows if s == subject and r == rank and p == pred),
                key=_reference_object_key,
            )
            rendered = ", ".join(_reference_term(store.prefixes, o) for o in objects)
            parts.append(f"{_reference_predicate(store.prefixes, pred)} {rendered}")
        lines.append(f"{_reference_term(store.prefixes, subject)} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + "\n"


def reference_axiom_line(store: OntologyStore, ax: Axiom) -> str:
    """One axiom on one line: its subject, then its rows joined by ' ; '."""
    rows = _reference_entries(ax)
    parts = [
        f"{_reference_predicate(store.prefixes, p)} {_reference_term(store.prefixes, o)}"
        for _, _, p, o in rows
    ]
    return f"{_reference_term(store.prefixes, rows[0][0])} " + " ; ".join(parts) + " ."


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def reference_json(value: object) -> str:
    """The canonical JSON text: the stdlib encoder with a two-space indent,
    sorted keys and ASCII escapes, then a newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def reference_axiom_obj(ax: Axiom) -> dict:
    """An axiom's interchange object, restated type by type: ``kind`` is the
    type's name, sets are sorted lists, and a literal is ``text`` plus a
    ``languageTag`` when it has one."""
    if isinstance(ax, Declaration):
        fields = {"iri": ax.iri, "entityKind": ax.kind.value}
    elif isinstance(ax, (SubClassOf, SubObjectPropertyOf)):
        fields = {"sub": ax.sub, "sup": ax.sup}
    elif isinstance(ax, EquivalentClasses):
        fields = {"classes": sorted(ax.classes)}
    elif isinstance(ax, EquivalentObjectProperties):
        fields = {"properties": sorted(ax.properties)}
    elif isinstance(ax, (DisjointClasses, SameIndividual)):
        fields = {"a": ax.a, "b": ax.b}
    elif isinstance(ax, (ObjectPropertyRange, ObjectPropertyDomain)):
        fields = {"prop": ax.prop, "cls": ax.cls}
    elif isinstance(ax, ClassAssertion):
        fields = {"cls": ax.cls, "ind": ax.ind}
    elif isinstance(ax, ObjectPropertyAssertion):
        fields = {"subject": ax.subject, "prop": ax.prop, "object": ax.object}
    elif isinstance(ax, AnnotationAssertion):
        value = {"text": ax.value.text}
        if ax.value.language_tag:
            value["languageTag"] = ax.value.language_tag
        fields = {"subject": ax.subject, "annProp": ax.prop, "value": value}
    else:
        raise TypeError(f"no reference object for {type(ax).__name__}")
    return {"kind": type(ax).__name__, **fields}


def reference_store_to_json(store: OntologyStore) -> str:
    """The interchange document: the prefix map and every axiom in the
    canonical order."""
    axioms = sorted(store.axioms, key=reference_sort_key)
    return reference_json(
        {"prefixes": store.prefixes, "axioms": [reference_axiom_obj(ax) for ax in axioms]}
    )


def reference_traces_to_json(mat) -> str:
    """The trace sidecar: each inferred fact in the canonical order, with
    its traces in the order the materialization holds them."""
    return reference_json([
        {
            "conclusion": reference_axiom_obj(fact),
            "traces": [
                {"rule": trace.rule.value,
                 "premises": [reference_axiom_obj(p) for p in trace.premises]}
                for trace in mat.traces[fact]
            ],
        }
        for fact in sorted(mat.inferred, key=reference_sort_key)
    ])


# ---------------------------------------------------------------------------
# Equivalence merging
# ---------------------------------------------------------------------------

def naive_merged_sets(sets: list[frozenset]) -> set[frozenset]:
    """Union overlapping sets until no two overlap."""
    merged = [set(s) for s in sets]
    while True:
        overlap = next(
            ((i, j) for i, j in combinations(range(len(merged)), 2) if merged[i] & merged[j]),
            None,
        )
        if overlap is None:
            return {frozenset(s) for s in merged}
        i, j = overlap
        merged[i] |= merged.pop(j)


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


# ---------------------------------------------------------------------------
# Token-at-a-time reference reader for Turtle and query text
# ---------------------------------------------------------------------------

def _reference_fail(text: str, offset: int, message: str, unsupported: bool = False):
    line = text[:offset].count("\n") + 1
    column = offset - (text[:offset].rfind("\n") + 1) + 1
    raise (UnsupportedFeature if unsupported else ParseError)(
        [ParseDiagnostic(line, column, message)]
    )


class ReferenceCursor:
    """The tokens of ``scan(text, checks)``, pulled one at a time with one
    of lookahead; every token carries its offset, every term is resolved
    where it stands, and a grammar error first scans the rest of the text
    so that a token error anywhere wins."""

    def __init__(self, text, checks, prefixes, unknown_prefix):
        self.text = text
        self.tokens = scan(text, checks)
        self.tok = next(self.tokens)
        self.prefixes = prefixes
        self.unknown_prefix = unknown_prefix

    def read(self, reader):
        try:
            return reader(self)
        except ParseError:
            for _ in self.tokens:
                pass
            raise

    def peek(self):
        return self.tok[0]

    def take(self):
        tok = self.tok
        self.tok = next(self.tokens, tok)  # eof repeats
        return tok

    def fail(self, tok, message, unsupported=False):
        _reference_fail(self.text, tok[2], message, unsupported)

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            self.fail(tok, f"expected {what}")
        return tok

    def term(self, position):
        tok = self.take()
        kind, value, _ = tok
        if kind == "iri":
            return Iri(value)
        if kind == "pname":
            prefix, local = value
            if prefix not in self.prefixes:
                self.fail(tok, self.unknown_prefix.format(prefix))
            return Iri(self.prefixes[prefix] + local)
        if kind == "string":
            if position != "object":
                self.fail(tok, f"a literal cannot be a {position}")
            if not value[0]:
                self.fail(tok, "empty literal")
            return AnnotationValue(*value)
        if kind == "word" and value == "a" and position == "predicate":
            return RDF_TYPE
        self.fail(tok, f"expected {'an' if position == 'object' else 'a'} {position}")


def _reference_document(cur: ReferenceCursor) -> list:
    triples = []
    while cur.peek() != "eof":
        if cur.peek() == "@":
            cur.take()
            name = cur.expect("pname", "a prefix name ending in ':'")
            prefix, local = name[1]
            if local:
                cur.fail(name, "prefix declaration must end in ':'")
            base = cur.expect("iri", "an IRI reference")
            cur.expect(".", "'.' after prefix directive")
            cur.prefixes[prefix] = base[1]
            continue
        subject = cur.term("subject")
        while True:
            predicate = cur.term("predicate")
            while True:
                offset = cur.tok[2]
                triples.append((subject, predicate, cur.term("object"), offset))
                if cur.peek() != ",":
                    break
                cur.take()
            sep = cur.take()
            if sep[0] == ";":
                if cur.peek() != ".":
                    continue
                cur.take()
            elif sep[0] != ".":
                cur.fail(sep, "expected ';', ',' or '.'")
            break
    return triples


_REFERENCE_PAIRS = {
    RDFS_SUBCLASSOF: lambda s, o: SubClassOf(s, o),
    OWL_EQUIVALENT_CLASS: lambda s, o: EquivalentClasses([s, o]),
    OWL_DISJOINT_WITH: lambda s, o: DisjointClasses(s, o),
    RDFS_SUBPROPERTYOF: lambda s, o: SubObjectPropertyOf(s, o),
    OWL_EQUIVALENT_PROPERTY: lambda s, o: EquivalentObjectProperties([s, o]),
    RDFS_RANGE: lambda s, o: ObjectPropertyRange(s, o),
    RDFS_DOMAIN: lambda s, o: ObjectPropertyDomain(s, o),
    RDF_TYPE: lambda s, o: ClassAssertion(o, s),
    OWL_SAME_AS: lambda s, o: SameIndividual(s, o),
}


def _reference_axiom(store: OntologyStore, s, p, o) -> Axiom:
    kind = store.kind_of(p)
    if isinstance(o, AnnotationValue):
        if kind is EntityKind.ANNOTATION_PROPERTY:
            return AnnotationAssertion(s, p, o)
        if kind is None:
            raise UndeclaredEntity(f"{p} is not declared")
        raise KindMismatch(f"literal object requires {p} to be an annotation property")
    if p in _REFERENCE_PAIRS:
        return _REFERENCE_PAIRS[p](s, o)
    if kind is None:
        raise UndeclaredEntity(f"{p} is not declared")
    if kind is EntityKind.ANNOTATION_PROPERTY:
        raise KindMismatch(f"annotation property {p} requires a literal object")
    if kind is not EntityKind.OBJECT_PROPERTY:
        raise KindMismatch(f"{p} is declared as {kind.value}, not usable as a predicate")
    return ObjectPropertyAssertion(s, p, o)


def reference_parse_turtle(text: str) -> OntologyStore:
    """``parse_turtle`` read one token at a time: declarations first, then
    every other triple as an axiom, in document order."""
    cur = ReferenceCursor(text, _turtle._CHECKS, {}, "prefix '{}:' used before declaration")
    triples = cur.read(_reference_document)
    store = OntologyStore(cur.prefixes)
    for s, p, o, _ in triples:
        if p == RDF_TYPE and o in META_CLASS_KINDS:
            store.declare(s, META_CLASS_KINDS[o])
    axioms = []
    for s, p, o, offset in triples:
        if p == RDF_TYPE and o in META_CLASS_KINDS:
            continue
        try:
            axioms.append(_reference_axiom(store, s, p, o))
        except (ValueError, UndeclaredEntity, KindMismatch) as exc:
            store.update(axioms)
            if isinstance(exc, ValueError):
                _reference_fail(text, offset, str(exc))
            raise
    return store.update(axioms)


def _reference_query_term(cur: ReferenceCursor, position: str):
    if cur.peek() == "?":
        return Variable(cur.take()[1])
    if cur.peek() == "{":
        cur.fail(cur.tok, "nested groups are outside the query subset", unsupported=True)
    return cur.term(position)


def _is_keyword(tok, keyword: str) -> bool:
    return tok[0] == "word" and tok[1].upper() == keyword


def _reference_query(cur: ReferenceCursor) -> Query:
    tok = cur.take()
    if not _is_keyword(tok, "SELECT"):
        cur.fail(tok, "query must start with SELECT")
    distinct = _is_keyword(cur.tok, "DISTINCT")
    if distinct:
        cur.take()
    projected = []
    while cur.peek() == "?":
        _, name, offset = cur.take()
        projected.append((Variable(name), offset))
    if not projected:
        cur.fail(cur.tok, "SELECT needs at least one ?variable")
    tok = cur.take()
    if not _is_keyword(tok, "WHERE"):
        cur.fail(tok, "expected WHERE")
    cur.expect("{", "'{'")
    patterns = []
    while cur.peek() != "}":
        if cur.peek() == "eof":
            cur.fail(cur.tok, "unterminated WHERE group")
        s = _reference_query_term(cur, "subject")
        p = _reference_query_term(cur, "predicate")
        patterns.append(TriplePattern(s, p, _reference_query_term(cur, "object")))
        if cur.peek() == ".":
            cur.take()
    close = cur.take()
    tok = cur.take()
    if tok[0] != "eof":
        cur.fail(tok, "trailing content after '}'")
    if not patterns:
        cur.fail(close, "WHERE group has no patterns")
    try:
        return Query(tuple(v for v, _ in projected), tuple(patterns), distinct=distinct)
    except ValueError as exc:
        bound = {v for p in patterns for v in p.variables()}
        offset = next(offset for v, offset in projected if v not in bound)
        _reference_fail(cur.text, offset, str(exc))


def reference_parse_query(text: str, prefixes: dict[str, str] | None = None) -> Query:
    """``parse_query`` read one token at a time."""
    prefix_map = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
    cur = ReferenceCursor(text, _query._CHECKS, prefix_map, "unknown prefix '{}:'")
    return cur.read(_reference_query)
