"""Knowledge-graph rendering at three detail levels, as DOT and JSON.

Levels nest: L1 shows classes (with individual-count badges), the subclass
hierarchy, and class equivalences; L2 adds individuals with edges to their
most specific classes; L3 adds asserted relationships between individuals.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum

from .jsonio import canonical_json
from .model import (
    AnnotationAssertion,
    ClassAssertion,
    EntityKind,
    EquivalentClasses,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SubClassOf,
    SubObjectPropertyOf,
    sorted_axioms,
)
from .reasoner import Materialization, equivalence_classes
from .schema import RDFS_LABEL


class DetailLevel(IntEnum):
    L1_CLASSES_AND_HIERARCHY = 1
    L2_PLUS_INDIVIDUALS = 2
    L3_PLUS_INSTANCE_RELATIONSHIPS = 3


@dataclass(frozen=True, slots=True)
class GraphNode:
    id: str
    label: str
    kind: str  # class | individual
    annotation: str  # rdfs:label summary, may be empty


@dataclass(frozen=True, slots=True)
class GraphEdge:
    src: str
    dst: str
    label: str
    kind: str  # subclass | equivalence | membership | assertion


@dataclass(frozen=True)
class GraphDoc:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique")
        known = set(ids)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge endpoint not among nodes: {e.src} -> {e.dst}")


def _strict_supers(edges: dict[Iri, set[Iri]], start: Iri) -> set[Iri]:
    """Everything reachable from ``start`` through one or more edges, ``start``
    itself excluded, so a cyclic hierarchy does not make a node its own
    strict super. Iterative: deep chains cannot overflow the stack."""
    reached: set[Iri] = set()
    stack = list(edges.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(edges.get(node, ()))
    reached.discard(start)
    return reached


def _representatives(store: OntologyStore, kind: EntityKind) -> dict[Iri, Iri]:
    """Each declared IRI of the kind -> the least member of its equivalence block."""
    return {m: min(block) for block in equivalence_classes(store, kind) for m in block}


def export_graph(mat: Materialization, level: DetailLevel) -> GraphDoc:
    """Deterministic node/edge lists for the store at the given level."""
    store = mat.base
    classes = store.declared(EntityKind.OWL_CLASS)
    individuals = store.declared(EntityKind.NAMED_INDIVIDUAL)

    labels: dict[Iri, str] = {}
    for ax in sorted_axioms(store.axioms_of(AnnotationAssertion)):
        if ax.prop == RDFS_LABEL and ax.subject not in labels:
            labels[ax.subject] = ax.value.text

    memberships: dict[Iri, set[Iri]] = defaultdict(set)
    members_per_class: dict[Iri, set[Iri]] = defaultdict(set)
    for fact in mat.facts():
        if isinstance(fact, ClassAssertion):
            memberships[fact.ind].add(fact.cls)
            members_per_class[fact.cls].add(fact.ind)

    nodes: list[GraphNode] = []
    edges: list[GraphEdge] = []

    for cls in classes:
        count = len(members_per_class.get(cls, ()))
        nodes.append(
            GraphNode(
                id=store.compact(cls),
                label=f"{cls.local} [{count}]",
                kind="class",
                annotation=labels.get(cls, ""),
            )
        )
    subclass_axioms = sorted(store.axioms_of(SubClassOf), key=lambda a: (a.sub, a.sup))
    for ax in subclass_axioms:
        edges.append(
            GraphEdge(store.compact(ax.sub), store.compact(ax.sup), "subClassOf", "subclass")
        )
    for ax in sorted(store.axioms_of(EquivalentClasses), key=lambda a: min(a.classes)):
        block = sorted(ax.classes)
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                edges.append(
                    GraphEdge(store.compact(a), store.compact(b), "equivalentClass", "equivalence")
                )

    if level >= DetailLevel.L2_PLUS_INDIVIDUALS:
        # Memberships are closed under R2/R3, so a type is implied by a more
        # specific one exactly when another type has a direct edge to it.
        rep = _representatives(store, EntityKind.OWL_CLASS)
        rep_supers: dict[Iri, set[Iri]] = defaultdict(set)
        for ax in subclass_axioms:
            rep_supers[rep[ax.sub]].add(rep[ax.sup])
        for ind in individuals:
            nodes.append(
                GraphNode(
                    id=store.compact(ind),
                    label=ind.local,
                    kind="individual",
                    annotation=labels.get(ind, ""),
                )
            )
            reps = {rep[c] for c in memberships.get(ind, ())}
            implied = {c for d in reps for c in rep_supers.get(d, ()) if c != d}
            for cls in sorted(reps - implied):
                edges.append(
                    GraphEdge(store.compact(ind), store.compact(cls), "type", "membership")
                )

    if level >= DetailLevel.L3_PLUS_INSTANCE_RELATIONSHIPS:
        prop_rep = _representatives(store, EntityKind.OBJECT_PROPERTY)
        prop_supers: dict[Iri, set[Iri]] = defaultdict(set)
        for ax in store.axioms_of(SubObjectPropertyOf):
            prop_supers[ax.sub].add(ax.sup)

        asserted = [
            ax for ax in store.axioms_of(ObjectPropertyAssertion)
            if store.kind_of(ax.object) is EntityKind.NAMED_INDIVIDUAL
        ]
        by_pair: dict[tuple[Iri, Iri], set[Iri]] = defaultdict(set)
        for ax in asserted:
            by_pair[(ax.subject, ax.object)].add(ax.prop)
        rendered: set[tuple[Iri, Iri, Iri]] = set()
        for (subj, obj), props in by_pair.items():
            # Drop a property when one of its strict sub-properties is also
            # asserted for the same pair; the finer edge subsumes it.
            kept = set(props)
            if len(props) > 1:
                for q in props:
                    kept -= _strict_supers(prop_supers, q)
            for p in kept:
                rendered.add((subj, prop_rep[p], obj))
        for subj, prop, obj in sorted(rendered):
            edges.append(
                GraphEdge(store.compact(subj), store.compact(obj), prop.local, "assertion")
            )

    node_order = {"class": 0, "individual": 1}
    nodes.sort(key=lambda n: (node_order[n.kind], n.id))
    edge_order = {"subclass": 0, "equivalence": 1, "membership": 2, "assertion": 3}
    edges.sort(key=lambda e: (edge_order[e.kind], e.src, e.label, e.dst))
    return GraphDoc(tuple(nodes), tuple(edges))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


_NODE_SHAPES = {"class": "box", "individual": "ellipse"}
_EDGE_STYLES = {
    "subclass": "solid",
    "equivalence": "dashed",
    "membership": "dotted",
    "assertion": "solid",
}


def render_dot(g: GraphDoc) -> str:
    if not g.nodes:
        return "digraph aieo {\n}\n"
    lines = ["digraph aieo {"]
    for n in g.nodes:
        lines.append(
            f'    "{_dot_escape(n.id)}" [label="{_dot_escape(n.label)}", '
            f"shape={_NODE_SHAPES[n.kind]}];"
        )
    for e in g.edges:
        lines.append(
            f'    "{_dot_escape(e.src)}" -> "{_dot_escape(e.dst)}" '
            f'[label="{_dot_escape(e.label)}", style={_EDGE_STYLES[e.kind]}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(g: GraphDoc) -> str:
    doc = {
        "nodes": [
            {"id": n.id, "label": n.label, "kind": n.kind, "annotation": n.annotation}
            for n in g.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "label": e.label, "kind": e.kind}
            for e in g.edges
        ],
    }
    return canonical_json(doc)
