"""Knowledge-graph rendering at three detail levels, as DOT and JSON.

Levels nest: L1 shows classes (with individual-count badges), the subclass
hierarchy, and class equivalences; L2 adds individuals with edges to their
most specific classes; L3 adds asserted relationships between individuals.
An individual's type edges and an L3 edge's property name representatives:
each class or property stands for the least member of the stored
equivalence axiom that has it (the store keeps those axioms maximal, so
that is its whole block), or for itself when no such axiom has it.

A node's id is its IRI as a CURIE under the declared prefix with the longest
base (``OntologyStore.compact``), or the IRI itself when no prefix covers
it or when that CURIE is the id of another node that is its own IRI. Its
annotation is its display label: the least text of its ``rdfs:label``
assertions (``schema.labels``, the label consolidation scores), or empty
when it has none.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import IntEnum
from itertools import chain
from typing import Callable

from .jsonio import array_text, encode_string, object_template
from .model import (
    AXIOM_TYPES,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SubClassOf,
    SubObjectPropertyOf,
    _Record,
)
from .reasoner import Materialization
from .schema import labels


class DetailLevel(IntEnum):
    L1_CLASSES_AND_HIERARCHY = 1
    L2_PLUS_INDIVIDUALS = 2
    L3_PLUS_INSTANCE_RELATIONSHIPS = 3


class GraphNode(_Record, fields=(
    "id", "label",
    "kind",  # class | individual
    "annotation",  # rdfs:label summary, may be empty
)):
    __slots__ = ()


class GraphEdge(_Record, fields=(
    "src", "dst", "label",
    "kind",  # subclass | equivalence | membership | assertion
)):
    __slots__ = ()


class GraphDoc(_Record, fields=("nodes", "edges")):
    __slots__ = ()

    @staticmethod
    def _normalize(nodes: tuple[GraphNode, ...], edges: tuple[GraphEdge, ...]) -> tuple:
        ids = [n.id for n in nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique")
        known = set(ids)
        for e in edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge endpoint not among nodes: {e.src} -> {e.dst}")
        return nodes, edges


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


def _representative(store: OntologyStore, equivalence: type) -> Callable[[Iri], Iri]:
    """An IRI -> the least member of the stored ``equivalence`` axiom that
    has it, or the IRI itself when none has it."""
    members = AXIOM_TYPES[equivalence].pair
    least = {m: min(block) for block in map(members, store.axioms_of(equivalence)) for m in block}
    return lambda iri: least.get(iri, iri)


def export_graph(mat: Materialization, level: DetailLevel) -> GraphDoc:
    """Deterministic node/edge lists for the store at the given level."""
    store = mat.base
    classes = store.declared(EntityKind.OWL_CLASS)
    individuals = (
        store.declared(EntityKind.NAMED_INDIVIDUAL)
        if level >= DetailLevel.L2_PLUS_INDIVIDUALS else []
    )
    # Every node id and edge end is read from here.
    ids = {iri: store.compact(iri) for iri in chain(classes, individuals)}
    # A CURIE can be the text of another node's IRI that is its id, as
    # "ex:a" is for <ex:a>. Such a node's id is its full IRI instead, which
    # may in turn be a CURIE of a third node, so this repeats.
    full = {text for iri, text in ids.items() if text == iri}
    while clashes := [iri for iri, text in ids.items() if text != iri and text in full]:
        ids.update((iri, str(iri)) for iri in clashes)
        full.update(clashes)
    display = labels(store)
    # Each class -> how many individuals it has, closed membership counted.
    badges = Counter(chain.from_iterable(mat.memberships.values()))

    # The final sorts order nodes and edges by every field, so nothing is
    # sorted before them.
    nodes = [
        GraphNode(ids[cls], f"{cls.local} [{badges[cls]}]", "class", display.get(cls, ""))
        for cls in classes
    ]
    edges = [
        GraphEdge(ids[ax.sub], ids[ax.sup], "subClassOf", "subclass")
        for ax in store.axioms_of(SubClassOf)
    ]
    for ax in store.axioms_of(EquivalentClasses):
        block = sorted(ax.classes)  # the lesser IRI is the edge's source
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                edges.append(GraphEdge(ids[a], ids[b], "equivalentClass", "equivalence"))

    if level >= DetailLevel.L2_PLUS_INDIVIDUALS:
        # Memberships are closed under R2/R3, so a type is implied by a more
        # specific one exactly when another type has a direct edge to it.
        rep = _representative(store, EquivalentClasses)
        rep_supers: dict[Iri, set[Iri]] = defaultdict(set)
        for ax in store.axioms_of(SubClassOf):
            rep_supers[rep(ax.sub)].add(rep(ax.sup))
        for ind in individuals:
            nodes.append(GraphNode(ids[ind], ind.local, "individual", display.get(ind, "")))
            reps = {rep(c) for c in mat.memberships.get(ind, ())}
            implied = {c for d in reps for c in rep_supers.get(d, ()) if c != d}
            for cls in reps - implied:
                edges.append(GraphEdge(ids[ind], ids[cls], "type", "membership"))

    if level >= DetailLevel.L3_PLUS_INSTANCE_RELATIONSHIPS:
        prop_rep = _representative(store, EquivalentObjectProperties)
        prop_supers: dict[Iri, set[Iri]] = defaultdict(set)
        for ax in store.axioms_of(SubObjectPropertyOf):
            prop_supers[ax.sub].add(ax.sup)

        # The store admits only individuals at both ends of an assertion.
        by_pair: dict[tuple[Iri, Iri], set[Iri]] = defaultdict(set)
        for ax in store.axioms_of(ObjectPropertyAssertion):
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
                rendered.add((subj, prop_rep(p), obj))
        for subj, prop, obj in rendered:
            edges.append(GraphEdge(ids[subj], ids[obj], prop.local, "assertion"))

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


# Keys in sorted order; the values below fill their slots in that order.
_NODE = object_template(dict.fromkeys(("annotation", "id", "kind", "label")), "\n    ")
_EDGE = object_template(dict.fromkeys(("from", "kind", "label", "to")), "\n    ")
_GRAPH = object_template(dict.fromkeys(("edges", "nodes")), "\n")


def render_json(g: GraphDoc) -> str:
    """The graph as canonical JSON: ``{"nodes": [...], "edges": [...]}`` with
    the fields of each node, and ``from``/``to`` for an edge's ends."""
    nodes = [
        _NODE % (encode_string(n.annotation), encode_string(n.id), encode_string(n.kind),
                 encode_string(n.label))
        for n in g.nodes
    ]
    edges = [
        _EDGE % (encode_string(e.src), encode_string(e.kind), encode_string(e.label),
                 encode_string(e.dst))
        for e in g.edges
    ]
    return _GRAPH % (array_text(edges, "\n  "), array_text(nodes, "\n  ")) + "\n"
