"""Tests for knowledge-graph export at the three detail levels."""

import json
import random
from collections import defaultdict

import pytest

from aieo.kgexport import (
    DetailLevel,
    GraphDoc,
    GraphEdge,
    GraphNode,
    _strict_supers,
    export_graph,
    render_dot,
    render_json,
)
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SubClassOf,
    SubObjectPropertyOf,
)
from aieo.pipeline import _concept_label
from aieo.reasoner import materialize
from aieo.schema import RDFS_LABEL, aieo, labels, seed_schema

from oracles import (
    _naive_concept_label,
    assert_valid_dot,
    naive_strict_supers,
    random_linked_store,
    random_small_store,
    random_store,
)


def _export(store, level):
    return export_graph(materialize(store), DetailLevel(level))


def _with_individuals(store, *names):
    for name in names:
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    return store


# ---------------------------------------------------------------------------
# GraphDoc validation
# ---------------------------------------------------------------------------


def test_graphdoc_rejects_duplicate_node_ids():
    node = GraphNode("x", "x", "class", "")
    with pytest.raises(ValueError, match="unique"):
        GraphDoc((node, node), ())


def test_graphdoc_rejects_dangling_edges():
    node = GraphNode("x", "x", "class", "")
    with pytest.raises(ValueError, match="endpoint"):
        GraphDoc((node,), (GraphEdge("x", "y", "l", "subclass"),))


def test_a_curie_that_is_another_nodes_iri_gives_way_to_the_full_iri():
    # "ex:a" is the CURIE of https://e/a and the text of the IRI <ex:a>;
    # https://e/a is in turn the CURIE of urn:q//e/a under "https:".
    store = OntologyStore({"ex": "https://e/", "https": "urn:q"})
    for iri in ("https://e/a", "ex:a", "urn:q//e/a", "urn:q//e/b"):
        store.declare(Iri(iri), EntityKind.OWL_CLASS)
    store.declare(Iri("https://e/x"), EntityKind.NAMED_INDIVIDUAL)
    store.add(SubClassOf(Iri("https://e/a"), Iri("ex:a")))
    store.add(ClassAssertion(Iri("https://e/a"), Iri("https://e/x")))
    g = _export(store, 3)
    assert [n.id for n in g.nodes] == [
        "ex:a", "https://e/a", "https://e/b", "urn:q//e/a", "ex:x",
    ]
    assert [(e.src, e.dst) for e in g.edges] == [
        ("https://e/a", "ex:a"), ("ex:x", "https://e/a"),
    ]


# ---------------------------------------------------------------------------
# Level 1: classes and hierarchy
# ---------------------------------------------------------------------------


def test_seed_level1_counts():
    g = _export(seed_schema(), 1)
    assert len(g.nodes) == 19
    assert all(n.kind == "class" for n in g.nodes)
    by_kind = {}
    for e in g.edges:
        by_kind.setdefault(e.kind, []).append(e)
    assert len(by_kind["subclass"]) == 9
    assert len(by_kind["equivalence"]) == 3  # one three-class block, pairwise
    assert set(by_kind) == {"subclass", "equivalence"}


def test_empty_store_renders_empty_digraph():
    g = export_graph(materialize(OntologyStore()), DetailLevel(1))
    assert g.nodes == () and g.edges == ()
    assert render_dot(g) == "digraph aieo {\n}\n"


def test_badges_count_inferred_members():
    store = _with_individuals(seed_schema(), "fw", "fair")
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    labels = {n.id: n.label for n in _export(store, 1).nodes}
    # fair is typed Principle only by the range axiom
    assert labels["aieo:Principle"] == "Principle [1]"
    assert labels["aieo:Framework"] == "Framework [0]"


def test_node_annotation_uses_rdfs_label():
    store = seed_schema()
    nodes = {n.id: n for n in _export(store, 1).nodes}
    assert nodes["aieo:Requirement"].annotation == "Requirements"
    assert nodes["aieo:Framework"].annotation == ""


def test_node_annotation_prefers_smallest_label():
    store = _with_individuals(seed_schema(), "x")
    store.add(AnnotationAssertion(aieo("x"), RDFS_LABEL, AnnotationValue("zz")))
    store.add(AnnotationAssertion(aieo("x"), RDFS_LABEL, AnnotationValue("aa")))
    nodes = {n.id: n for n in _export(store, 2).nodes}
    assert nodes["aieo:x"].annotation == "aa"


# ---------------------------------------------------------------------------
# Level 2: individuals with most-specific memberships
# ---------------------------------------------------------------------------


def test_level2_adds_individual_nodes():
    store = _with_individuals(seed_schema(), "fw")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    g1, g2 = _export(store, 1), _export(store, 2)
    assert {n.kind for n in g1.nodes} == {"class"}
    ind_nodes = [n for n in g2.nodes if n.kind == "individual"]
    assert [n.id for n in ind_nodes] == ["aieo:fw"]


def test_level2_membership_is_most_specific():
    store = _with_individuals(seed_schema(), "k")
    store.add(ClassAssertion(aieo("Keyword"), aieo("k")))
    store.add(ClassAssertion(aieo("Risk_keyword"), aieo("k")))
    memberships = [e for e in _export(store, 2).edges if e.kind == "membership"]
    assert [(e.src, e.dst) for e in memberships] == [("aieo:k", "aieo:Risk_keyword")]


def test_level2_collapses_equivalent_classes_to_representative():
    store = _with_individuals(seed_schema(), "app")
    store.add(ClassAssertion(aieo("UseCase"), aieo("app")))
    memberships = [e for e in _export(store, 2).edges if e.kind == "membership"]
    # Application, Scenario, and UseCase are one equivalence block
    assert [(e.src, e.dst) for e in memberships] == [("aieo:app", "aieo:Application")]


# ---------------------------------------------------------------------------
# Level 3: instance relationships
# ---------------------------------------------------------------------------


def _level3_edge_oracle(store):
    """Expected L3 assertion edges: base object-property assertions between
    individuals, property collapsed to its equivalence representative, minus
    pairs where a strict sub-property of the property is also asserted."""
    prop_rep = {}
    for ax in store.axioms_of(EquivalentObjectProperties):
        rep = min(ax.properties)
        for p in ax.properties:
            prop_rep[p] = min(rep, prop_rep.get(p, rep))

    def strict_supers(prop):
        out, frontier = set(), {prop}
        while frontier:
            nxt = set()
            for ax in store.axioms_of(SubObjectPropertyOf):
                if ax.sub in frontier and ax.sup not in out:
                    out.add(ax.sup)
                    nxt.add(ax.sup)
            frontier = nxt
        return out

    asserted = [
        ax for ax in store.axioms_of(ObjectPropertyAssertion)
        if store.kind_of(ax.object) is EntityKind.NAMED_INDIVIDUAL
    ]
    edges = set()
    for ax in asserted:
        redundant = any(
            other.subject == ax.subject
            and other.object == ax.object
            and other.prop != ax.prop
            and ax.prop in strict_supers(other.prop)
            for other in asserted
        )
        if not redundant:
            edges.add((
                store.compact(ax.subject),
                prop_rep.get(ax.prop, ax.prop).local,
                store.compact(ax.object),
            ))
    return edges


def test_level3_adds_assertion_edges():
    store = _with_individuals(seed_schema(), "fw", "fair")
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    assertions = [e for e in _export(store, 3).edges if e.kind == "assertion"]
    assert [(e.src, e.label, e.dst) for e in assertions] == [
        ("aieo:fw", "principle", "aieo:fair")
    ]
    assert not any(e.kind == "assertion" for e in _export(store, 2).edges)


def test_level3_drops_subsumed_property_edge():
    store = _with_individuals(seed_schema(), "fw", "k")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("keyword"), aieo("k")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("relevantKeyword"), aieo("k")))
    assertions = [e for e in _export(store, 3).edges if e.kind == "assertion"]
    assert [e.label for e in assertions] == ["relevantKeyword"]


def test_level3_collapses_equivalent_properties():
    store = _with_individuals(seed_schema(), "fair", "hiring")
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("useCase"), aieo("hiring")))
    assertions = [e for e in _export(store, 3).edges if e.kind == "assertion"]
    # application, scenario, and useCase share one representative
    assert [e.label for e in assertions] == ["application"]


def test_level3_skips_inferred_assertions():
    store = _with_individuals(seed_schema(), "fair", "hiring")
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("useCase"), aieo("hiring")))
    mat = materialize(store)
    inferred_opas = [
        f for f in mat.inferred if isinstance(f, ObjectPropertyAssertion)
    ]
    assert inferred_opas  # the equivalence spread them
    assertions = [e for e in _export(store, 3).edges if e.kind == "assertion"]
    assert len(assertions) == 1


def test_level3_matches_oracle_on_random_stores():
    for seed in range(15):
        for store in (random_store(seed), random_store(seed, schema_mutations=True)):
            got = {
                (e.src, e.label, e.dst)
                for e in _export(store, 3).edges
                if e.kind == "assertion"
            }
            assert got == _level3_edge_oracle(store), seed


# ---------------------------------------------------------------------------
# Level nesting and determinism
# ---------------------------------------------------------------------------


def test_deep_hierarchies_export_without_recursion_limit():
    depth = 1500
    store = _with_individuals(OntologyStore({"aieo": aieo("")}), "x", "y")
    classes = [aieo(f"C{i}") for i in range(depth)]
    props = [aieo(f"p{i}") for i in range(depth)]
    for c in classes:
        store.declare(c, EntityKind.OWL_CLASS)
    for p in props:
        store.declare(p, EntityKind.OBJECT_PROPERTY)
    for sub, sup in zip(classes, classes[1:]):
        store.add(SubClassOf(sub, sup))
    for sub, sup in zip(props, props[1:]):
        store.add(SubObjectPropertyOf(sub, sup))
    store.add(ClassAssertion(classes[0], aieo("x")))
    store.add(ClassAssertion(classes[depth // 2], aieo("y")))
    store.add(ObjectPropertyAssertion(aieo("x"), props[0], aieo("y")))
    store.add(ObjectPropertyAssertion(aieo("x"), props[-1], aieo("y")))
    g = _export(store, 3)  # L3 runs both the class and the property closure
    membership = {(e.src, e.dst) for e in g.edges if e.kind == "membership"}
    assert membership == {("aieo:x", "aieo:C0"), ("aieo:y", f"aieo:C{depth // 2}")}
    # the finest of the two chained properties subsumes the coarsest
    assert [(e.src, e.label, e.dst) for e in g.edges if e.kind == "assertion"] == [
        ("aieo:x", "p0", "aieo:y")
    ]


def test_strict_supers_on_cyclic_hierarchies_match_reachability():
    for seed in range(30):
        rng = random.Random(seed)
        nodes = [aieo(f"C{i}") for i in range(rng.randint(2, 7))]
        edges = defaultdict(set)
        for _ in range(rng.randint(1, 12)):
            sub, sup = rng.choice(nodes), rng.choice(nodes)
            edges[sub].add(sup)
        want = naive_strict_supers(edges)
        for start in edges:
            assert _strict_supers(edges, start) == want[start], (seed, start)


def _cyclic_store():
    # A -> B -> C -> A is a cycle; D sits below A, E stands apart
    store = _with_individuals(seed_schema(), "x", "y")
    names = ("A", "B", "C", "D", "E")
    for name in names:
        store.declare(aieo(name), EntityKind.OWL_CLASS)
    for sub, sup in (("A", "B"), ("B", "C"), ("C", "A"), ("D", "A")):
        store.add(SubClassOf(aieo(sub), aieo(sup)))
    store.add(ClassAssertion(aieo("D"), aieo("x")))
    store.add(ClassAssertion(aieo("E"), aieo("x")))
    store.add(ClassAssertion(aieo("B"), aieo("y")))
    return store


def _naive_class_reps(store):
    """Each declared class -> the least class of its equivalence component,
    by growing the component one axiom at a time until it stops changing."""
    axioms = [ax.classes for ax in store.axioms_of(EquivalentClasses)]
    reps = {}
    for cls in store.declared(EntityKind.OWL_CLASS):
        block = {cls}
        while True:
            grown = block.union(*(members for members in axioms if members & block))
            if grown == block:
                break
            block = grown
        reps[cls] = min(block)
    return reps


def test_cyclic_hierarchy_membership_matches_reachability():
    stores = [_cyclic_store()] + [random_linked_store(seed) for seed in range(20)]
    for n, store in enumerate(stores):
        mat = materialize(store)
        graph = export_graph(mat, DetailLevel(2))
        reps = _naive_class_reps(store)
        edges = defaultdict(set)
        for ax in store.axioms_of(SubClassOf):
            edges[reps[ax.sub]].add(reps[ax.sup])
        supers = naive_strict_supers(edges)
        got = defaultdict(set)
        for e in graph.edges:
            if e.kind == "membership":
                got[e.src].add(e.dst)
        for ind in store.declared(EntityKind.NAMED_INDIVIDUAL):
            types = {
                reps[f.cls] for f in mat.facts()
                if isinstance(f, ClassAssertion) and f.ind == ind
            }
            want = {
                c for c in types if not any(d != c and c in supers.get(d, ()) for d in types)
            }
            assert got[store.compact(ind)] == {store.compact(c) for c in want}, (n, ind)
        if n == 0:
            assert got["aieo:x"] == {"aieo:D", "aieo:E"}


def test_levels_nest():
    for seed in range(10):
        for store in (random_store(seed), random_small_store(seed + 100)):
            mat = materialize(store)
            docs = [export_graph(mat, DetailLevel(v)) for v in (1, 2, 3)]
            for lower, higher in zip(docs, docs[1:]):
                assert set(lower.nodes) <= set(higher.nodes)
                assert set(lower.edges) <= set(higher.edges)


def test_export_is_deterministic():
    store = random_store(7)
    for level in (1, 2, 3):
        a, b = _export(store, level), _export(store.copy(), level)
        assert a == b
        assert render_dot(a) == render_dot(b)
        assert render_json(a) == render_json(b)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_dot_output_parses_for_random_stores():
    for seed in range(8):
        store = random_store(seed)
        for level in (1, 2, 3):
            assert_valid_dot(render_dot(_export(store, level)))


_LABEL_TEXTS = ("b", "a", "B", "a b", "\u00c9quit\u00e9", "\u00e9quit\u00e9", "z")


def _label_texts(store, iri):
    """The texts of the ``rdfs:label`` assertions on ``iri``, found by a scan
    of every axiom."""
    return {ax.value.text for ax in store.axioms
            if isinstance(ax, AnnotationAssertion) and ax.prop == RDFS_LABEL
            and ax.subject == iri}


def _least_label(store, iri):
    """The least text of the ``rdfs:label`` assertions on ``iri``, or ""
    when there are none."""
    return min(_label_texts(store, iri), default="")


def test_annotations_and_concept_labels_are_the_least_rdfs_label():
    rng = random.Random(5)
    several = 0
    for seed in range(20):
        for store in (random_store(seed), random_linked_store(seed)):
            nodes = (store.declared(EntityKind.OWL_CLASS)
                     + store.declared(EntityKind.NAMED_INDIVIDUAL))
            for _ in range(rng.randint(0, 12)):
                prop = rng.choice((RDFS_LABEL, RDFS_LABEL, aieo("shortDescription")))
                value = AnnotationValue(rng.choice(_LABEL_TEXTS), rng.choice((None, "en", "fr")))
                store.add(AnnotationAssertion(rng.choice(nodes), prop, value))
            by_id = {store.compact(iri): iri for iri in nodes}
            display = labels(store)
            graph = _export(store, 2)
            assert len(graph.nodes) == len(nodes)
            for node in graph.nodes:
                iri = by_id[node.id]
                assert node.annotation == _least_label(store, iri), (seed, iri)
                assert (_concept_label(display, iri)
                        == _naive_concept_label(store, iri)), (seed, iri)
                several += len(_label_texts(store, iri)) > 1
    assert several  # some node has labels to choose between


def test_dot_escapes_quotes_in_labels():
    store = _with_individuals(seed_schema(), "x")
    store.add(AnnotationAssertion(aieo("x"), RDFS_LABEL, AnnotationValue('say "hi"')))
    text = render_dot(_export(store, 2))
    assert_valid_dot(text)


def test_dot_shapes_and_styles():
    store = _with_individuals(seed_schema(), "fw", "fair")
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    text = render_dot(_export(store, 3))
    assert '"aieo:Framework" [label="Framework [0]", shape=box];' in text
    assert '"aieo:fw" [label="fw", shape=ellipse];' in text
    assert '"aieo:fw" -> "aieo:fair" [label="principle", style=solid];' in text
    assert "style=dashed" in text  # equivalence edges
    assert "style=dotted" in text  # membership edges


def test_json_output_shape():
    store = _with_individuals(seed_schema(), "fw")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    doc = json.loads(render_json(_export(store, 2)))
    assert set(doc) == {"nodes", "edges"}
    assert all(set(n) == {"id", "label", "kind", "annotation"} for n in doc["nodes"])
    assert all(set(e) == {"from", "to", "label", "kind"} for e in doc["edges"])
    membership = [e for e in doc["edges"] if e["kind"] == "membership"]
    assert membership == [
        {"from": "aieo:fw", "to": "aieo:Framework", "label": "type", "kind": "membership"}
    ]
