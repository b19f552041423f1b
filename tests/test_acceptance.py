"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Every expected value here is either checked against an independent oracle
implemented in oracles.py or is a hand-countable property of a fixture
built inside the test itself.
"""

import json
import random
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from aieo.cli import main
from aieo.errors import DuplicateFramework
from aieo.jsonio import parse_config, parse_framework_document
from aieo.kgexport import DetailLevel, export_graph, render_dot
from aieo.model import (
    ClassAssertion,
    DisjointClasses,
    EntityKind,
    ObjectPropertyAssertion,
    compute_metrics,
)
from aieo.pipeline import IterationRecord, detect_saturation, run_iteration
from aieo.query import Query, canned_query, evaluate
from aieo.reasoner import check_consistency, materialize
from aieo.schema import aieo, seed_schema
from aieo.turtle import parse_turtle, serialize_turtle

from oracles import (
    assert_valid_dot,
    brute_force_evaluate,
    flatten_triples,
    naive_closure,
    random_query,
    random_small_store,
    random_store,
    tally_metrics,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def _criterion(capsys, number, name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({name}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < limit_seconds
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} ({name}): {verdict} ({elapsed:.2f}s)")
    assert ok, f"finished correctly but over the {limit_seconds}s budget ({elapsed:.2f}s)"


def test_criterion_1_schema_metrics_fidelity(capsys):
    with _criterion(capsys, 1, "schema metrics fidelity", 1.0):
        report = compute_metrics(seed_schema())
        assert report.class_count == 19
        assert report.object_property_count == 10
        assert report.data_property_count == 0
        assert report.annotation_property_count == 4
        for seed in range(50):
            store = random_small_store(seed)
            assert len(store.axioms) <= 60
            assert compute_metrics(store).as_dict() == tally_metrics(store), seed


def test_criterion_2_structural_inference(capsys):
    with _criterion(capsys, 2, "structural inference", 1.0):
        store = seed_schema()
        store.declare(aieo("fairness"), EntityKind.NAMED_INDIVIDUAL)
        store.declare(aieo("AI_system"), EntityKind.NAMED_INDIVIDUAL)
        store.add(
            ObjectPropertyAssertion(aieo("fairness"), aieo("keyword"), aieo("AI_system"))
        )
        mat = materialize(store)
        assert ClassAssertion(aieo("Keyword"), aieo("AI_system")) in mat.inferred
        assert not any(
            isinstance(fact, ClassAssertion) and fact.ind == aieo("fairness")
            for fact in mat.facts()
        )


def test_criterion_3_equivalence_semantics(capsys):
    with _criterion(capsys, 3, "equivalence semantics", 1.0):
        au = parse_framework_document((DATA / "au_framework.json").read_text())
        eu = parse_framework_document((DATA / "eu_framework.json").read_text())
        cfg = parse_config((DATA / "pipeline_config.json").read_text())
        store, _ = run_iteration(seed_schema(), au, cfg)
        store, _ = run_iteration(store, eu, cfg)
        mat = materialize(store)
        for concept in ("AU_Fairness", "AU_Accountability"):
            result = canned_query("describe_concept", mat, aieo(concept))
            frameworks = set(result.values("framework"))
            assert frameworks == {aieo("AU"), aieo("EU")}, concept
        assert mat.consistent
        assert mat.violations == ()


def test_criterion_4_consistency_checking(capsys, tmp_path):
    with _criterion(capsys, 4, "consistency checking", 5.0):
        store = seed_schema()
        store.declare(aieo("x"), EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(aieo("Framework"), aieo("x")))
        store.add(ClassAssertion(aieo("Principle"), aieo("x")))
        violations = materialize(store).violations
        assert len(violations) == 1
        assert violations[0].class_a == aieo("Framework")
        assert violations[0].class_b == aieo("Principle")
        path = tmp_path / "inconsistent.ttl"
        path.write_text(serialize_turtle(store), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        capsys.readouterr()  # swallow the CLI violation report

        # generated matrix: every disjoint pair in the schema, one individual each
        pairs = sorted(
            (ax.a, ax.b) for ax in seed_schema().axioms_of(DisjointClasses)
        )
        assert len(pairs) == 9
        for a, b in pairs:
            case = seed_schema()
            case.declare(aieo("y"), EntityKind.NAMED_INDIVIDUAL)
            case.add(ClassAssertion(a, aieo("y")))
            case.add(ClassAssertion(b, aieo("y")))
            found = check_consistency(materialize(case))
            assert len(found) == 1, (a, b)
            assert (found[0].class_a, found[0].class_b) == (a, b)


def test_criterion_5_reasoner_oracle_equivalence(capsys):
    with _criterion(capsys, 5, "reasoner oracle equivalence", 30.0):
        for seed in range(200):
            store = random_store(seed, max_individuals=12, max_assertions=25)
            semi_naive = set(store.axioms) | set(materialize(store).inferred)
            naive = set(store.axioms) | naive_closure(store)
            assert semi_naive == naive, seed


def test_criterion_6_query_correctness(capsys):
    with _criterion(capsys, 6, "query correctness", 30.0):
        for seed in range(25):
            store = random_store(seed)
            closure = naive_closure(store)
            assertion_facts = {
                f for f in closure
                if isinstance(f, (ClassAssertion, ObjectPropertyAssertion))
            }
            triples = flatten_triples(store, assertion_facts)
            mat = materialize(store)
            rng = random.Random(seed + 31000)
            for _ in range(4):
                patterns, projected, distinct = random_query(rng)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    query = Query(projected, patterns, distinct=distinct)
                result = evaluate(query, mat)
                got = Counter(frozenset(zip(result.variables, row)) for row in result.rows)
                want = Counter(
                    frozenset(row)
                    for row in brute_force_evaluate(patterns, projected, triples, distinct)
                )
                assert got == want, (seed, query)

        au = parse_framework_document((DATA / "au_framework.json").read_text())
        cfg = parse_config((DATA / "pipeline_config.json").read_text())
        store, _ = run_iteration(seed_schema(), au, cfg)
        result = canned_query("principles_by_framework", materialize(store))
        assert len(result.rows) == 8


def test_criterion_7_pipeline_iterativity_and_saturation(capsys):
    with _criterion(capsys, 7, "pipeline iterativity and saturation", 5.0):
        au = parse_framework_document((DATA / "au_framework.json").read_text())
        eu = parse_framework_document((DATA / "eu_framework.json").read_text())
        cfg = parse_config((DATA / "pipeline_config.json").read_text())

        store1, rec1 = run_iteration(seed_schema(), au, cfg)
        store2, rec2 = run_iteration(store1, eu, cfg)
        assert (rec1.iteration_index, rec2.iteration_index) == (1, 2)
        assert rec1.increment > 0 and rec2.increment > 0

        frozen = set(store2.axioms)
        with pytest.raises(DuplicateFramework):
            run_iteration(store2, au, cfg)
        assert set(store2.axioms) == frozen

        final_metrics = rec2.after
        rec3 = IterationRecord(
            iteration_index=3, before=final_metrics, after=final_metrics, increment=0
        )
        assert detect_saturation([rec1, rec2, rec3], 0.05) == [False, False, True]


def test_criterion_8_round_trip(capsys):
    with _criterion(capsys, 8, "serialization round-trip", 10.0):
        def check(store):
            text = serialize_turtle(store)
            assert text == serialize_turtle(store.copy())  # byte-deterministic
            recovered = parse_turtle(text)
            assert set(recovered.axioms) == set(store.axioms)
            assert serialize_turtle(recovered) == text  # canonical fixpoint

        check(seed_schema())
        for seed in range(50):
            check(random_store(seed, schema_mutations=True))
            check(random_small_store(seed + 500))


def test_criterion_9_kg_export(capsys):
    with _criterion(capsys, 9, "knowledge-graph export", 10.0):
        g1 = export_graph(materialize(seed_schema()), DetailLevel(1))
        class_nodes = [n for n in g1.nodes if n.kind == "class"]
        subclass_edges = [e for e in g1.edges if e.kind == "subclass"]
        assert len(class_nodes) == 19
        assert len(subclass_edges) == 9
        assert_valid_dot(render_dot(g1))

        for seed in range(50):
            mat = materialize(random_store(seed))
            docs = [export_graph(mat, DetailLevel(v)) for v in (1, 2, 3)]
            for lower, higher in zip(docs, docs[1:]):
                assert set(lower.nodes) <= set(higher.nodes), seed
                assert set(lower.edges) <= set(higher.edges), seed
            assert_valid_dot(render_dot(docs[2]))
