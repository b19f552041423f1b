from __future__ import annotations

import pytest

from aieo.errors import IterationLimitExceeded, UnknownFact
from aieo.model import (
    Axiom,
    ClassAssertion,
    DisjointClasses,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    axiom_sort_key,
)
from aieo.jsonio import traces_to_json
from aieo.reasoner import (
    InferenceTrace,
    RuleId,
    check_consistency,
    explain,
    materialize,
)
from aieo.schema import aieo, seed_schema

from oracles import (
    naive_closure,
    naive_inferred,
    naive_peers,
    naive_traces,
    naive_violations,
    random_linked_store,
    random_small_store,
    random_store,
    random_wide_store,
    reference_traces_to_json,
)


def _with_individuals(*names: str) -> OntologyStore:
    store = seed_schema()
    for name in names:
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    return store


def test_range_types_the_object_only():
    store = _with_individuals("fairness", "AI_system")
    store.add(ObjectPropertyAssertion(aieo("fairness"), aieo("keyword"), aieo("AI_system")))
    mat = materialize(store)
    assert ClassAssertion(aieo("Keyword"), aieo("AI_system")) in mat.inferred
    fairness_types = [
        f for f in mat.inferred
        if isinstance(f, ClassAssertion) and f.ind == aieo("fairness")
    ]
    assert fairness_types == []


def test_range_trace_names_rule_and_premises():
    store = _with_individuals("f", "k")
    assertion = ObjectPropertyAssertion(aieo("f"), aieo("keyword"), aieo("k"))
    store.add(assertion)
    mat = materialize(store)
    [trace] = explain(mat, ClassAssertion(aieo("Keyword"), aieo("k")))
    assert trace.rule is RuleId.R1_RANGE_TYPING
    assert assertion in trace.premises
    assert len(trace.premises) == 2


def test_subclass_membership_propagates():
    store = _with_individuals("b")
    store.add(ClassAssertion(aieo("Risk_keyword"), aieo("b")))
    mat = materialize(store)
    assert ClassAssertion(aieo("Keyword"), aieo("b")) in mat.inferred
    [trace] = explain(mat, ClassAssertion(aieo("Keyword"), aieo("b")))
    assert trace.rule is RuleId.R2_SUBCLASS


def test_class_equivalence_spreads_membership():
    store = _with_individuals("u")
    store.add(ClassAssertion(aieo("UseCase"), aieo("u")))
    mat = materialize(store)
    assert ClassAssertion(aieo("Application"), aieo("u")) in mat.inferred
    assert ClassAssertion(aieo("Scenario"), aieo("u")) in mat.inferred


def test_property_equivalence_and_subproperty_spread_assertions():
    store = _with_individuals("f", "u", "k")
    store.add(ObjectPropertyAssertion(aieo("f"), aieo("useCase"), aieo("u")))
    store.add(ObjectPropertyAssertion(aieo("f"), aieo("relevantKeyword"), aieo("k")))
    mat = materialize(store)
    assert ObjectPropertyAssertion(aieo("f"), aieo("application"), aieo("u")) in mat.inferred
    assert ObjectPropertyAssertion(aieo("f"), aieo("scenario"), aieo("u")) in mat.inferred
    assert ObjectPropertyAssertion(aieo("f"), aieo("keyword"), aieo("k")) in mat.inferred


def test_sameas_copies_types_and_assertions_both_ways():
    store = _with_individuals("a", "b", "k")
    store.add(SameIndividual(aieo("a"), aieo("b")))
    store.add(ClassAssertion(aieo("Principle"), aieo("a")))
    store.add(ObjectPropertyAssertion(aieo("b"), aieo("keyword"), aieo("k")))
    mat = materialize(store)
    assert ClassAssertion(aieo("Principle"), aieo("b")) in mat.inferred
    assert ObjectPropertyAssertion(aieo("a"), aieo("keyword"), aieo("k")) in mat.inferred


def test_explain_asserted_fact_is_empty_list():
    store = _with_individuals("x")
    fact = ClassAssertion(aieo("Framework"), aieo("x"))
    store.add(fact)
    mat = materialize(store)
    assert explain(mat, fact) == []


def test_explain_unknown_fact_raises():
    store = _with_individuals("x")
    mat = materialize(store)
    with pytest.raises(UnknownFact):
        explain(mat, ClassAssertion(aieo("Framework"), aieo("x")))


def test_explain_collects_every_one_step_derivation():
    # u : UseCase reaches Application through the equivalence from both
    # UseCase and Scenario memberships, so two distinct traces exist.
    store = _with_individuals("u")
    store.add(ClassAssertion(aieo("UseCase"), aieo("u")))
    mat = materialize(store)
    traces = explain(mat, ClassAssertion(aieo("Application"), aieo("u")))
    assert len(traces) == 2
    assert {t.rule for t in traces} == {RuleId.R3_CLASS_EQUIV}


def test_every_inferred_fact_has_a_grounded_derivation():
    for seed in range(10):
        store = random_store(seed)
        mat = materialize(store)
        grounded = set(store.axioms)
        frontier = True
        while frontier:
            frontier = False
            for fact in mat.inferred:
                if fact in grounded:
                    continue
                if any(
                    all(p in grounded for p in trace.premises)
                    for trace in mat.traces[fact]
                ):
                    grounded.add(fact)
                    frontier = True
        assert all(f in grounded for f in mat.inferred)


@pytest.mark.parametrize("seed", range(25))
def test_matches_naive_fixpoint(seed):
    store = random_store(seed, schema_mutations=(seed % 3 == 0))
    mat = materialize(store)
    assert set(mat.inferred) == naive_inferred(store)


@pytest.mark.parametrize("make", [random_store, random_linked_store, random_small_store])
@pytest.mark.parametrize("seed", range(15))
def test_traces_match_naive_derivations(make, seed):
    store = make(seed)
    mat = materialize(store)
    got = {
        fact: [(t.rule.value, t.premises) for t in traces]
        for fact, traces in mat.traces.items()
    }
    want = naive_traces(store)
    assert {f: set(d) for f, d in got.items()} == {f: set(d) for f, d in want.items()}
    assert got == want
    asserted = set(store.axioms_of(ClassAssertion, ObjectPropertyAssertion))
    assert mat.sameas_free == naive_closure(store, use_sameas=False) - asserted


def test_materializing_a_closed_store_adds_nothing():
    store = random_store(11)
    mat = materialize(store)
    closed = store.copy()
    for fact in mat.inferred:
        closed.add(fact)
    again = materialize(closed)
    assert again.inferred == frozenset()
    assert again.consistent == mat.consistent


def test_fact_limit_guards_runaway_growth():
    store = _with_individuals(*(f"i{n}" for n in range(12)))
    for n in range(11):
        store.add(SameIndividual(aieo(f"i{n}"), aieo(f"i{n + 1}")))
    for n in range(12):
        store.add(ObjectPropertyAssertion(aieo(f"i{n}"), aieo("keyword"), aieo(f"i{(n + 1) % 12}")))
    with pytest.raises(IterationLimitExceeded):
        materialize(store, fact_limit=10)


def _support(mat, v) -> list[InferenceTrace]:
    """A violation's support: the derivations of its two memberships."""
    return [trace for cls in (v.class_a, v.class_b)
            for trace in explain(mat, ClassAssertion(cls, v.individual))]


def test_disjoint_typing_is_one_violation():
    store = _with_individuals("x")
    store.add(ClassAssertion(aieo("Framework"), aieo("x")))
    store.add(ClassAssertion(aieo("Principle"), aieo("x")))
    mat = materialize(store)
    assert not mat.consistent
    [v] = mat.violations
    assert (v.individual, v.class_a, v.class_b) == (
        aieo("x"), aieo("Framework"), aieo("Principle"),
    )
    assert v.rule is RuleId.D1_DISJOINT_TYPING
    assert _support(mat, v) == []  # both memberships asserted, nothing to derive


def test_violation_from_inferred_membership_carries_traces():
    store = _with_individuals("f", "x")
    store.add(ClassAssertion(aieo("Framework"), aieo("x")))
    store.add(ObjectPropertyAssertion(aieo("f"), aieo("principle"), aieo("x")))
    mat = materialize(store)
    [v] = mat.violations
    assert (v.class_a, v.class_b) == (aieo("Framework"), aieo("Principle"))
    support = _support(mat, v)
    assert {t.conclusion for t in support} == {ClassAssertion(aieo("Principle"), aieo("x"))}
    assert any(t.rule is RuleId.R1_RANGE_TYPING for t in support)


def test_principle_plus_requirement_is_fine():
    store = _with_individuals("x")
    store.add(ClassAssertion(aieo("Principle"), aieo("x")))
    store.add(ClassAssertion(aieo("Requirement"), aieo("x")))
    mat = materialize(store)
    assert mat.consistent
    assert mat.violations == ()


def test_merge_induced_conflict_is_d2_reported_once():
    store = _with_individuals("a", "b")
    store.add(SameIndividual(aieo("a"), aieo("b")))
    store.add(ClassAssertion(aieo("Framework"), aieo("a")))
    store.add(ClassAssertion(aieo("AI_Dimension"), aieo("b")))
    mat = materialize(store)
    [v] = mat.violations
    assert v.rule is RuleId.D2_SAMEAS_DISJOINT
    assert v.individual == aieo("a")
    assert (v.class_a, v.class_b) == (aieo("AI_Dimension"), aieo("Framework"))


def test_violations_sorted_and_counted_per_pair():
    store = _with_individuals("x", "y")
    store.add(ClassAssertion(aieo("Framework"), aieo("y")))
    store.add(ClassAssertion(aieo("Principle"), aieo("y")))
    store.add(ClassAssertion(aieo("AI_Dimension"), aieo("x")))
    store.add(ClassAssertion(aieo("Requirement"), aieo("x")))
    mat = materialize(store)
    got = [(v.individual, v.class_a, v.class_b) for v in mat.violations]
    assert got == sorted(got)
    assert len(got) == 2


@pytest.mark.parametrize("make, seed", [
    *(pytest.param(random_store, seed, id=str(seed)) for seed in range(20)),
    *(pytest.param(random_wide_store, seed, id=f"wide-{seed}") for seed in range(20)),
    *(pytest.param(random_linked_store, seed, id=f"linked-{seed}") for seed in range(20)),
    *(pytest.param(random_small_store, seed, id=f"small-{seed}") for seed in range(20)),
])
def test_violations_match_naive_scan(make, seed):
    store = make(seed)
    mat = materialize(store)
    got = [(v.individual, v.class_a, v.class_b, v.rule.value) for v in mat.violations]
    assert got == naive_violations(store)


def _ex(name: str) -> Iri:
    return Iri(f"https://example.org/{name}")


def _chain_store(classes: list[str], individuals: list[str]) -> OntologyStore:
    """Classes declared and each a subclass of the next; individuals declared."""
    store = OntologyStore({"ex": "https://example.org/"})
    for name in classes:
        store.declare(_ex(name), EntityKind.OWL_CLASS)
    for name in individuals:
        store.declare(_ex(name), EntityKind.NAMED_INDIVIDUAL)
    for sub, sup in zip(classes, classes[1:]):
        store.add(SubClassOf(_ex(sub), _ex(sup)))
    return store


def test_d1_found_although_its_sameas_free_derivation_comes_late():
    # j reaches X on its own through a five-step subclass chain, and in two
    # steps through i. The shorter sameAs path must not hide the D1 witness.
    store = _chain_store(["E0", "E1", "E2", "E3", "D0", "X"], ["i", "j"])
    store.declare(_ex("Y"), EntityKind.OWL_CLASS)
    store.add(DisjointClasses(_ex("X"), _ex("Y")))
    store.add(SameIndividual(_ex("i"), _ex("j")))
    store.add(ClassAssertion(_ex("D0"), _ex("i")))
    store.add(ClassAssertion(_ex("E0"), _ex("j")))
    store.add(ClassAssertion(_ex("Y"), _ex("j")))
    mat = materialize(store)
    got = [(v.individual, v.class_a, v.class_b, v.rule.value) for v in mat.violations]
    assert got == [(_ex("j"), _ex("X"), _ex("Y"), "D1_DisjointTyping")]
    assert got == naive_violations(store)


def _long_chain_store() -> OntologyStore:
    """A 2,000-long sameAs chain whose ends carry Y and C499, hence C500 (a
    D2 clash), and one individual outside it that climbs a 500-deep
    subclass chain to C500 while asserted Y (a D1 clash)."""
    classes = [f"C{k:03d}" for k in range(501)]
    chain = [f"x{k:04d}" for k in range(2000)]
    store = _chain_store(classes, chain + ["w"])
    store.declare(_ex("Y"), EntityKind.OWL_CLASS)
    store.add(DisjointClasses(_ex("C500"), _ex("Y")))
    for a, b in zip(chain, chain[1:]):
        store.add(SameIndividual(_ex(a), _ex(b)))
    store.add(ClassAssertion(_ex("Y"), _ex("x0000")))
    store.add(ClassAssertion(_ex("C499"), _ex("x1999")))
    store.add(ClassAssertion(_ex("C000"), _ex("w")))
    store.add(ClassAssertion(_ex("Y"), _ex("w")))
    return store


def test_long_sameas_chain_beside_a_deep_subclass_chain():
    store = _long_chain_store()
    mat = materialize(store)
    got = [(v.individual, v.class_a, v.class_b, v.rule.value) for v in mat.violations]
    assert got == [
        (_ex("w"), _ex("C500"), _ex("Y"), "D1_DisjointTyping"),
        (_ex("x0000"), _ex("C500"), _ex("Y"), "D2_SameAsDisjoint"),
    ]
    assert got == naive_violations(store)


@pytest.mark.parametrize("make, seed", [
    *((make, seed) for make in (random_linked_store, random_small_store, random_wide_store)
      for seed in range(20)),
    pytest.param(lambda seed: _long_chain_store(), 0, id="long_chain"),
])
def test_sameas_block_members_share_one_closed_membership(make, seed):
    # check_consistency reads a block's merged membership off its least
    # member alone, which holds because R6 copies each class assertion
    # across the block.
    mat = materialize(make(seed))
    memberships: dict[Iri, set[Iri]] = {}
    for fact in mat.facts():
        if isinstance(fact, ClassAssertion):
            memberships.setdefault(fact.ind, set()).add(fact.cls)
    for block in set(mat.sameas_blocks.values()):
        assert len({frozenset(memberships.get(ind, ())) for ind in block}) == 1


@pytest.mark.parametrize("make, seed", [
    *((make, seed) for make in (random_store, random_linked_store, random_small_store)
      for seed in range(20)),
    pytest.param(lambda seed: _long_chain_store(), 0, id="long_chain"),
])
def test_memberships_are_the_naive_closed_classes(make, seed):
    store = make(seed)
    mat = materialize(store)
    expected: dict[Iri, set[Iri]] = {}
    for fact in (*store.axioms_of(ClassAssertion), *naive_inferred(store)):
        if isinstance(fact, ClassAssertion):
            expected.setdefault(fact.ind, set()).add(fact.cls)
    assert dict(mat.memberships) == expected
    assert all(type(classes) is frozenset for classes in mat.memberships.values())
    with pytest.raises(TypeError):
        mat.memberships[aieo("x")] = frozenset()


@pytest.mark.parametrize("make, seed", [
    *((make, seed) for make in (random_linked_store, random_small_store) for seed in range(20)),
    pytest.param(lambda seed: _long_chain_store(), 0, id="long_chain"),
])
def test_sameas_blocks_are_the_naive_peers(make, seed):
    store = make(seed)
    mat = materialize(store)
    expected: dict[Iri, tuple[Iri, ...]] = {}
    for ind in store.declared(EntityKind.NAMED_INDIVIDUAL):
        if ind not in expected:  # one slow oracle call per block
            block = tuple(sorted(naive_peers(store, ind)))
            expected.update(dict.fromkeys(block, block))
    assert dict(mat.sameas_blocks) == expected
    with pytest.raises(TypeError):
        mat.sameas_blocks[next(iter(expected))] = ()


def test_check_consistency_matches_materialize():
    store = _with_individuals("x")
    store.add(ClassAssertion(aieo("Framework"), aieo("x")))
    store.add(ClassAssertion(aieo("Principle"), aieo("x")))
    mat = materialize(store)
    assert list(check_consistency(mat)) == list(mat.violations)


def test_materialization_is_deterministic():
    store = random_store(9)
    a, b = materialize(store), materialize(store.copy())
    assert a.inferred == b.inferred
    assert a.violations == b.violations
    assert {f: a.traces[f] for f in a.inferred} == {f: b.traces[f] for f in b.inferred}


_GENERATORS = [random_store, random_linked_store, random_small_store]


@pytest.mark.parametrize("make", _GENERATORS)
@pytest.mark.parametrize("seed", range(8))
def test_traces_are_read_only_and_render_as_the_reference(make, seed):
    mat = materialize(make(seed))
    for fact in list(mat.traces)[:1]:
        with pytest.raises(TypeError):
            mat.traces[fact] = ()
        with pytest.raises(TypeError):
            del mat.traces[fact]
    assert set(mat.traces) == set(mat.inferred) and len(mat.traces) == len(mat.inferred)
    assert traces_to_json(mat) == reference_traces_to_json(mat)


@pytest.mark.parametrize("make", _GENERATORS)
@pytest.mark.parametrize("seed", range(8))
def test_traces_are_built_only_when_read(make, seed, monkeypatch):
    """materialize, its consistency check included, builds no
    InferenceTrace; a membership test builds none, and a read builds one
    fact's, once."""
    built: list[Axiom] = []

    def counting(conclusion, rule, premises):
        built.append(conclusion)
        return InferenceTrace(conclusion, rule, premises)

    monkeypatch.setattr("aieo.reasoner.InferenceTrace", counting)
    mat = materialize(make(seed))
    assert built == []
    for fact in sorted(mat.inferred, key=axiom_sort_key)[:3]:
        assert fact in mat.traces and built == []
        first = mat.traces[fact]
        assert built == [fact] * len(first)
        assert mat.traces[fact] is first and explain(mat, fact) == list(first)
        assert len(built) == len(first)
        del built[:]
