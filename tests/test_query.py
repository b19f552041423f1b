"""Tests for the pattern query engine and the four canned queries."""

from collections import Counter

import pytest

from aieo.errors import (
    MissingArgument,
    ParseError,
    UnknownConcept,
    UnsupportedFeature,
    ValidationError,
)
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    ObjectPropertyAssertion,
    SameIndividual,
)
from aieo.query import (
    CANNED_QUERY_NAMES,
    PRINCIPLES_BY_FRAMEWORK_QUERY,
    Query,
    ResultSet,
    TriplePattern,
    Variable,
    canned_query,
    evaluate,
    parse_query,
    triples_view,
)
from aieo.reasoner import materialize
from aieo.schema import (
    CONCEPT_LINK_PROPERTIES,
    OWL_SAME_AS,
    RDF_TYPE,
    REFERENCE,
    SHORT_DESCRIPTION,
    aieo,
    seed_schema,
)
from aieo.turtle import parse_turtle

from oracles import (
    brute_force_evaluate,
    flatten_triples,
    naive_peers,
    random_linked_store,
    random_query,
    random_small_store,
    random_store,
)

import random
import warnings

import aieo.query as query_module

# The reference text of the scenarios_for canned query (docs/query.md).
SCENARIOS_FOR_QUERY_TEMPLATE = (
    "SELECT DISTINCT ?scenario WHERE { <{concept}> aieo:scenario ?scenario }"
)


def _individuals(store, *names):
    for name in names:
        store.declare(aieo(name), EntityKind.NAMED_INDIVIDUAL)
    return store


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_select_distinct_with_join():
    q = parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY)
    assert q.distinct
    assert q.projected_variables == (Variable("framework"), Variable("principle"))
    assert q.patterns == (
        TriplePattern(Variable("framework"), RDF_TYPE, aieo("Framework")),
        TriplePattern(Variable("framework"), aieo("principle"), Variable("principle")),
    )


def test_parse_without_distinct():
    q = parse_query("SELECT ?x WHERE { ?x a aieo:Principle }")
    assert not q.distinct


def test_parse_full_iri_and_tagged_literal():
    q = parse_query(
        'SELECT ?s WHERE { ?s <https://w3id.org/aieo#label> "Fairness"@en }'
    )
    pattern = q.patterns[0]
    assert pattern.predicate == Iri("https://w3id.org/aieo#label")
    assert pattern.object == AnnotationValue("Fairness", "en")


def test_parse_string_escapes():
    q = parse_query('SELECT ?s WHERE { ?s aieo:reference "a\\"b\\nc" }')
    assert q.patterns[0].object == AnnotationValue('a"b\nc')


def test_parse_custom_prefixes():
    q = parse_query(
        "SELECT ?x WHERE { ?x a ex:Thing }", prefixes={"ex": "http://example.org/"}
    )
    assert q.patterns[0].object == Iri("http://example.org/Thing")


def test_parse_unknown_prefix_is_parse_error():
    with pytest.raises(ParseError, match="unknown prefix 'foaf:'"):
        parse_query("SELECT ?x WHERE { ?x a foaf:Person }")


def test_parse_error_carries_position():
    text = "SELECT ?x WHERE {\n  ?x == ?y\n}"
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    diag = exc.value.diagnostics[0]
    assert (diag.line, diag.severity) == (2, "error")


@pytest.mark.parametrize(
    "keyword",
    ["OPTIONAL", "FILTER", "UNION", "GRAPH", "SERVICE", "PREFIX", "BASE",
     "ORDER", "GROUP", "LIMIT", "OFFSET", "MINUS", "BIND", "VALUES"],
)
def test_parse_rejects_out_of_subset_keywords(keyword):
    with pytest.raises(UnsupportedFeature, match="outside the query subset"):
        parse_query(f"SELECT ?x WHERE {{ ?x a aieo:Framework . {keyword} }}")


def test_parse_rejects_nested_group():
    with pytest.raises(UnsupportedFeature, match="nested groups"):
        parse_query("SELECT ?x WHERE { { ?x a aieo:Framework } }")


def test_parse_rejects_literal_subject():
    with pytest.raises(ParseError, match="literal cannot be a subject"):
        parse_query('SELECT ?x WHERE { "x" a ?x }')


def test_parse_rejects_unprojectable_variable():
    with pytest.raises(ParseError, match="occurs in no pattern"):
        parse_query("SELECT ?missing WHERE { ?x a aieo:Framework }")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ASK { ?x a aieo:Framework }", "unexpected token"),
        ("SELECT WHERE { ?x a aieo:Framework }", "at least one"),
        ("SELECT ?x { ?x a aieo:Framework }", "expected WHERE"),
        ("SELECT ?x WHERE ?x a aieo:Framework", "expected '{'"),
        ("SELECT ?x WHERE { ?x a aieo:Framework", "unterminated WHERE group"),
        ("SELECT ?x WHERE { }", "no patterns"),
        ("SELECT ?x WHERE { ?x a aieo:Framework } .", "trailing content"),
        ("SELECT ?x WHERE { ?x a aieo:Framework } extra", "unexpected token"),
        ("SELECT ? WHERE { ?x a aieo:Framework }", "empty variable name"),
        ('SELECT ?x WHERE { ?x a "" }', "empty literal"),
        ('SELECT ?x WHERE { ?x aieo:reference "open', "unterminated string"),
        ("SELECT ?x WHERE { ?x <no-close ?y }", "unterminated IRI"),
    ],
)
def test_parse_malformed_queries(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_query(text)


def _diagnostic(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    [diag] = err.value.diagnostics
    return type(err.value), diag.message, diag.line, diag.column


@pytest.mark.parametrize(
    "construct,exc,message,column",
    [
        ('"fair"@', ParseError, "empty language tag", 14),
        ("_:b", UnsupportedFeature, "blank node labels are not supported", 14),
        ("[ ]", UnsupportedFeature, "blank nodes are not supported", 14),
        ("( )", UnsupportedFeature, "collections are not supported", 14),
        ('"a"^^x:y', UnsupportedFeature, "datatyped literals are not supported", 17),
        ("42", UnsupportedFeature, "numeric literals are not supported", 14),
        ('"""a"""', UnsupportedFeature, "long string literals are not supported", 14),
        ("<>", ParseError, "empty IRI reference", 14),
    ],
)
def test_constructs_outside_both_languages_get_turtle_diagnostics(
    construct, exc, message, column
):
    # The construct starts at line 2, column 14 of both texts.
    query = f"SELECT ?s WHERE {{\n?s aieo:note {construct} }}"
    turtle = f"@prefix ex: <https://example.org/> .\nex:s ex:note {construct} ."
    assert _diagnostic(parse_query, query) == (exc, message, 2, column)
    assert _diagnostic(parse_turtle, turtle) == (exc, message, 2, column)


def test_disconnected_pattern_warns():
    with pytest.warns(UserWarning, match="cartesian product"):
        parse_query("SELECT ?x WHERE { ?x a aieo:Framework . ?y a aieo:Keyword }")


def test_query_rejects_unknown_projection_directly():
    with pytest.raises(ValueError, match="occurs in no pattern"):
        Query((Variable("y"),), (TriplePattern(Variable("x"), RDF_TYPE, aieo("Framework")),))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _mat(store):
    return materialize(store)


def test_type_pattern_binds_class_members():
    store = _individuals(seed_schema(), "fair", "just")
    store.add(ClassAssertion(aieo("Principle"), aieo("fair")))
    store.add(ClassAssertion(aieo("Principle"), aieo("just")))
    rs = evaluate(parse_query("SELECT ?p WHERE { ?p a aieo:Principle }"), _mat(store))
    assert rs.values("p") == [aieo("fair"), aieo("just")]


def test_join_across_two_patterns():
    store = _individuals(seed_schema(), "fw", "fair", "other")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    store.add(ObjectPropertyAssertion(aieo("other"), aieo("principle"), aieo("fair")))
    rs = evaluate(parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY), _mat(store))
    assert rs.rows == (
        {Variable("framework"): aieo("fw"), Variable("principle"): aieo("fair")},
    )


def test_query_sees_inferred_facts():
    store = _individuals(seed_schema(), "fw", "fair")
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    rs = evaluate(parse_query("SELECT ?x WHERE { ?x a aieo:Principle }"), _mat(store))
    assert rs.values("x") == [aieo("fair")]  # typed by the range axiom


def test_symmetric_axioms_match_both_directions():
    store = _individuals(seed_schema(), "a", "b")
    store.add(SameIndividual(aieo("a"), aieo("b")))
    mat = _mat(store)
    forward = evaluate(
        parse_query("SELECT ?x WHERE { aieo:a owl:sameAs ?x }"), mat
    )
    backward = evaluate(
        parse_query("SELECT ?x WHERE { ?x owl:sameAs aieo:b }"), mat
    )
    assert forward.values("x") == [aieo("b")]
    assert backward.values("x") == [aieo("a")]


def test_meta_class_typing_lists_declared_classes():
    rs = evaluate(
        parse_query("SELECT ?c WHERE { ?c a owl:Class }"), _mat(seed_schema())
    )
    assert len(rs) == 19
    assert aieo("Framework") in rs.values("c")


def test_literal_object_pattern_matches_annotation():
    store = _individuals(seed_schema(), "fair")
    store.declare(aieo("note"), EntityKind.ANNOTATION_PROPERTY)
    store.add(AnnotationAssertion(aieo("fair"), aieo("note"), AnnotationValue("hi", "en")))
    store.add(AnnotationAssertion(aieo("fair"), aieo("note"), AnnotationValue("hi")))
    mat = _mat(store)
    tagged = evaluate(parse_query('SELECT ?s WHERE { ?s aieo:note "hi"@en }'), mat)
    plain = evaluate(parse_query('SELECT ?s WHERE { ?s aieo:note "hi" }'), mat)
    assert tagged.values("s") == [aieo("fair")]
    assert plain.values("s") == [aieo("fair")]


def test_distinct_collapses_duplicate_rows():
    store = _individuals(seed_schema(), "fw", "fair")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("requirement"), aieo("fair")))
    mat = _mat(store)
    text = "SELECT {} ?fw WHERE {{ ?fw a aieo:Framework . ?fw ?p aieo:fair }}"
    plain = evaluate(parse_query(text.format("")), mat)
    distinct = evaluate(parse_query(text.format("DISTINCT")), mat)
    assert len(plain) > len(distinct) == 1


def test_rows_are_sorted():
    store = _individuals(seed_schema(), "z", "a", "m")
    for name in ("z", "a", "m"):
        store.add(ClassAssertion(aieo("Keyword"), aieo(name)))
    rs = evaluate(parse_query("SELECT ?k WHERE { ?k a aieo:Keyword }"), _mat(store))
    assert rs.values("k") == sorted(rs.values("k"))


def test_empty_result_keeps_header():
    rs = evaluate(
        parse_query("SELECT ?x WHERE { ?x a aieo:Framework }"), _mat(seed_schema())
    )
    assert rs.variables == (Variable("x"),)
    assert rs.rows == ()


def test_join_result_is_order_independent():
    store = _individuals(seed_schema(), "fw", "fair")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    mat = _mat(store)
    ab = "SELECT ?f ?p WHERE { ?f a aieo:Framework . ?f aieo:principle ?p }"
    ba = "SELECT ?f ?p WHERE { ?f aieo:principle ?p . ?f a aieo:Framework }"
    assert evaluate(parse_query(ab), mat) == evaluate(parse_query(ba), mat)


def _assertion_facts(mat):
    return {
        ax
        for ax in mat.facts()
        if isinstance(ax, (ClassAssertion, ObjectPropertyAssertion))
    }


def test_evaluation_matches_brute_force():
    for seed in range(20):
        store = random_store(seed)
        mat = materialize(store)
        triples = flatten_triples(store, _assertion_facts(mat))
        rng = random.Random(seed + 7000)
        for _ in range(3):
            patterns, projected, distinct = random_query(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # random patterns may be disconnected
                query = Query(projected, patterns, distinct=distinct)
            got = evaluate(query, mat)
            want = brute_force_evaluate(patterns, projected, triples, distinct)
            got_keys = Counter(frozenset(row.items()) for row in got.rows)
            want_keys = Counter(frozenset(row) for row in want)
            assert got_keys == want_keys, (seed, query)


def _index_path_queries(rng, triples):
    """Patterns that reach each index path, with constants drawn from the
    triples so most of them match: a constant subject, a variable
    predicate, a constant IRI object, a literal object and a variable
    repeated within one pattern."""
    x, y, z, p = (Variable(v) for v in ("x", "y", "z", "p"))
    s0, p0, o0 = rng.choice(sorted(triples, key=repr))
    iri_objects = sorted({t[2] for t in triples if isinstance(t[2], Iri)})
    literals = sorted({t[2] for t in triples if isinstance(t[2], AnnotationValue)}, key=repr)
    queries = [
        ((x, p), [TriplePattern(s0, p, x)]),
        ((p, y), [TriplePattern(x, p, y), TriplePattern(y, RDF_TYPE, z)]),
        ((x,), [TriplePattern(x, p0, o0), TriplePattern(x, RDF_TYPE, y)]),
        ((x, p), [TriplePattern(x, p, rng.choice(iri_objects))]),
        ((x, y), [TriplePattern(x, p, x), TriplePattern(x, y, z)]),
        ((p,), [TriplePattern(x, p, x)]),
        ((x, y), [TriplePattern(x, p, y), TriplePattern(y, p, x)]),
    ]
    if literals:
        lit = rng.choice(literals)
        queries.append(((x, p), [TriplePattern(x, p, lit)]))
        queries.append(((x, y), [TriplePattern(x, p, lit), TriplePattern(x, p, y)]))
    return queries


def test_index_paths_match_brute_force():
    matched = set()
    for seed in range(8):
        for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
            mat = materialize(store)
            triples = flatten_triples(store, _assertion_facts(mat))
            rng = random.Random(seed + 9100)
            for n, (projected, patterns) in enumerate(_index_path_queries(rng, triples)):
                distinct = (seed + n) % 2 == 0
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    query = Query(projected, tuple(patterns), distinct=distinct)
                got = evaluate(query, mat)
                want = brute_force_evaluate(patterns, projected, triples, distinct)
                assert Counter(frozenset(r.items()) for r in got.rows) == Counter(
                    frozenset(r) for r in want
                ), (seed, query)
                if want:
                    matched.add(n)
    assert matched == set(range(9))  # every query shape matched somewhere


def test_index_is_built_once_per_materialization(monkeypatch):
    calls = []
    original = query_module.triples_view

    def counting(mat):
        calls.append(mat)
        return original(mat)

    monkeypatch.setattr(query_module, "triples_view", counting)
    store = _individuals(seed_schema(), "fw", "fair")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    query = parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY)
    mat = _mat(store)
    first, second = evaluate(query, mat), evaluate(query, mat)
    assert first == second
    assert first.rows == ({Variable("framework"): aieo("fw"), Variable("principle"): aieo("fair")},)
    assert calls == [mat]

    # a new materialization of the grown store sees the new facts
    store.declare(aieo("fw2"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw2")))
    store.add(ObjectPropertyAssertion(aieo("fw2"), aieo("principle"), aieo("fair")))
    grown = _mat(store)
    assert evaluate(query, grown).values("framework") == [aieo("fw"), aieo("fw2")]
    assert len(calls) == 2 and calls[1] is grown


def test_evaluation_is_monotone_under_growth():
    store = _individuals(seed_schema(), "fw", "fair")
    store.add(ObjectPropertyAssertion(aieo("fw"), aieo("principle"), aieo("fair")))
    query = parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY)
    before = {frozenset(r.items()) for r in evaluate(query, _mat(store)).rows}
    store.declare(aieo("fw2"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw2")))
    after = {frozenset(r.items()) for r in evaluate(query, _mat(store)).rows}
    assert before <= after


def test_triples_view_has_no_duplicate_blowup():
    # The two generators together produce every axiom type, so this also
    # pins each type's triples to the oracle's.
    for seed in range(6):
        for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
            mat = materialize(store)
            triples = triples_view(mat)
            want = flatten_triples(store, _assertion_facts(mat))
            assert len(triples) == len(want)
            assert set(triples) == want


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_tsv_rendering():
    rs = ResultSet(
        (Variable("a"), Variable("b")),
        ({Variable("a"): aieo("x"), Variable("b"): AnnotationValue("two\nlines")},),
    )
    assert rs.to_tsv() == (
        "?a\t?b\n"
        'https://w3id.org/aieo#x\t"two\\nlines"\n'
    )


def test_json_rendering():
    rs = ResultSet(
        (Variable("a"),),
        ({Variable("a"): AnnotationValue("hi", "en")},),
    )
    assert rs.to_json() == '[\n  {\n    "a": "\\"hi\\"@en"\n  }\n]\n'


# ---------------------------------------------------------------------------
# Canned queries
# ---------------------------------------------------------------------------


def _two_framework_store():
    store = _individuals(
        seed_schema(), "fw1", "fw2", "fair1", "fair2", "other"
    )
    store.add(ClassAssertion(aieo("Framework"), aieo("fw1")))
    store.add(ClassAssertion(aieo("Framework"), aieo("fw2")))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("fair1")))
    store.add(ObjectPropertyAssertion(aieo("fw2"), aieo("requirement"), aieo("fair2")))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("other")))
    store.add(SameIndividual(aieo("fair1"), aieo("fair2")))
    store.add(AnnotationAssertion(aieo("fair1"), SHORT_DESCRIPTION, AnnotationValue("be fair")))
    store.add(AnnotationAssertion(aieo("fair2"), REFERENCE, AnnotationValue("ch. 2")))
    return store


def test_canned_names_are_stable():
    assert CANNED_QUERY_NAMES == (
        "principles_by_framework",
        "describe_concept",
        "scenarios_for",
        "unique_concepts",
    )
    with pytest.raises(ValueError, match="unknown canned query"):
        canned_query("nope", _mat(seed_schema()))


def test_principles_by_framework_equals_its_query_text():
    for seed in (0, 4, 9):
        mat = materialize(random_store(seed))
        assert canned_query("principles_by_framework", mat) == evaluate(
            parse_query(PRINCIPLES_BY_FRAMEWORK_QUERY), mat
        )


def test_describe_concept_joins_annotations_from_both_frameworks():
    mat = _mat(_two_framework_store())
    rs = canned_query("describe_concept", mat, aieo("fair1"))
    assert rs.variables == tuple(
        Variable(v) for v in ("framework", "concept", "property", "value")
    )
    rows = {tuple(r[v] for v in rs.variables) for r in rs.rows}
    assert rows == {
        (aieo("fw1"), aieo("fair1"), SHORT_DESCRIPTION, AnnotationValue("be fair")),
        (aieo("fw2"), aieo("fair2"), REFERENCE, AnnotationValue("ch. 2")),
    }
    # the merged peer answers the same question
    assert canned_query("describe_concept", mat, aieo("fair2")) == rs


def test_describe_concept_without_merge_stays_local():
    store = _two_framework_store()
    unmerged = _individuals(seed_schema(), "fw1", "fair1")
    unmerged.add(ClassAssertion(aieo("Framework"), aieo("fw1")))
    unmerged.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("fair1")))
    unmerged.add(
        AnnotationAssertion(aieo("fair1"), SHORT_DESCRIPTION, AnnotationValue("be fair"))
    )
    rs = canned_query("describe_concept", _mat(unmerged), aieo("fair1"))
    assert [r[Variable("framework")] for r in rs.rows] == [aieo("fw1")]
    # the owl:sameAs IRI cannot become an object property that merges nothing
    with pytest.raises(ValidationError, match="reserved predicate"):
        unmerged.declare(OWL_SAME_AS, EntityKind.OBJECT_PROPERTY)


def test_scenarios_for_equals_its_query_text_on_plain_stores():
    store = _individuals(seed_schema(), "fair", "hiring")
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("scenario"), aieo("hiring")))
    merged = _individuals(store.copy(), "fair2", "loans")
    merged.add(SameIndividual(aieo("fair"), aieo("fair2")))
    merged.add(ObjectPropertyAssertion(aieo("fair2"), aieo("useCase"), aieo("loans")))
    text = SCENARIOS_FOR_QUERY_TEMPLATE.replace("{concept}", str(aieo("fair")))
    for st, want in ((store, ["hiring"]), (merged, ["hiring", "loans"])):
        mat = _mat(st)
        rs = canned_query("scenarios_for", mat, aieo("fair"))
        assert rs == evaluate(parse_query(text), mat)
        assert rs.values("scenario") == [aieo(n) for n in want]


def test_scenarios_for_reaches_peers_and_equivalent_properties():
    store = _individuals(seed_schema(), "fair1", "fair2", "hiring", "loans")
    store.add(SameIndividual(aieo("fair1"), aieo("fair2")))
    store.add(ObjectPropertyAssertion(aieo("fair2"), aieo("useCase"), aieo("hiring")))
    store.add(ObjectPropertyAssertion(aieo("fair1"), aieo("application"), aieo("loans")))
    rs = canned_query("scenarios_for", _mat(store), aieo("fair1"))
    assert rs.variables == (Variable("scenario"),)
    assert rs.values("scenario") == [aieo("hiring"), aieo("loans")]


def test_unique_concepts_drops_shared_ones():
    mat = _mat(_two_framework_store())
    rs = canned_query("unique_concepts", mat, aieo("fw1"))
    assert rs.variables == (Variable("concept"),)
    assert rs.values("concept") == [aieo("other")]  # fair1 is shared with fw2
    assert canned_query("unique_concepts", mat, aieo("fw2")).values("concept") == []


def test_unique_concepts_keeps_unshared_merges():
    # a sameAs peer that no other framework links to does not disqualify
    store = _individuals(seed_schema(), "fw1", "fair1", "fair2")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw1")))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("fair1")))
    store.add(SameIndividual(aieo("fair1"), aieo("fair2")))
    rs = canned_query("unique_concepts", _mat(store), aieo("fw1"))
    assert rs.values("concept") == [aieo("fair1")]


def _sameas_chain_store(n):
    """Concepts c0..c(n-1) joined by a sameAs chain (added in shuffled
    order), two frameworks linking its two ends, annotations and scenario
    links along it, and a concept outside the chain."""
    store = _individuals(
        seed_schema(), "fw1", "fw2", "lone", "s1", "s2", "s3",
        *(f"c{i}" for i in range(n)),
    )
    links = [(aieo(f"c{i}"), aieo(f"c{i + 1}")) for i in range(n - 1)]
    random.Random(n).shuffle(links)
    for a, b in links:
        store.add(SameIndividual(a, b))
    last = aieo(f"c{n - 1}")
    for fw in ("fw1", "fw2"):
        store.add(ClassAssertion(aieo("Framework"), aieo(fw)))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("c0")))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("lone")))
    store.add(ObjectPropertyAssertion(aieo("fw2"), aieo("requirement"), last))
    store.add(AnnotationAssertion(aieo("c0"), SHORT_DESCRIPTION, AnnotationValue("first")))
    store.add(AnnotationAssertion(last, REFERENCE, AnnotationValue("last")))
    store.add(AnnotationAssertion(aieo(f"c{n // 2}"), SHORT_DESCRIPTION, AnnotationValue("mid")))
    store.add(AnnotationAssertion(aieo("lone"), REFERENCE, AnnotationValue("alone")))
    store.add(ObjectPropertyAssertion(aieo(f"c{n // 3}"), aieo("scenario"), aieo("s1")))
    store.add(ObjectPropertyAssertion(last, aieo("example"), aieo("s2")))
    store.add(ObjectPropertyAssertion(aieo("lone"), aieo("scenario"), aieo("s3")))
    return store


def _oracle_framework_links(store):
    frameworks = {
        ax.ind for ax in store.axioms_of(ClassAssertion) if ax.cls == aieo("Framework")
    }
    props = {aieo(p) for p in CONCEPT_LINK_PROPERTIES.values()}
    return {
        (ax.subject, ax.object)
        for ax in store.axioms_of(ObjectPropertyAssertion)
        if ax.subject in frameworks and ax.prop in props
    }


def _oracle_describe(store, links, block):
    """describe_concept rows: every description of a block member, paired
    with each framework asserting a link to that member."""
    return {
        (fw, ax.subject, ax.prop, ax.value)
        for ax in store.axioms_of(AnnotationAssertion)
        if ax.subject in block and ax.prop in (SHORT_DESCRIPTION, REFERENCE)
        for fw, linked in links
        if linked == ax.subject
    }


def _oracle_scenarios(mat, block):
    """scenarios_for values: scenario-like objects of any block member."""
    return sorted({
        fact.object
        for fact in mat.facts()
        if isinstance(fact, ObjectPropertyAssertion)
        and fact.subject in block
        and fact.prop in (aieo("application"), aieo("example"),
                          aieo("scenario"), aieo("useCase"))
    })


def _oracle_unique(store, links, framework, peers_of):
    """unique_concepts values: the framework's asserted principles and
    requirements whose other block members no other framework links to."""
    own = sorted({
        ax.object
        for ax in store.axioms_of(ObjectPropertyAssertion)
        if ax.subject == framework and ax.prop in (aieo("principle"), aieo("requirement"))
    })
    return [
        concept for concept in own
        if not any(
            linker != framework
            for peer in peers_of(concept) - {concept}
            for linker, linked in links
            if linked == peer
        )
    ]


def _assert_canned_match_oracles(store, mat, concepts, frameworks, peers_of):
    links = _oracle_framework_links(store)
    for concept in concepts:
        block = peers_of(concept)
        rs = canned_query("describe_concept", mat, concept)
        want = _oracle_describe(store, links, block)
        got = [tuple(r[v] for v in rs.variables) for r in rs.rows]
        assert len(got) == len(want) and set(got) == want, concept
        assert canned_query("scenarios_for", mat, concept).values("scenario") == (
            _oracle_scenarios(mat, block)
        ), concept
    for fw in frameworks:
        assert canned_query("unique_concepts", mat, fw).values("concept") == (
            _oracle_unique(store, links, fw, peers_of)
        ), fw


def test_canned_queries_on_a_long_sameas_chain_match_naive_peers():
    store = _sameas_chain_store(1600)
    mat = _mat(store)
    chain = naive_peers(store, aieo("c0"))  # one slow oracle call per block
    assert len(chain) == 1600
    peers = {c: chain for c in (aieo("c0"), aieo("c800"), aieo("c1599"))}
    peers[aieo("lone")] = naive_peers(store, aieo("lone"))
    _assert_canned_match_oracles(
        store, mat, peers, (aieo("fw1"), aieo("fw2")), peers.__getitem__
    )
    assert canned_query("unique_concepts", mat, aieo("fw1")).values("concept") == [aieo("lone")]


def test_canned_queries_on_random_stores_match_oracles():
    for seed in range(30):
        store = random_linked_store(seed)
        individuals = store.declared(EntityKind.NAMED_INDIVIDUAL)
        _assert_canned_match_oracles(
            store, _mat(store), individuals, individuals,
            lambda ind: naive_peers(store, ind),
        )


@pytest.mark.parametrize("name", ["describe_concept", "scenarios_for", "unique_concepts"])
def test_argument_queries_require_an_argument(name):
    with pytest.raises(MissingArgument, match=name):
        canned_query(name, _mat(seed_schema()))


@pytest.mark.parametrize("name", ["describe_concept", "scenarios_for", "unique_concepts"])
def test_argument_queries_reject_non_individuals(name):
    with pytest.raises(UnknownConcept, match="not a declared individual"):
        canned_query(name, _mat(seed_schema()), aieo("Framework"))


def test_canned_queries_are_deterministic():
    store = _two_framework_store()
    a = canned_query("describe_concept", _mat(store), aieo("fair1"))
    b = canned_query("describe_concept", _mat(store.copy()), aieo("fair1"))
    assert a == b
