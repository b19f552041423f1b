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
    OntologyStore,
    SameIndividual,
    render_literal,
    term_key,
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
    AIEO_NS,
    CONCEPT_LINK_PROPERTIES,
    DEFAULT_PREFIXES,
    OWL_OBJECT_PROPERTY,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
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
    random_literal_scenario_store,
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
    assert exc.value.line == 2
    assert str(exc.value) == "2:6: error: unexpected character '='"


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
    return type(err.value), err.value.message, err.value.line, err.value.column


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


def test_disconnected_pattern_warning_names_the_callers_line():
    x, y = Variable("x"), Variable("y")
    patterns = (TriplePattern(x, RDF_TYPE, aieo("Framework")),
                TriplePattern(y, RDF_TYPE, aieo("Keyword")))
    for build in (
        lambda: Query((x,), patterns),
        lambda: parse_query("SELECT ?x WHERE { ?x a aieo:Framework . ?y a aieo:Keyword }"),
    ):
        with pytest.warns(UserWarning, match="cartesian product") as record:
            build()
        assert record[0].filename == __file__
        assert record[0].lineno == build.__code__.co_firstlineno


def test_query_rejects_unknown_projection_directly():
    with pytest.raises(ValueError, match="occurs in no pattern"):
        Query((Variable("y"),), (TriplePattern(Variable("x"), RDF_TYPE, aieo("Framework")),))


def _query_text(query, prefixed):
    """The query as text. Each IRI is written as ``<IRI>``, or, when
    ``prefixed``, as ``a`` or an ``aieo:`` name where it has one."""

    def term(t):
        if isinstance(t, Variable):
            return f"?{t}"
        if isinstance(t, AnnotationValue):
            return render_literal(t)
        if prefixed and t == RDF_TYPE:
            return "a"
        if prefixed and t.startswith(AIEO_NS):
            return "aieo:" + t[len(AIEO_NS):]
        return f"<{t}>"

    head = "SELECT DISTINCT" if query.distinct else "SELECT"
    variables = " ".join(f"?{v}" for v in query.projected_variables)
    body = " . ".join(
        " ".join(term(t) for t in (p.subject, p.predicate, p.object)) for p in query.patterns
    )
    return f"{head} {variables} WHERE {{ {body} }}"


@pytest.mark.filterwarnings("ignore::UserWarning")  # random patterns may be disconnected
def test_query_text_round_trips_random_queries():
    rng = random.Random(20261018)
    for i in range(400):
        patterns, projected, distinct = random_query(rng)
        query = Query(projected, tuple(patterns), distinct)
        text = _query_text(query, prefixed=i % 2 == 1)
        assert parse_query(text) == query, text


@pytest.mark.parametrize(
    "value",
    [
        AnnotationValue('say "hi"'),
        AnnotationValue("back\\slash, tab\t, new\nline, return\r"),
        AnnotationValue("fair", "en"),
        AnnotationValue("équité", "fr-CA"),
        AnnotationValue("公平性", "zh-Hans"),
        AnnotationValue("Ⅻ ² ½ — naïve 🙂"),
        AnnotationValue("# not a comment ; , . { } ?x <x> a:b"),
    ],
    ids=repr,
)
def test_query_text_round_trips_literal_objects(value):
    x = Variable("x")
    query = Query((x,), (TriplePattern(x, SHORT_DESCRIPTION, value),))
    for prefixed in (False, True):
        assert parse_query(_query_text(query, prefixed)) == query


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
    assert rs.rows == ((aieo("fw"), aieo("fair")),)


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


def test_a_column_mixing_iris_and_literals_sorts_iris_first():
    store = _individuals(seed_schema(), "fair", "just", "audit")
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("requirement"), aieo("audit")))
    for name in ("fair", "just"):
        store.add(ClassAssertion(aieo("Principle"), aieo(name)))
        for value in (AnnotationValue("b"), AnnotationValue("a", "en"), AnnotationValue("a")):
            store.add(AnnotationAssertion(aieo(name), SHORT_DESCRIPTION, value))
    mat = _mat(store)
    triples = flatten_triples(store, _assertion_facts(mat))
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    # ?o of both Principles, where each row comes once per Principle except
    # the object only one of them has, and ?p ?o of one of them
    for projected, patterns, plain_rows, distinct_rows in (
        ((o,), [TriplePattern(s, p, o), TriplePattern(s, RDF_TYPE, aieo("Principle"))], 11, 6),
        ((p, o), [TriplePattern(aieo("fair"), p, o)], 6, 6),
    ):
        sizes = []
        for distinct in (False, True):
            got = evaluate(Query(projected, tuple(patterns), distinct=distinct), mat)
            want = brute_force_evaluate(patterns, projected, triples, distinct)
            assert _bound(got) == Counter(frozenset(r) for r in want)
            _assert_rows_in_term_key_order(got)
            assert {type(t) for t in got.values(o)} == {Iri, AnnotationValue}
            sizes.append(len(got))
        assert sizes == [plain_rows, distinct_rows]


def test_join_order_follows_the_bindings():
    store = _individuals(seed_schema(), "fair", "just", "audit")
    store.add(ClassAssertion(aieo("Principle"), aieo("fair")))
    store.add(ClassAssertion(aieo("Principle"), aieo("just")))
    store.add(ObjectPropertyAssertion(aieo("fair"), aieo("requirement"), aieo("audit")))
    mat = _mat(store)
    query = parse_query(
        "SELECT ?x ?p ?y WHERE { ?x a aieo:Principle . ?y a aieo:Requirement . ?x ?p ?y . }"
    )
    order = query_module._join_order(query.patterns, query_module._index_of(mat))
    assert [pattern for _, _, pattern in order][1] == query.patterns[2]
    assert evaluate(query, mat).rows == ((aieo("fair"), aieo("requirement"), aieo("audit")),)


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
            assert _bound(got) == Counter(frozenset(row) for row in want), (seed, query)
            _assert_rows_in_term_key_order(got)


def _bound(rs):
    """Each row as its set of ``(variable, term)`` pairs, the shape of
    :func:`brute_force_evaluate`'s rows, counted."""
    return Counter(frozenset(zip(rs.variables, row)) for row in rs.rows)


def _assert_rows_in_term_key_order(rs):
    keys = [tuple(map(term_key, row)) for row in rs.rows]
    assert keys == sorted(keys)


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


def _join_shape_queries(rng, triples):
    """Three- and four-pattern stars, chains and cycles, and the pattern
    kinds a join plan treats apart: a variable predicate shared by two
    patterns, a variable repeated in a pattern whose other position an
    earlier pattern binds, a pattern every position of which is fixed by
    its turn, and one with none fixed. Constant predicates follow a walk
    through the triples, so most shapes match."""
    x, y, z, w, v, c, d, e, p, q = (Variable(n) for n in "xyzwvcdepq")
    ordered = sorted(triples, key=repr)
    by_subject = {}
    for t in ordered:
        by_subject.setdefault(t[0], []).append(t)
    first = rng.choice(ordered)
    second = rng.choice(by_subject.get(first[2], ordered))
    third = rng.choice(by_subject.get(second[2], ordered))
    p1, p2 = first[1], second[1]
    p3 = rng.choice(by_subject[first[0]])[1]
    s0, o0 = first[0], first[2]
    loop = rng.choice([t for t in ordered if t[0] == t[2]] or ordered)
    into_loop = rng.choice([t for t in ordered if t[2] == loop[0]] or ordered)
    return [
        # chains
        ((x, z), [TriplePattern(x, p1, y), TriplePattern(y, p2, z), TriplePattern(z, p, w)]),
        ((x, w, v), [TriplePattern(x, p1, y), TriplePattern(y, p2, z),
                     TriplePattern(z, third[1], w), TriplePattern(w, p, v)]),
        # stars
        ((x, y, z), [TriplePattern(x, p1, y), TriplePattern(x, p3, z),
                     TriplePattern(x, RDF_TYPE, c)]),
        ((x, w), [TriplePattern(x, p1, o0), TriplePattern(x, p3, z),
                  TriplePattern(x, RDF_TYPE, c), TriplePattern(x, p, w)]),
        # cycles
        ((x, c, d), [TriplePattern(x, RDF_TYPE, c), TriplePattern(c, RDFS_SUBCLASSOF, d),
                     TriplePattern(x, RDF_TYPE, d)]),
        ((x, d, e), [TriplePattern(x, RDF_TYPE, c), TriplePattern(c, RDFS_SUBCLASSOF, d),
                     TriplePattern(e, RDFS_SUBCLASSOF, d), TriplePattern(x, RDF_TYPE, e)]),
        ((x, y, z), [TriplePattern(x, p1, y), TriplePattern(y, p2, z), TriplePattern(z, q, x)]),
        # a variable predicate shared by two patterns
        ((p, y, x), [TriplePattern(s0, p, y), TriplePattern(x, p, o0)]),
        ((x, p, z), [TriplePattern(x, p, y), TriplePattern(y, p, z)]),
        # a repeated variable beside a position bound earlier (?p joins, ?z
        # repeats), a variable joined at two positions, and a reflexive triple
        ((x, p, z), [TriplePattern(x, p, y), TriplePattern(z, p, z)]),
        ((x, y, q), [TriplePattern(x, p1, y), TriplePattern(y, q, y)]),
        ((x, y), [TriplePattern(x, into_loop[1], y), TriplePattern(y, loop[1], y)]),
        # a repeated variable in a level that probes on an earlier binding
        ((p, y), [TriplePattern(p, RDF_TYPE, OWL_OBJECT_PROPERTY), TriplePattern(y, p, y)]),
        # every position fixed: by constants, then by earlier patterns
        ((x,), [TriplePattern(s0, p1, o0), TriplePattern(x, p1, o0)]),
        ((y, q), [TriplePattern(s0, p1, y), TriplePattern(s0, q, z), TriplePattern(y, q, z)]),
        # none fixed: the second pattern shares nothing
        ((x, q), [TriplePattern(x, p1, o0), TriplePattern(y, q, z)]),
    ]


def _level_kinds(query, mat, triples, calls):
    """How many joined levels of one evaluation that ran every level read
    their constant candidates once into a table, how many probed once per
    binding, and how many of those probes repeat a free variable, from its
    ``candidates`` calls in order: a level reads once with its constants
    alone, or probes with its joined positions fixed too, once for each of
    the brute-force rows of the patterns placed before it."""
    index = query_module._index_of(mat)
    order = [p for _, _, p in query_module._join_order(query.patterns, index)]
    tables = probes = repeating = at = 0
    bound = set()
    for n, pattern in enumerate(order):
        terms = (pattern.subject, pattern.predicate, pattern.object)
        constants = sum(not isinstance(t, Variable) for t in terms)
        if bound & pattern.variables() and len(calls[at]) > constants:
            probes += 1
            free = [t for t in terms if isinstance(t, Variable) and t not in bound]
            repeating += len(free) > len(set(free))
            at += len(brute_force_evaluate(order[:n], (), triples, False))
        else:
            tables += bool(bound & pattern.variables())
            at += 1
        bound |= pattern.variables()
    assert at == len(calls)
    return tables, probes, repeating


def test_index_paths_match_brute_force(monkeypatch):
    calls = []
    candidates = query_module._TripleIndex.candidates

    def recording(index, fixed):
        calls.append(list(fixed))
        return candidates(index, fixed)

    monkeypatch.setattr(query_module._TripleIndex, "candidates", recording)
    matched = set()
    tables = probes = repeating = 0
    for seed in range(8):
        for store in (random_store(seed, schema_mutations=True), random_small_store(seed)):
            mat = materialize(store)
            triples = flatten_triples(store, _assertion_facts(mat))
            rng = random.Random(seed + 9100)
            queries = [*_join_shape_queries(rng, triples), *_index_path_queries(rng, triples)]
            for n, (projected, patterns) in enumerate(queries):
                distinct = (seed + n) % 2 == 0
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # some shapes are cartesian products
                    query = Query(projected, tuple(patterns), distinct=distinct)
                calls.clear()
                got = evaluate(query, mat)
                want = brute_force_evaluate(patterns, projected, triples, distinct)
                assert _bound(got) == Counter(frozenset(r) for r in want), (seed, query)
                _assert_rows_in_term_key_order(got)
                if want:
                    matched.add((n, distinct))
                    table, probe, repeats = _level_kinds(query, mat, triples, calls)
                    tables, probes = tables + table, probes + probe
                    repeating += repeats
    # every query shape matched somewhere, with DISTINCT and without
    assert matched == {(n, d) for n in range(25) for d in (False, True)}
    # the inputs took both sides of the table-or-probe rule, and a probed
    # level filtered its candidates on a repeated variable
    assert tables > 0 and probes > 0 and repeating > 0, (tables, probes, repeating)


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
    assert first.rows == ((aieo("fw"), aieo("fair")),)
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
    store.add(ClassAssertion(aieo("Framework"), aieo("fw")))
    before = set(evaluate(query, _mat(store)).rows)
    store.declare(aieo("fw2"), EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), aieo("fw2")))
    store.add(ObjectPropertyAssertion(aieo("fw2"), aieo("principle"), aieo("fair")))
    after = set(evaluate(query, _mat(store)).rows)
    assert before and before < after


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
        ((aieo("x"), AnnotationValue("two\nlines")),),
    )
    assert rs.to_tsv() == (
        "?a\t?b\n"
        'https://w3id.org/aieo#x\t"two\\nlines"\n'
    )


def test_json_rendering():
    rs = ResultSet(
        (Variable("a"),),
        ((AnnotationValue("hi", "en"),),),
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
    assert set(rs.rows) == {
        (aieo("fw1"), aieo("fair1"), SHORT_DESCRIPTION, AnnotationValue("be fair")),
        (aieo("fw2"), aieo("fair2"), REFERENCE, AnnotationValue("ch. 2")),
    }
    # the merged peer answers the same question
    assert canned_query("describe_concept", mat, aieo("fair2")) == rs


def test_describe_concept_reads_only_literal_descriptions():
    # Without the seed schema, aieo:shortDescription may be an object
    # property; its assertions, asserted or copied over sameAs, are no
    # descriptions.
    store = OntologyStore(DEFAULT_PREFIXES)
    store.declare(aieo("Framework"), EntityKind.OWL_CLASS)
    for prop in ("principle", "shortDescription"):
        store.declare(aieo(prop), EntityKind.OBJECT_PROPERTY)
    store.declare(REFERENCE, EntityKind.ANNOTATION_PROPERTY)
    _individuals(store, "fw1", "fair1", "fair2", "note")
    store.add(ClassAssertion(aieo("Framework"), aieo("fw1")))
    store.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("fair1")))
    store.add(ObjectPropertyAssertion(aieo("fair2"), SHORT_DESCRIPTION, aieo("note")))
    store.add(SameIndividual(aieo("fair1"), aieo("fair2")))
    store.add(AnnotationAssertion(aieo("fair1"), REFERENCE, AnnotationValue("s. 3")))
    rs = canned_query("describe_concept", _mat(store), aieo("fair1"))
    assert rs.rows == ((aieo("fw1"), aieo("fair1"), REFERENCE, AnnotationValue("s. 3")),)


def test_describe_concept_without_merge_stays_local():
    store = _two_framework_store()
    unmerged = _individuals(seed_schema(), "fw1", "fair1")
    unmerged.add(ClassAssertion(aieo("Framework"), aieo("fw1")))
    unmerged.add(ObjectPropertyAssertion(aieo("fw1"), aieo("principle"), aieo("fair1")))
    unmerged.add(
        AnnotationAssertion(aieo("fair1"), SHORT_DESCRIPTION, AnnotationValue("be fair"))
    )
    rs = canned_query("describe_concept", _mat(unmerged), aieo("fair1"))
    assert rs.values("framework") == [aieo("fw1")]
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


# aieo:application declared an annotation property: a concept then holds
# an IRI and literal scenarios at once, or literals that differ only in
# their language tag.
_LITERAL_SCENARIOS = {
    "iri_and_literals": (
        'aieo:loans a owl:NamedIndividual .\n'
        'aieo:x aieo:scenario aieo:loans .\n'
        'aieo:x aieo:application "hiring" , "hiring"@en , "audit" .\n',
        [aieo("loans"), AnnotationValue("audit"), AnnotationValue("hiring"),
         AnnotationValue("hiring", "en")],
    ),
    "literals_only": (
        'aieo:x aieo:application "hiring"@en , "hiring" .\n',
        [AnnotationValue("hiring"), AnnotationValue("hiring", "en")],
    ),
}


@pytest.mark.parametrize("mix", sorted(_LITERAL_SCENARIOS))
def test_scenarios_for_sorts_iris_then_literals(mix):
    body, want = _LITERAL_SCENARIOS[mix]
    store = parse_turtle(
        f"@prefix aieo: <{AIEO_NS}> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "aieo:application a owl:AnnotationProperty .\n"
        "aieo:scenario a owl:ObjectProperty .\n"
        "aieo:x a owl:NamedIndividual .\n" + body
    )
    rs = canned_query("scenarios_for", _mat(store), aieo("x"))
    assert rs.values("scenario") == want
    _assert_rows_in_term_key_order(rs)


@pytest.mark.parametrize("name, arg", [
    ("evaluate", None),
    ("principles_by_framework", None),
    ("describe_concept", aieo("fair1")),
    ("scenarios_for", aieo("fair1")),
    ("unique_concepts", aieo("fw1")),
])
def test_rows_are_term_tuples_aligned_with_variables(name, arg):
    store = _individuals(_two_framework_store(), "hiring")
    store.add(ObjectPropertyAssertion(aieo("fair2"), aieo("useCase"), aieo("hiring")))
    mat = _mat(store)
    if name == "evaluate":
        text = "SELECT ?c ?p ?v WHERE { ?c a aieo:Principle . ?c ?p ?v }"
        rs = evaluate(parse_query(text), mat)
    else:
        rs = canned_query(name, mat, arg)
    assert rs.rows and list(rs) == list(rs.rows)
    for row in rs.rows:
        assert type(row) is tuple and len(row) == len(rs.variables)
        assert all(isinstance(t, (Iri, AnnotationValue)) for t in row)
    for n, var in enumerate(rs.variables):
        assert rs.values(var) == [row[n] for row in rs.rows]
    with pytest.raises(KeyError):
        rs.values("nope")


def test_values_of_an_unknown_variable_raise_even_without_rows():
    with pytest.raises(KeyError):
        ResultSet((Variable("a"),), ()).values("b")


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
    """scenarios_for values: scenario-like objects of any block member,
    IRIs by their text, then literals by text and language tag, an
    untagged literal first."""
    scenario = (aieo("application"), aieo("example"), aieo("scenario"), aieo("useCase"))
    iris, literals = set(), set()
    for fact in mat.facts():
        if isinstance(fact, ObjectPropertyAssertion):
            if fact.subject in block and fact.prop in scenario:
                iris.add(fact.object)
        elif isinstance(fact, AnnotationAssertion):
            if fact.subject in block and fact.prop in scenario:
                literals.add(fact.value)
    return sorted(iris) + sorted(literals, key=lambda v: (v.text, v.language_tag or ""))


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
        assert len(rs.rows) == len(want) and set(rs.rows) == want, concept
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


def test_canned_queries_on_random_stores_with_literal_scenarios_match_oracles():
    literal = 0
    for seed in range(30):
        store = random_literal_scenario_store(seed)
        individuals = store.declared(EntityKind.NAMED_INDIVIDUAL)
        _assert_canned_match_oracles(
            store, _mat(store), individuals, individuals,
            lambda ind: naive_peers(store, ind),
        )
        literal += any(
            isinstance(v, AnnotationValue)
            for ind in individuals
            for v in canned_query("scenarios_for", _mat(store), ind).values("scenario")
        )
    assert literal == 30


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
