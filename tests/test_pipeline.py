"""Tests for the four-stage framework ingestion pipeline."""

import math
import random
import re

import pytest

import oracles

from aieo import pipeline
from aieo.errors import (
    DuplicateFramework,
    InsufficientFrameworks,
    UnconfirmedProposal,
    UnknownAnnotationProperty,
    UnknownFramework,
)
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    MetricsReport,
    ObjectPropertyAssertion,
    SameIndividual,
    compute_metrics,
)
from aieo.pipeline import (
    ClassificationMap,
    ConceptDeclaration,
    EquivalenceProposal,
    ExtractionConfig,
    FrameworkDocument,
    IterationRecord,
    PipelineConfig,
    Section,
    apply_equivalences,
    attach_keywords,
    concept_iri,
    detect_saturation,
    enrich,
    extract_keywords,
    ingested_frameworks,
    is_ingested,
    keyword_iri,
    label_similarity,
    propose_equivalences,
    run_iteration,
    structure_framework,
)
from aieo.schema import METHOD, RDFS_LABEL, SHORT_DESCRIPTION, aieo, seed_schema


def _doc(fw="FW1", concepts=(), sections=()):
    return FrameworkDocument(
        id=aieo(fw),
        title=f"The {fw} framework",
        sections=tuple(sections),
        concept_declarations=tuple(concepts),
    )


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def test_concept_declaration_needs_a_name():
    with pytest.raises(ValueError, match="non-empty"):
        ConceptDeclaration("", "Principle")


@pytest.mark.parametrize("a,b", [("Fairness", "Fairness"), ("a b", "a-b"), ("!", "?")])
def test_document_rejects_concept_names_with_one_iri(a, b):
    with pytest.raises(ValueError, match="duplicate concept name"):
        _doc(concepts=[
            ConceptDeclaration(a, "Principle"),
            ConceptDeclaration(b, "Requirement"),
        ])


def test_document_keeps_non_ascii_concept_names_apart():
    doc = _doc(concepts=[
        ConceptDeclaration("公平", "Principle"),
        ConceptDeclaration("透明", "Requirement"),
    ])
    assert len({concept_iri(doc.id, c.name) for c in doc.concept_declarations}) == 2


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(min_token_length=0), "minTokenLength"),
        (dict(top_k=0), "topK"),
        (dict(relevant_top_k=-1), "relevantTopK"),
        (dict(top_k=3, relevant_top_k=4), "relevantTopK"),
    ],
)
def test_extraction_config_bounds(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        ExtractionConfig(**kwargs)


def test_method_label_format():
    cfg = ExtractionConfig(min_token_length=4, top_k=8)
    assert cfg.method_label() == "tf-topk(topK=8,minLen=4)"


def test_classification_map_rejects_non_keyword_targets():
    with pytest.raises(ValueError, match="Keyword subclasses"):
        ClassificationMap({"risk": aieo("Principle")})


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(score=1.5), "score"),
        (dict(score=-0.1), "score"),
        (dict(status="maybe"), "status"),
    ],
)
def test_proposal_validation(kwargs, fragment):
    base = dict(left=aieo("a"), right=aieo("b"), score=0.5)
    with pytest.raises(ValueError, match=fragment):
        EquivalenceProposal(**{**base, **kwargs})


def test_proposal_pair_is_unordered():
    p = EquivalenceProposal(aieo("a"), aieo("b"), 1.0)
    q = EquivalenceProposal(aieo("b"), aieo("a"), 1.0)
    assert p.pair() == q.pair()


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.01, math.nan])
def test_pipeline_config_threshold_bounds(threshold):
    with pytest.raises(ValueError, match="threshold"):
        PipelineConfig(threshold=threshold)


# ---------------------------------------------------------------------------
# Stage 1: structure
# ---------------------------------------------------------------------------


def test_structure_creates_framework_and_concepts():
    store = seed_schema()
    structure_framework(store, _doc(concepts=[
        ConceptDeclaration("Fairness", "Principle"),
        ConceptDeclaration("Transparency", "Requirement"),
    ]))
    fw = aieo("FW1")
    fair = concept_iri(fw, "Fairness")
    trans = concept_iri(fw, "Transparency")
    assert is_ingested(store, fw)
    assert ClassAssertion(aieo("Principle"), fair) in store.axioms
    assert ClassAssertion(aieo("Requirement"), trans) in store.axioms
    assert ObjectPropertyAssertion(fw, aieo("principle"), fair) in store.axioms
    assert ObjectPropertyAssertion(fw, aieo("requirement"), trans) in store.axioms
    assert AnnotationAssertion(fw, RDFS_LABEL, AnnotationValue("The FW1 framework")) in store.axioms
    assert AnnotationAssertion(fair, RDFS_LABEL, AnnotationValue("Fairness")) in store.axioms


def test_structure_rejects_reingestion():
    store = seed_schema()
    structure_framework(store, _doc())
    with pytest.raises(DuplicateFramework, match="already ingested"):
        structure_framework(store, _doc())


def test_concept_declaration_rejects_unknown_concept_kind():
    with pytest.raises(ValueError, match="concept kind must be one of"):
        ConceptDeclaration("X", "Value")


def test_concept_and_keyword_iris_are_slugged():
    assert concept_iri(aieo("AU"), "Privacy protection & security").local == (
        "AU_Privacy_protection_security"
    )
    assert keyword_iri("fairness").local == "kw_fairness"
    assert concept_iri(aieo("AU"), "公平 (équité)").local == "AU_公平_équité"


def test_ingested_frameworks_sorted():
    store = seed_schema()
    structure_framework(store, _doc("ZFW"))
    structure_framework(store, _doc("AFW"))
    assert ingested_frameworks(store) == [aieo("AFW"), aieo("ZFW")]


# ---------------------------------------------------------------------------
# Stage 2: extraction
# ---------------------------------------------------------------------------


def test_extract_counts_and_filters():
    doc = _doc(sections=[Section("s", "Fairness matters. Fairness requires transparency.")])
    cfg = ExtractionConfig(stopwords=frozenset({"matters", "requires"}))
    assert extract_keywords(doc, cfg) == [("fairness", 2), ("transparency", 1)]


def test_extract_breaks_ties_lexicographically():
    doc = _doc(sections=[Section("s", "zebra apple zebra apple mango")])
    cfg = ExtractionConfig(stopwords=frozenset())
    assert extract_keywords(doc, cfg) == [("apple", 2), ("zebra", 2), ("mango", 1)]


def test_extract_strips_punctuation_and_case():
    doc = _doc(sections=[Section("s", "Fairness-aware; FAIRNESS! (fairness)")])
    cfg = ExtractionConfig(stopwords=frozenset())
    assert extract_keywords(doc, cfg) == [("fairness", 3), ("aware", 1)]


def test_extract_drops_short_tokens():
    doc = _doc(sections=[Section("s", "ai is em risk")])
    cfg = ExtractionConfig(stopwords=frozenset(), min_token_length=3)
    assert extract_keywords(doc, cfg) == [("risk", 1)]


def test_extract_truncates_to_top_k():
    doc = _doc(sections=[Section("s", "aaa bbb ccc ddd")])
    cfg = ExtractionConfig(stopwords=frozenset(), top_k=2, relevant_top_k=0)
    assert extract_keywords(doc, cfg) == [("aaa", 1), ("bbb", 1)]


def test_extract_aggregates_sections():
    doc = _doc(sections=[Section("a", "risk risk"), Section("b", "risk privacy")])
    cfg = ExtractionConfig(stopwords=frozenset())
    assert extract_keywords(doc, cfg) == [("risk", 3), ("privacy", 1)]


def test_extract_keeps_letters_of_every_script():
    doc = _doc(sections=[Section("s", "公平性 公平性 透明性 Équité équité équité")])
    cfg = ExtractionConfig(stopwords=frozenset())
    assert extract_keywords(doc, cfg) == [("équité", 3), ("公平性", 2), ("透明性", 1)]
    stop = ExtractionConfig(stopwords=frozenset({"équité"}))
    assert extract_keywords(doc, stop) == [("公平性", 2), ("透明性", 1)]


@pytest.mark.parametrize("seed", range(10))
def test_extract_on_ascii_bodies_keeps_the_ascii_token_rule(seed):
    rng = random.Random(seed)
    alphabet = "abcXYZ019 _-.,;!'\n\t"
    bodies = ["".join(rng.choice(alphabet) for _ in range(300)) for _ in range(3)]
    doc = _doc(sections=[Section(f"s{i}", body) for i, body in enumerate(bodies)])
    cfg = ExtractionConfig(stopwords=frozenset({"abc", "x0"}), min_token_length=2, top_k=50)
    counts: dict[str, int] = {}
    for body in bodies:
        for token in re.findall(r"[a-z0-9]+", body.lower()):
            if len(token) >= 2 and token not in {"abc", "x0"}:
                counts[token] = counts.get(token, 0) + 1
    expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    assert extract_keywords(doc, cfg) == expected


def test_extract_default_stopwords_prune_function_words():
    doc = _doc(sections=[Section("s", "the fairness of the system and the data")])
    assert extract_keywords(doc, ExtractionConfig()) == [
        ("data", 1), ("fairness", 1), ("system", 1)
    ]


# ---------------------------------------------------------------------------
# Stage 2: attachment
# ---------------------------------------------------------------------------


def test_attach_requires_ingested_framework():
    with pytest.raises(UnknownFramework, match="not ingested"):
        attach_keywords(seed_schema(), aieo("FW1"), [("risk", 2)])


def test_attach_types_links_and_annotates():
    store = seed_schema()
    structure_framework(store, _doc())
    cfg = ExtractionConfig(top_k=3, relevant_top_k=1)
    cmap = ClassificationMap({"risk": aieo("Risk_keyword")})
    attach_keywords(store, aieo("FW1"), [("risk", 3), ("privacy", 1)], PipelineConfig(cfg, cmap))
    risk, privacy = keyword_iri("risk"), keyword_iri("privacy")
    assert ClassAssertion(aieo("Risk_keyword"), risk) in store.axioms
    assert ClassAssertion(aieo("Keyword"), privacy) in store.axioms  # unmapped default
    assert ObjectPropertyAssertion(aieo("FW1"), aieo("keyword"), risk) in store.axioms
    assert ObjectPropertyAssertion(aieo("FW1"), aieo("keyword"), privacy) in store.axioms
    assert ObjectPropertyAssertion(aieo("FW1"), aieo("relevantKeyword"), risk) in store.axioms
    assert (
        ObjectPropertyAssertion(aieo("FW1"), aieo("relevantKeyword"), privacy)
        not in store.axioms
    )
    assert (
        AnnotationAssertion(aieo("FW1"), METHOD, AnnotationValue("tf-topk(topK=3,minLen=3)"))
        in store.axioms
    )


def test_attach_with_zero_relevant_top_k_records_no_method():
    store = seed_schema()
    structure_framework(store, _doc())
    cfg = ExtractionConfig(relevant_top_k=0)
    attach_keywords(store, aieo("FW1"), [("risk", 2)], PipelineConfig(cfg))
    assert not any(
        isinstance(ax, AnnotationAssertion) and ax.prop == METHOD
        for ax in store.axioms
    )
    assert not any(
        isinstance(ax, ObjectPropertyAssertion) and ax.prop == aieo("relevantKeyword")
        for ax in store.axioms
    )


def test_attach_shares_keyword_individuals_across_frameworks():
    store = seed_schema()
    structure_framework(store, _doc("FW1"))
    structure_framework(store, _doc("FW2"))
    attach_keywords(store, aieo("FW1"), [("risk", 2)])
    attach_keywords(store, aieo("FW2"), [("risk", 5)])
    links = [
        ax
        for ax in store.axioms_of(ObjectPropertyAssertion)
        if ax.prop == aieo("keyword")
    ]
    assert {ax.subject for ax in links} == {aieo("FW1"), aieo("FW2")}
    assert {ax.object for ax in links} == {keyword_iri("risk")}


# ---------------------------------------------------------------------------
# Stage 3: enrichment
# ---------------------------------------------------------------------------


def test_enrich_adds_annotations():
    store = seed_schema()
    structure_framework(store, _doc())
    enrich(store, aieo("FW1"), [(SHORT_DESCRIPTION, AnnotationValue("a framework"))])
    assert (
        AnnotationAssertion(aieo("FW1"), SHORT_DESCRIPTION, AnnotationValue("a framework"))
        in store.axioms
    )


def test_enrich_rejects_unknown_annotation_property():
    store = seed_schema()
    structure_framework(store, _doc())
    with pytest.raises(UnknownAnnotationProperty, match="not an annotation property"):
        enrich(store, aieo("FW1"), [(aieo("bogus"), AnnotationValue("x"))])


# ---------------------------------------------------------------------------
# Stage 4: consolidation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,score",
    [
        ("Fairness", "fairness", 1.0),
        ("Human-centred values", "human centred values", 1.0),
        ("Privacy protection", "Privacy", 0.5),
        ("values human", "human values", 1.0),  # same token set
        ("Accountability", "Transparency", 0.0),
        ("", "Fairness", 0.0),
        ("Wellbeing of society", "Societal wellbeing of people", 0.4),
        ("公平", "透明", 0.0),
        ("Équité", "équité", 1.0),
        ("公平 透明", "透明", 0.5),
    ],
)
def test_label_similarity_cases(a, b, score):
    assert label_similarity(a, b) == pytest.approx(score)
    assert label_similarity(b, a) == pytest.approx(score)


def _aligned_pair_store():
    store = seed_schema()
    structure_framework(store, _doc("FW1", concepts=[
        ConceptDeclaration("Fairness", "Principle"),
        ConceptDeclaration("Privacy protection", "Principle"),
    ]))
    structure_framework(store, _doc("FW2", concepts=[
        ConceptDeclaration("Fairness", "Requirement"),
        ConceptDeclaration("Privacy", "Requirement"),
    ]))
    return store


def test_propose_needs_two_frameworks():
    store = seed_schema()
    structure_framework(store, _doc("FW1"))
    with pytest.raises(InsufficientFrameworks, match="at least two"):
        propose_equivalences(store, aieo("FW1"))


def test_propose_rejects_unknown_framework():
    with pytest.raises(UnknownFramework, match="not ingested"):
        propose_equivalences(_aligned_pair_store(), aieo("FW3"))


def test_propose_scores_and_sorts():
    store = _aligned_pair_store()
    proposals = propose_equivalences(store, aieo("FW2"), threshold=0.5)
    as_tuples = [(p.left.local, p.right.local, p.score) for p in proposals]
    assert as_tuples == [
        ("FW2_Fairness", "FW1_Fairness", 1.0),
        ("FW2_Privacy", "FW1_Privacy_protection", 0.5),
    ]
    assert all(p.status == "proposed" for p in proposals)


def test_propose_crosses_concept_kinds():
    # a Principle in one framework can align with a Requirement in another
    proposals = propose_equivalences(_aligned_pair_store(), aieo("FW2"))
    assert any(p.right.local == "FW1_Fairness" for p in proposals)


def test_propose_threshold_excludes_weak_matches():
    proposals = propose_equivalences(_aligned_pair_store(), aieo("FW2"), threshold=0.6)
    assert [p.left.local for p in proposals] == ["FW2_Fairness"]


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5, math.nan])
def test_propose_and_run_iteration_reject_bad_thresholds(threshold):
    message = re.escape("threshold must be in (0, 1]")
    with pytest.raises(ValueError, match=message):
        propose_equivalences(_aligned_pair_store(), aieo("FW2"), threshold=threshold)
    with pytest.raises(ValueError, match=message):
        PipelineConfig(threshold=threshold)


# Labels that stress normalization: no tokens at all (whitespace,
# punctuation), case variants, tokens out of order or repeated, and
# non-ASCII letters, which are token characters ("Équité" -> "équité",
# "公平" and "透明" differ) or casefold into ASCII ("Straße" -> "strasse",
# "ﬁne" -> "fine").
_EDGE_LABELS = (
    " ", "--", "Fairness", "FAIRNESS", "fairness", "Fair-ness", "Équité", "équité",
    "quit", "Straße", "strasse", "ﬁne", "fine", "公平", "透明", "human values", "values human",
    "human human values", "Human-Values!", "a1 9",
)
_LABEL_WORDS = ("fair", "ness", "human", "values", "privacy", "data", "a1", "9")
_ALIGNABLE = ("principle", "requirement", "fundamentalRight")


def _random_label(rng):
    if rng.random() < 0.4:
        return rng.choice(_EDGE_LABELS)
    words = [rng.choice(_LABEL_WORDS) for _ in range(rng.randint(1, 4))]
    words = [w.upper() if rng.random() < 0.2 else w for w in words]
    return rng.choice((" ", "-", "_", ", ")).join(words)


def _random_framework_store(seed):
    """2-5 frameworks linking concepts with random labels. Concepts 0 and 1
    are linked from two frameworks; aieo("") and aieo("__") carry no label,
    so they fall back to the empty and an all-blank local name."""
    rng = random.Random(seed)
    store = seed_schema()
    frameworks = [aieo(f"fw{i}") for i in range(rng.randint(2, 5))]
    for fw in frameworks:
        store.declare(fw, EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(aieo("Framework"), fw))
    concepts = [aieo(f"c{i}") for i in range(rng.randint(3, 14))]
    concepts += [aieo(""), aieo("__"), aieo("Human_values")]
    for i, concept in enumerate(concepts):
        store.declare(concept, EntityKind.NAMED_INDIVIDUAL)
        n_labels = 0 if concept.local[:1] != "c" else rng.choice((0, 1, 1, 1, 2))
        for _ in range(n_labels):
            store.add(AnnotationAssertion(concept, RDFS_LABEL, AnnotationValue(_random_label(rng))))
        linkers = rng.sample(frameworks, 2 if i < 2 else rng.choice((0, 1, 1, 1, 2)))
        for fw in linkers:
            prop = rng.choice(_ALIGNABLE) if rng.random() < 0.9 else "dimension"
            store.add(ObjectPropertyAssertion(fw, aieo(prop), concept))
    return store, frameworks


_THRESHOLDS = (1.0, 1e-9, 1 / 3, 0.5, 2 / 3)


def test_propose_matches_the_all_pairs_oracle():
    seen = {"duplicate": 0, "self": 0, "blank": 0, "fractional": 0}
    for seed in range(200):
        store, frameworks = _random_framework_store(seed)
        for fw in frameworks:
            for threshold in _THRESHOLDS:
                got = propose_equivalences(store, fw, threshold)
                want = oracles.naive_proposals(store, fw, threshold)
                assert got == want, (seed, fw, threshold)
                assert [p.score.hex() for p in got] == [p.score.hex() for p in want]
                pairs = [(p.left, p.right) for p in got]
                seen["duplicate"] += len(pairs) - len(set(pairs))
                seen["self"] += sum(p.left == p.right for p in got)
                seen["blank"] += sum({p.left, p.right} == {aieo(""), aieo("__")} for p in got)
                seen["fractional"] += sum(0 < p.score < 1 for p in got)
    assert all(seen.values()), seen


def test_propose_score_is_the_join_bound_over_sentinel_token_sets():
    # label_similarity returns the very quotient k / (n + m - k) the join
    # has already formed over the sentinel token sets (see _label_tokens).
    seen = {"exact": 0, "reordered": 0, "repeated": 0, "blank": 0, "fractional": 0}
    for seed in range(200):
        store, frameworks = _random_framework_store(seed)
        for fw in frameworks:
            for p in propose_equivalences(store, fw, 1e-9):
                ta, tb = (oracles._naive_tokens(oracles._naive_concept_label(store, c))
                          for c in (p.left, p.right))
                sa, sb = set(ta) or {""}, set(tb) or {""}
                k = len(sa & sb)
                assert p.score.hex() == (k / (len(sa) + len(sb) - k)).hex(), (seed, p)
                seen["exact"] += ta == tb != []
                seen["reordered"] += ta != tb and sa == sb
                seen["repeated"] += len(ta) > len(sa) or len(tb) > len(sb)
                seen["blank"] += ta == tb == []
                seen["fractional"] += 0 < p.score < 1
    assert all(seen.values()), seen


def test_propose_scores_only_peers_that_share_a_token(monkeypatch):
    rng = random.Random(6)
    words = [f"w{i}" for i in range(40)]
    store = seed_schema()
    for f in range(4):
        fw = aieo(f"fw{f}")
        store.declare(fw, EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(aieo("Framework"), fw))
        for c in range(60):
            concept = aieo(f"fw{f}_c{c}")
            label = " ".join(rng.sample(words, rng.randint(2, 3)))
            store.declare(concept, EntityKind.NAMED_INDIVIDUAL)
            store.add(AnnotationAssertion(concept, RDFS_LABEL, AnnotationValue(label)))
            store.add(ObjectPropertyAssertion(fw, aieo("principle"), concept))
    calls = {"index": 0, "oracle": 0}

    def counting(name, score):
        def wrapped(a, b):
            calls[name] += 1
            return score(a, b)
        return wrapped

    monkeypatch.setattr(pipeline, "label_similarity",
                        counting("index", pipeline.label_similarity))
    monkeypatch.setattr(oracles, "naive_label_similarity",
                        counting("oracle", oracles.naive_label_similarity))
    got = propose_equivalences(store, aieo("fw3"))
    assert got and got == oracles.naive_proposals(store, aieo("fw3"), 0.5)
    assert calls["oracle"] == 60 * 180
    assert 0 < calls["index"] * 10 <= calls["oracle"], calls


def test_propose_does_not_mutate_store():
    store = _aligned_pair_store()
    before = set(store.axioms)
    propose_equivalences(store, aieo("FW2"))
    assert set(store.axioms) == before


def test_apply_rejects_unconfirmed():
    store = _aligned_pair_store()
    proposal = propose_equivalences(store, aieo("FW2"))[0]
    with pytest.raises(UnconfirmedProposal, match="is proposed"):
        apply_equivalences(store, [proposal])


def test_apply_adds_same_individual():
    store = _aligned_pair_store()
    confirmed = [
        p._replace(status="confirmed")
        for p in propose_equivalences(store, aieo("FW2"))
        if p.score == 1.0
    ]
    apply_equivalences(store, confirmed)
    assert SameIndividual(
        concept_iri(aieo("FW1"), "Fairness"), concept_iri(aieo("FW2"), "Fairness")
    ) in store.axioms


# ---------------------------------------------------------------------------
# run_iteration
# ---------------------------------------------------------------------------


_FULL_DOC = _doc("FW1", concepts=[
    ConceptDeclaration("Fairness", "Principle", "be fair", "sec. 1"),
    ConceptDeclaration("Safety", "Requirement"),
], sections=[Section("Scope", "Risk and fairness in systems. Risk matters.")])


def test_run_iteration_leaves_input_untouched():
    store = seed_schema()
    before = set(store.axioms)
    out, record = run_iteration(store, _FULL_DOC)
    assert set(store.axioms) == before
    assert out is not store
    assert record.increment == len(out.axioms) - len(store.axioms)


def test_run_iteration_counts_and_index():
    store = seed_schema()
    out1, rec1 = run_iteration(store, _FULL_DOC)
    out2, rec2 = run_iteration(out1, _doc("FW2"))
    assert (rec1.iteration_index, rec2.iteration_index) == (1, 2)
    assert rec1.before == compute_metrics(store)
    assert rec1.after == compute_metrics(out1)
    assert rec2.before == rec1.after
    assert rec1.increment > 0 and rec2.increment > 0


def test_run_iteration_runs_all_stages():
    out, _ = run_iteration(seed_schema(), _FULL_DOC)
    fair = concept_iri(aieo("FW1"), "Fairness")
    assert ClassAssertion(aieo("Principle"), fair) in out.axioms
    assert ObjectPropertyAssertion(aieo("FW1"), aieo("keyword"), keyword_iri("risk")) in out.axioms
    assert AnnotationAssertion(fair, SHORT_DESCRIPTION, AnnotationValue("be fair")) in out.axioms
    assert AnnotationAssertion(
        fair, aieo("reference"), AnnotationValue("sec. 1")
    ) in out.axioms


def test_run_iteration_fails_atomically_on_duplicate():
    store, _ = run_iteration(seed_schema(), _FULL_DOC)
    before = set(store.axioms)
    with pytest.raises(DuplicateFramework):
        run_iteration(store, _FULL_DOC)
    assert set(store.axioms) == before


def test_run_iteration_consolidates_only_confirmed_pairs():
    doc1 = _doc("FW1", concepts=[ConceptDeclaration("Fairness", "Principle"),
                                 ConceptDeclaration("Safety", "Principle")])
    doc2 = _doc("FW2", concepts=[ConceptDeclaration("Fairness", "Requirement"),
                                 ConceptDeclaration("Safety", "Requirement")])
    pair = frozenset((concept_iri(aieo("FW1"), "Fairness"), concept_iri(aieo("FW2"), "Fairness")))
    mid, _ = run_iteration(seed_schema(), doc1)
    out, _ = run_iteration(mid, doc2, PipelineConfig(confirmations=(pair,)))
    merges = set(out.axioms_of(SameIndividual))
    assert merges == {SameIndividual(*sorted(pair))}  # Safety stays proposed only


def test_run_iteration_first_framework_skips_consolidation():
    out, _ = run_iteration(seed_schema(), _FULL_DOC, PipelineConfig(confirmations=(
        frozenset((aieo("a"), aieo("b"))),
    )))
    assert not list(out.axioms_of(SameIndividual))


def test_relevant_keywords_are_also_keywords():
    out, _ = run_iteration(seed_schema(), _FULL_DOC)
    keyword_links = {
        (ax.subject, ax.object)
        for ax in out.axioms_of(ObjectPropertyAssertion)
        if ax.prop == aieo("keyword")
    }
    relevant_links = {
        (ax.subject, ax.object)
        for ax in out.axioms_of(ObjectPropertyAssertion)
        if ax.prop == aieo("relevantKeyword")
    }
    assert relevant_links and relevant_links <= keyword_links


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def _report(axiom_count):
    return MetricsReport(
        axiom_count=axiom_count,
        logical_axiom_count=0,
        declaration_axiom_count=0,
        annotation_assertion_count=0,
        class_count=0,
        object_property_count=0,
        data_property_count=0,
        individual_count=0,
        annotation_property_count=0,
    )


def _record(before, increment):
    return IterationRecord(
        iteration_index=1,
        before=_report(before),
        after=_report(before + increment),
        increment=increment,
    )


def test_detect_saturation_relative_increment():
    history = [_record(65, 300), _record(365, 250), _record(615, 12)]
    assert detect_saturation(history, 0.05) == [False, False, True]


def test_detect_saturation_zero_increment_is_saturated():
    assert detect_saturation([_record(100, 0)], 0.05) == [True]


def test_detect_saturation_empty_store_baseline():
    # before == 0 divides by 1, not 0
    assert detect_saturation([_record(0, 10)], 0.05) == [False]
    assert detect_saturation([_record(0, 0)], 0.05) == [True]


def test_detect_saturation_boundary_is_not_saturated():
    # the flag needs the ratio strictly below the threshold
    assert detect_saturation([_record(100, 5)], 0.05) == [False]


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_detect_saturation_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="> 0"):
        detect_saturation([_record(100, 5)], threshold)


def test_iteration_record_as_dict_shape():
    record = _record(65, 300)
    d = record.as_dict()
    assert set(d) == {"iterationIndex", "before", "after", "increment", "saturated"}
    assert d["increment"] == 300
    assert d["before"]["axiomCount"] == 65
