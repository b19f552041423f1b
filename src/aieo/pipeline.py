"""Iterative framework ingestion: structure, extract, enrich, consolidate.

Each iteration ingests one framework document through the four stages and
yields an IterationRecord comparing store metrics before and after, which
feeds the saturation measurement across a run of iterations.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Sequence

from .errors import (
    DuplicateFramework,
    InsufficientFrameworks,
    UnconfirmedProposal,
    UnknownAnnotationProperty,
    UnknownFramework,
    UnknownKind,
)
from .model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    EntityKind,
    Iri,
    MetricsReport,
    ObjectPropertyAssertion,
    OntologyStore,
    SameIndividual,
    compute_metrics,
)
from .schema import (
    AIEO_NS,
    ANNOTATION_PROPERTIES,
    CONCEPT_LINK_PROPERTIES,
    KEYWORD_SUBCLASSES,
    METHOD,
    RDFS_LABEL,
    REFERENCE,
    SHORT_DESCRIPTION,
    aieo,
)

DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again all also an and any are as at be because been
    before being below between both but by can could did do does doing down
    during each few for from further had has have having he her here hers
    him his how i if in into is it its itself just me more most my no nor
    not now of off on once only or other our ours out over own same she
    should so some such than that the their theirs them then there these
    they this those through to too under until up very was we were what
    when where which while who whom why will with would you your yours
    """.split()
)

CONCEPT_KINDS = tuple(sorted(CONCEPT_LINK_PROPERTIES))


@dataclass(frozen=True, slots=True)
class Section:
    heading: str
    body: str


@dataclass(frozen=True, slots=True)
class ConceptDeclaration:
    name: str
    kind: str  # one of CONCEPT_KINDS
    short_description: str | None = None
    reference: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("concept name must be non-empty")


@dataclass(frozen=True, slots=True)
class FrameworkDocument:
    id: Iri
    title: str
    sections: tuple[Section, ...] = ()
    concept_declarations: tuple[ConceptDeclaration, ...] = ()

    def __post_init__(self) -> None:
        # Two names with one IRI would silently merge into one individual.
        seen: dict[Iri, str] = {}
        for concept in self.concept_declarations:
            iri = concept_iri(self.id, concept.name)
            if iri in seen:
                raise ValueError(
                    f"duplicate concept name in document: {seen[iri]!r} and "
                    f"{concept.name!r} both map to {iri}"
                )
            seen[iri] = concept.name


@dataclass(frozen=True, slots=True)
class ExtractionConfig:
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    min_token_length: int = 3
    top_k: int = 10
    relevant_top_k: int = 3

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ValueError("minTokenLength must be >= 1")
        if self.top_k < 1:
            raise ValueError("topK must be >= 1")
        if not 0 <= self.relevant_top_k <= self.top_k:
            raise ValueError("relevantTopK must be between 0 and topK")

    def method_label(self) -> str:
        return f"tf-topk(topK={self.top_k},minLen={self.min_token_length})"


_KEYWORD_CLASS_IRIS = frozenset(aieo(name) for name in KEYWORD_SUBCLASSES)


@dataclass(frozen=True, slots=True)
class ClassificationMap:
    """Supervised keyword -> Keyword-subclass assignments."""

    entries: dict[str, Iri] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for keyword, target in self.entries.items():
            if target not in _KEYWORD_CLASS_IRIS:
                raise ValueError(
                    f"classification target for {keyword!r} must be one of the "
                    f"Keyword subclasses, got {target}"
                )


@dataclass(frozen=True, slots=True)
class EquivalenceProposal:
    left: Iri
    right: Iri
    score: float
    status: str = "proposed"  # proposed | confirmed | rejected

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        if self.status not in ("proposed", "confirmed", "rejected"):
            raise ValueError(f"unknown proposal status {self.status!r}")

    def pair(self) -> frozenset[Iri]:
        return frozenset((self.left, self.right))


@dataclass(frozen=True, slots=True)
class IterationRecord:
    iteration_index: int
    before: MetricsReport
    after: MetricsReport
    increment: int
    saturated: bool = False

    def as_dict(self) -> dict:
        return {
            "iterationIndex": self.iteration_index,
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "increment": self.increment,
            "saturated": self.saturated,
        }


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:  # also rejects NaN
        raise ValueError("threshold must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Everything an ingestion run needs beyond the document itself."""

    extraction: ExtractionConfig = ExtractionConfig()
    classification: ClassificationMap = field(default_factory=ClassificationMap)
    confirmations: tuple[frozenset[Iri], ...] = ()
    threshold: float = 0.5

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)


def _tokens(text: str) -> list[str]:
    """The runs of letters and digits (``str.isalnum``) in the text."""
    return re.findall(r"[^\W_]+", text)


def _slug(text: str) -> str:
    return "_".join(_tokens(text))


def concept_iri(framework_id: Iri, name: str) -> Iri:
    return Iri(f"{AIEO_NS}{framework_id.local}_{_slug(name)}")


def keyword_iri(token: str) -> Iri:
    return Iri(f"{AIEO_NS}kw_{_slug(token)}")


# ---------------------------------------------------------------------------
# Stage 1: knowledge structure
# ---------------------------------------------------------------------------

def is_ingested(store: OntologyStore, framework_id: Iri) -> bool:
    return ClassAssertion(aieo("Framework"), framework_id) in store.axioms


def ingested_frameworks(store: OntologyStore) -> list[Iri]:
    return sorted(
        ax.ind
        for ax in store.axioms_of(ClassAssertion)
        if ax.cls == aieo("Framework")
    )


def structure_framework(store: OntologyStore, doc: FrameworkDocument) -> OntologyStore:
    """Create the framework individual, one typed individual per declared
    concept, and the framework-to-concept link assertions."""
    if is_ingested(store, doc.id):
        raise DuplicateFramework(f"framework already ingested: {doc.id}")
    for concept in doc.concept_declarations:
        if concept.kind not in CONCEPT_KINDS:
            raise UnknownKind(
                f"concept kind must be one of {CONCEPT_KINDS}, got {concept.kind!r}"
            )
    store.declare(doc.id, EntityKind.NAMED_INDIVIDUAL)
    store.add(ClassAssertion(aieo("Framework"), doc.id))
    if doc.title:
        store.add(AnnotationAssertion(doc.id, RDFS_LABEL, AnnotationValue(doc.title)))
    for concept in doc.concept_declarations:
        ind = concept_iri(doc.id, concept.name)
        store.declare(ind, EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(aieo(concept.kind), ind))
        store.add(
            ObjectPropertyAssertion(doc.id, aieo(CONCEPT_LINK_PROPERTIES[concept.kind]), ind)
        )
        store.add(AnnotationAssertion(ind, RDFS_LABEL, AnnotationValue(concept.name)))
    return store


# ---------------------------------------------------------------------------
# Stage 2: knowledge extraction
# ---------------------------------------------------------------------------

def extract_keywords(
    doc: FrameworkDocument, cfg: ExtractionConfig
) -> list[tuple[str, int]]:
    """Term-frequency keywords over all section bodies: lowercased,
    punctuation-stripped, stopwords and short tokens removed, the topK by
    descending frequency (ties lexicographic ascending)."""
    counts: dict[str, int] = {}
    for section in doc.sections:
        for token in re.findall(r"[a-z0-9]+", section.body.lower()):
            if len(token) < cfg.min_token_length or token in cfg.stopwords:
                continue
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: cfg.top_k]


def attach_keywords(
    store: OntologyStore,
    framework_id: Iri,
    extracted: Sequence[tuple[str, int]],
    classification: ClassificationMap | None = None,
    cfg: ExtractionConfig | None = None,
) -> OntologyStore:
    """Turn extracted keywords into typed individuals linked from the
    framework; the leading relevantTopK also get relevantKeyword links and
    the framework records the extractor behind them via `method`."""
    if not is_ingested(store, framework_id):
        raise UnknownFramework(f"framework not ingested: {framework_id}")
    classification = classification or ClassificationMap()
    cfg = cfg or ExtractionConfig()
    relevant = {token for token, _ in extracted[: cfg.relevant_top_k]}
    for token, _ in extracted:
        ind = keyword_iri(token)
        store.declare(ind, EntityKind.NAMED_INDIVIDUAL)
        store.add(ClassAssertion(classification.entries.get(token, aieo("Keyword")), ind))
        store.add(AnnotationAssertion(ind, RDFS_LABEL, AnnotationValue(token)))
        store.add(ObjectPropertyAssertion(framework_id, aieo("keyword"), ind))
        if token in relevant:
            store.add(ObjectPropertyAssertion(framework_id, aieo("relevantKeyword"), ind))
    if relevant:
        store.add(
            AnnotationAssertion(framework_id, METHOD, AnnotationValue(cfg.method_label()))
        )
    return store


# ---------------------------------------------------------------------------
# Stage 3: semantic enrichment
# ---------------------------------------------------------------------------

def enrich(
    store: OntologyStore,
    subject: Iri,
    annotations: Iterable[tuple[Iri, AnnotationValue]],
) -> OntologyStore:
    for prop, value in annotations:
        if prop not in ANNOTATION_PROPERTIES:
            raise UnknownAnnotationProperty(
                f"{prop} is not an annotation property of the schema"
            )
        store.add(AnnotationAssertion(subject, prop, value))
    return store


# ---------------------------------------------------------------------------
# Stage 4: knowledge consolidation
# ---------------------------------------------------------------------------

_PROPOSAL_LINK_PROPERTIES = tuple(
    aieo(CONCEPT_LINK_PROPERTIES[kind])
    for kind in ("Principle", "Requirement", "FundamentalRight")
)


def _normalize_label(text: str) -> list[str]:
    return _tokens(text.casefold())


def label_similarity(a: str, b: str) -> float:
    """1.0 on normalized exact match, else token-set Jaccard."""
    ta, tb = _normalize_label(a), _normalize_label(b)
    if ta == tb:
        return 1.0
    sa, sb = set(ta), set(tb)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _concept_label(store: OntologyStore, ind: Iri) -> str:
    labels = sorted(
        ax.value.text
        for ax in store.by_subject.get(ind, ())
        if isinstance(ax, AnnotationAssertion) and ax.prop == RDFS_LABEL
    )
    return labels[0] if labels else ind.local.replace("_", " ")


def _label_tokens(label: str) -> frozenset[str]:
    """The label's normalized token set; a label without tokens gets the
    sentinel "" (never a token), since two such labels score 1.0."""
    return frozenset(_normalize_label(label)) or frozenset(("",))


def _alignable_concepts(store: OntologyStore) -> dict[Iri, list[Iri]]:
    """framework -> its asserted Principle/Requirement/FundamentalRight
    individuals, in assertion (link) terms."""
    frameworks = set(ingested_frameworks(store))
    out: dict[Iri, list[Iri]] = {fw: [] for fw in frameworks}
    for ax in store.axioms_of(ObjectPropertyAssertion):
        if ax.prop in _PROPOSAL_LINK_PROPERTIES and ax.subject in frameworks:
            out[ax.subject].append(ax.object)
    return {fw: sorted(set(concepts)) for fw, concepts in out.items()}


def propose_equivalences(
    store: OntologyStore, new_framework: Iri, threshold: float = 0.5
) -> list[EquivalenceProposal]:
    """Candidate cross-framework concept equivalences by label similarity:
    every pair of a new concept and a concept linked from another framework
    that scores at least ``threshold``, once per linking framework.

    A score at or above a threshold > 0 needs a shared token, so only peers
    that share one are scored: an inverted index from token to peer yields
    each candidate with its shared-token count, and a candidate whose
    Jaccard bound ``shared / (n + m - shared)`` falls below the threshold is
    skipped. For non-empty token sets that bound is the score itself, so
    the result equals scoring every pair.

    Proposals never mutate the store; confirmation is a human decision
    applied separately via apply_equivalences.
    """
    _check_threshold(threshold)
    by_framework = _alignable_concepts(store)
    if len(by_framework) < 2:
        raise InsufficientFrameworks(
            "equivalence proposals need at least two ingested frameworks"
        )
    if new_framework not in by_framework:
        raise UnknownFramework(f"framework not ingested: {new_framework}")
    labels: dict[Iri, tuple[str, frozenset[str]]] = {}
    for concepts in by_framework.values():
        for concept in concepts:
            if concept not in labels:
                label = _concept_label(store, concept)
                labels[concept] = label, _label_tokens(label)
    # One entry per (framework, peer) link, so a peer linked from two other
    # frameworks is proposed twice, as scoring every pair does.
    entries: list[Iri] = []
    by_token: dict[str, list[int]] = {}
    for other_fw, peers in by_framework.items():
        if other_fw == new_framework:
            continue
        for peer in peers:
            for token in labels[peer][1]:
                by_token.setdefault(token, []).append(len(entries))
            entries.append(peer)
    proposals = []
    for concept in by_framework[new_framework]:
        label, tokens = labels[concept]
        n = len(tokens)
        shared = Counter(chain.from_iterable(by_token.get(t, ()) for t in tokens))
        for entry, k in shared.items():
            peer = entries[entry]
            peer_label, peer_tokens = labels[peer]
            if k / (n + len(peer_tokens) - k) >= threshold:
                score = label_similarity(label, peer_label)
                proposals.append(EquivalenceProposal(concept, peer, score))
    proposals.sort(key=lambda p: (-p.score, p.left, p.right))
    return proposals


def apply_equivalences(
    store: OntologyStore, proposals: Iterable[EquivalenceProposal]
) -> OntologyStore:
    for proposal in proposals:
        if proposal.status != "confirmed":
            raise UnconfirmedProposal(
                f"only confirmed proposals may be applied; "
                f"({proposal.left.local}, {proposal.right.local}) is {proposal.status}"
            )
        store.add(SameIndividual(proposal.left, proposal.right))
    return store


# ---------------------------------------------------------------------------
# One full iteration
# ---------------------------------------------------------------------------

def run_iteration(
    store: OntologyStore,
    doc: FrameworkDocument,
    cfg: ExtractionConfig | None = None,
    classification: ClassificationMap | None = None,
    confirmations: Iterable[frozenset[Iri]] = (),
    *,
    threshold: float = 0.5,
) -> tuple[OntologyStore, IterationRecord]:
    """Run structure, extraction, enrichment, and consolidation atomically.

    The input store is never mutated; the returned store carries the
    iteration's additions, and the record carries before/after metrics.
    """
    _check_threshold(threshold)
    cfg = cfg or ExtractionConfig()
    confirmed_pairs = set(confirmations)
    before = compute_metrics(store)
    work = store.copy()

    structure_framework(work, doc)
    attach_keywords(work, doc.id, extract_keywords(doc, cfg), classification, cfg)
    for concept in doc.concept_declarations:
        annotations: list[tuple[Iri, AnnotationValue]] = []
        if concept.short_description:
            annotations.append((SHORT_DESCRIPTION, AnnotationValue(concept.short_description)))
        if concept.reference:
            annotations.append((REFERENCE, AnnotationValue(concept.reference)))
        enrich(work, concept_iri(doc.id, concept.name), annotations)
    if len(ingested_frameworks(work)) >= 2:
        to_apply = [
            replace(p, status="confirmed")
            for p in propose_equivalences(work, doc.id, threshold)
            if p.pair() in confirmed_pairs
        ]
        apply_equivalences(work, to_apply)

    after = compute_metrics(work)
    record = IterationRecord(
        iteration_index=len(ingested_frameworks(work)),
        before=before,
        after=after,
        increment=after.axiom_count - before.axiom_count,
    )
    return work, record


def detect_saturation(
    history: Sequence[IterationRecord], threshold: float
) -> list[bool]:
    """Saturation flag per record: relative increment below the threshold."""
    if threshold <= 0:
        raise ValueError("saturation threshold must be > 0")
    return [
        record.increment / max(1, record.before.axiom_count) < threshold
        for record in history
    ]
