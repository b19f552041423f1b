"""The bundled AI-EO seed schema and the vocabulary constants it uses.

Schema-level content: 19 classes, 10 object properties (range axioms only,
no domains), 4 annotation properties, no data properties, no individuals.
"""

from __future__ import annotations

from .model import (  # noqa: F401  (the vocabulary is re-exported from here)
    META_CLASS_KINDS,
    OWL_ANNOTATION_PROPERTY,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_NAMED_INDIVIDUAL,
    OWL_NS,
    OWL_OBJECT_PROPERTY,
    OWL_SAME_AS,
    RDF_NS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    AnnotationAssertion,
    AnnotationValue,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyRange,
    OntologyStore,
    SubClassOf,
    SubObjectPropertyOf,
)

AIEO_NS = "https://w3id.org/aieo#"

DEFAULT_PREFIXES = {
    "aieo": AIEO_NS,
    "owl": OWL_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
}

RDFS_LABEL = Iri(RDFS_NS + "label")


def aieo(local: str) -> Iri:
    return Iri(AIEO_NS + local)


def labels(store: OntologyStore) -> dict[Iri, str]:
    """Each labelled entity's display label: the least text of its
    ``rdfs:label`` assertions. An entity without one has no key."""
    out: dict[Iri, str] = {}
    for ax in store.axioms_of(AnnotationAssertion):
        if ax.prop == RDFS_LABEL:
            text = ax.value.text
            least = out.get(ax.subject)
            if least is None or text < least:
                out[ax.subject] = text
    return out


CENTRAL_CLASSES = (
    "AI_Dimension",
    "Framework",
    "FundamentalRight",
    "Principle",
    "Requirement",
)

ASSOCIATION_CLASSES = ("Application", "Example", "Scenario", "UseCase")

KEYWORD_SUBCLASSES = (
    "Characteristic_keyword",
    "Development_keyword",
    "EnvironmentalDimension_keyword",
    "GovernamentalDimension_keyword",
    "IndividualDimension_keyword",
    "OrganizationalDimension_keyword",
    "Risk_keyword",
    "SocialDimension_keyword",
    "SustainableDevelopment_keyword",
)

CLASS_NAMES = CENTRAL_CLASSES + ASSOCIATION_CLASSES + ("Keyword",) + KEYWORD_SUBCLASSES

# The class whose members are the ingested frameworks.
FRAMEWORK = aieo("Framework")

# Every central concept is disjoint with every other one, except the
# Principle/Requirement pair: a consolidated concept may be a principle in
# one framework and a requirement in another.
DISJOINT_PAIRS = (
    ("AI_Dimension", "Framework"),
    ("AI_Dimension", "FundamentalRight"),
    ("AI_Dimension", "Principle"),
    ("AI_Dimension", "Requirement"),
    ("Framework", "FundamentalRight"),
    ("Framework", "Principle"),
    ("Framework", "Requirement"),
    ("FundamentalRight", "Principle"),
    ("FundamentalRight", "Requirement"),
)

EQUIVALENT_CLASS_SET = ("Application", "Scenario", "UseCase")

# property -> range class; no property carries a domain axiom, so subjects
# of assertions never acquire a type structurally.
OBJECT_PROPERTY_RANGES = {
    "application": "Application",
    "dimension": "AI_Dimension",
    "example": "Example",
    "fundamentalRight": "FundamentalRight",
    "keyword": "Keyword",
    "relevantKeyword": "Keyword",
    "principle": "Principle",
    "requirement": "Requirement",
    "scenario": "Scenario",
    "useCase": "UseCase",
}

EQUIVALENT_PROPERTY_SET = ("application", "scenario", "useCase")

CUSTOM_ANNOTATION_PROPERTIES = ("method", "reference", "shortDescription")

METHOD = aieo("method")
REFERENCE = aieo("reference")
SHORT_DESCRIPTION = aieo("shortDescription")

ANNOTATION_PROPERTIES = (METHOD, REFERENCE, SHORT_DESCRIPTION, RDFS_LABEL)

# Properties a framework uses to link its concept individuals, by concept kind.
CONCEPT_LINK_PROPERTIES = {
    "Principle": "principle",
    "Requirement": "requirement",
    "FundamentalRight": "fundamentalRight",
    "AI_Dimension": "dimension",
}


def seed_schema() -> OntologyStore:
    """Build the seed store: classes, hierarchy, disjointness, equivalences,
    object properties with their ranges, and the annotation vocabulary."""
    store = OntologyStore(DEFAULT_PREFIXES)
    for name in CLASS_NAMES:
        store.declare(aieo(name), EntityKind.OWL_CLASS)
    for name in KEYWORD_SUBCLASSES:
        store.add(SubClassOf(aieo(name), aieo("Keyword")))
    for a, b in DISJOINT_PAIRS:
        store.add(DisjointClasses(aieo(a), aieo(b)))
    store.add(EquivalentClasses(frozenset(aieo(n) for n in EQUIVALENT_CLASS_SET)))
    for name in OBJECT_PROPERTY_RANGES:
        store.declare(aieo(name), EntityKind.OBJECT_PROPERTY)
    for name, rng in OBJECT_PROPERTY_RANGES.items():
        store.add(ObjectPropertyRange(aieo(name), aieo(rng)))
    store.add(SubObjectPropertyOf(aieo("relevantKeyword"), aieo("keyword")))
    store.add(
        EquivalentObjectProperties(frozenset(aieo(n) for n in EQUIVALENT_PROPERTY_SET))
    )
    for name in CUSTOM_ANNOTATION_PROPERTIES:
        store.declare(aieo(name), EntityKind.ANNOTATION_PROPERTY)
    store.declare(RDFS_LABEL, EntityKind.ANNOTATION_PROPERTY)
    # The source tables name this class in the plural; keep the alias visible.
    store.add(
        AnnotationAssertion(aieo("Requirement"), RDFS_LABEL, AnnotationValue("Requirements"))
    )
    return store
