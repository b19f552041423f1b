"""Entity and axiom data model, the axiom-type table, the axiom store, and
ontology metrics.

The store keeps a duplicate-free set of axioms over declared entities.
Entities are plain absolute IRIs; CURIE resolution happens at the parsing
boundaries (see :mod:`aieo.turtle` and :mod:`aieo.jsonio`). What each axiom
type looks like (its fields, triples, JSON form and sort order) is described
once, in :data:`AXIOM_TYPES`; every other module reads it from there.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import KindConflict, KindMismatch, UndeclaredEntity, ValidationError


class Iri(str):
    """An absolute IRI. Behaves as a string; the subclass only marks intent."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not value:
            raise ValueError("IRI must be non-empty")
        return super().__new__(cls, value)

    @property
    def local(self) -> str:
        """The part after the last '#' or '/', used as a display fallback."""
        for sep in ("#", "/"):
            if sep in self:
                return self.rsplit(sep, 1)[1]
        return str(self)


class EntityKind(Enum):
    OWL_CLASS = "OwlClass"
    OBJECT_PROPERTY = "ObjectProperty"
    ANNOTATION_PROPERTY = "AnnotationProperty"
    DATA_PROPERTY = "DataProperty"
    NAMED_INDIVIDUAL = "NamedIndividual"


@dataclass(frozen=True, slots=True)
class AnnotationValue:
    """A plain or language-tagged literal."""

    text: str
    language_tag: str | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("annotation text must be non-empty")


_LITERAL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def render_literal(value: AnnotationValue) -> str:
    """The literal in Turtle syntax: quoted, escaped, then any language tag."""
    out = f'"{value.text.translate(_LITERAL_ESCAPES)}"'
    return f"{out}@{value.language_tag}" if value.language_tag else out


def term_key(term: "Iri | AnnotationValue") -> tuple:
    """Total order over triple objects and query values: IRIs first."""
    if isinstance(term, AnnotationValue):
        return (1, term.text, term.language_tag or "")
    return (0, str(term))


# ---------------------------------------------------------------------------
# RDF vocabulary
# ---------------------------------------------------------------------------

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = Iri(RDFS_NS + "subPropertyOf")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")
OWL_ANNOTATION_PROPERTY = Iri(OWL_NS + "AnnotationProperty")
OWL_NAMED_INDIVIDUAL = Iri(OWL_NS + "NamedIndividual")
OWL_EQUIVALENT_CLASS = Iri(OWL_NS + "equivalentClass")
OWL_EQUIVALENT_PROPERTY = Iri(OWL_NS + "equivalentProperty")
OWL_DISJOINT_WITH = Iri(OWL_NS + "disjointWith")
OWL_SAME_AS = Iri(OWL_NS + "sameAs")

# A declaration is written as an rdf:type triple whose object is a meta-class.
META_CLASS_KINDS = {
    OWL_CLASS: EntityKind.OWL_CLASS,
    OWL_OBJECT_PROPERTY: EntityKind.OBJECT_PROPERTY,
    OWL_DATATYPE_PROPERTY: EntityKind.DATA_PROPERTY,
    OWL_ANNOTATION_PROPERTY: EntityKind.ANNOTATION_PROPERTY,
    OWL_NAMED_INDIVIDUAL: EntityKind.NAMED_INDIVIDUAL,
}
_META_CLASS_OF_KIND = {kind: iri for iri, kind in META_CLASS_KINDS.items()}


# ---------------------------------------------------------------------------
# Axiom union
# ---------------------------------------------------------------------------

class Axiom:
    """Marker base for the tagged union of supported OWL constructs."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Declaration(Axiom):
    iri: Iri
    kind: EntityKind


@dataclass(frozen=True, slots=True)
class SubClassOf(Axiom):
    sub: Iri
    sup: Iri


@dataclass(frozen=True, slots=True)
class EquivalentClasses(Axiom):
    classes: frozenset[Iri]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", frozenset(self.classes))
        if len(self.classes) < 2:
            raise ValueError("EquivalentClasses needs at least two classes")


@dataclass(frozen=True, slots=True)
class DisjointClasses(Axiom):
    """Unordered pair, stored with a <= b."""

    a: Iri
    b: Iri

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("DisjointClasses needs two distinct classes")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True, slots=True)
class SubObjectPropertyOf(Axiom):
    sub: Iri
    sup: Iri


@dataclass(frozen=True, slots=True)
class EquivalentObjectProperties(Axiom):
    properties: frozenset[Iri]

    def __post_init__(self) -> None:
        object.__setattr__(self, "properties", frozenset(self.properties))
        if len(self.properties) < 2:
            raise ValueError("EquivalentObjectProperties needs at least two properties")


@dataclass(frozen=True, slots=True)
class ObjectPropertyRange(Axiom):
    prop: Iri
    cls: Iri


@dataclass(frozen=True, slots=True)
class ObjectPropertyDomain(Axiom):
    prop: Iri
    cls: Iri


@dataclass(frozen=True, slots=True)
class ClassAssertion(Axiom):
    cls: Iri
    ind: Iri


@dataclass(frozen=True, slots=True)
class ObjectPropertyAssertion(Axiom):
    subject: Iri
    prop: Iri
    object: Iri


@dataclass(frozen=True, slots=True)
class SameIndividual(Axiom):
    """Unordered pair, stored with a <= b."""

    a: Iri
    b: Iri

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("SameIndividual needs two distinct individuals")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True, slots=True)
class AnnotationAssertion(Axiom):
    subject: Iri
    prop: Iri
    value: AnnotationValue


# ---------------------------------------------------------------------------
# Axiom-type table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Field:
    """One field of an axiom type, in dataclass order.

    ``shape`` is the type of its value: ``Iri``, ``frozenset`` (of IRIs),
    ``EntityKind`` or ``AnnotationValue``. An IRI here must be declared with
    ``kind``, or with any kind when ``kind`` is None. ``json`` is its key in
    the JSON interchange form (the field name unless given).
    """

    name: str
    shape: type = Iri
    kind: EntityKind | None = None
    json: str = ""

    def __post_init__(self) -> None:
        if not self.json:
            object.__setattr__(self, "json", self.name)


# How a field value enters the sort key; IRIs enter as they are.
_SORT_PART: dict[type, Callable] = {
    frozenset: lambda v: tuple(sorted(v)),
    EntityKind: attrgetter("value"),
    AnnotationValue: lambda v: (v.text, v.language_tag or ""),
}


@dataclass(frozen=True, slots=True)
class AxiomType:
    """Everything the library knows about one axiom type.

    In RDF the axiom is the triple ``subject predicate obj``, where
    ``subject`` and ``obj`` name fields and a None ``predicate`` means the
    axiom's own ``prop`` field. A declaration's object is the meta-class of
    its kind. A ``symmetric`` axiom is one triple per ordered pair of its
    members; a set-valued field (equivalence) is both subject and object.
    ``order`` places the predicate inside a Turtle subject block. Logical
    axioms are the ones counted by ``logicalAxiomCount``.

    The callables below are built once per type, so no per-axiom code
    inspects the dataclass fields.
    """

    cls: type
    fields: tuple[Field, ...]
    subject: str
    obj: str
    predicate: Iri | None
    symmetric: bool = False
    order: int = 0
    logical: bool = True
    # Derived from the above in __post_init__.
    tag: str = field(init=False)  # the type's name, also its JSON "kind"
    members: str | None = field(init=False)  # the set-valued field, if any
    refs: tuple[Field, ...] = field(init=False)  # fields naming other entities
    subject_of: Callable[[Axiom], Iri] = field(init=False)
    triple: Callable[[Axiom], tuple] | None = field(init=False)  # if not symmetric
    pair: Callable[[Axiom], Iterable[Iri]] | None = field(init=False)  # if symmetric
    sort_key: Callable[[Axiom], tuple] = field(init=False)

    def __post_init__(self) -> None:
        members = next((f.name for f in self.fields if f.shape is frozenset), None)
        # A declaration introduces its IRI rather than referencing it.
        declares = any(f.shape is EntityKind for f in self.fields)
        refs = () if declares else tuple(
            f for f in self.fields if f.shape is Iri or f.shape is frozenset
        )
        subject_of: Callable = attrgetter(self.subject)
        if self.subject == members:
            subject_of = lambda ax, get=subject_of: min(get(ax))  # noqa: E731
        set_ = object.__setattr__
        set_(self, "tag", self.cls.__name__)
        set_(self, "members", members)
        set_(self, "refs", refs)
        set_(self, "subject_of", subject_of)
        if self.symmetric:
            set_(self, "triple", None)
            set_(self, "pair", attrgetter(self.subject) if self.subject == self.obj
                 else attrgetter(self.subject, self.obj))
        else:
            set_(self, "triple", self._make_triple(declares))
            set_(self, "pair", None)
        set_(self, "sort_key", self._make_sort_key())

    def _make_triple(self, declares: bool) -> Callable[[Axiom], tuple]:
        if self.predicate is None:
            return attrgetter(self.subject, "prop", self.obj)
        s, p, o = attrgetter(self.subject), self.predicate, attrgetter(self.obj)
        if declares:
            return lambda ax: (s(ax), p, _META_CLASS_OF_KIND[o(ax)])
        return lambda ax: (s(ax), p, o(ax))

    def _make_sort_key(self) -> Callable[[Axiom], tuple]:
        tag = self.tag
        names = tuple(f.name for f in self.fields)
        parts = tuple(_SORT_PART.get(f.shape) for f in self.fields)
        if len(names) > 1 and not any(parts):  # IRIs only: the values are the key
            values = attrgetter(*names)
            return lambda ax: (tag, values(ax))
        pairs = tuple(zip(names, parts))
        return lambda ax: (tag, tuple(
            getattr(ax, n) if part is None else part(getattr(ax, n)) for n, part in pairs
        ))

    def from_pair(self, subject: Iri, obj: Iri) -> Axiom:
        """The axiom of this type whose triple is ``subject predicate obj``."""
        if self.members is not None:
            return self.cls(frozenset((subject, obj)))
        return self.cls(**{self.subject: subject, self.obj: obj})


_CLASS = EntityKind.OWL_CLASS
_PROPERTY = EntityKind.OBJECT_PROPERTY
_INDIVIDUAL = EntityKind.NAMED_INDIVIDUAL

AXIOM_TYPES: dict[type, AxiomType] = {row.cls: row for row in (
    AxiomType(
        Declaration, (Field("iri"), Field("kind", EntityKind, json="entityKind")),
        "iri", "kind", RDF_TYPE, order=0, logical=False,
    ),
    AxiomType(
        SubClassOf, (Field("sub", kind=_CLASS), Field("sup", kind=_CLASS)),
        "sub", "sup", RDFS_SUBCLASSOF, order=1,
    ),
    AxiomType(
        EquivalentClasses, (Field("classes", frozenset, _CLASS),),
        "classes", "classes", OWL_EQUIVALENT_CLASS, symmetric=True, order=2,
    ),
    AxiomType(
        DisjointClasses, (Field("a", kind=_CLASS), Field("b", kind=_CLASS)),
        "a", "b", OWL_DISJOINT_WITH, symmetric=True, order=3,
    ),
    AxiomType(
        SubObjectPropertyOf, (Field("sub", kind=_PROPERTY), Field("sup", kind=_PROPERTY)),
        "sub", "sup", RDFS_SUBPROPERTYOF, order=6,
    ),
    AxiomType(
        EquivalentObjectProperties, (Field("properties", frozenset, _PROPERTY),),
        "properties", "properties", OWL_EQUIVALENT_PROPERTY, symmetric=True, order=2,
    ),
    AxiomType(
        ObjectPropertyRange, (Field("prop", kind=_PROPERTY), Field("cls", kind=_CLASS)),
        "prop", "cls", RDFS_RANGE, order=4,
    ),
    AxiomType(
        ObjectPropertyDomain, (Field("prop", kind=_PROPERTY), Field("cls", kind=_CLASS)),
        "prop", "cls", RDFS_DOMAIN, order=5,
    ),
    AxiomType(
        ClassAssertion, (Field("cls", kind=_CLASS), Field("ind", kind=_INDIVIDUAL)),
        "ind", "cls", RDF_TYPE, order=0,
    ),
    AxiomType(
        ObjectPropertyAssertion,
        (Field("subject", kind=_INDIVIDUAL), Field("prop", kind=_PROPERTY),
         Field("object", kind=_INDIVIDUAL)),
        "subject", "object", None, order=7,
    ),
    AxiomType(
        SameIndividual, (Field("a", kind=_INDIVIDUAL), Field("b", kind=_INDIVIDUAL)),
        "a", "b", OWL_SAME_AS, symmetric=True, order=7,
    ),
    AxiomType(
        AnnotationAssertion,
        (Field("subject"), Field("prop", kind=EntityKind.ANNOTATION_PROPERTY, json="annProp"),
         Field("value", AnnotationValue)),
        "subject", "value", None, order=8, logical=False,
    ),
)}


# The fixed predicates of the triples view. Declaring one as an entity would
# let its assertions render the same triples as a structural axiom.
_RESERVED_PREDICATES = frozenset(
    row.predicate for row in AXIOM_TYPES.values() if row.predicate is not None
)


def axiom_type(ax: Axiom) -> AxiomType:
    """The table row of the axiom's type."""
    try:
        return AXIOM_TYPES[type(ax)]
    except KeyError:
        raise TypeError(f"unknown axiom type {type(ax).__name__}") from None


def referenced_entities(ax: Axiom) -> list[tuple[Iri, EntityKind | None]]:
    """Every IRI a non-declaration axiom references, with its required kind."""
    out: list[tuple[Iri, EntityKind | None]] = []
    for f in AXIOM_TYPES[type(ax)].refs:
        value = getattr(ax, f.name)
        if f.shape is frozenset:
            out.extend((iri, f.kind) for iri in sorted(value))
        else:
            out.append((value, f.kind))
    return out


def axiom_subject(ax: Axiom) -> Iri:
    """The IRI an axiom is grouped under when serialized or indexed."""
    return axiom_type(ax).subject_of(ax)


def axiom_sort_key(ax: Axiom) -> tuple:
    """Key of the deterministic total order: type name, then field values."""
    return axiom_type(ax).sort_key(ax)


def sorted_axioms(axioms: Iterable[Axiom]) -> list[Axiom]:
    """Deterministic total order over axioms, for output and diffing."""
    return sorted(axioms, key=axiom_sort_key)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

class OntologyStore:
    """Declared entities plus a normalized axiom set, indexed by subject.

    Mutations are single-writer; hand a ``copy()`` to other threads of
    control for concurrent reads. Normalization folds overlapping
    EquivalentClasses / EquivalentObjectProperties axioms into one maximal
    set each, so equivalence is always stored as its connected component.
    """

    def __init__(self, prefixes: dict[str, str] | None = None):
        self.prefixes: dict[str, str] = dict(prefixes or {})
        self.axioms: set[Axiom] = set()
        self._kinds: dict[Iri, EntityKind] = {}
        self.by_subject: dict[Iri, set[Axiom]] = defaultdict(set)

    # -- mutation ----------------------------------------------------------

    def declare(self, iri: Iri, kind: EntityKind) -> "OntologyStore":
        """Add a Declaration axiom. Idempotent; punning is rejected, and so
        are the predicates that axioms render to, which no entity may reuse."""
        iri = Iri(iri)
        if iri in _RESERVED_PREDICATES:
            raise ValidationError(f"{iri} is a reserved predicate and cannot be declared")
        existing = self._kinds.get(iri)
        if existing is not None and existing is not kind:
            raise KindConflict(
                f"{iri} already declared as {existing.value}, cannot redeclare as {kind.value}"
            )
        if existing is None:
            self._kinds[iri] = kind
            self._insert(Declaration(iri, kind))
        return self

    def add(self, ax: Axiom) -> "OntologyStore":
        """Add an axiom, checking that every referenced entity is declared
        with the kind its position requires."""
        if isinstance(ax, Declaration):
            return self.declare(ax.iri, ax.kind)
        for iri, required in referenced_entities(ax):
            actual = self._kinds.get(iri)
            if actual is None:
                raise UndeclaredEntity(f"{iri} is not declared")
            if required is not None and actual is not required:
                raise KindMismatch(
                    f"{iri} is declared as {actual.value}; "
                    f"{type(ax).__name__} requires {required.value}"
                )
        row = AXIOM_TYPES[type(ax)]
        if row.members is not None:
            ax = self._merge_equivalence(ax, row)
        self._insert(ax)
        return self

    def _merge_equivalence(self, ax: Axiom, row: AxiomType) -> Axiom:
        # Keep equivalence axioms maximal: union with any overlapping set.
        attr = row.members
        members = set(getattr(ax, attr))
        overlapping = [
            old for old in self.axioms
            if type(old) is row.cls and getattr(old, attr) & members
        ]
        if not overlapping:
            return ax
        for old in overlapping:
            members |= getattr(old, attr)
            self._remove(old)
        return row.cls(frozenset(members))

    def _insert(self, ax: Axiom) -> None:
        if ax in self.axioms:
            return
        self.axioms.add(ax)
        self.by_subject[axiom_subject(ax)].add(ax)

    def _remove(self, ax: Axiom) -> None:
        self.axioms.discard(ax)
        self.by_subject[axiom_subject(ax)].discard(ax)

    # -- lookup ------------------------------------------------------------

    def kind_of(self, iri: Iri) -> EntityKind | None:
        return self._kinds.get(iri)

    def declared(self, kind: EntityKind | None = None) -> list[Iri]:
        """Declared IRIs, optionally restricted to one kind, sorted."""
        if kind is None:
            return sorted(self._kinds)
        return sorted(i for i, k in self._kinds.items() if k is kind)

    def axioms_of(self, *types: type) -> Iterator[Axiom]:
        return (ax for ax in self.axioms if isinstance(ax, types))

    # -- prefix handling ---------------------------------------------------

    def resolve(self, name: str) -> Iri:
        """Resolve a CURIE against the prefix map; absolute IRIs pass through."""
        if ":" in name:
            prefix, local = name.split(":", 1)
            base = self.prefixes.get(prefix)
            if base is not None and not local.startswith("//"):
                return Iri(base + local)
        return Iri(name)

    def compact(self, iri: Iri) -> str:
        """Shorten an IRI to a CURIE when a declared prefix covers it."""
        best: tuple[str, str] | None = None
        for prefix, base in self.prefixes.items():
            if iri.startswith(base) and (best is None or len(base) > len(best[1])):
                best = (prefix, base)
        if best is None:
            return str(iri)
        return f"{best[0]}:{iri[len(best[1]):]}"

    # -- bookkeeping -------------------------------------------------------

    def copy(self) -> "OntologyStore":
        dup = OntologyStore(self.prefixes)
        dup.axioms = set(self.axioms)
        dup._kinds = dict(self._kinds)
        dup.by_subject = defaultdict(set, {k: set(v) for k, v in self.by_subject.items()})
        return dup

    def validate(self) -> list[str]:
        """Full structural scan; returns human-readable problems (empty = ok)."""
        problems: list[str] = []
        declared_twice: dict[Iri, set[EntityKind]] = defaultdict(set)
        for ax in self.axioms_of(Declaration):
            declared_twice[ax.iri].add(ax.kind)
        for iri, kinds in declared_twice.items():
            if len(kinds) > 1:
                problems.append(f"{iri} declared with multiple kinds")
        for ax in self.axioms:
            for iri, required in referenced_entities(ax):
                actual = self._kinds.get(iri)
                if actual is None:
                    problems.append(f"{type(ax).__name__} references undeclared {iri}")
                elif required is not None and actual is not required:
                    problems.append(
                        f"{type(ax).__name__} needs {iri} to be {required.value}, "
                        f"found {actual.value}"
                    )
        return problems

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Ontology statistics in the style of an editor's summary panel.

    The total follows the convention
    ``axiom_count = logical + declaration + annotation assertions``;
    counts are over asserted axioms only, never inferred ones.
    """

    axiom_count: int
    logical_axiom_count: int
    declaration_axiom_count: int
    annotation_assertion_count: int
    class_count: int
    object_property_count: int
    data_property_count: int
    individual_count: int
    annotation_property_count: int

    TABLE_ROWS = (
        ("Axiom", "axiom_count"),
        ("Logical axioms count", "logical_axiom_count"),
        ("Declaration axioms count", "declaration_axiom_count"),
        ("Class count", "class_count"),
        ("Object property count", "object_property_count"),
        ("Data property count", "data_property_count"),
        ("Individual count", "individual_count"),
        ("Annotation property count", "annotation_property_count"),
    )

    def as_table(self) -> str:
        width = max(len(label) for label, _ in self.TABLE_ROWS)
        lines = [f"{'Metric'.ljust(width)}  Value"]
        for label, attr in self.TABLE_ROWS:
            lines.append(f"{label.ljust(width)}  {getattr(self, attr)}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, int]:
        return {
            "axiomCount": self.axiom_count,
            "logicalAxiomCount": self.logical_axiom_count,
            "declarationAxiomCount": self.declaration_axiom_count,
            "annotationAssertionCount": self.annotation_assertion_count,
            "classCount": self.class_count,
            "objectPropertyCount": self.object_property_count,
            "dataPropertyCount": self.data_property_count,
            "individualCount": self.individual_count,
            "annotationPropertyCount": self.annotation_property_count,
        }


def compute_metrics(store: OntologyStore) -> MetricsReport:
    per_type = Counter(map(type, store.axioms))
    return MetricsReport(
        axiom_count=len(store.axioms),
        logical_axiom_count=sum(
            per_type[row.cls] for row in AXIOM_TYPES.values() if row.logical
        ),
        declaration_axiom_count=per_type[Declaration],
        annotation_assertion_count=per_type[AnnotationAssertion],
        class_count=len(store.declared(EntityKind.OWL_CLASS)),
        object_property_count=len(store.declared(EntityKind.OBJECT_PROPERTY)),
        data_property_count=len(store.declared(EntityKind.DATA_PROPERTY)),
        individual_count=len(store.declared(EntityKind.NAMED_INDIVIDUAL)),
        annotation_property_count=len(store.declared(EntityKind.ANNOTATION_PROPERTY)),
    )
