"""Entity and axiom data model, the axiom-type table, the axiom store, and
ontology metrics.

The store keeps a duplicate-free set of axioms over declared entities.
Entities are plain absolute IRIs; CURIE resolution happens at the parsing
boundaries (see :mod:`aieo.turtle` and :mod:`aieo.jsonio`). Axioms and
literals are immutable tuples tagged by their type, so building, hashing
and comparing one are C tuple operations. Each axiom class lists its fields
once; what else each axiom type looks like (its triples, JSON form and sort
order) is described once, in :data:`AXIOM_TYPES`, and every other module
reads it from there.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

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


def resolve_curie(name: str, prefixes: Mapping[str, str]) -> Iri:
    """``name`` as a CURIE over ``prefixes``: split at the first ':', and
    expand a known prefix unless the local part starts with '//'. Any other
    name is taken as an absolute IRI."""
    prefix, colon, local = name.partition(":")
    base = prefixes.get(prefix) if colon else None
    if base is not None and not local.startswith("//"):
        return Iri(base + local)
    return Iri(name)


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
# Records: axioms and literals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Field:
    """One field of a record type, in tuple order.

    For an axiom field, ``shape`` is the type of its value: ``Iri``,
    ``frozenset`` (of IRIs), ``EntityKind`` or ``AnnotationValue``. An IRI
    here must be declared with ``kind``, or with any kind when ``kind`` is
    None. ``json`` is its key in the JSON interchange form (the field name
    unless given).
    """

    name: str
    shape: type = Iri
    kind: EntityKind | None = None
    json: str = ""

    def __post_init__(self) -> None:
        if not self.json:
            object.__setattr__(self, "json", self.name)


def _value_repr(value: object) -> str:
    """``repr(value)``, with a set's members in sorted order so that equal
    records print alike in every run."""
    if isinstance(value, frozenset):
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


class _Record(tuple):
    """An immutable value stored as a tuple tagged by its type: element 0 is
    the class, then the field values in ``_fields`` order. Equality and hash
    include the type, so records of two types are unequal even when their
    fields agree.

    A subclass lists its fields with the ``fields`` class keyword (and
    trailing ``defaults``), declares ``__slots__ = ()``, and may define
    ``_normalize``, which takes the field values and returns them normalized
    or raises ValueError. Construction is one ``tuple.__new__`` after
    ``_normalize``; hashing and equality are the C tuple operations; each
    field is read by name through the C getter of
    :func:`collections.namedtuple`. Read fields by name, never by index or
    unpacking.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the field names, as in a namedtuple
    _field_specs: tuple[Field, ...] = ()

    def __init_subclass__(cls, fields: tuple[Field, ...] = (), defaults: tuple = ()) -> None:
        super().__init_subclass__()
        if not fields:  # an abstract base such as Axiom
            return
        names = tuple(f.name for f in fields)
        getters = vars(namedtuple(cls.__name__, ("tag", *names)))
        for name in names:
            setattr(cls, name, getters[name])
        normalize = getattr(cls, "_normalize", None)
        args = ", ".join(names)
        values = f"*_normalize({args})" if normalize else args
        namespace = {"_new": tuple.__new__, "_normalize": normalize}
        exec(f"def __new__(_cls, {args}):\n    return _new(_cls, (_cls, {values}))", namespace)
        new = namespace["__new__"]
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        new.__defaults__ = defaults or None
        cls.__new__ = staticmethod(new)
        cls._fields = cls.__match_args__ = names
        cls._field_specs = fields

    def __repr__(self) -> str:
        values = ", ".join(map("{}={}".format, self._fields, map(_value_repr, self[1:])))
        return f"{type(self).__qualname__}({values})"

    def __getnewargs__(self) -> tuple:
        return self[1:]


class AnnotationValue(_Record, fields=(Field("text", str), Field("language_tag", str)),
                      defaults=(None,)):
    """A plain or language-tagged literal.

    Like an axiom, it is an immutable tuple tagged by its type, so equality
    and hash include the type; read its fields by name, never by index or
    unpacking.
    """

    __slots__ = ()

    @staticmethod
    def _normalize(text: str, tag: str | None) -> tuple:
        if not text:
            raise ValueError("annotation text must be non-empty")
        # Exactly what the Turtle lexer reads back after '@'.
        if tag is not None and not (tag and all(c.isalnum() or c == "-" for c in tag)):
            raise ValueError(
                f"language tag {tag!r} must be letters, digits and '-', and non-empty"
            )
        return text, tag


def _distinct_pair(message: str) -> Callable[[Iri, Iri], tuple]:
    """Normalization of an unordered pair: distinct, stored with a <= b."""
    def normalize(a: Iri, b: Iri) -> tuple:
        if a == b:
            raise ValueError(message)
        return (a, b) if a < b else (b, a)
    return normalize


def _member_set(message: str) -> Callable[[Iterable[Iri]], tuple]:
    """Normalization of an equivalence: a frozenset of two or more members."""
    def normalize(members: Iterable[Iri]) -> tuple:
        members = frozenset(members)
        if len(members) < 2:
            raise ValueError(message)
        return (members,)
    return normalize


_CLASS = EntityKind.OWL_CLASS
_PROPERTY = EntityKind.OBJECT_PROPERTY
_INDIVIDUAL = EntityKind.NAMED_INDIVIDUAL


class Axiom(_Record):
    """Base of the tagged union of supported OWL constructs.

    Each axiom is an immutable tuple tagged by its type: element 0 is the
    class, then the field values. ``isinstance(ax, tuple)`` holds, and
    equality and hash include the type, so ``SubClassOf(A, B)`` and
    ``DisjointClasses(A, B)`` are two axioms. Read fields by name, never
    by index or unpacking.
    """

    __slots__ = ()


class Declaration(Axiom, fields=(Field("iri"), Field("kind", EntityKind, json="entityKind"))):
    __slots__ = ()


class SubClassOf(Axiom, fields=(Field("sub", kind=_CLASS), Field("sup", kind=_CLASS))):
    __slots__ = ()


class EquivalentClasses(Axiom, fields=(Field("classes", frozenset, _CLASS),)):
    __slots__ = ()
    _normalize = staticmethod(_member_set("EquivalentClasses needs at least two classes"))


class DisjointClasses(Axiom, fields=(Field("a", kind=_CLASS), Field("b", kind=_CLASS))):
    """Unordered pair, stored with a <= b."""

    __slots__ = ()
    _normalize = staticmethod(_distinct_pair("DisjointClasses needs two distinct classes"))


class SubObjectPropertyOf(Axiom, fields=(Field("sub", kind=_PROPERTY),
                                         Field("sup", kind=_PROPERTY))):
    __slots__ = ()


class EquivalentObjectProperties(Axiom, fields=(Field("properties", frozenset, _PROPERTY),)):
    __slots__ = ()
    _normalize = staticmethod(
        _member_set("EquivalentObjectProperties needs at least two properties")
    )


class ObjectPropertyRange(Axiom, fields=(Field("prop", kind=_PROPERTY),
                                         Field("cls", kind=_CLASS))):
    __slots__ = ()


class ObjectPropertyDomain(Axiom, fields=(Field("prop", kind=_PROPERTY),
                                          Field("cls", kind=_CLASS))):
    __slots__ = ()


class ClassAssertion(Axiom, fields=(Field("cls", kind=_CLASS), Field("ind", kind=_INDIVIDUAL))):
    __slots__ = ()


class ObjectPropertyAssertion(Axiom, fields=(Field("subject", kind=_INDIVIDUAL),
                                             Field("prop", kind=_PROPERTY),
                                             Field("object", kind=_INDIVIDUAL))):
    __slots__ = ()


class SameIndividual(Axiom, fields=(Field("a", kind=_INDIVIDUAL),
                                    Field("b", kind=_INDIVIDUAL))):
    """Unordered pair, stored with a <= b."""

    __slots__ = ()
    _normalize = staticmethod(_distinct_pair("SameIndividual needs two distinct individuals"))


class AnnotationAssertion(Axiom, fields=(
    Field("subject"),
    Field("prop", kind=EntityKind.ANNOTATION_PROPERTY, json="annProp"),
    Field("value", AnnotationValue),
)):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Axiom-type table
# ---------------------------------------------------------------------------

# How a field value enters the sort key; IRIs enter as they are.
_SORT_PART: dict[type, Callable] = {
    frozenset: lambda v: tuple(sorted(v)),
    EntityKind: attrgetter("value"),
    AnnotationValue: lambda v: (v.text, v.language_tag or ""),
}


@dataclass(frozen=True, slots=True)
class AxiomType:
    """Everything the library knows about one axiom type beyond its fields,
    which the class itself lists.

    In RDF the axiom is the triple ``subject predicate obj``, where
    ``subject`` and ``obj`` name fields and a None ``predicate`` means the
    axiom's own ``prop`` field. A declaration's object is the meta-class of
    its kind. A ``symmetric`` axiom is one triple per ordered pair of its
    members; a set-valued field (equivalence) is both subject and object.
    ``order`` places the predicate inside a Turtle subject block. Logical
    axioms are the ones counted by ``logicalAxiomCount``.

    The callables below are built once per type, so no per-axiom code
    inspects the fields.
    """

    cls: type
    subject: str
    obj: str
    predicate: Iri | None
    symmetric: bool = False
    order: int = 0
    logical: bool = True
    # Derived from the above in __post_init__.
    fields: tuple[Field, ...] = field(init=False)  # the class's own, in tuple order
    tag: str = field(init=False)  # the type's name, also its JSON "kind"
    members: str | None = field(init=False)  # the set-valued field, if any
    refs: tuple[Field, ...] = field(init=False)  # fields naming other entities
    subject_of: Callable[[Axiom], Iri] = field(init=False)
    triple: Callable[[Axiom], tuple] | None = field(init=False)  # if not symmetric
    pair: Callable[[Axiom], Iterable[Iri]] | None = field(init=False)  # if symmetric
    sort_key: Callable[[Axiom], tuple] = field(init=False)

    def __post_init__(self) -> None:
        fields = self.cls._field_specs
        members = next((f.name for f in fields if f.shape is frozenset), None)
        # A declaration introduces its IRI rather than referencing it.
        declares = any(f.shape is EntityKind for f in fields)
        refs = () if declares else tuple(
            f for f in fields if f.shape is Iri or f.shape is frozenset
        )
        subject_of: Callable = attrgetter(self.subject)
        if self.subject == members:
            subject_of = lambda ax, get=subject_of: min(get(ax))  # noqa: E731
        set_ = object.__setattr__
        set_(self, "fields", fields)
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

    def triples(self, ax: Axiom) -> list[tuple]:
        """Every triple the axiom renders to: one per ordered pair of
        distinct members when symmetric, else its one triple."""
        if self.triple is not None:
            return [self.triple(ax)]
        members, pred = self.pair(ax), self.predicate
        return [(a, pred, b) for a in members for b in members if a != b]

    def from_pair(self, subject: Iri, obj: Iri) -> Axiom:
        """The axiom of this type whose triple is ``subject predicate obj``."""
        if self.members is not None:
            return self.cls(frozenset((subject, obj)))
        return self.cls(**{self.subject: subject, self.obj: obj})


AXIOM_TYPES: dict[type, AxiomType] = {row.cls: row for row in (
    AxiomType(Declaration, "iri", "kind", RDF_TYPE, order=0, logical=False),
    AxiomType(SubClassOf, "sub", "sup", RDFS_SUBCLASSOF, order=1),
    AxiomType(
        EquivalentClasses, "classes", "classes", OWL_EQUIVALENT_CLASS, symmetric=True, order=2
    ),
    AxiomType(DisjointClasses, "a", "b", OWL_DISJOINT_WITH, symmetric=True, order=3),
    AxiomType(SubObjectPropertyOf, "sub", "sup", RDFS_SUBPROPERTYOF, order=6),
    AxiomType(
        EquivalentObjectProperties, "properties", "properties", OWL_EQUIVALENT_PROPERTY,
        symmetric=True, order=2,
    ),
    AxiomType(ObjectPropertyRange, "prop", "cls", RDFS_RANGE, order=4),
    AxiomType(ObjectPropertyDomain, "prop", "cls", RDFS_DOMAIN, order=5),
    AxiomType(ClassAssertion, "ind", "cls", RDF_TYPE, order=0),
    AxiomType(ObjectPropertyAssertion, "subject", "object", None, order=7),
    AxiomType(SameIndividual, "a", "b", OWL_SAME_AS, symmetric=True, order=7),
    AxiomType(AnnotationAssertion, "subject", "value", None, order=8, logical=False),
)}


_DECLARATION = AXIOM_TYPES[Declaration]
_ANY_KIND = frozenset(EntityKind)

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

def _index_under(index: dict[Iri, set[Axiom]], subject: Iri, ax: Axiom) -> None:
    entry = index.get(subject)
    if entry is None:
        index[subject] = {ax}
    else:
        entry.add(ax)


class OntologyStore:
    """Declared entities plus a normalized axiom set, indexed by type and by
    subject.

    ``add``, its batch form ``update``, and ``declare`` are the only writers.
    Readers use ``ax in store``, iteration, ``len(store)``, ``axioms_of``
    and the read-only ``by_subject`` index, which holds a key only while
    some axiom has that subject; ``axioms`` is a frozen snapshot for set
    algebra.
    Mutations are single-writer; hand a ``copy()`` to other threads of
    control for concurrent reads. Normalization folds overlapping
    EquivalentClasses / EquivalentObjectProperties axioms into one maximal
    set each, so equivalence is always stored as its connected component.
    """

    def __init__(self, prefixes: dict[str, str] | None = None):
        self.prefixes: dict[str, str] = dict(prefixes or {})
        # The axioms themselves: one set per AXIOM_TYPES row.
        self._by_type: dict[type, set[Axiom]] = {cls: set() for cls in AXIOM_TYPES}
        self._kinds: dict[Iri, EntityKind] = {}
        self._by_subject: dict[Iri, set[Axiom]] = {}
        self.by_subject = MappingProxyType(self._by_subject)
        # Each member of a stored equivalence axiom, mapped to that axiom.
        self._equivalence: dict[Iri, Axiom] = {}

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
            self._insert(Declaration(iri, kind), _DECLARATION)
        return self

    def add(self, ax: Axiom) -> "OntologyStore":
        """Add an axiom, checking that every referenced entity is declared
        with the kind its position requires."""
        row = axiom_type(ax)
        if row.cls is Declaration:
            return self.declare(ax.iri, ax.kind)
        for iri, required, actual in self._bad_references(ax, row):
            if actual is None:
                raise UndeclaredEntity(f"{iri} is not declared")
            raise KindMismatch(
                f"{iri} is declared as {actual.value}; {row.tag} requires {required.value}"
            )
        if row.members is not None:
            ax = self._merge_equivalence(ax, row)
        self._insert(ax, row)
        return self

    def update(self, axioms: Iterable[Axiom]) -> "OntologyStore":
        """Add each axiom in order: the same checks, the same resulting store
        and the same first error as calling ``add`` on each. Between two
        declarations, each reference field of each axiom type is checked
        with one set inclusion, and the axioms go in with ``set.update``."""
        batch: list[Axiom] = []
        for ax in axioms:
            if type(ax) is Declaration:
                if batch:
                    self._add_batch(batch)
                    batch = []
                self.declare(ax.iri, ax.kind)
            else:
                batch.append(ax)
        self._add_batch(batch)
        return self

    def _add_batch(self, axioms: list[Axiom]) -> None:
        groups: dict[type, list[Axiom]] = defaultdict(list)
        for ax in axioms:
            groups[type(ax)].append(ax)
        rows = [AXIOM_TYPES.get(cls) for cls in groups]
        if not all(row is not None and self._references_declared(row, groups[row.cls])
                   for row in rows):
            for ax in axioms:  # raises the error the first failing add raises
                self.add(ax)
            return
        index = self._by_subject
        for row in rows:
            group = groups[row.cls]
            if row.members is not None:  # equivalence axioms merge one by one
                for ax in group:
                    self.add(ax)
                continue
            self._by_type[row.cls].update(group)
            subject_of = row.subject_of
            for ax in group:
                _index_under(index, subject_of(ax), ax)

    def _references_declared(self, row: AxiomType, group: Iterable[Axiom]) -> bool:
        """Whether every IRI the axioms reference is declared with the kind
        its position requires."""
        for f in row.refs:
            values = map(attrgetter(f.name), group)
            if f.shape is frozenset:
                values = chain.from_iterable(values)
            kinds = set(map(self._kinds.get, set(values)))
            if not kinds <= (_ANY_KIND if f.kind is None else {f.kind}):
                return False
        return True

    def _bad_references(
        self, ax: Axiom, row: AxiomType
    ) -> Iterator[tuple[Iri, EntityKind | None, EntityKind | None]]:
        """Each IRI the axiom references that is undeclared (``actual`` is
        None) or declared with another kind than its position requires."""
        kinds = self._kinds
        for f in row.refs:
            value = getattr(ax, f.name)
            for iri in sorted(value) if f.shape is frozenset else (value,):
                actual = kinds.get(iri)
                if actual is None or (f.kind is not None and actual is not f.kind):
                    yield iri, f.kind, actual

    def _merge_equivalence(self, ax: Axiom, row: AxiomType) -> Axiom:
        # Keep equivalence axioms maximal: union with any overlapping set.
        members = getattr(ax, row.members)
        overlapping = {
            self._equivalence[iri] for iri in members if iri in self._equivalence
        }
        if not overlapping:
            return ax
        merged = set(members)
        for old in overlapping:
            merged |= getattr(old, row.members)
            self._remove(old, row)
        return row.cls(frozenset(merged))

    def _insert(self, ax: Axiom, row: AxiomType) -> None:
        axioms = self._by_type[row.cls]
        size = len(axioms)
        axioms.add(ax)
        if len(axioms) == size:
            return
        _index_under(self._by_subject, row.subject_of(ax), ax)
        if row.members is not None:
            for iri in getattr(ax, row.members):
                self._equivalence[iri] = ax

    def _remove(self, ax: Axiom, row: AxiomType) -> None:
        self._by_type[row.cls].discard(ax)
        subject = row.subject_of(ax)
        entry = self._by_subject[subject]
        entry.discard(ax)
        if not entry:
            del self._by_subject[subject]
        for iri in getattr(ax, row.members):
            del self._equivalence[iri]

    # -- lookup ------------------------------------------------------------

    def kind_of(self, iri: Iri) -> EntityKind | None:
        return self._kinds.get(iri)

    def declared(self, kind: EntityKind | None = None) -> list[Iri]:
        """Declared IRIs, optionally restricted to one kind, sorted."""
        if kind is None:
            return sorted(self._kinds)
        return sorted(i for i, k in self._kinds.items() if k is kind)

    def __contains__(self, ax: object) -> bool:
        return ax in self._by_type.get(type(ax), ())

    def __iter__(self) -> Iterator[Axiom]:
        return chain.from_iterable(self._by_type.values())

    def __len__(self) -> int:
        return sum(map(len, self._by_type.values()))

    @property
    def axioms(self) -> frozenset[Axiom]:
        """A read-only snapshot of every axiom; building it costs O(n)."""
        return frozenset(self)

    def axioms_of(self, *types: type) -> Iterator[Axiom]:
        """The axioms of exactly the given types (each an AXIOM_TYPES key)."""
        return chain.from_iterable(self._by_type[cls] for cls in types)

    # -- prefix handling ---------------------------------------------------

    def resolve(self, name: str) -> Iri:
        """Resolve a CURIE against the prefix map; absolute IRIs pass through."""
        return resolve_curie(name, self.prefixes)

    def compact(self, iri: Iri) -> str:
        """Shorten an IRI to a CURIE when a declared prefix covers it: the
        prefix with the longest base, of equal bases the least name."""
        best: tuple[str, str] | None = None
        for prefix, base in self.prefixes.items():
            if iri.startswith(base) and (
                best is None
                or len(base) > len(best[1])
                or (len(base) == len(best[1]) and prefix < best[0])
            ):
                best = (prefix, base)
        if best is None:
            return str(iri)
        return f"{best[0]}:{iri[len(best[1]):]}"

    # -- bookkeeping -------------------------------------------------------

    def copy(self) -> "OntologyStore":
        dup = OntologyStore(self.prefixes)
        dup._by_type = {cls: set(axioms) for cls, axioms in self._by_type.items()}
        dup._kinds = dict(self._kinds)
        dup._equivalence = dict(self._equivalence)
        dup._by_subject = {k: set(v) for k, v in self._by_subject.items()}
        dup.by_subject = MappingProxyType(dup._by_subject)
        return dup

    def validate(self) -> list[str]:
        """Full structural scan; returns human-readable problems (empty = ok).
        Only the axiom types whose references fail the set check of
        ``update`` are scanned axiom by axiom."""
        problems: list[str] = []
        declared_twice: dict[Iri, set[EntityKind]] = defaultdict(set)
        for ax in self.axioms_of(Declaration):
            declared_twice[ax.iri].add(ax.kind)
        for iri, kinds in declared_twice.items():
            if len(kinds) > 1:
                problems.append(f"{iri} declared with multiple kinds")
        for row in AXIOM_TYPES.values():
            axioms = self._by_type[row.cls]
            if self._references_declared(row, axioms):
                continue
            for ax in axioms:
                for iri, required, actual in self._bad_references(ax, row):
                    if actual is None:
                        problems.append(f"{row.tag} references undeclared {iri}")
                    else:
                        problems.append(
                            f"{row.tag} needs {iri} to be {required.value}, "
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
    per_type = store._by_type
    return MetricsReport(
        axiom_count=len(store),
        logical_axiom_count=sum(
            len(per_type[row.cls]) for row in AXIOM_TYPES.values() if row.logical
        ),
        declaration_axiom_count=len(per_type[Declaration]),
        annotation_assertion_count=len(per_type[AnnotationAssertion]),
        class_count=len(store.declared(EntityKind.OWL_CLASS)),
        object_property_count=len(store.declared(EntityKind.OBJECT_PROPERTY)),
        data_property_count=len(store.declared(EntityKind.DATA_PROPERTY)),
        individual_count=len(store.declared(EntityKind.NAMED_INDIVIDUAL)),
        annotation_property_count=len(store.declared(EntityKind.ANNOTATION_PROPERTY)),
    )
