"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AieoError(Exception):
    """Base class for all errors raised by this package."""


class KindConflict(AieoError):
    """An IRI is being declared with a second, different entity kind."""


class UndeclaredEntity(AieoError):
    """An axiom references an IRI that has no declaration."""


class KindMismatch(AieoError):
    """An axiom references an entity whose declared kind does not fit the position."""


class ValidationError(AieoError):
    """A store failed structural validation."""


class IterationLimitExceeded(AieoError):
    """The materialization safety cap on derived facts was hit."""


class UnknownFact(AieoError):
    """explain() was asked about a fact that is not in the materialization."""


class ParseError(AieoError):
    """A parse failed at ``line`` and ``column`` (both 1-based)."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(line, column, message)
        self.line, self.column, self.message = line, column, message

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class UnsupportedFeature(ParseError):
    """Input uses a construct outside the accepted subset."""


class SchemaViolation(AieoError):
    """A JSON document does not conform to its schema."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class UnknownConcept(AieoError):
    """A canned query was given an IRI that is not a declared individual."""


class MissingArgument(AieoError):
    """A canned query that needs an argument was called without one."""


class DuplicateFramework(AieoError):
    """A framework document with this id has already been ingested."""


class UnknownFramework(AieoError):
    """A pipeline stage references a framework that was never structured."""


class UnknownAnnotationProperty(AieoError):
    """enrich() was given a property outside the annotation vocabulary."""


class InsufficientFrameworks(AieoError):
    """Equivalence proposal needs at least two ingested frameworks."""


class UnconfirmedProposal(AieoError):
    """apply_equivalences() was passed a proposal not marked confirmed."""
