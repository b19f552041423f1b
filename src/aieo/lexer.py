"""One scanner and term reader for the Turtle subset and the query language.

:func:`scan` splits text into ``(kind, value, offset)`` tokens with one
compiled regular expression. It knows the union of both token sets and
rejects what neither language accepts; each language passes in checks that
reject the tokens it lacks and read bare words its own way. Line and column
are worked out from the offset only when a diagnostic is raised.

Both parsers read through a :class:`Cursor`: one token of lookahead, and
one :meth:`Cursor.term` reader for IRIs, prefixed names, ``a`` and
literals, so a term gets the same diagnostic in either language.

Token kinds and values:

- ``"."``, ``";"``, ``","``, ``"{"``, ``"}"``: the character itself
- ``"@"``: the letters after ``@`` (``"prefix"`` for ``@prefix``)
- ``"?"``: a variable name without the ``?``, possibly empty
- ``"iri"``: the text between ``<`` and ``>``
- ``"string"``: ``(text, language tag or None)``, escapes decoded
- ``"pname"``: ``(prefix, local)`` of ``prefix:local``
- ``"word"``: a bare word such as ``a``, ``SELECT`` or ``true``
- ``"eof"``: ``None``, at ``len(text)``
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NoReturn, TypeVar

from .errors import ParseDiagnostic, ParseError, UnsupportedFeature
from .model import RDF_TYPE, AnnotationValue, Iri

# Character classes, as the str predicates name them: \s is str.isspace and
# [^\W_] is str.isalnum over every code point. Letters have no exact class:
# [^\W\d_] also holds numerals such as '²' and '½', so the two places that
# need str.isalpha (a name's first character, the word after '@') check it
# on the matched text. Whitespace and comments before a token are part of
# its match, and the scan ends on the empty match at the end of the text.
_TOKEN = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      (?P<label>_:)
    | (?P<pname>(?P<prefix>(?:[^\W\d][\w-]*)?):(?P<local>[\w-]*))
    | (?P<word>[^\W\d][\w-]*)
    | (?P<punct>[.;,{}])
    | (?P<long>"{3})
    | (?P<string>"(?P<body>[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*)(?P<close>"(?:@(?P<lang>(?:[^\W_]|-)*))?)?)
    | (?P<iri><(?P<ref>[^>\n]*)(?P<iri_close>>)?)
    | (?P<var>\?\w*)
    | (?P<at>@[^\W\d_]*)
    | (?P<blank>[][])
    | (?P<collection>[()])
    | (?P<datatype>\^\^)
    | (?P<eof>\Z)
    | (?P<other>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_UNSUPPORTED = {
    "long": "long string literals are not supported",
    "blank": "blank nodes are not supported",
    "collection": "collections are not supported",
    "datatype": "datatyped literals are not supported",
    "label": "blank node labels are not supported",
}

_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}

Token = tuple[str, object, int]
# A language's reading of one token: returns, or raises its diagnostic.
Check = Callable[[str, Token], None]


def fail(text: str, offset: int, message: str, unsupported: bool = False) -> NoReturn:
    """Raise a one-diagnostic ParseError (or UnsupportedFeature) positioned
    at ``offset`` in ``text``; lines and columns are 1-based."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    raise (UnsupportedFeature if unsupported else ParseError)(
        [ParseDiagnostic(line, col, message)]
    )


def unexpected(text: str, tok: Token) -> NoReturn:
    """The check that rejects a token of a kind the language lacks."""
    fail(text, tok[2], f"unexpected character {tok[0]!r}")


def _reject_character(text: str, offset: int) -> NoReturn:
    c = text[offset]
    if c.isdigit() or (c in "+-" and text[offset + 1 : offset + 2].isdigit()):
        fail(text, offset, "numeric literals are not supported", unsupported=True)
    fail(text, offset, f"unexpected character {c!r}")


def _letters(word: str) -> str:
    """The longest prefix of ``word`` made of letters."""
    for i, c in enumerate(word):
        if not c.isalpha():
            return word[:i]
    return word


def scan(text: str, checks: Mapping[str, Check] = {}) -> Iterator[Token]:
    """Yield the tokens of ``text`` in order, ending with ``eof``. A
    language passes in ``checks`` its reading of the token kinds it treats
    differently: each token of such a kind goes through its check."""
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "pname":
            if not (text[start].isalpha() or text[start] in "_:"):
                _reject_character(text, start)
            value = m.group("prefix", "local")
        elif kind == "punct":
            kind = value = text[start]
        elif kind == "string":
            if m.group("close") is None:
                if text.startswith("\\", pos):
                    fail(text, start, "unknown escape sequence in string")
                fail(text, start, "unterminated string literal")
            body, lang = m.group("body", "lang")
            if lang == "":
                fail(text, start, "empty language tag")
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            value = body, lang
        elif kind == "word":
            if not (text[start].isalpha() or text[start] == "_"):
                _reject_character(text, start)
            value = m.group(kind)
        elif kind == "iri":
            if m.group("iri_close") is None:
                fail(text, start, "unterminated IRI reference")
            value = m.group("ref")
            if not value:
                fail(text, start, "empty IRI reference")
        elif kind == "var":
            kind, value = "?", m.group(kind)[1:]
        elif kind == "at":
            value = _letters(m.group(kind)[1:])
            kind, pos = "@", start + 1 + len(value)
        elif kind == "eof":
            yield kind, None, start
            return
        elif kind == "other":
            _reject_character(text, start)
        else:
            fail(text, start, _UNSUPPORTED[kind], unsupported=True)
        tok = kind, value, start
        if kind in checks:
            checks[kind](text, tok)
        yield tok


R = TypeVar("R")


class Cursor:
    """A parse of ``text``: the tokens of ``scan(text, checks)`` with one of
    lookahead in ``tok``, and prefixed names resolved against ``prefixes``.
    ``unknown_prefix`` is the language's message for a prefix missing from
    them, formatted with the prefix."""

    __slots__ = ("text", "tokens", "tok", "prefixes", "unknown_prefix", "iris")

    def __init__(
        self, text: str, checks: Mapping[str, Check], prefixes: dict[str, str], unknown_prefix: str
    ):
        self.text = text
        self.tokens = scan(text, checks)
        self.tok = next(self.tokens)
        self.prefixes = prefixes
        self.unknown_prefix = unknown_prefix
        # Resolved IRIs by token value; redeclaring a prefix clears it.
        self.iris: dict[object, Iri] = {}

    def read(self, reader: Callable[["Cursor"], R]) -> R:
        """``reader(self)``. If it stops at a grammar error, the rest of the
        text is scanned first, so a token error anywhere is the one raised,
        and of two token errors the earlier."""
        try:
            return reader(self)
        except ParseError:
            for _ in self.tokens:
                pass
            raise

    def peek(self) -> str:
        return self.tok[0]

    def take(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)  # eof repeats
        return tok

    def fail(self, tok: Token, message: str, unsupported: bool = False) -> NoReturn:
        fail(self.text, tok[2], message, unsupported)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok[0] != kind:
            self.fail(tok, f"expected {what}")
        return tok

    def declare(self, prefix: str, base: str) -> None:
        if prefix in self.prefixes:
            self.iris.clear()
        self.prefixes[prefix] = base

    def term(self, position: str) -> "Iri | AnnotationValue":
        """The next token as the term at ``position`` of a triple
        (``"subject"``, ``"predicate"`` or ``"object"``): an IRI or prefixed
        name anywhere, ``a`` as a predicate, a non-empty literal as an
        object."""
        tok = self.take()
        kind, value, _ = tok
        if kind == "iri" or kind == "pname":
            iri = self.iris.get(value)
            if iri is None:
                if kind == "iri":
                    iri = Iri(value)
                else:
                    prefix, local = value
                    base = self.prefixes.get(prefix)
                    if base is None:
                        self.fail(tok, self.unknown_prefix.format(prefix))
                    iri = Iri(base + local)
                self.iris[value] = iri
            return iri
        if kind == "string":
            if position != "object":
                self.fail(tok, f"a literal cannot be a {position}")
            if not value[0]:
                self.fail(tok, "empty literal")
            return AnnotationValue(*value)
        if kind == "word" and value == "a" and position == "predicate":
            return RDF_TYPE
        self.fail(tok, f"expected {'an' if position == 'object' else 'a'} {position}")
