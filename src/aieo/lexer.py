"""One token reader and term reader for the Turtle subset and the query language.

A text is read in one pass: one compiled regular expression splits it into
the texts of its tokens (a C-level ``findall``), and each *distinct* token
text is then read once, in order of first appearance, into a ``(kind,
value)`` pair. The reader knows the union of both token sets and rejects
what neither language accepts; each language passes in checks that reject
the tokens it lacks and read bare words its own way. Since a token's reading
depends on its text alone, the first token that fails is the earliest one,
so token errors come first, earliest first, before any grammar error.

Both parsers then run their grammar over the token texts through a
:class:`Cursor`: one token of lookahead, and one :meth:`Cursor.term`
reader for IRIs, prefixed names, ``a`` and literals, so a term gets the
same diagnostic in either language. Resolved terms are memoized per token
text. Tokens are known by their index; the line and column of a
diagnostic are worked out from the text only when it is raised.
:func:`scan` reads the same tokens one at a time, with their offsets.

Token kinds and values:

- ``"."``, ``";"``, ``","``, ``"{"``, ``"}"``: the character itself
- ``"@"``: the letters after ``@`` (``"prefix"`` for ``@prefix``)
- ``"?"``: a variable name without the ``?``, possibly empty
- ``"iri"``: the text between ``<`` and ``>``
- ``"string"``: ``(text, language tag or None)``, escapes decoded
- ``"pname"``: ``(prefix, local)`` of ``prefix:local``
- ``"word"``: a bare word such as ``a``, ``SELECT`` or ``true``
- ``"eof"``: ``None``, the empty text at ``len(text)``
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Iterator, Mapping, NoReturn

from .errors import ParseDiagnostic, ParseError, UnsupportedFeature
from .model import RDF_TYPE, AnnotationValue, Iri

# The token alternatives, in the order they are tried. Character classes,
# as the str predicates name them: \s is str.isspace and [^\W_] is
# str.isalnum over every code point. Letters have no exact class: [^\W\d_]
# also holds numerals such as '²' and '½', so the two places that need
# str.isalpha (a name's first character, the word after '@') check it on
# the matched text. An unterminated string takes the backslash it stopped
# at, and a stray '+' or '-' the character after it, so that every token
# is read from its own text.
_ALTERNATIVES = r"""
      (?P<label>_:)
    | (?P<pname>(?P<prefix>(?:[^\W\d][\w-]*)?):(?P<local>[\w-]*))
    | (?P<word>[^\W\d][\w-]*)
    | (?P<punct>[.;,{}])
    | (?P<long>"{3})
    | (?P<string>"(?P<body>[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*)
                  (?:(?P<close>"(?:@(?P<lang>(?:[^\W_]|-)*))?)|(?P<escape>\\))?)
    | (?P<iri><[^>\n]*>?)
    | (?P<var>\?\w*)
    | (?P<at>@[^\W\d_]*)
    | (?P<blank>[][])
    | (?P<collection>[()])
    | (?P<datatype>\^\^)
    | (?P<eof>\Z)
    | (?P<other>[+-]?.)
"""
# Reads one token's text.
_TOKEN = re.compile(_ALTERNATIVES, re.VERBOSE | re.DOTALL)
# Splits a text into its token texts: the same alternatives as one group,
# after the whitespace and comments before the token. The last match is the
# empty text at the end; trailing whitespace adds a second one.
_SPLIT = re.compile(
    r"\s*(?:\#[^\n]*\s*)*(" + re.sub(r"\(\?P<\w+>", "(?:", _ALTERNATIVES) + ")",
    re.VERBOSE | re.DOTALL,
)

_UNSUPPORTED = {
    "long": "long string literals are not supported",
    "blank": "blank nodes are not supported",
    "collection": "collections are not supported",
    "datatype": "datatyped literals are not supported",
    "label": "blank node labels are not supported",
}

_PUNCTUATION = frozenset(".;,{}")
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}

Token = tuple[str, object]
# A language's reading of one token: returns, or rejects it.
Check = Callable[[Token], None]


class _Rejected(Exception):
    """A token's own error, ``at`` characters into its text; the reader
    that knows where the token sits turns it into a diagnostic."""

    def __init__(self, message: str, unsupported: bool, at: int):
        self.message, self.unsupported, self.at = message, unsupported, at


def reject(message: str, unsupported: bool = False, at: int = 0) -> NoReturn:
    """Reject the token being read, with a diagnostic at its start (or
    ``at`` characters into it)."""
    raise _Rejected(message, unsupported, at)


def unexpected(tok: Token) -> None:
    """The check that rejects a token of a kind the language lacks."""
    reject(f"unexpected character {tok[0]!r}")


def fail(text: str, offset: int, message: str, unsupported: bool = False) -> NoReturn:
    """Raise a one-diagnostic ParseError (or UnsupportedFeature) positioned
    at ``offset`` in ``text``; lines and columns are 1-based."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    raise (UnsupportedFeature if unsupported else ParseError)(
        [ParseDiagnostic(line, col, message)]
    )


def fail_at(text: str, index: int, message: str, unsupported: bool = False, at: int = 0) -> NoReturn:
    """:func:`fail` at the ``index``-th token of ``text`` (``at`` characters
    into it), found by splitting the text again."""
    match = next(islice(_SPLIT.finditer(text), index, None))
    fail(text, match.start(1) + at, message, unsupported)


def _reject_character(raw: str, at: int = 0) -> NoReturn:
    c = raw[at]
    if c.isdigit() or (c in "+-" and raw[at + 1 : at + 2].isdigit()):
        reject("numeric literals are not supported", unsupported=True, at=at)
    reject(f"unexpected character {c!r}", at=at)


def _letters(word: str) -> str:
    """The longest prefix of ``word`` made of letters."""
    for i, c in enumerate(word):
        if not c.isalpha():
            return word[:i]
    return word


def _read_token(raw: str, checks: Mapping[str, Check]) -> Token:
    """The ``(kind, value)`` of the token whose text is ``raw``, which a
    language's ``checks`` accept; raises :class:`_Rejected` otherwise."""
    # The kinds that their first character gives are read without a match.
    first = raw[:1]
    if raw in _PUNCTUATION:
        kind = value = raw
    elif first == "?":
        kind, value = "?", raw[1:]
    elif first == "<":
        if len(raw) == 1 or raw[-1] != ">":
            reject("unterminated IRI reference")
        kind, value = "iri", raw[1:-1]
        if not value:
            reject("empty IRI reference")
    elif not first:
        return "eof", None
    else:
        m = _TOKEN.match(raw)
        kind = m.lastgroup
        if kind == "pname":
            if not (raw[0].isalpha() or raw[0] in "_:"):
                _reject_character(raw)
            value = m.group("prefix", "local")
        elif kind == "string":
            if m.group("close") is None:
                if m.group("escape"):
                    reject("unknown escape sequence in string")
                reject("unterminated string literal")
            body, lang = m.group("body", "lang")
            if lang == "":
                reject("empty language tag")
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            value = body, lang
        elif kind == "word":
            if not (raw[0].isalpha() or raw[0] == "_"):
                _reject_character(raw)
            value = raw
        elif kind == "at":
            kind, value = "@", _letters(raw[1:])
        elif kind == "other":
            _reject_character(raw)
        else:
            reject(_UNSUPPORTED[kind], unsupported=True)
    tok = kind, value
    check = checks.get(kind)
    if check is not None:
        check(tok)
    if kind == "@" and len(raw) > len(value) + 1:  # a numeral after the letters
        _reject_character(raw, len(value) + 1)
    return tok


def scan(text: str, checks: Mapping[str, Check] = {}) -> Iterator[tuple[str, object, int]]:
    """Yield the ``(kind, value, offset)`` of each token of ``text`` in
    order, one at a time, ending with ``eof``: the tokens a :class:`Cursor`
    reads, through the same ``checks``."""
    match = _SPLIT.match
    pos = 0
    while True:
        m = match(text, pos)
        raw = m.group(1)
        start, pos = m.span(1)
        if raw[:1] == "@":  # a directive ends at its last letter
            raw = "@" + _letters(raw[1:])
            pos = start + len(raw)
        try:
            kind, value = _read_token(raw, checks)
        except _Rejected as r:
            fail(text, start + r.at, r.message, r.unsupported)
        yield kind, value, start
        if kind == "eof":
            return


class Cursor:
    """A parse of ``text``: its token texts in ``tokens``, read through
    ``checks`` into ``kinds``, with the next one at index ``at``; prefixed
    names resolve against ``prefixes``. ``unknown_prefix`` is the
    language's message for a prefix missing from them, formatted with the
    prefix. Raises the diagnostic of the first token ``checks`` reject.

    A grammar stops at ``eof``: nothing is read after it is taken."""

    __slots__ = ("text", "tokens", "kinds", "at", "prefixes", "unknown_prefix", "iris", "terms")

    def __init__(
        self, text: str, checks: Mapping[str, Check], prefixes: dict[str, str], unknown_prefix: str
    ):
        self.text = text
        self.tokens = tokens = _SPLIT.findall(text)
        self.kinds = kinds = {}
        for raw in dict.fromkeys(tokens):
            try:
                kinds[raw] = _read_token(raw, checks)
            except _Rejected as r:
                fail_at(text, tokens.index(raw), r.message, r.unsupported, r.at)
        self.at = 0
        self.prefixes = prefixes
        self.unknown_prefix = unknown_prefix
        # Resolved IRIs by token text, and each position's terms by token
        # text; redeclaring a prefix clears them.
        self.iris: dict[str, Iri] = {}
        self.terms: dict[str, dict] = {"subject": {}, "predicate": {}, "object": {}}

    def lookahead(self) -> Token:
        return self.kinds[self.tokens[self.at]]

    def peek(self) -> str:
        return self.kinds[self.tokens[self.at]][0]

    def take(self) -> Token:
        tok = self.kinds[self.tokens[self.at]]
        self.at += 1
        return tok

    def fail(self, message: str, index: int | None = None, unsupported: bool = False) -> NoReturn:
        """Raise a diagnostic at the ``index``-th token, by default the one
        last taken."""
        fail_at(self.text, self.at - 1 if index is None else index, message, unsupported)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok[0] != kind:
            self.fail(f"expected {what}")
        return tok

    def declare(self, prefix: str, base: str) -> None:
        if prefix in self.prefixes:
            self.iris.clear()
            for memo in self.terms.values():
                memo.clear()
        self.prefixes[prefix] = base

    def term(self, position: str) -> "Iri | AnnotationValue":
        """The next token as the term at ``position`` of a triple
        (``"subject"``, ``"predicate"`` or ``"object"``): an IRI or prefixed
        name anywhere, ``a`` as a predicate, a non-empty literal as an
        object."""
        at = self.at
        self.at = at + 1
        raw = self.tokens[at]
        memo = self.terms[position]
        term = memo.get(raw)
        if term is None:
            term = memo[raw] = self._resolve(raw, position)
        return term

    def _resolve(self, raw: str, position: str) -> "Iri | AnnotationValue":
        kind, value = self.kinds[raw]
        if kind == "iri" or kind == "pname":
            iri = self.iris.get(raw)
            if iri is None:
                if kind == "iri":
                    iri = Iri(value)
                else:
                    prefix, local = value
                    base = self.prefixes.get(prefix)
                    if base is None:
                        self.fail(self.unknown_prefix.format(prefix))
                    iri = Iri(base + local)
                self.iris[raw] = iri
            return iri
        if kind == "string":
            if position != "object":
                self.fail(f"a literal cannot be a {position}")
            if not value[0]:
                self.fail("empty literal")
            return AnnotationValue(*value)
        if kind == "word" and value == "a" and position == "predicate":
            return RDF_TYPE
        self.fail(f"expected {'an' if position == 'object' else 'a'} {position}")
