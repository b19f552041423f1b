"""One token reader and term reader for the Turtle subset and the query language.

A text is read in one pass: one compiled regular expression splits it into
the texts of its tokens (a C-level ``findall``), and each *distinct* token
text is then read once, in order of first appearance, into a ``(kind,
value)`` pair: most kinds by their first character; the two commonest
shapes straight from their text, with no match (a string that ends in its
closing quote with no backslash and no language tag, and a prefixed name
that starts with a letter); any other string literal through the string
alternative alone; the rest through the whole alternation. The reader
knows the union of both token sets and rejects what neither language
accepts; each language passes in checks that reject the tokens it lacks
and read bare words its own way. Since a token's reading depends on its
text alone, the first token that fails is the earliest one, so token
errors come first, earliest first, before any grammar error.

Both parsers then run their grammar over the token texts of a
:class:`Cursor`, which resolves IRIs, prefixed names, ``a`` and literals
in one place, :meth:`Cursor.resolve`, so a term gets the same diagnostic
in either language. Resolved terms are memoized per position of a triple
and token text. The query grammar steps through the cursor's methods: one
token of lookahead, and :meth:`Cursor.term` for a term. The Turtle
grammar, which reads far longer texts, is one loop over the token list
with local indexes that reads each term from its position's memo and calls
:meth:`Cursor.resolve` only on the first sight of a text there. Tokens
are known by their index; the line and column of a diagnostic are worked
out from the text only when it is raised.

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
from typing import Callable, Mapping, NoReturn

from .errors import ParseError, UnsupportedFeature
from .model import RDF_TYPE, AnnotationValue, Iri

# The token alternatives, in the order they are tried. Character classes,
# as the str predicates name them: \s is str.isspace and [^\W_] is
# str.isalnum over every code point. Letters have no exact class: [^\W\d_]
# also holds numerals such as '²' and '½', so the two places that need
# str.isalpha (a name's first character, the word after '@') check it on
# the matched text. An unterminated string takes the backslash it stopped
# at, and a stray '+' or '-' the character after it, so that every token
# is read from its own text.
_STRING_ALTERNATIVE = r"""
      (?P<string>"(?P<body>[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*)
                  (?:(?P<close>"(?:@(?P<lang>(?:[^\W_]|-)*))?)|(?P<escape>\\))?)
"""
_ALTERNATIVES = r"""
      (?P<label>_:)
    | (?P<pname>(?P<prefix>(?:[^\W\d][\w-]*)?):(?P<local>[\w-]*))
    | (?P<word>[^\W\d][\w-]*)
    | (?P<punct>[.;,{}])
    | (?P<long>"{3})
    | """ + _STRING_ALTERNATIVE + r"""
    | (?P<iri><[^>\n]*>?)
    | (?P<var>\?\w*)
    | (?P<at>@[^\W\d_]*)
    | (?P<blank>[][])
    | (?P<collection>[()])
    | (?P<datatype>\^\^)
    | (?P<eof>\Z)
    | (?P<other>[+-]?.)
"""
# Reads one token's text. A string that its text alone does not give (one
# with an escape, a language tag or no closing quote) is read through its
# own alternative: after the split, a text that starts with a quote is a
# string unless it is the three quotes of ``long``. Its groups, in order:
# string, body, close, lang, escape.
_TOKEN = re.compile(_ALTERNATIVES, re.VERBOSE | re.DOTALL)
_STRING = re.compile(_STRING_ALTERNATIVE, re.VERBOSE | re.DOTALL)
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
    """Raise a ParseError (or UnsupportedFeature) positioned at ``offset``
    in ``text``; lines and columns are 1-based."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    raise (UnsupportedFeature if unsupported else ParseError)(line, col, message)


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
    # So are the two commonest shapes, straight from their text: a string
    # that ends in a quote and holds no backslash is closed by that quote
    # (its body cannot hold one) and has no language tag, and a text that
    # starts with a letter and holds a colon can only be a prefixed name
    # (a word stops before a colon). Any other string is read with the
    # match of its own alternative, the rest with the whole alternation.
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
    elif first == '"' and raw[-1] == '"' and len(raw) > 1 and "\\" not in raw and raw != '"""':
        kind, value = "string", (raw[1:-1], None)
    elif first == '"' and raw != '"""':
        _, body, close, lang, escape = _STRING.match(raw).groups()
        if close is None:
            if escape:
                reject("unknown escape sequence in string")
            reject("unterminated string literal")
        if lang == "":
            reject("empty language tag")
        if "\\" in body:
            body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
        kind, value = "string", (body, lang)
    elif first.isalpha() and ":" in raw:
        prefix, _, local = raw.partition(":")
        kind, value = "pname", (prefix, local)
    else:
        m = _TOKEN.match(raw)
        kind = m.lastgroup
        if kind == "pname":
            if not (raw[0].isalpha() or raw[0] in "_:"):
                _reject_character(raw)
            value = m.group("prefix", "local")
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
        return self.terms[position].get(self.tokens[at]) or self.resolve(at, position)

    def resolve(self, at: int, position: str) -> "Iri | AnnotationValue":
        """The ``at``-th token as the term at ``position`` (see
        :meth:`term`), stored under its text in the memo
        ``terms[position]``, which a grammar reads first. No term is falsy,
        so ``memo.get(text) or resolve(at, position)`` reads one."""
        raw = self.tokens[at]
        kind, value = self.kinds[raw]
        if kind == "iri" or kind == "pname":
            term = self.iris.get(raw)
            if term is None:
                if kind == "pname":
                    prefix, local = value
                    base = self.prefixes.get(prefix)
                    if base is None:
                        self.fail(self.unknown_prefix.format(prefix), at)
                    value = base + local
                try:
                    term = self.iris[raw] = Iri(value)
                except ValueError as exc:  # a diagnostic at this token
                    self.fail(str(exc), at)
        elif kind == "string":
            if position != "object":
                self.fail(f"a literal cannot be a {position}", at)
            if not value[0]:
                self.fail("empty literal", at)
            term = AnnotationValue(*value)
        elif kind == "word" and value == "a" and position == "predicate":
            term = RDF_TYPE
        else:
            self.fail(f"expected {'an' if position == 'object' else 'a'} {position}", at)
        self.terms[position][raw] = term
        return term
