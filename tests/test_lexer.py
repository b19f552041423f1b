"""Tests for the shared Turtle/query scanner (``aieo.lexer``).

The diagnostics tables pin every token-level diagnostic of both
languages, with exception class, line and column. The mutation fuzz checks that the parsers fail only with the
package's own exceptions, at positions inside the text.
"""

from __future__ import annotations

import random
import re
import sys

import pytest

from aieo.errors import AieoError, ParseError, UnsupportedFeature
from aieo.jsonio import store_from_json, store_to_json
from aieo.lexer import scan
from aieo.query import PRINCIPLES_BY_FRAMEWORK_QUERY, parse_query
from aieo.schema import seed_schema
from aieo.turtle import parse_turtle, serialize_turtle

from oracles import random_small_store

P = "@prefix ex: <https://example.org/> .\n"

TURTLE_DIAGNOSTICS = [
    # (text, exception, message, line, column)
    (P + "ex:a ex:p [ ] .", UnsupportedFeature, "blank nodes are not supported", 2, 11),
    (P + "ex:a ex:p ] .", UnsupportedFeature, "blank nodes are not supported", 2, 11),
    (P + "ex:a ex:p ( ex:b ) .", UnsupportedFeature, "collections are not supported", 2, 11),
    (P + "ex:a ex:p ) .", UnsupportedFeature, "collections are not supported", 2, 11),
    (P + 'ex:a ex:p "v"^^ex:t .', UnsupportedFeature, "datatyped literals are not supported", 2, 14),
    (P + "@base <https://example.org/> .", UnsupportedFeature, "@base is not supported", 2, 1),
    (P + "@bogus <x> .", ParseError, "unexpected directive '@bogus'", 2, 1),
    (P + "@ prefix", ParseError, "unexpected directive '@'", 2, 1),
    (P + "@prefix2 x: <y> .", UnsupportedFeature, "numeric literals are not supported", 2, 8),
    (P + "ex:a ex:p <https://example.org/b", ParseError, "unterminated IRI reference", 2, 11),
    (P + "ex:a ex:p <https://ex\nample.org/> .", ParseError, "unterminated IRI reference", 2, 11),
    (P + "ex:a ex:p <> .", ParseError, "empty IRI reference", 2, 11),
    (P + 'ex:a ex:p """long""" .', UnsupportedFeature, "long string literals are not supported", 2, 11),
    (P + 'ex:a ex:p "bad \\q escape" .', ParseError, "unknown escape sequence in string", 2, 11),
    (P + 'ex:a ex:p "ends in a backslash\\', ParseError, "unknown escape sequence in string", 2, 11),
    (P + 'ex:a ex:p "open\n" .', ParseError, "unterminated string literal", 2, 11),
    (P + 'ex:a ex:p "open', ParseError, "unterminated string literal", 2, 11),
    (P + 'ex:a ex:p "x"@ .', ParseError, "empty language tag", 2, 11),
    (P + "_:b ex:p ex:c .", UnsupportedFeature, "blank node labels are not supported", 2, 1),
    (P + "ex:a ex:p 42 .", UnsupportedFeature, "numeric literals are not supported", 2, 11),
    (P + "ex:a ex:p -4 .", UnsupportedFeature, "numeric literals are not supported", 2, 11),
    (P + "ex:a ex:p +4 .", UnsupportedFeature, "numeric literals are not supported", 2, 11),
    (P + "ex:a ex:p ² .", UnsupportedFeature, "numeric literals are not supported", 2, 11),
    (P + "ex:a ex:p ½ .", ParseError, "unexpected character '½'", 2, 11),
    (P + "ex:a ex:p true .", UnsupportedFeature, "boolean literals are not supported", 2, 11),
    (P + "ex:a ex:p FALSE .", UnsupportedFeature, "boolean literals are not supported", 2, 11),
    (P + "PREFIX ex: <https://example.org/>", UnsupportedFeature,
     "SPARQL-style directives are not supported", 2, 1),
    (P + "base <https://example.org/>", UnsupportedFeature,
     "SPARQL-style directives are not supported", 2, 1),
    (P + "ex:a ex:p foo .", ParseError, "expected a prefixed name, found 'foo'", 2, 11),
    (P + "ex:a ex:p ?x .", ParseError, "unexpected character '?'", 2, 11),
    (P + "{ ex:a ex:p ex:b }", ParseError, "unexpected character '{'", 2, 1),
    (P + "ex:a ex:p ex:b } .", ParseError, "unexpected character '}'", 2, 16),
    (P + "ex:a ex:p ^ex:b .", ParseError, "unexpected character '^'", 2, 11),
    (P + "ex:a ex:p - .", ParseError, "unexpected character '-'", 2, 11),
    (P + "ex:a ex:p ! .", ParseError, "unexpected character '!'", 2, 11),
    # Positions after comments, CRLF line ends and tabs (one column each).
    (P + "# comment ( ] 42\r\n\tex:a ex:p 7 .", UnsupportedFeature,
     "numeric literals are not supported", 3, 12),
    (P + 'ex:a\r\n ex:p\t\t"x"@ .', ParseError, "empty language tag", 3, 8),
    # Two errors: the earlier one wins, and a token error anywhere wins
    # over a grammar error.
    (P + "ex:a ex:p 42 .\nex:b ex:p [ ] .", UnsupportedFeature,
     "numeric literals are not supported", 2, 11),
    (P + "ex:a ex:p [ ] . ex:b ex:p 42 .", UnsupportedFeature, "blank nodes are not supported", 2, 11),
    (P + "ex:a ex:p . ex:b ex:p 42 .", UnsupportedFeature, "numeric literals are not supported", 2, 23),
    # Grammar errors at the end of the text.
    (P + "ex:a ex:p", ParseError, "expected an object", 2, 10),
    (P + "ex:a ex:p\r\n", ParseError, "expected an object", 3, 1),
    (P + "zz:a ex:p ex:b .", ParseError, "prefix 'zz:' used before declaration", 2, 1),
]

QUERY_DIAGNOSTICS = [
    ("SELECT ? WHERE { ?x a aieo:Framework }", ParseError, "empty variable name", 1, 8),
    ("SELECT ?x WHERE { ?x <https://example.org/", ParseError, "unterminated IRI reference", 1, 22),
    ("SELECT ?x WHERE { ?x <https://exa\nmple.org/> ?y }", ParseError,
     "unterminated IRI reference", 1, 22),
    ('SELECT ?x WHERE { ?x aieo:reference "a\\qb" }', ParseError,
     "unknown escape sequence in string", 1, 37),
    ('SELECT ?x WHERE { ?x aieo:reference "open }', ParseError, "unterminated string literal", 1, 37),
    ('SELECT ?x WHERE {\n  ?x aieo:reference "open\n" }', ParseError,
     "unterminated string literal", 2, 21),
    ("SELECT ?x WHERE { ?x a aieo:Framework . FILTER }", UnsupportedFeature,
     "FILTER is outside the query subset", 1, 41),
    ("select ?x where { ?x a aieo:Framework } limit", UnsupportedFeature,
     "LIMIT is outside the query subset", 1, 41),
    ("ASK { ?x a aieo:Framework }", ParseError, "unexpected token 'ASK'", 1, 1),
    ("SELECT ?x WHERE { ?x a aieo:Framework ; aieo:principle ?y }", ParseError,
     "unexpected character ';'", 1, 39),
    ("SELECT ?x WHERE { ?x a aieo:Framework , aieo:Principle }", ParseError,
     "unexpected character ','", 1, 39),
    ("SELECT ?x WHERE { ?x a aieo:Framework } @en", ParseError, "unexpected character '@'", 1, 41),
    ("SELECT ?x WHERE { ?x = ?y }", ParseError, "unexpected character '='", 1, 22),
    ("SELECT ?x WHERE {\r\n\t?x a aieo:Framework !", ParseError, "unexpected character '!'", 2, 22),
    ("# SELECT\nSELECT ?x WHERE { ?x a aieo:Framework } extra", ParseError,
     "unexpected token 'extra'", 2, 41),
    ("SELECT ?x WHERE { ?x ! ?y } ;", ParseError, "unexpected character '!'", 1, 22),
    ("SELECT ?x WHERE { ?x a . aieo:Framework } !", ParseError, "unexpected character '!'", 1, 43),
    ("SELECT ?x WHERE { ?x a aieo:Framework", ParseError, "unterminated WHERE group", 1, 38),
    ("SELECT ?x WHERE {\n  ?x a foaf:Person\n}", ParseError, "unknown prefix 'foaf:'", 2, 8),
    ("SELECT ?x WHERE { ?x a aieo:Framework }\r\n}", ParseError, "trailing content after '}'", 2, 1),
    ("SELECT ?x WHERE {\n  # nothing\n}", ParseError, "WHERE group has no patterns", 3, 1),
    ("SELECT ?x\n  ?missing WHERE { ?x a aieo:Framework }", ParseError,
     "projected variable ?missing occurs in no pattern", 2, 3),
]


def _diagnostic(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    [diag] = err.value.diagnostics
    return type(err.value), diag.message, diag.line, diag.column


@pytest.mark.parametrize("text,exc,message,line,column", TURTLE_DIAGNOSTICS)
def test_turtle_diagnostics_are_pinned(text, exc, message, line, column):
    assert _diagnostic(parse_turtle, text) == (exc, message, line, column)


@pytest.mark.parametrize("text,exc,message,line,column", QUERY_DIAGNOSTICS)
def test_query_diagnostics_are_pinned(text, exc, message, line, column):
    assert _diagnostic(parse_query, text) == (exc, message, line, column)


def test_scan_yields_offsets_and_decoded_values():
    text = '@prefix ex: <https://e/> .\nex:a a ex:B ; ex:l "t\\"x\\n"@en-GB , "y" . ?v { } SELECT'
    assert list(scan(text)) == [
        ("@", "prefix", 0),
        ("pname", ("ex", ""), 8),
        ("iri", "https://e/", 12),
        (".", ".", 25),
        ("pname", ("ex", "a"), 27),
        ("word", "a", 32),
        ("pname", ("ex", "B"), 34),
        (";", ";", 39),
        ("pname", ("ex", "l"), 41),
        ("string", ('t"x\n', "en-GB"), 46),
        (",", ",", 61),
        ("string", ("y", None), 63),
        (".", ".", 67),
        ("?", "v", 69),
        ("{", "{", 72),
        ("}", "}", 74),
        ("word", "SELECT", 76),
        ("eof", None, 82),
    ]


# ---------------------------------------------------------------------------
# Character classes against the str predicates the old scanners used
# ---------------------------------------------------------------------------

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


@pytest.mark.parametrize(
    "pattern,predicate",
    [
        (r"\s", str.isspace),
        (r"[^\W_]", str.isalnum),
        (r"\w", lambda c: c.isalnum() or c == "_"),
    ],
    ids=["isspace", "isalnum", "isalnum_or_underscore"],
)
def test_character_classes_match_str_predicates(pattern, predicate):
    assert re.findall(pattern, EVERY_CODE_POINT) == list(filter(predicate, EVERY_CODE_POINT))


def test_names_and_directives_start_with_str_isalpha_letters():
    candidates = re.findall(r"[^\W\d]", EVERY_CODE_POINT)  # the lexer's name start
    letters = [c for c in candidates if c.isalpha() or c == "_"]
    assert set(filter(str.isalpha, EVERY_CODE_POINT)) <= set(letters)
    words = [value for kind, value, _ in scan(" ".join(letters)) if kind != "eof"]
    assert words == letters
    directive = "".join(c for c in letters if c != "_")
    assert list(scan("@" + directive)) == [("@", directive, 0), ("eof", None, len(directive) + 1)]
    numerals = [c for c in candidates if not (c.isalpha() or c == "_")]
    assert len(numerals) > 100  # '²', '½', Roman numerals, ...
    for c in numerals:
        expected = "numeric literals are not supported" if c.isdigit() else f"unexpected character {c!r}"
        with pytest.raises(ParseError, match=re.escape(expected)):
            list(scan(c + "x"))
        tokens = scan("@prefix" + c)
        assert next(tokens) == ("@", "prefix", 0)
        with pytest.raises(ParseError, match=re.escape(expected)):
            next(tokens)


# ---------------------------------------------------------------------------
# Mutation fuzz
# ---------------------------------------------------------------------------

_ALPHABET = (
    [chr(c) for c in range(32, 127)]
    + list("\t\n\r\x0b\x1c\x85  　")
    + list("éßǅʰ́²½Ⅻ٣①\U0001d7d8〇")
)
_SNIPPETS = [
    '"""', "^^", "_:b", "@base", "@prefix", "@", "true", "PREFIX", "SELECT", "WHERE",
    "FILTER", "?x", "?", '"a"@', '"a"@en', "<>", "<x", "\\q", "\\", "# c\n", "\r\n",
    "[ ]", "( )", "42", "-1", "a", " . ", " ; ", " , ", "{", "}", ":", "aieo:", '"',
    "{}", "[]", '{"k": 1}', "null", ",",
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif op == 1:
            text = text[:i] + rng.choice(_ALPHABET) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(_SNIPPETS) + text[i:]
        elif op == 3:
            j = min(len(text), i + rng.randint(1, 20))
            text = text[:j] + text[i:j] + text[j:]
        elif op == 4:  # nesting, also past the JSON decoder's recursion limit
            depth = rng.choice((2, 50, sys.getrecursionlimit()))
            text = text[:i] + rng.choice(("[", '{"a":')) * depth + text[i:]
        else:
            text = text[:i]
    return text


def _inside(text: str, line: int, column: int) -> bool:
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_mutated_inputs_fail_only_with_positioned_package_errors():
    seed = seed_schema()
    small = random_small_store(3)
    cases = [
        (parse_turtle, serialize_turtle(seed), 400),
        (parse_turtle, serialize_turtle(small), 400),
        (store_from_json, store_to_json(seed), 400),
        (store_from_json, store_to_json(small), 400),
        (parse_query, PRINCIPLES_BY_FRAMEWORK_QUERY, 1500),
        (parse_query, 'SELECT ?x WHERE {\n  ?x a aieo:Principle . # c\r\n'
                      '  ?x rdfs:label "fair"@en\n}', 1500),
    ]
    rng = random.Random(20261018)
    failures = 0
    messages = set()
    for parse, base, count in cases:
        for _ in range(count):
            text = _mutate(rng, base)
            try:
                parse(text)
            except AieoError as exc:
                failures += 1
                for diag in getattr(exc, "diagnostics", ()):
                    assert _inside(text, diag.line, diag.column), (text, diag)
                    messages.add(diag.message)
    assert failures > 2000
    assert "document nested too deeply" in messages
