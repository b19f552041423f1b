"""Output checks behind ``failed`` and ``ok_ops_ratio``, outside the timed run.

Answers are compared with the independent oracles of ``tests/oracles.py``
(naive fixpoint closure, brute-force pattern matching, hand tally, DOT
grammar). Expected facts about the inputs come from the generator, and the
base store is rebuilt from the generator's axiom tuples through the model
API, so neither side depends on the program's parsers.

Each check gets the last round's outputs and, per operation, the exit codes
seen over all rounds. It returns ``{op: message}`` for the operations whose
output is wrong; the caller counts such an operation as failed in every
round (all rounds are checked to produce the same bytes). Exit codes other
than 0 are judged here (``check`` exits 3 on an inconsistent store).
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

from oracles import (
    assert_valid_dot,
    brute_force_evaluate,
    flatten_triples,
    naive_closure,
    naive_inferred,
    naive_violations,
    tally_metrics,
)

from aieo.jsonio import store_from_json
from aieo.model import (
    AnnotationAssertion,
    AnnotationValue,
    ClassAssertion,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    EquivalentObjectProperties,
    Iri,
    ObjectPropertyAssertion,
    ObjectPropertyRange,
    OntologyStore,
    SameIndividual,
    SubClassOf,
    SubObjectPropertyOf,
)
from aieo.query import TriplePattern, Variable
from aieo.turtle import parse_turtle

import gen

_KINDS = {k.value: k for k in EntityKind}


_AXIOMS = {"sub": SubClassOf, "disj": DisjointClasses, "range": ObjectPropertyRange,
           "subprop": SubObjectPropertyOf, "type": ClassAssertion,
           "opa": ObjectPropertyAssertion, "same": SameIndividual}


def build_store(axioms: list) -> OntologyStore:
    """The store the generator's axiom tuples describe, built through the
    model API (no parser involved)."""
    store = OntologyStore(gen.PREFIXES)
    for tag, *args in axioms:
        if tag == "decl":
            store.declare(Iri(args[0]), _KINDS[args[1]])
    for tag, *args in axioms:
        if tag == "eqc":
            store.add(EquivalentClasses(frozenset(map(Iri, args[0]))))
        elif tag == "eqp":
            store.add(EquivalentObjectProperties(frozenset(map(Iri, args[0]))))
        elif tag == "ann":
            store.add(AnnotationAssertion(Iri(args[0]), Iri(args[1]), AnnotationValue(args[2])))
        elif tag != "decl":
            store.add(_AXIOMS[tag](*map(Iri, args)))
    return store


def _curie_iri(curie: str) -> Iri:
    prefix, local = curie.split(":", 1)
    return Iri(gen.PREFIXES[prefix] + local)


def _plus_minus(diff: str) -> tuple[int, int]:
    lines = diff.splitlines()
    return (sum(1 for x in lines if x.startswith("+ ")),
            sum(1 for x in lines if x.startswith("- ")))


# -- ingest_chain ---------------------------------------------------------------

def ingest_chain(info: dict, out: Path, stdout: dict, codes: dict) -> dict[str, str]:
    bad: dict[str, str] = {}
    last = f"ingest_{info['k']:02d}"
    seed = parse_turtle((out / "step_00.ttl").read_text(encoding="utf-8"))
    final = parse_turtle((out / f"step_{info['k']:02d}.ttl").read_text(encoding="utf-8"))
    axioms = final.axioms
    frameworks = {ax.ind for ax in axioms
                  if isinstance(ax, ClassAssertion) and ax.cls == gen.a("Framework")}
    if frameworks != set(info["frameworks"]):
        bad[last] = f"{len(frameworks)} Framework individuals, expected {info['k']}"
    missing = [ind for fw, kind, link, ind in info["concepts"]
               if ClassAssertion(Iri(gen.a(kind)), Iri(ind)) not in axioms
               or ObjectPropertyAssertion(Iri(fw), Iri(link), Iri(ind)) not in axioms]
    if missing:
        bad[last] = f"{len(missing)} concepts untyped or unlinked, e.g. {missing[0]}"
    same = [frozenset((ax.a, ax.b)) for ax in axioms if isinstance(ax, SameIndividual)]
    wanted = {frozenset(map(_curie_iri, pair)) for pair in info["confirmations"]}
    if len(same) != len(wanted) or set(same) != wanted:
        bad[last] = f"{len(same)} SameIndividual axioms for {len(wanted)} confirmations"
    if json.loads(stdout["metrics"]) != tally_metrics(final):
        bad["metrics"] = "metrics --format json differs from tally_metrics"
    added, removed = _plus_minus(stdout["diff"])
    if (added, removed) != (len(axioms - seed.axioms), len(seed.axioms - axioms)):
        bad["diff"] = f"diff lists +{added} -{removed}"
    return bad


# -- query_mix ----------------------------------------------------------------------

def _term(t: str):
    return Variable(t[1:]) if t.startswith("?") else Iri(t)


def _render(term) -> str:
    if isinstance(term, AnnotationValue):
        text = term.text.replace("\\", "\\\\").replace('"', '\\"')
        text = text.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{text}"' + (f"@{term.language_tag}" if term.language_tag else "")
    return str(term)


class _Triples:
    """The oracle's triples with positional indexes, used only to hand
    brute_force_evaluate the triples some pattern could match (any triple
    outside that set matches no pattern, so the answer is unchanged)."""

    def __init__(self, triples: set) -> None:
        self.all = triples
        self.by = [defaultdict(set) for _ in range(3)]
        for t in triples:
            for pos in range(3):
                self.by[pos][t[pos]].add(t)

    def relevant(self, patterns: list[TriplePattern]) -> set:
        out: set = set()
        for pat in patterns:
            terms = (pat.subject, pat.predicate, pat.object)
            fixed = [(pos, t) for pos, t in enumerate(terms) if not isinstance(t, Variable)]
            if not fixed:
                return self.all
            pos, t = min(fixed, key=lambda f: len(self.by[f[0]].get(f[1], ())))
            out |= {x for x in self.by[pos].get(t, ()) if all(x[p] == v for p, v in fixed)}
        return out


def _rows(tsv: str) -> list[tuple[str, ...]]:
    return sorted(tuple(line.split("\t")) for line in tsv.splitlines()[1:])


def _oracle_rows(triples: _Triples, patterns, projected, distinct) -> list[tuple[str, ...]]:
    found = brute_force_evaluate(patterns, projected, triples.relevant(patterns), distinct)
    return sorted(tuple(_render(dict(row)[v]) for v in projected) for row in found)


def query_mix(info: dict, out: Path, stdout: dict, codes: dict) -> dict[str, str]:
    base = build_store(info["axioms"])
    triples = _Triples(flatten_triples(base, naive_closure(base)))
    bad: dict[str, str] = {}
    for i, q in enumerate(info["queries"]):
        op = f"q{i:03d}"
        tsv = stdout.get(op)
        if tsv is None:
            continue  # already failed in the run
        if "patterns" in q:
            patterns = [TriplePattern(*map(_term, p)) for p in q["patterns"]]
            projected = tuple(Variable(v[1:]) for v in q["projected"])
            want = _oracle_rows(triples, patterns, projected, False)
        elif q["canned"] == "principles_by_framework":
            x, p = Variable("framework"), Variable("principle")
            want = _oracle_rows(triples, [TriplePattern(x, Iri(gen.RDF_TYPE),
                                                        Iri(gen.a("Framework"))),
                                          TriplePattern(x, Iri(gen.a("principle")), p)],
                                (x, p), True)
        elif q["canned"] == "scenarios_for":
            v = Variable("scenario")
            want = sorted({row for prop in gen.SCENARIO_PROPERTIES
                           for row in _oracle_rows(triples, [TriplePattern(
                               Iri(q["arg"]), Iri(prop), v)], (v,), True)})
        else:
            continue  # compared by digest across rounds
        got = _rows(tsv)
        if got != want:
            bad[op] = f"{len(got)} rows, oracle has {len(want)}: {q.get('text', q)}"
    return bad


# -- reason_check_export --------------------------------------------------------

_NODE = re.compile(r'^    "((?:[^"\\]|\\.)*)" \[label=')
_EDGE = re.compile(r'^    "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[label="((?:[^"\\]|\\.)*)"')


def _dot_graph(text: str) -> tuple[set, set]:
    nodes, edges = set(), set()
    for line in text.splitlines():
        if m := _EDGE.match(line):
            edges.add(m.groups())
        elif m := _NODE.match(line):
            nodes.add(m.group(1))
    return nodes, edges


def _json_graph(text: str) -> tuple[set, set]:
    doc = json.loads(text)
    return ({n["id"] for n in doc["nodes"]},
            {(e["from"], e["to"], e["label"]) for e in doc["edges"]})


def _fact(obj: dict):
    if obj["kind"] == "ClassAssertion":
        return ClassAssertion(Iri(obj["cls"]), Iri(obj["ind"]))
    return ObjectPropertyAssertion(Iri(obj["subject"]), Iri(obj["prop"]), Iri(obj["object"]))


_TABLE = {"Axiom": "axiomCount", "Logical axioms count": "logicalAxiomCount",
          "Declaration axioms count": "declarationAxiomCount", "Class count": "classCount",
          "Object property count": "objectPropertyCount",
          "Data property count": "dataPropertyCount", "Individual count": "individualCount",
          "Annotation property count": "annotationPropertyCount"}


def reason_check_export(info: dict, out: Path, stdout: dict, codes: dict) -> dict[str, str]:
    base = build_store(info["axioms"])
    inferred = naive_inferred(base)
    closed = base.axioms | inferred
    bad: dict[str, str] = {}

    table = {}
    for line in stdout["parse"].splitlines()[1:]:
        label, value = line.rsplit(None, 1)
        table[_TABLE[label.strip()]] = int(value)
    tally = tally_metrics(base)
    if table != {k: tally[k] for k in table} or len(table) != len(_TABLE):
        bad["parse"] = "parse metrics table differs from tally_metrics"

    if parse_turtle((out / "closed.ttl").read_text(encoding="utf-8")).axioms != closed:
        bad["reason_ttl"] = "closed.ttl is not base plus naive_inferred"
    entries = json.loads((out / "closed.trace.json").read_text(encoding="utf-8"))
    if ({_fact(e["conclusion"]) for e in entries} != inferred or len(entries) != len(inferred)
            or not all(e["traces"] for e in entries)):
        bad["reason_ttl"] = f"trace sidecar has {len(entries)} entries for {len(inferred)} facts"
    if store_from_json((out / "closed.json").read_text(encoding="utf-8")).axioms != closed:
        bad["reason_json"] = "closed.json is not base plus naive_inferred"

    violations = naive_violations(base)
    if violations:
        want = [f"inconsistent: {len(violations)} violation(s)"] + sorted(
            f"aieo:{Iri(i).local} aieo:{Iri(x).local} aieo:{Iri(y).local} [{rule}]"
            for i, x, y, rule in violations)
    else:
        want = ["consistent: no disjointness violations"]
    lines = stdout["check"].splitlines()
    if lines[:1] + sorted(lines[1:]) != want:
        bad["check"] = f"check printed {len(lines)} lines, oracle has {len(want)}"
    if codes["check"] != [3 if violations else 0]:
        bad["check"] = f"check exited {codes['check']}"

    graphs = {}
    for op, name in (("export_l1", "l1.dot"), ("export_l2", "l2.json"), ("export_l3", "l3.dot")):
        text = (out / name).read_text(encoding="utf-8")
        if name.endswith(".dot"):
            try:
                assert_valid_dot(text)
            except Exception as exc:  # pyparsing.ParseException
                bad[op] = f"{name} is not valid DOT: {exc}"
            graphs[op] = _dot_graph(text)
        else:
            graphs[op] = _json_graph(text)
    for lower, upper in (("export_l1", "export_l2"), ("export_l2", "export_l3")):
        if not (graphs[lower][0] <= graphs[upper][0] and graphs[lower][1] <= graphs[upper][1]):
            bad[upper] = f"{lower} nodes/edges are not a subset of {upper}"

    closed_store = build_store(info["axioms"])
    for fact in inferred:
        closed_store.add(fact)
    if json.loads(stdout["metrics"]) != tally_metrics(closed_store):
        bad["metrics"] = "metrics --format json differs from tally_metrics"
    if _plus_minus(stdout["diff"]) != (len(inferred), 0):
        bad["diff"] = "diff does not add exactly the inferred facts"
    return bad


CHECKS = {"ingest_chain": ingest_chain, "query_mix": query_mix,
          "reason_check_export": reason_check_export}
