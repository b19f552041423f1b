"""Seeded input generators for the aieo benchmark.

Everything here is plain stdlib. The generators never import ``aieo``: the
Turtle, JSON, framework-document and config files are written with this
module's own formatting, so a change to the program's parsers or
serializers cannot change the bytes a workload starts from. The seed
schema is restated below as data for the same reason.

Axioms are kept as small tuples until they are written out:

    ("decl", iri, kind)        kind: OwlClass | ObjectProperty |
                                     AnnotationProperty | NamedIndividual
    ("sub", sub, sup)          SubClassOf
    ("disj", a, b)             DisjointClasses
    ("eqc", (c1, c2, ...))     EquivalentClasses
    ("range", prop, cls)       ObjectPropertyRange
    ("subprop", sub, sup)      SubObjectPropertyOf
    ("eqp", (p1, p2, ...))     EquivalentObjectProperties
    ("type", cls, ind)         ClassAssertion
    ("opa", s, prop, o)        ObjectPropertyAssertion
    ("same", a, b)             SameIndividual
    ("ann", s, prop, text)     AnnotationAssertion (plain literal)

IRIs are absolute strings.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

AIEO = "https://w3id.org/aieo#"
OWL = "http://www.w3.org/2002/07/owl#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
PREFIXES = {"aieo": AIEO, "owl": OWL, "rdf": RDF, "rdfs": RDFS}
RDFS_LABEL = RDFS + "label"
RDF_TYPE = RDF + "type"


def a(local: str) -> str:
    return AIEO + local


# -- the seed schema, restated ------------------------------------------------

_CLASSES = (
    "AI_Dimension", "Framework", "FundamentalRight", "Principle", "Requirement",
    "Application", "Example", "Scenario", "UseCase", "Keyword",
    "Characteristic_keyword", "Development_keyword", "EnvironmentalDimension_keyword",
    "GovernamentalDimension_keyword", "IndividualDimension_keyword",
    "OrganizationalDimension_keyword", "Risk_keyword", "SocialDimension_keyword",
    "SustainableDevelopment_keyword",
)
_KEYWORD_SUBCLASSES = tuple(c for c in _CLASSES if c.endswith("_keyword"))
_DISJOINT = (
    ("AI_Dimension", "Framework"), ("AI_Dimension", "FundamentalRight"),
    ("AI_Dimension", "Principle"), ("AI_Dimension", "Requirement"),
    ("Framework", "FundamentalRight"), ("Framework", "Principle"),
    ("Framework", "Requirement"), ("FundamentalRight", "Principle"),
    ("FundamentalRight", "Requirement"),
)
_RANGES = (
    ("application", "Application"), ("dimension", "AI_Dimension"),
    ("example", "Example"), ("fundamentalRight", "FundamentalRight"),
    ("keyword", "Keyword"), ("relevantKeyword", "Keyword"),
    ("principle", "Principle"), ("requirement", "Requirement"),
    ("scenario", "Scenario"), ("useCase", "UseCase"),
)
_ANNOTATION_PROPERTIES = (a("method"), a("reference"), a("shortDescription"), RDFS_LABEL)


def schema_axioms() -> list[tuple]:
    out: list[tuple] = [("decl", a(c), "OwlClass") for c in _CLASSES]
    out += [("sub", a(c), a("Keyword")) for c in _KEYWORD_SUBCLASSES]
    out += [("disj", a(x), a(y)) for x, y in _DISJOINT]
    out.append(("eqc", tuple(a(c) for c in ("Application", "Scenario", "UseCase"))))
    out += [("decl", a(p), "ObjectProperty") for p, _ in _RANGES]
    out += [("range", a(p), a(c)) for p, c in _RANGES]
    out.append(("subprop", a("relevantKeyword"), a("keyword")))
    out.append(("eqp", tuple(a(p) for p in ("application", "scenario", "useCase"))))
    out += [("decl", p, "AnnotationProperty") for p in _ANNOTATION_PROPERTIES]
    out.append(("ann", a("Requirement"), RDFS_LABEL, "Requirements"))
    return out


# Pools shared with the random stores of tests/oracles.py.
CLASS_POOL = tuple(a(n) for n in (
    "AI_Dimension", "Application", "Example", "Framework", "FundamentalRight",
    "Keyword", "Principle", "Requirement", "Scenario", "UseCase",
    "Characteristic_keyword", "Risk_keyword", "SocialDimension_keyword",
))
PROPERTY_POOL = tuple(a(n) for n, _ in _RANGES)
SCENARIO_PROPERTIES = tuple(a(n) for n in ("application", "example", "scenario", "useCase"))


# -- writers ------------------------------------------------------------------

_KIND_META = {
    "OwlClass": "owl:Class",
    "ObjectProperty": "owl:ObjectProperty",
    "AnnotationProperty": "owl:AnnotationProperty",
    "NamedIndividual": "owl:NamedIndividual",
}


def _curie(iri: str) -> str:
    for prefix in ("aieo", "rdfs", "owl", "rdf"):
        base = PREFIXES[prefix]
        if iri.startswith(base):
            return f"{prefix}:{iri[len(base):]}"
    return f"<{iri}>"


def _literal(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _turtle_lines(ax: tuple) -> list[str]:
    tag = ax[0]
    if tag == "decl":
        return [f"{_curie(ax[1])} a {_KIND_META[ax[2]]} ."]
    if tag == "sub":
        return [f"{_curie(ax[1])} rdfs:subClassOf {_curie(ax[2])} ."]
    if tag == "disj":
        return [f"{_curie(ax[1])} owl:disjointWith {_curie(ax[2])} ."]
    if tag in ("eqc", "eqp"):
        pred = "owl:equivalentClass" if tag == "eqc" else "owl:equivalentProperty"
        first, *rest = ax[1]
        return [f"{_curie(first)} {pred} {_curie(o)} ." for o in rest]
    if tag == "range":
        return [f"{_curie(ax[1])} rdfs:range {_curie(ax[2])} ."]
    if tag == "subprop":
        return [f"{_curie(ax[1])} rdfs:subPropertyOf {_curie(ax[2])} ."]
    if tag == "type":
        return [f"{_curie(ax[2])} a {_curie(ax[1])} ."]
    if tag == "opa":
        return [f"{_curie(ax[1])} {_curie(ax[2])} {_curie(ax[3])} ."]
    if tag == "same":
        return [f"{_curie(ax[1])} owl:sameAs {_curie(ax[2])} ."]
    if tag == "ann":
        return [f"{_curie(ax[1])} {_curie(ax[2])} {_literal(ax[3])} ."]
    raise ValueError(f"unknown axiom tag {tag!r}")


def turtle_text(axioms: list[tuple]) -> str:
    lines = [f"@prefix {p}: <{base}> ." for p, base in PREFIXES.items()]
    lines.append("")
    for ax in axioms:
        lines.extend(_turtle_lines(ax))
    return "\n".join(lines) + "\n"


def _json_obj(ax: tuple) -> dict:
    tag = ax[0]
    if tag == "decl":
        return {"kind": "Declaration", "iri": ax[1], "entityKind": ax[2]}
    if tag == "sub":
        return {"kind": "SubClassOf", "sub": ax[1], "sup": ax[2]}
    if tag == "disj":
        return {"kind": "DisjointClasses", "a": ax[1], "b": ax[2]}
    if tag == "eqc":
        return {"kind": "EquivalentClasses", "classes": list(ax[1])}
    if tag == "eqp":
        return {"kind": "EquivalentObjectProperties", "properties": list(ax[1])}
    if tag == "range":
        return {"kind": "ObjectPropertyRange", "prop": ax[1], "cls": ax[2]}
    if tag == "subprop":
        return {"kind": "SubObjectPropertyOf", "sub": ax[1], "sup": ax[2]}
    if tag == "type":
        return {"kind": "ClassAssertion", "cls": ax[1], "ind": ax[2]}
    if tag == "opa":
        return {"kind": "ObjectPropertyAssertion", "subject": ax[1], "prop": ax[2],
                "object": ax[3]}
    if tag == "same":
        return {"kind": "SameIndividual", "a": ax[1], "b": ax[2]}
    if tag == "ann":
        return {"kind": "AnnotationAssertion", "subject": ax[1], "annProp": ax[2],
                "value": {"text": ax[3]}}
    raise ValueError(f"unknown axiom tag {tag!r}")


def json_text(axioms: list[tuple]) -> str:
    lines = ['{"prefixes": ' + json.dumps(PREFIXES) + ',', ' "axioms": [']
    objs = [json.dumps(_json_obj(ax)) for ax in axioms]
    lines.append(",\n".join("  " + o for o in objs))
    lines.append(" ]}")
    return "\n".join(lines) + "\n"


# -- shape (b): seed schema plus a random population -------------------------

def random_store(seed: int, n: int) -> dict:
    """Seed schema plus ``n`` individuals, ``n`` class assertions, ``n``
    property assertions, ``2n`` annotations and ``n // 50`` sameAs pairs."""
    rng = random.Random(f"store:{seed}")
    inds = [a(f"i{k}") for k in range(n)]
    axioms = schema_axioms()
    axioms += [("decl", ind, "NamedIndividual") for ind in inds]
    # Classes and properties are used round-robin, so how much a scan or a
    # join over one of them costs does not change with the seed.
    for k in range(n):
        axioms.append(("type", CLASS_POOL[k % len(CLASS_POOL)], rng.choice(inds)))
    for k in range(n):
        axioms.append(("opa", rng.choice(inds), PROPERTY_POOL[k % len(PROPERTY_POOL)],
                       rng.choice(inds)))
    for k in range(2 * n):
        axioms.append(("ann", rng.choice(inds), _ANNOTATION_PROPERTIES[k % 4],
                       f"note {rng.randint(0, 999)}"))
    same = []
    for _ in range(n // 50):
        x, y = rng.sample(inds, 2)
        same.append((min(x, y), max(x, y)))
    axioms += [("same", x, y) for x, y in same]
    return {"axioms": axioms, "individuals": inds, "same": same}


# -- query_mix: a fixed seeded query list --------------------------------------

# Counts per query class; joins stay near one fifth so the median lands in
# the cheap classes and the 90th percentile inside the joins.
QUERY_CLASSES = (("lookup", 20), ("type_scan", 10), ("path", 10), ("join", 12),
                 ("canned", 8))
CANNED = ("principles_by_framework", "describe_concept", "scenarios_for",
          "unique_concepts")


def _bgp(kind: str, projected: tuple[str, ...], patterns: list[tuple[str, str, str]]) -> dict:
    """A query as text plus the structure the oracle evaluates; terms are
    absolute IRIs or ``?name`` variables."""
    def term(t: str, predicate: bool) -> str:
        if t.startswith("?"):
            return t
        return "a" if predicate and t == RDF_TYPE else f"<{t}>"

    body = " . ".join(f"{term(s, False)} {term(p, True)} {term(o, False)}"
                      for s, p, o in patterns)
    return {"kind": kind, "text": f"SELECT {' '.join(projected)} WHERE {{ {body} }}",
            "projected": list(projected), "patterns": [list(t) for t in patterns]}


def query_list(seed: int, store: dict) -> list[dict]:
    """BGP queries (see :func:`_bgp`) and canned ones, ``{"kind", "canned",
    "arg"}``, in a seeded order.

    The cost-determining structure (which class or property a scan or join
    touches) cycles through fixed pools; the seed picks only the bound
    individuals and the order.
    """
    rng = random.Random(f"queries:{seed}")
    inds = store["individuals"]
    merged = {x for pair in store["same"] for x in pair}
    unmerged = [i for i in inds if i not in merged]
    out: list[dict] = []
    for kind, count in QUERY_CLASSES:
        for j in range(count):
            prop = PROPERTY_POOL[j % len(PROPERTY_POOL)]
            if kind == "lookup":
                out.append(_bgp(kind, ("?p", "?o"), [(rng.choice(inds), "?p", "?o")]))
            elif kind == "type_scan":
                cls = CLASS_POOL[j % len(CLASS_POOL)]
                out.append(_bgp(kind, ("?x",), [("?x", RDF_TYPE, cls)]))
            elif kind == "path":
                out.append(_bgp(kind, ("?p", "?y", "?z"),
                                [(rng.choice(inds), "?p", "?y"), ("?y", prop, "?z")]))
            elif kind == "join":
                # The keyword/type join of ROADMAP item 2, then joins over the
                # three equivalent properties, which cost alike (each carries
                # the other two's assertions): the 90th percentile falls in
                # the middle of one cost tier instead of between two.
                if j == 0:
                    prop, cls = a("keyword"), a("Keyword")
                else:
                    prop = a(("application", "scenario", "useCase")[j % 3])
                    cls = CLASS_POOL[(j * 7) % len(CLASS_POOL)]
                out.append(_bgp(kind, ("?x", "?y"), [("?x", prop, "?y"), ("?y", RDF_TYPE, cls)]))
            else:
                name = CANNED[j % len(CANNED)]
                arg = None
                if name == "scenarios_for":  # the oracle check needs no sameAs peers
                    arg = rng.choice(unmerged)
                elif name != "principles_by_framework":
                    arg = rng.choice(inds)
                out.append({"kind": kind, "canned": name, "arg": arg})
    rng.shuffle(out)
    # The first query is part of first_answer_s: keep it one cheap class.
    first = next(i for i, q in enumerate(out) if q["kind"] == "lookup")
    out[0], out[first] = out[first], out[0]
    return out


# -- shape (a): framework documents for ingest_chain ---------------------------

_LABEL_WORDS = (
    "accountability", "agency", "autonomy", "bias", "contestability", "data",
    "dignity", "diversity", "environmental", "equity", "explainability",
    "fairness", "governance", "harm", "human", "inclusion", "integrity",
    "justice", "lawfulness", "oversight", "privacy", "protection", "redress",
    "reliability", "resilience", "respect", "robustness", "safety", "security",
    "societal", "solidarity", "sustainability", "traceability", "transparency",
    "trust", "wellbeing",
)
_BODY_WORDS = (
    "system", "systems", "risk", "data", "model", "models", "people", "public",
    "fairness", "privacy", "transparency", "accountability", "safety", "harm",
    "lifecycle", "deployment", "design", "development", "oversight", "audit",
    "impact", "assessment", "governance", "rights", "users", "organisations",
    "decisions", "outcomes", "monitoring", "documentation", "training", "testing",
    "security", "robustness", "explanation", "consent", "inclusion", "wellbeing",
    "environment", "sustainable", "society", "agencies", "businesses", "trust",
)
_STOP = ("the", "and", "of", "to", "in", "should", "be", "for", "with", "on")
# Per-document concept counts by kind; every concept kind appears.
KIND_MIX = (("Principle", 0.4), ("Requirement", 0.3), ("FundamentalRight", 0.15),
            ("AI_Dimension", 0.15))
_ALIGNABLE = ("Principle", "Requirement", "FundamentalRight")
_LINK = {"Principle": "principle", "Requirement": "requirement",
         "FundamentalRight": "fundamentalRight", "AI_Dimension": "dimension"}
_CLASSIFY = {
    "risk": "Risk_keyword", "privacy": "IndividualDimension_keyword",
    "governance": "GovernamentalDimension_keyword",
    "transparency": "Characteristic_keyword", "fairness": "Characteristic_keyword",
    "wellbeing": "SocialDimension_keyword", "environment": "EnvironmentalDimension_keyword",
    "sustainable": "SustainableDevelopment_keyword",
}


def _label_pool(rng: random.Random, size: int) -> list[str]:
    seen: set[tuple[str, ...]] = set()
    out: list[str] = []
    while len(out) < size:
        words = tuple(rng.sample(_LABEL_WORDS, rng.choice((2, 3))))
        if words not in seen:
            seen.add(words)
            out.append(" ".join(words))
    return out


def _sentence(rng: random.Random, n: int) -> str:
    words = [rng.choice(_BODY_WORDS) if rng.random() < 0.7 else rng.choice(_STOP)
             for _ in range(n)]
    return " ".join(words).capitalize() + "."


def framework_docs(seed: int, k: int, concepts: int) -> dict:
    """``k`` framework documents of ``concepts`` concepts each, a config
    confirming every exact-label cross-framework pair of alignable kinds,
    and the facts the checks need."""
    rng = random.Random(f"frameworks:{seed}")
    per_kind = {kind: round(concepts * share) for kind, share in KIND_MIX}
    per_kind["Principle"] += concepts - sum(per_kind.values())
    pool = _label_pool(rng, sum(round(c * 2.5) for c in per_kind.values()))
    pools, start = {}, 0
    for kind, count in per_kind.items():
        size = round(count * 2.5)
        pools[kind] = pool[start:start + size]
        start += size
    docs, expected = [], []
    holders: dict[str, list[str]] = {}  # alignable label -> framework ids
    for f in range(k):
        fid = f"F{f:02d}"
        decls = []
        for kind, count in per_kind.items():
            # Document f takes a window of its kind's (shuffled) pool that
            # starts f steps in: how many labels two documents share, and so
            # how many confirmations there are, does not change with the seed.
            size = len(pools[kind])
            step = max(1, size // k)
            window = [pools[kind][(f * step + j) % size] for j in range(count)]
            for label in sorted(window):
                decls.append({
                    "name": label, "kind": kind,
                    "shortDescription": _sentence(rng, 10),
                    "reference": f"{fid} clause {len(decls) + 1}",
                })
                iri = a(f"{fid}_{label.replace(' ', '_')}")
                expected.append((a(fid), kind, a(_LINK[kind]), iri))
                if kind in _ALIGNABLE:
                    holders.setdefault(label, []).append(fid)
        rng.shuffle(decls)
        sections = [{"heading": f"Section {s + 1}",
                     "body": " ".join(_sentence(rng, 12) for _ in range(5))}
                    for s in range(4)]
        docs.append({"id": f"aieo:{fid}", "title": f"Framework {fid} on AI ethics",
                     "sections": sections, "conceptDeclarations": decls})
    confirmations = []
    for label in sorted(holders):
        fids = holders[label]
        slug = label.replace(" ", "_")
        for i, left in enumerate(fids):
            for right in fids[i + 1:]:
                confirmations.append({"left": f"aieo:{left}_{slug}",
                                      "right": f"aieo:{right}_{slug}"})
    config = {
        "extraction": {"minTokenLength": 3, "topK": 10, "relevantTopK": 3},
        "classificationMap": _CLASSIFY,
        "confirmations": confirmations,
        "threshold": 0.5,
    }
    return {"docs": docs, "config": config, "concepts": expected,
            "frameworks": [a(f"F{f:02d}") for f in range(k)]}


# -- writing a workload's inputs ----------------------------------------------

def write_inputs(workload: str, seed: int, sizes: dict, out: Path) -> dict:
    """Generate one workload's inputs under ``out``; returns the facts the
    run and the checks need (JSON-serializable)."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "ingest_chain":
        fw = framework_docs(seed, sizes["k"], sizes["concepts"])
        for i, doc in enumerate(fw["docs"]):
            (out / f"doc_{i:02d}.json").write_text(json.dumps(doc, indent=1) + "\n")
        (out / "config.json").write_text(json.dumps(fw["config"], indent=1) + "\n")
        return {"k": sizes["k"], "frameworks": fw["frameworks"],
                "concepts": fw["concepts"],
                "confirmations": [[c["left"], c["right"]]
                                  for c in fw["config"]["confirmations"]]}
    store = random_store(seed, sizes["n"])
    (out / "store.ttl").write_text(turtle_text(store["axioms"]))
    if workload == "query_mix":
        queries = query_list(seed, store)
        (out / "queries.json").write_text(json.dumps(queries, indent=1) + "\n")
        return {"axioms": store["axioms"], "queries": queries}
    if workload == "reason_check_export":
        (out / "store.json").write_text(json_text(store["axioms"]))
        return {"axioms": store["axioms"]}
    raise ValueError(f"unknown workload {workload!r}")
