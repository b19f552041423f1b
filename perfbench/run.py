"""The aieo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates the workload's inputs
from the seed, repeats rounds of the workload (each in a fresh worker
process, see ``worker.py``) for about ``--seconds``, checks the outputs
against the oracles in ``tests/oracles.py`` and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. A record of the run (input and
output sha256 digests, per-operation timings) is written under
``perfbench/.work/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"

import gen  # noqa: E402  (HERE is on sys.path as the script's directory)

# Sizes per workload, chosen so a round takes a few seconds on one core.
SIZES = {
    "ingest_chain": {"k": 9, "concepts": 100},
    "query_mix": {"n": 500},
    "reason_check_export": {"n": 1000},
}

# Layer-isolation claims the workloads rest on, asserted in traced runs.
# MUST_FIRE per workload together cover every wrapped function; MUST_IDLE
# lists the module prefixes that must see no call at all.
MUST_IDLE = {
    "ingest_chain": ("query.", "reasoner.", "kgexport."),
    "query_mix": ("pipeline.", "cli.", "kgexport."),
    "reason_check_export": ("pipeline.", "query."),
}
MUST_FIRE = {
    "ingest_chain": (
        "cli.main", "schema.seed_schema", "turtle.parse_turtle", "turtle.serialize_turtle",
        "turtle.axiom_line", "jsonio.parse_framework_document", "jsonio.parse_config",
        "model.OntologyStore.add", "model.OntologyStore.declare", "model.OntologyStore.copy",
        "model.compute_metrics", "pipeline.run_iteration", "pipeline.structure_framework",
        "pipeline.extract_keywords", "pipeline.attach_keywords", "pipeline.enrich",
        "pipeline.propose_equivalences", "pipeline.apply_equivalences",
        "pipeline.label_similarity",
    ),
    "query_mix": (
        "turtle.parse_turtle", "reasoner.materialize", "reasoner.check_consistency",
        "query.parse_query", "query.canned_query", "query.triples_view", "query.evaluate",
        "model.OntologyStore.require_valid", "model.sorted_axioms",
    ),
    "reason_check_export": (
        "cli.main", "turtle.parse_turtle", "turtle.serialize_turtle", "turtle.axiom_line",
        "jsonio.store_from_json", "jsonio.store_to_json", "jsonio.traces_to_json",
        "model.OntologyStore.add", "model.OntologyStore.declare", "model.OntologyStore.copy",
        "model.OntologyStore.require_valid", "model.compute_metrics", "model.sorted_axioms",
        "reasoner.materialize", "reasoner.check_consistency", "reasoner.explain",
        "kgexport.export_graph", "kgexport.render_dot", "kgexport.render_json",
    ),
}
QUERY_KINDS = ("lookup", "type_scan", "path", "join", "canned")
CLI_COMMANDS = ("seed", "ingest", "metrics", "diff", "parse", "reason", "check", "export")


class BenchError(Exception):
    """The run cannot produce a result (missing files, a crashed worker)."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1] if len(values) > 1 else values[0]


def wall(rnd: dict) -> float:
    return sum(o["n"] for o in rnd["ops"])


# -- metrics ----------------------------------------------------------------------

def op_latencies(rnd: dict, workload: str) -> list[float]:
    """The workload's repeated operation: one ingest, one query, one command."""
    if workload == "ingest_chain":
        return [o["n"] for o in rnd["ops"] if o["kind"] == "ingest"]
    if workload == "query_mix":
        return [o["n"] for o in rnd["ops"] if o["kind"] in QUERY_KINDS]
    return [o["n"] for o in rnd["ops"]]


def first_answer(rnd: dict, workload: str) -> float:
    """Seconds from the start of a round to its first result: ``parse``;
    load + first query; ``seed`` + the first two ingests, which give the
    first store consolidated across frameworks."""
    ops = {"reason_check_export": 1, "query_mix": 2, "ingest_chain": 3}[workload]
    return sum(o["n"] for o in rnd["ops"][:ops])


def end_to_end(rounds: list[dict], workload: str, ok_ratio: float) -> dict:
    """Medians over the untraced rounds, from normalized times."""
    rounds = [r for r in rounds if not r["traced"]]
    med = statistics.median
    lat = [op_latencies(r, workload) for r in rounds]
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "wall_s": med(wall(r) for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        "ok_ops_ratio": ok_ratio,
        "first_answer_s": med(first_answer(r, workload) for r in rounds),
        "op_p50_ms": med(quantile(x, 5) for x in lat) * 1e3,
        "op_p90_ms": med(quantile(x, 9) for x in lat) * 1e3,
        "ops_per_s": med(len(x) / sum(x) for x in lat),
    }


def per_layer(rounds: list[dict], workload: str, problems: list) -> dict:
    import tracing

    med = statistics.median
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    layers = [r["layers"] for r in traced]
    last = layers[-1]
    out: dict[str, float] = {}
    for name in tracing.WRAPPED:
        out[f"{name}.calls"] = last["calls"].get(name, 0)
        out[f"{name}.self_s"] = med(layer["self_s"].get(name, 0.0) for layer in layers)
    for key in tracing.COUNT_NAMES:
        out[key] = last["counts"].get(key, 0)
    pairs = out["pipeline.label_similarity.calls"]
    out["pipeline.proposal_yield"] = (
        out["pipeline.apply_equivalences.applied"] / pairs if pairs else 0.0)
    out["trace.overhead_s"] = med(map(wall, traced)) - med(map(wall, untraced))
    ops = [o for r in untraced for o in r["ops"]]
    for kind in QUERY_KINDS:
        xs = [o["n"] for o in ops if o["kind"] == kind]
        out[f"query.kind.{kind}.p50_ms"] = med(xs) * 1e3 if xs else 0.0
    for cmd in CLI_COMMANDS:
        xs = [o["n"] for o in ops if o["kind"] == cmd]
        out[f"cli.command.{cmd}.p50_ms"] = med(xs) * 1e3 if xs else 0.0

    # The layer-isolation self-check.
    if set().union(*MUST_FIRE.values()) != set(tracing.WRAPPED):
        problems.append("isolation: MUST_FIRE does not cover every wrapped function")
    for layer in layers:
        for name, calls in layer["calls"].items():
            if calls and name.startswith(MUST_IDLE[workload]):
                problems.append(f"isolation: {name} called {calls} times on {workload}")
        for name in MUST_FIRE[workload]:
            if not layer["calls"].get(name):
                problems.append(f"isolation: {name} never called on {workload}")
        if workload == "query_mix" and layer["calls"].get("reasoner.materialize") != 1:
            problems.append("isolation: materialize not called exactly once per round")
    return out


# -- the run --------------------------------------------------------------------

def run_rounds(args: argparse.Namespace, work: Path) -> list[dict]:
    """One worker process per round until the next round would end past
    ``--seconds``; with tracing, rounds alternate untraced and traced."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
             str(len(rounds)), str(int(traced))],
            env=env, timeout=max(120, 4 * args.seconds))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode} in round {len(rounds)}")
        rounds.append(json.loads((work / f"round{len(rounds):03d}.json").read_text()))
        took = time.perf_counter() - began
        enough = any(not r["traced"] for r in rounds) and (
            not args.trace or any(r["traced"] for r in rounds))
        if enough and time.perf_counter() - start + took / 2 > args.seconds:
            return rounds


def judge(workload: str, info: dict, rounds: list[dict], outputs: Path) -> tuple[int, list]:
    """Failed operations over all rounds, and the problems found."""
    if str(TESTS) not in sys.path:
        sys.path[:0] = [str(SRC), str(TESTS)]
    import checks

    problems = [e for r in rounds for e in r["errors"]]
    failed_ops: set[str] = set()
    for key in rounds[0]["digests"]:
        if len({r["digests"].get(key) for r in rounds}) != 1:
            problems.append(f"output {key} differs between rounds")
            failed_ops.add(key.split(":")[0])
    codes: dict[str, list] = {}
    for r in rounds:
        for o in r["ops"]:
            seen = codes.setdefault(o["op"], [])
            if o["code"] not in seen:
                seen.append(o["code"])
    for op, seen in codes.items():
        if None in seen or (op != "check" and seen != [0]):  # checks judge `check`
            failed_ops.add(op)
            problems.append(f"{op} exited {seen}")
    stdout = json.loads((outputs / "stdout.json").read_text())
    try:
        bad = checks.CHECKS[workload](info, outputs, stdout, codes)
    except Exception as exc:  # outputs too broken to check: every operation failed
        problems.append(f"checks raised {type(exc).__name__}: {exc}")
        bad = dict.fromkeys(codes, "not checkable")
    for op, message in bad.items():
        failed_ops.add(op)
        problems.append(f"{op}: {message}")
    failed = sum(1 for r in rounds for o in r["ops"] if o["op"] in failed_ops)
    return failed, problems


def run(args: argparse.Namespace, sizes: dict) -> dict:
    if not (SRC / "aieo" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        raise BenchError(f"run from a checkout of the repository: {SRC / 'aieo'} "
                         f"or {TESTS / 'oracles.py'} is missing")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "inputs", work / "outputs"
    info = gen.write_inputs(args.workload, args.seed, sizes, inputs)
    input_digests = {p.name: sha256_file(p) for p in sorted(inputs.iterdir())}
    outputs.mkdir()
    (work / "spec.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "sizes": sizes,
        "inputs": str(inputs), "outputs": str(outputs), "info": info,
        "input_sha256": input_digests,
    }))

    rounds = run_rounds(args, work)
    failed, problems = judge(args.workload, info, rounds, outputs)
    attempted = sum(len(r["ops"]) for r in rounds)
    if args.trace:
        values = per_layer(rounds, args.workload, problems)
    else:
        values = end_to_end(rounds, args.workload, 1 - failed / attempted)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "sizes": sizes,
        "python": sys.version.split()[0], "input_sha256": input_digests,
        "output_sha256": rounds[-1]["digests"], "problems": problems, "values": values,
        "rounds": [{k: r[k] for k in ("traced", "ops", "probes", "peak_rss_mb", "import_s",
                                      "setup_s")} for r in rounds],
    }
    if args.workload == "ingest_chain":  # "ingested ...: axioms A -> B (+N)"
        record["axioms_added_series"] = [
            int(rounds[0]["stderr"][o["op"]].rsplit("(+", 1)[-1].rstrip(")\n"))
            for o in rounds[0]["ops"] if o["kind"] == "ingest" and o["code"] == 0]
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name.startswith("round") or path.name == "spec.json":
            path.unlink()
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line = run(args, (sizes or SIZES)[args.workload])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
