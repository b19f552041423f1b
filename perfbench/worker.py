"""One timed round of one workload, in a process of its own.

    python3 perfbench/worker.py SPEC.json ROUND TRACED

The parent (``run.py``) starts one worker per round, so every round starts
cold: nothing the program caches in memory survives into the next round,
``ru_maxrss`` (which only grows) is the round's own peak, and the import
of ``aieo`` is timed as part of set-up. Output checks, which need far more
memory than the program, run afterwards in the parent.

The machine's speed drifts by a quarter and more over seconds to minutes
(other tenants share its cores), and a slower machine slows the program
and a fixed pure-Python job alike. So the worker times that job, the
probe, between operations, and every timing is reported twice: as
measured (``s``) and normalized to the speed at which the probe takes
``PROBE_REF_S`` (``n``), using the probes around it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import tracing

clock = time.perf_counter

PROBE_REF_S = 0.0035
PROBE_EVERY_S = 0.1  # at least one probe per 100 ms of operations
_PROBE_WORDS = [f"w{i}_{i * 7919 % 1000}" for i in range(2000)]


def _probe_job() -> float:
    start = clock()
    table = {w: (i, w.upper(), len(w)) for i, w in enumerate(_PROBE_WORDS)}
    seen = set()
    for w in _PROBE_WORDS:
        seen.add(w + "x")
        seen.add(w[::-1])
    ordered = sorted(table.items(), key=lambda kv: (kv[1][2], kv[0]))
    re.findall(r"[a-z0-9]+", " ".join(w for w, _ in ordered))
    return clock() - start


def probe() -> float:
    """Seconds for a fixed job of string, dict, set, sort and regex work,
    the same kinds of work the program does: the median of three runs."""
    return sorted(_probe_job() for _ in range(3))[1]


def normalized(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Round:
    """Timings, probes, outputs and failures of one round."""

    def __init__(self) -> None:
        self.ops: list[dict] = []  # {"op", "kind", "s", "code", ...}; code None: raised
        self.probes: list[float] = [probe()]
        self.since_probe = 0.0
        self.stdout: dict[str, str] = {}
        self.stderr: dict[str, str] = {}
        self.errors: list[str] = []

    def _record(self, op: str, kind: str, seconds: float, code: int | None) -> None:
        self.ops.append({"op": op, "kind": kind, "s": seconds, "code": code,
                         "probe": len(self.probes) - 1})
        self.since_probe += seconds
        if self.since_probe >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.since_probe = 0.0

    def cli(self, op: str, argv: list[str]) -> None:
        import aieo.cli

        out, err = io.StringIO(), io.StringIO()
        code: int | None = None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = aieo.cli.main(argv)
        except Exception as exc:  # an operation failure, counted, never fatal
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
        self._record(op, argv[0], clock() - start, code)
        self.stdout[op] = out.getvalue()
        if err.getvalue():
            self.stderr[op] = err.getvalue()[-2000:]

    def call(self, op: str, kind: str, fn) -> object:
        start = clock()
        try:
            result = fn()
        except Exception as exc:
            result = None
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
        self._record(op, kind, clock() - start, None if result is None else 0)
        return result

    def finish(self) -> None:
        """Close the last probe interval and normalize every operation by
        the median of the three probes before it and the three after it
        (one probe can catch a stall the operation did not see)."""
        if self.since_probe or len(self.probes) == 1:
            self.probes.append(probe())
        for o in self.ops:
            k = o["probe"]
            o["n"] = normalized(o["s"], statistics.median(self.probes[max(0, k - 2):k + 4]))


# -- workloads ------------------------------------------------------------------

def ingest_chain(spec: dict, rnd: Round) -> None:
    inp, out = Path(spec["inputs"]), Path(spec["outputs"])
    rnd.cli("seed", ["seed", "--out", str(out / "step_00.ttl")])
    for i in range(spec["info"]["k"]):
        rnd.cli(f"ingest_{i + 1:02d}", [
            "ingest", str(out / f"step_{i:02d}.ttl"), str(inp / f"doc_{i:02d}.json"),
            "--config", str(inp / "config.json"), "--out", str(out / f"step_{i + 1:02d}.ttl"),
        ])
    final = out / f"step_{spec['info']['k']:02d}.ttl"
    rnd.cli("metrics", ["metrics", str(final), "--format", "json"])
    rnd.cli("diff", ["diff", str(out / "step_00.ttl"), str(final)])


def query_mix(spec: dict, rnd: Round) -> None:
    import aieo.model
    import aieo.query
    import aieo.reasoner
    import aieo.turtle

    path = Path(spec["inputs"]) / "store.ttl"

    def load():
        store = aieo.turtle.parse_turtle(path.read_text(encoding="utf-8"))
        return aieo.reasoner.materialize(store)

    mat = rnd.call("load", "load", load)
    for i, q in enumerate(spec["info"]["queries"]):
        if mat is None:
            break
        if "text" in q:
            fn = lambda q=q: aieo.query.evaluate(aieo.query.parse_query(q["text"]),
                                                 mat).to_tsv()
        else:
            arg = aieo.model.Iri(q["arg"]) if q["arg"] else None
            fn = lambda q=q, arg=arg: aieo.query.canned_query(q["canned"], mat,
                                                              arg).to_tsv()
        rnd.stdout[f"q{i:03d}"] = rnd.call(f"q{i:03d}", q["kind"], fn)


def reason_check_export(spec: dict, rnd: Round) -> None:
    inp, out = Path(spec["inputs"]), Path(spec["outputs"])
    ttl, js = str(inp / "store.ttl"), str(inp / "store.json")
    rnd.cli("parse", ["parse", js])
    rnd.cli("reason_ttl", ["reason", ttl, "--out", str(out / "closed.ttl"), "--trace"])
    rnd.cli("reason_json", ["reason", js, "--out", str(out / "closed.json")])
    rnd.cli("check", ["check", ttl])
    rnd.cli("export_l1", ["export", ttl, "--level", "1", "--format", "dot",
                          "--out", str(out / "l1.dot")])
    rnd.cli("export_l2", ["export", js, "--level", "2", "--format", "json",
                          "--out", str(out / "l2.json")])
    rnd.cli("export_l3", ["export", ttl, "--level", "3", "--format", "dot",
                          "--out", str(out / "l3.dot")])
    rnd.cli("metrics", ["metrics", str(out / "closed.ttl"), "--format", "json"])
    rnd.cli("diff", ["diff", ttl, str(out / "closed.ttl")])


# workload -> (round body, {output file: the operation that writes it})
WORKLOADS = {
    "ingest_chain": (ingest_chain, {"step_{k:02d}.ttl": "ingest_{k:02d}"}),
    "query_mix": (query_mix, {}),
    "reason_check_export": (reason_check_export, {
        "closed.ttl": "reason_ttl", "closed.trace.json": "reason_ttl",
        "closed.json": "reason_json", "l1.dot": "export_l1", "l2.json": "export_l2",
        "l3.dot": "export_l3",
    }),
}


# -- one round --------------------------------------------------------------------

def timed_import() -> float:
    before = probe()
    start = clock()
    import aieo  # noqa: F401  (the package and every module it loads)
    import aieo.cli  # noqa: F401
    seconds = clock() - start
    return normalized(seconds, (before + probe()) / 2)


def timed_setup(spec: dict, target: Path) -> float:
    """Generate the inputs once more, timed, and confirm the bytes repeat."""
    shutil.rmtree(target, ignore_errors=True)
    before = probe()
    start = clock()
    gen.write_inputs(spec["workload"], spec["seed"], spec["sizes"], target)
    seconds = clock() - start
    after = probe()
    got = {p.name: sha256(p.read_bytes()) for p in sorted(target.iterdir())}
    shutil.rmtree(target)
    if got != spec["input_sha256"]:
        raise SystemExit("generated inputs differ between two set-ups of one seed")
    return normalized(seconds, (before + after) / 2)


def main(spec_path: str, index: int, traced: bool) -> int:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec_path).parent
    body, out_files = WORKLOADS[spec["workload"]]
    out = Path(spec["outputs"])
    k = spec["info"].get("k", 0)

    import_s = timed_import()
    rnd = Round()
    layers = None
    if traced:
        with tracing.Tracer() as tracer:
            body(spec, rnd)
        layers = {"calls": dict(tracer.calls), "self_s": dict(tracer.self_seconds()),
                  "counts": dict(tracer.counts)}
        names = sorted({s[0] for s in tracer.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(work / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"], "names": names,
                       "spans": [[code[n], p, s, e] for n, p, s, e in tracer.spans]}, fh)
    else:
        body(spec, rnd)
    rnd.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Keys are "<op>" for captured output, "<op>:<file>" for files.
    digests = {op: sha256(text or "") for op, text in rnd.stdout.items()}
    for name, op in out_files.items():
        path = out / name.format(k=k)
        digests[f"{op.format(k=k)}:{path.name}"] = (
            sha256(path.read_bytes()) if path.exists() else None)
    setup_s = import_s + timed_setup(spec, work / "setup_probe")
    (out / "stdout.json").write_text(json.dumps(rnd.stdout))
    (work / f"round{index:03d}.json").write_text(json.dumps({
        "traced": traced, "ops": rnd.ops, "probes": rnd.probes, "errors": rnd.errors,
        "stderr": rnd.stderr, "digests": digests, "layers": layers,
        "peak_rss_mb": peak_mb, "import_s": import_s, "setup_s": setup_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"))
