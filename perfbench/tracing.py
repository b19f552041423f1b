"""Spans and counts around the public functions of each ``aieo`` module.

The wrappers are installed from the benchmark's side; the package itself is
not modified. The package imports with ``from .x import y``, so a function
lives under several module bindings (``aieo.cli.materialize`` as well as
``aieo.reasoner.materialize``); :meth:`Tracer.install` replaces every
binding in every loaded ``aieo`` module, or calls from the CLI would bypass
the wrapper. Methods are patched once, on ``OntologyStore``.

A span is ``(name, parent_index, start_ns, end_ns)``, kept in memory in the
order spans start; self time is a span's duration minus that of its direct
children. Counts are taken at the same boundaries, outside the timed part.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable


def _nbytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _applied(result, args, kwargs) -> tuple[int]:
    proposals = args[1] if len(args) > 1 else kwargs["proposals"]
    return (len(proposals),)


# name -> (count keys, counter(result, args, kwargs) -> values), or None.
# Each name is "<module>.<function>" or "<module>.OntologyStore.<method>".
SPANNED: dict[str, tuple[tuple[str, ...], Callable] | None] = {
    "cli.main": None,
    "schema.seed_schema": None,
    "turtle.parse_turtle": (("in_bytes",), lambda r, a, k: (_nbytes(a[0]),)),
    "turtle.serialize_turtle": (("out_bytes",), lambda r, a, k: (_nbytes(r),)),
    "turtle.axiom_line": None,
    "jsonio.store_from_json": None,
    "jsonio.store_to_json": None,
    "jsonio.traces_to_json": (("out_bytes",), lambda r, a, k: (_nbytes(r),)),
    "jsonio.parse_framework_document": None,
    "jsonio.parse_config": None,
    "model.OntologyStore.add": None,
    "model.OntologyStore.declare": None,
    "model.OntologyStore.copy": None,
    "model.OntologyStore.require_valid": None,
    "model.compute_metrics": None,
    "model.sorted_axioms": None,
    "pipeline.run_iteration": (("axioms_added",), lambda r, a, k: (r[1].increment,)),
    "pipeline.structure_framework": None,
    "pipeline.extract_keywords": None,
    "pipeline.attach_keywords": None,
    "pipeline.enrich": None,
    "pipeline.propose_equivalences": (("proposals",), lambda r, a, k: (len(r),)),
    "pipeline.apply_equivalences": (("applied",), _applied),
    "reasoner.materialize": (("inferred", "traces"), lambda r, a, k: (
        len(r.inferred), sum(len(t) for t in r.traces.values()))),
    "reasoner.check_consistency": (("violations",), lambda r, a, k: (len(r),)),
    "reasoner.explain": None,
    "query.parse_query": None,
    "query.canned_query": None,
    "query.triples_view": (("triples",), lambda r, a, k: (len(r),)),
    "query.evaluate": (("rows",), lambda r, a, k: (len(r),)),
    "kgexport.export_graph": (("nodes", "edges"), lambda r, a, k: (len(r.nodes), len(r.edges))),
    "kgexport.render_dot": (("out_bytes",), lambda r, a, k: (_nbytes(r),)),
    "kgexport.render_json": (("out_bytes",), lambda r, a, k: (_nbytes(r),)),
}
COUNT_NAMES = tuple(f"{name}.{key}" for name, spec in SPANNED.items() if spec
                    for key in spec[0])

# Called hundreds of thousands of times per round from inside
# propose_equivalences: counted without a span, so its time stays in the
# caller's self time and the trace stays small.
COUNTED_ONLY = ("pipeline.label_similarity",)

WRAPPED = tuple(SPANNED) + COUNTED_ONLY


class Tracer:
    """Collects spans and counts while installed; see :meth:`install`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, spec: tuple | None) -> Callable:
        spans, stack, counts, calls = self.spans, self._stack, self.counts, self.calls
        clock = time.perf_counter_ns
        keys = [f"{name}.{key}" for key in spec[0]] if spec else []

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
                calls[name] += 1
            if spec is not None:
                for key, value in zip(keys, spec[1](result, args, kwargs)):
                    counts[key] += value
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED` under all its bindings."""
        import aieo.model

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "aieo" or n.startswith("aieo."))]
        for name in WRAPPED:
            parts = name.split(".")
            if parts[1] == "OntologyStore":
                cls = aieo.model.OntologyStore
                original = cls.__dict__[parts[2]]
                self._set(cls, parts[2], self._span(name, original, SPANNED[name]))
                continue
            original = getattr(sys.modules[f"aieo.{parts[0]}"], parts[1])
            wrapper = (self._count(name, original) if name in COUNTED_ONLY
                       else self._span(name, original, SPANNED[name]))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start - child_ns[idx]) / 1e9
        return out
