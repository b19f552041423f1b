"""The benchmark's traced run wraps ``aieo`` functions by name (see
``perfbench/tracing.py``); a removed or renamed function makes that run
crash, so every wrapped name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

from aieo.model import OntologyStore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_traced_name_resolves():
    names = _wrapped_names()
    assert names
    for name in names:
        module, *rest = name.split(".")
        if rest[0] == "OntologyStore":
            assert callable(vars(OntologyStore).get(rest[1])), name
        else:
            assert callable(getattr(importlib.import_module(f"aieo.{module}"), rest[0], None)), name
