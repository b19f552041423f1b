"""Smoke check: every workload at a tiny size, untraced and traced, must end
correct with no failed operation. Takes well under a minute.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "ingest_chain": {"k": 3, "concepts": 12},
    "query_mix": {"n": 100},
    "reason_check_export": {"n": 100},
}


def main() -> int:
    failures = 0
    for workload in sorted(TINY):
        for trace in ("0", "1"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", trace], sizes=TINY)
            line = json.loads(out.getvalue().splitlines()[-1]) if code == 0 else None
            ok = bool(line and line["correct"] and line["failed"] == 0)
            failures += not ok
            summary = f"{line['attempted']} ops, {line['failed']} failed" if line else f"exit {code}"
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
