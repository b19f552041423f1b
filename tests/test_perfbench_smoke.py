"""The benchmark's smoke run: every workload at a tiny size, untraced and
traced, must end correct with no failed operation. The traced rounds also
check layer isolation, so a change that stops a function the benchmark
expects to fire, or breaks an output oracle, fails here and not only in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "perfbench" / "smoke.py"


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(SMOKE)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
