"""Wraps ``python bench/run.py --check`` for pytest.

Not collected by the tier-1 run (``testpaths = ["tests"]``); run it with
``python -m pytest bench/test_bench_check.py``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_check() -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("check: ok")
