"""The benchmark's self-test passes: every workload runs, emits its metrics and nests its spans.

``perfbench/selftest.py`` runs each workload once untraced and once
traced at a tiny size (about two seconds), so a change that breaks a
benchmark operation or the span nesting fails here, not in the benchmark
run.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def test_perfbench_selftest_passes():
    # a new process group, so a timeout can stop the self-test and any process it started
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, out
    assert out.splitlines()[-1] == "selftest passed", out
