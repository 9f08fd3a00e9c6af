"""Every experiment script in ``scripts/`` runs to completion at its smallest size.

``test_public_api`` counts the scripts as callers of the package, so a
script that stops running against it must fail tier-1.  Each runs in a
fresh process on this checkout's sources, writing under ``tmp_path`` (the
digest script's temporary directory included, through ``TMPDIR``).
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path: Path, script: str, *args: str, code: int = 0) -> str:
    """Stdout of ``scripts/<script> args`` run from ``tmp_path``; an exit other than ``code`` fails with its stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == code, f"{script} exited with {done.returncode}:\n{done.stderr}"
    return done.stdout


def test_artifact_digests(tmp_path):
    listing = _run(tmp_path, "artifact_digests.py")
    lines = listing.splitlines()
    assert len(lines) == 42
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    saved = tmp_path / "digests.txt"
    saved.write_text(listing)
    assert _run(tmp_path, "artifact_digests.py", "--check", str(saved)).splitlines() == [
        f"all 42 artifacts match {saved}"
    ]
    # one digest spoiled: the check names that path alone and fails
    digest, name = lines[5].split("  ")
    saved.write_text(listing.replace(lines[5], f"{digest[::-1]}  {name}"))
    assert _run(tmp_path, "artifact_digests.py", "--check", str(saved), code=1).splitlines() == [name]


def test_step_ab(tmp_path):
    args = ("--duration", "0.2", "--rounds", "2")
    header, *rows = _run(tmp_path, "step_ab.py", str(ROOT), str(ROOT), *args).splitlines()
    assert header.split()[0] == "config" and len(rows) == 6
    assert all(row.endswith("identical") for row in rows), rows
    # a tree whose stock gain differs ends its streams elsewhere: exit 1
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "uwbnav", other / "src" / "uwbnav", ignore=shutil.ignore_patterns("__pycache__"))
    harness = other / "src" / "uwbnav" / "harness.py"
    text = harness.read_text()
    assert "    k1: float = 3.0\n" in text
    harness.write_text(text.replace("    k1: float = 3.0\n", "    k1: float = 3.5\n"))
    _, *rows = _run(tmp_path, "step_ab.py", str(ROOT), str(other), *args, code=1).splitlines()
    assert len(rows) == 6 and all("DIFFER at step 0" in row for row in rows), rows


def test_step_convergence(tmp_path):
    header, *rows = _run(tmp_path, "step_convergence.py", "--levels", "2").splitlines()
    assert header.split() == ["dt", "gap", "to", "dt/2", "ratio"]
    assert len(rows) == 2


def test_flight_memory(tmp_path):
    header, *rows, digest = _run(tmp_path, "flight_memory.py", "--duration", "0.5").splitlines()
    assert header.split() == ["command", "maxrss_mb", "wall_s", "exit"]
    assert [row.split()[0] for row in rows] == ["simulate", "run", "run-synthetic"]
    assert all(float(row.split()[1]) > 0 and row.split()[3] == "0" for row in rows), rows
    assert re.fullmatch(r"dataset sha256 [0-9a-f]{64}", digest), digest


@pytest.mark.parametrize(
    "script,args,table,rows",
    [
        ("convergence_study.py", ["--seeds", "1", "--duration", "2"], "study.csv", 2),
        ("tdoa_noise_sweep.py", ["--seeds", "1", "--duration", "2", "--sigmas", "0.05"], "sweep.csv", 3),
    ],
)
def test_study_scripts(tmp_path, script, args, table, rows):
    out = tmp_path / "out"
    _run(tmp_path, script, *args, "--out", str(out))
    assert len((out / table).read_text().splitlines()) == 1 + rows
