"""Smoke tests of the scripts: each table script runs and prints its CSV;
the fixture reports rerun byte for byte."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("decay_table.py", "n,exact,p_hat,se,bound", 6),
    ("modulation_table.py", "fixture,n,q,m_hat,se,exact", 5),
    ("clt_table.py", "i,j,paper_cov,centered_cov,empirical_cov,se", 9),
]


@pytest.mark.parametrize("script,header,rows", SCRIPTS)
def test_script_csv(script, header, rows):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--trials", "500"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    assert len(lines) == rows + 1
    width = header.count(",")
    assert all(ln.count(",") == width for ln in lines[1:])


def test_fixture_reports_rerun_byte_identical(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "fixture_reports.py")
    runs = []
    for name in ("a", "b"):
        proc = subprocess.run([sys.executable, script, str(tmp_path / name)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()})
    assert runs[0] == runs[1]
    refused = {n: b for n, b in runs[0].items() if n.endswith(".exit")}
    assert len(runs[0]) - len(refused) == 94
    assert len(refused) == 6
    assert all(b.startswith(b"exit 2\n") for b in refused.values())
