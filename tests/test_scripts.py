"""Smoke test of the experiment scripts: each runs and prints its CSV."""
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
