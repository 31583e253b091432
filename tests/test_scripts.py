"""Smoke tests of the scripts: each table script runs and prints its CSV;
the fixture reports rerun byte for byte and parse as strict JSON."""
import json
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


def test_fixture_json_reports_are_strict_json(tmp_path):
    """Every JSON report parses with no NaN or Infinity constant; a
    non-finite float is null there and stays nan or inf in CSV."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "fixture_reports.py"),
                           str(tmp_path)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    reports = {f.name: json.loads(f.read_text(), parse_constant=refuse)
               for f in tmp_path.glob("*.json")}
    assert len(reports) == 47
    assert [row["bound"] for row in reports["kale_2pi.sample-sim.json"]["rows"]] \
        == [None, None]
    assert reports["kale_3pi_thirds.divergence.json"]["value"] is None
    assert "inf" in (tmp_path / "kale_3pi_thirds.divergence.csv").read_text()
