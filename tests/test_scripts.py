"""Smoke tests of the scripts: each table script runs and prints its CSV;
the fixture reports rerun byte for byte and parse as strict JSON, and so
do the kernel values; the transport values compare, and the benchmark
comparison applies the bounds."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("decay_table.py", "n,exact,p_hat,se,bound", 6),
    ("modulation_table.py", "fixture,n,q,m_hat,se,exact", 6),
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


def _without_package() -> dict[str, str]:
    """The environment with no PYTHONPATH: comparing two saved value files
    needs numpy only."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def test_kernel_values_rerun_byte_identical(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "kernel_values.py")
    files = []
    for name in ("a", "b"):
        proc = subprocess.run([sys.executable, script, str(tmp_path / name),
                               "--measures", "20"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files.append((tmp_path / name / "kernel_values.npz").read_bytes())
    assert files[0] == files[1]
    proc = subprocess.run([sys.executable, script, "--compare", str(tmp_path / "a"),
                           str(tmp_path / "b")],
                          capture_output=True, text=True, env=_without_package(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "scalar: 0 of 1040 moved, largest move 0",
        "batch: 0 of 1040 moved, largest move 0",
        "scale: 0 of 1040 moved, largest move 0",
        "verdicts: 0 of 1040 flipped",
        "exact: 0 of 480 moved, largest move 0 relative",
        "cones: 0 of 360 moved, largest move 0 relative",
    ]


def test_transport_values_compare(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "transport_values.py")
    proc = subprocess.run([sys.executable, script, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, script, "--compare", str(tmp_path),
                           str(tmp_path / "transport_values.npz")],
                          capture_output=True, text=True, env=_without_package(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1-64 atoms: 0 of 72 moved, largest move 0 relative",
        "65-128 atoms: 0 of 72 moved, largest move 0 relative",
        "129-256 atoms: 0 of 36 moved, largest move 0 relative",
    ]


def _bench_doc(ops_per_s, rss, failed=0, exit_status=0, workload="transport",
               seed=1, seconds=12):
    run = {"workload": workload, "seed": seed, "exit": exit_status, "correct": True,
           "attempted": 100, "failed": failed,
           "metrics": {"ops_per_s": ops_per_s, "peak_rss_mb": rss, "setup_s": 0.25}}
    return {"git_sha": None, "seconds": seconds, "runs": [run]}


def _bench_compare(tmp_path, after):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_bench_doc(100.0, 100.0)))
    b.write_text(json.dumps(after))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"),
                           "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("after,verdicts,status", [
    (_bench_doc(150.0, 54.0), ["ok", "ok", "ok", "ok"], 0),
    (_bench_doc(70.0, 54.0), ["ok", "WORSE", "ok", "ok"], 1),
    (_bench_doc(150.0, 110.0), ["ok", "ok", "WORSE", "ok"], 1),
    (_bench_doc(150.0, 54.0, failed=1), ["ok", "ok", "ok", "WORSE"], 1),
    (_bench_doc(150.0, 54.0, workload="cli"), ["WORSE"], 1),
])
def test_bench_compare_applies_the_bounds(tmp_path, after, verdicts, status):
    proc = _bench_compare(tmp_path, after)
    assert proc.returncode == status, proc.stderr
    assert [line.split()[-1] for line in proc.stdout.splitlines()] == verdicts


@pytest.mark.parametrize("after", [_bench_doc(150.0, 54.0, seconds=6),
                                   _bench_doc(150.0, 54.0, seed=2)])
def test_bench_compare_refuses_other_settings(tmp_path, after):
    proc = _bench_compare(tmp_path, after)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("not comparable:")
