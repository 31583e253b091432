#!/usr/bin/env python3
"""Run the benchmark once per workload and seed, and record the results in
the repository's next BENCH_<n>.json; or compare two such files.

Usage: python scripts/bench.py [--seeds 1 2 3]
       python scripts/bench.py --compare A B

Before anything is timed, `compileall` writes the bytecode of `src`, so
that every child process imports the package from the same cache state.
Each run is one `benchmark/run.py --workload W --seed S` process, for
every workload, at the run length BENCHMARK.json declares; the file
holds its exit status, its result line (correct, attempted, failed and the
end-to-end metrics), the host gauge its child reported, and for the whole
file the git commit, whether `src` or `benchmark` differ from it, and the
Python, numpy and scipy versions.

--compare takes the median of each end-to-end metric over the seeds of
each workload in A and in B, and applies the bounds of BENCHMARK.json: a
metric is WORSE when B is worse than A by more than its bound. A workload
is also WORSE when B fails a larger share of operations, when any of its
runs exited nonzero, or when B lacks it or one of its metrics. The exit
status is 1 if anything is WORSE, and 2, with nothing compared, if the two
files were run with different seeds or run lengths.
"""
import argparse
import compileall
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("certify", "resample", "transport", "cli")
GAUGE = re.compile(r"host gauge ([0-9.eE+-]+)")


def _git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _versions() -> dict:
    code = ("import json, platform, numpy, scipy; print(json.dumps({"
            "'python': platform.python_version(), 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        run.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={k: v["value"] for k, v in result["metrics"].items()})
    gauge = GAUGE.search(proc.stderr)
    run["gauge"] = float(gauge.group(1)) if gauge else None
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
    return run


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def record(seeds: list[int]) -> None:
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        sys.exit("compileall failed")
    seconds = _benchmark()["run_seconds"]
    runs = []
    for seed in seeds:
        for workload in WORKLOADS:
            run = run_one(workload, seed, seconds)
            print(json.dumps(run), flush=True)
            runs.append(run)
    dirty = _git("status", "--porcelain", "--", "src", "benchmark")
    doc = {"git_sha": _git("rev-parse", "HEAD"),
           "git_dirty": None if dirty is None else bool(dirty),
           **_versions(), "machine": platform.machine(), "seconds": seconds,
           "runs": runs}
    out = next_path()
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


def _medians(doc: dict) -> dict:
    """{workload: {metric: median over seeds, "failed_share": ..., "exits": [...]}}."""
    out = {}
    for workload in WORKLOADS:
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        if not runs:
            continue
        done = [r for r in runs if r["exit"] == 0]
        summary = {"exits": [r["exit"] for r in runs]}
        for name in {k for r in done for k in r["metrics"]}:
            summary[name] = statistics.median(r["metrics"][name] for r in done)
        attempted = sum(r["attempted"] for r in done)
        summary["failed_share"] = sum(r["failed"] for r in done) / attempted \
            if attempted else None
        out[workload] = summary
    return out


def _settings(doc: dict) -> dict:
    """What two files must share to be compared: the run length and the
    seeds."""
    return {"seconds": doc["seconds"],
            "seeds": sorted({r["seed"] for r in doc["runs"]})}


def compare(a_path: Path, b_path: Path) -> int:
    bounds = _benchmark()["end_to_end"]
    docs = [json.loads(p.read_text()) for p in (a_path, b_path)]
    settings = [_settings(d) for d in docs]
    if settings[0] != settings[1]:
        print(f"not comparable: {a_path} ran {settings[0]}, {b_path} ran {settings[1]}")
        return 2
    a, b = (_medians(d) for d in docs)
    worse = False
    for workload in WORKLOADS:
        if workload not in a:
            continue
        if workload not in b:
            worse = True
            print(f"{workload}: missing from {b_path} WORSE")
            continue
        sa, sb = a[workload], b[workload]
        for metric in bounds:
            name = metric["name"]
            if name not in sa:
                continue
            if name not in sb:
                worse = True
                print(f"{workload} {name}: missing from {b_path} WORSE")
                continue
            change = (sb[name] - sa[name]) / sa[name]
            loss = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if loss > metric["bound"] else "ok"
            worse |= verdict == "WORSE"
            print(f"{workload} {name}: {sa[name]:.4g} -> {sb[name]:.4g} "
                  f"({change:+.1%}, bound {metric['bound']:.0%}) {verdict}")
        failing = any(sb["exits"]) or (
            sb["failed_share"] is not None and sa["failed_share"] is not None
            and sb["failed_share"] > sa["failed_share"])
        worse |= failing
        print(f"{workload} exits {sa['exits']} -> {sb['exits']}, failed share "
              f"{sa['failed_share']} -> {sb['failed_share']} "
              f"{'WORSE' if failing else 'ok'}")
    return 1 if worse else 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    record(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
