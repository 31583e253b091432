"""stickygeom benchmark.

    python3 benchmark/run.py [--workload certify|resample|transport|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in its own fresh interpreter (benchmark/child.py) with a
pinned environment, and prints one JSON result line per workload:
{"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
end-to-end metrics setup_s, ops_per_s and peak_rss_mb; traced runs
(--trace 1) report the per-layer metrics.  See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("certify", "resample", "transport", "cli")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("STICKYGEOM_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


class Child:
    """A child.py process whose stdout is read line by line."""

    def __init__(self, args: list[str], env: dict, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True)

    def wait_ready(self) -> float:
        """Seconds from launch until the child printed READY."""
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(max(self.deadline - time.perf_counter(), 0.0)):
                raise BenchError("child did not get ready in time")
        finally:
            sel.close()
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.started
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"child failed during set-up (exit {self.proc.returncode})")
        return elapsed

    def finish(self) -> str:
        """Remaining stdout, after the child exited with status 0."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(self.deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child ran out of time")
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with status {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    env = child_env(tmp)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace)), "--workdir", str(tmp),
              "--trace-file", str(WORK / f"trace-{name}.jsonl")]
    children = []
    try:
        def probe() -> float:
            """Set-up time of one probe, divided by the host gauge it read
            right after."""
            child = Child(common + ["--probe"], env, deadline)
            children.append(child)
            elapsed = child.wait_ready()
            gauge = child.finish().split()
            if len(gauge) != 2 or gauge[0] != "GAUGE":
                raise BenchError("probe printed no host gauge")
            return elapsed / float(gauge[1])

        setups = []
        if not trace:
            # split around the measured run, so that no single spell of the
            # host sets them all
            setups += [probe() for _ in range(SETUP_PROBES // 2)]
        main = Child(common, env, deadline)
        children.append(main)
        main.wait_ready()
        lines = main.finish().strip().splitlines()
        if not lines:
            raise BenchError("child printed no result")
        result = json.loads(lines[-1])
        if not trace:
            setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
            result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
        return result
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stickygeom benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stickygeom" / "__init__.py").is_file():
        print(f"no stickygeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            print(name, file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
