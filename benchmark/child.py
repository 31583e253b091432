"""Runs one workload in a fresh interpreter; started by run.py.

    python3 benchmark/child.py --workload NAME --seed N --seconds S
                               --trace 0|1 --workdir DIR [--probe]

Prints READY once stickygeom is imported and the inputs are built, then
(unless --probe) runs the workload and prints one JSON result line last.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_PASSES = 3
# calibrate() on the reference host; see "Host drift" in README.md
CALIBRATION_REF_S = 0.05

# per-layer metric: (unit, self time of a span | a counter)
PER_LAYER = {
    "cli.import_s": ("s", None),
    "cli.validate_s": ("s", "cli.validate"),
    "cli.run_config_s": ("s", "cli.run_config"),
    "cli.report_s": ("s", "cli.report"),
    "spaces.cone_distance_s": ("s", "spaces.cone_distance"),
    "spaces.cone_distance_calls": ("count", "spaces.cone_distance_calls"),
    "spaces.graph_distance_calls": ("count", "spaces.graph_distance_calls"),
    "spaces.is_prismatic_s": ("s", "spaces.is_prismatic"),
    "directions.build_system_s": ("s", "directions.build_system"),
    "directions.build_system_calls": ("count", "directions.build_system_calls"),
    "directions.candidates": ("count", "directions.candidates"),
    "directions.pieces": ("count", "directions.pieces"),
    "directions.min_derivative_s": ("s", "directions.min_derivative"),
    "directions.min_derivative_calls": ("count", "directions.min_derivative_calls"),
    "directions.derivative_at_calls": ("count", "directions.derivative_at_calls"),
    "directions.batch_min_derivative_s": ("s", "directions.batch_min_derivative"),
    "directions.batch_rows": ("count", "directions.batch_rows"),
    "frechet.cone_mean_s": ("s", "frechet.cone_mean"),
    "stickiness.classify_s": ("s", "stickiness.classify"),
    "stickiness.perturbation_threshold_s": ("s", "stickiness.perturbation_threshold"),
    "stickiness.bisection_evals": ("count", "stickiness.bisection_evals"),
    "stickiness.sample_sticking_s": ("s", "stickiness.sample_sticking"),
    "asymptotics.modulation_s": ("s", "asymptotics.modulation"),
    "asymptotics.clt_simulate_s": ("s", "asymptotics.clt_simulate"),
    "mc.resample_counts_s": ("s", "mc.resample_counts"),
    "mc.trials_x_n": ("count", "mc.trials_x_n"),
    "mc.bytes_computed": ("B", "mc.bytes_computed"),
    "mc.resample_counts_threads2_s": ("s", None),
    "transport.wq_lp_s": ("s", "transport.wq_lp"),
    "transport.exact_transport_s": ("s", "transport.exact_transport"),
    "transport.exact_calls": ("count", "transport.exact_transport_calls"),
    "transport.highs_transport_s": ("s", "transport.highs_transport"),
    "transport.highs_calls": ("count", "transport.highs_transport_calls"),
    "transport.w1_tree_s": ("s", "transport.w1_tree"),
    "transport.w1_tree_lp_fallbacks": ("count", "transport.w1_tree_lp_fallbacks"),
    "transport.f_divergence_s": ("s", "transport.f_divergence"),
    "trace.overhead_ratio": ("ratio", None),
}


def calibrate() -> float:
    """Seconds taken by a fixed mix of rational, interpreter and numpy work:
    a gauge of how fast the host runs at the moment."""
    import numpy as np

    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 900):
        x += Fraction(i, i + 7) * Fraction(3, i + 1)
    s, d = 0.0, {}
    for i in range(90_000):
        s += math.cos(i * 1e-3) * (i % 5)
        d[i % 101] = s
    a = np.arange(1.0, 300_001.0)
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - start


class Gauge:
    """Readings of calibrate(), taken between operations at least a second
    apart, so that they sample the host over the same stretch as the
    operations."""

    def __init__(self):
        self.readings: list[float] = []
        self.last = time.perf_counter()

    def maybe_read(self) -> None:
        if time.perf_counter() - self.last >= 1.0:
            self.readings.append(calibrate())
            self.last = time.perf_counter()

    def scale(self) -> float:
        if not self.readings:
            self.readings.append(calibrate())
        return statistics.median(self.readings) / CALIBRATION_REF_S


def run_pass(ops, times=None, span=None, gauge=None):
    """Run every operation once; returns {label: output}."""
    from workloads import Failure

    outs = {}
    for label, fn in ops:
        start = time.perf_counter()
        try:
            if span is None:
                out = fn()
            else:
                with span("op"):
                    out = fn()
        except Exception as exc:  # an operation that raises counts as failed
            out = Failure(f"{type(exc).__name__}: {exc}")
        if times is not None:
            times[label].append(time.perf_counter() - start)
        outs[label] = out
        if gauge is not None:
            gauge.maybe_read()
    return outs


class Tally:
    """Operations attempted and failed in the counted passes, the first
    outputs of each instance set, and outputs that differ on a later pass."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[int, dict] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, k: int, outs: dict) -> None:
        ref = self.reference.setdefault(k, outs)
        for label, out in outs.items():
            self.attempted += 1
            if self.workload.failed(label, out):
                self.failed += 1
            if out != ref[label]:
                self.problems.append(f"{label}: output changed between passes")

    def check(self, threads2: dict) -> list[str]:
        wl = self.workload
        problems = []
        for k, outs in sorted(self.reference.items()):
            ok = {label: out for label, out in outs.items()
                  if not wl.failed(label, out)}
            failed = sorted(set(outs) - set(ok))
            if failed:
                print(f"failed operations: {', '.join(failed)}", file=sys.stderr)
            problems += wl.check(k, ok, threads2 if k == 0 else {})
        return problems


def measure(wl, seconds: float) -> tuple[Tally, dict]:
    sets = [wl.ops(k) for k in range(wl.SETS)]
    tally = Tally(wl)
    clock = time.perf_counter()
    if wl.warmup:
        tally.reference[0] = run_pass(sets[0])
    warm, clock = time.perf_counter() - clock, time.perf_counter()
    times = defaultdict(list)
    gauge = Gauge()
    passes = 0
    while time.perf_counter() - clock < seconds:
        k = (passes + wl.warmup) % wl.SETS
        tally.add(k, run_pass(sets[k], times, gauge=gauge))
        passes += 1
    timed, clock = time.perf_counter() - clock, time.perf_counter()
    # summing per-operation medians keeps a disturbed pass, or a slow spell
    # of the host during one operation, from moving the figure
    total = sum(statistics.median(times[label]) for label, _ in sets[0])
    raw = len(sets[0]) / total
    scale = gauge.scale()
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {"ops_per_s": (raw * scale, "1/s"),
               "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB")}
    print(f"{wl.name}: ops_per_s as timed {raw:.4f}, host gauge {scale:.4f}",
          file=sys.stderr)
    # after the memory reading: two threads hold two chunks at once
    tally.problems += tally.check(run_pass(wl.threads2_ops()))
    print(f"{wl.name}: warm-up {warm:.1f} s, {passes} timed passes {timed:.1f} s, "
          f"checks {time.perf_counter() - clock:.1f} s", file=sys.stderr)
    return tally, metrics


def trace(wl, import_s: float, trace_file: Path) -> tuple[Tally, dict]:
    """Fixed passes over instance set 0, so that counts repeat exactly."""
    from tracer import Tracer

    ops = wl.ops(0)
    tally = Tally(wl)
    tally.reference[0] = run_pass(ops)
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    # untraced and traced passes alternate, so that both see the same host
    for _ in range(TRACED_PASSES):
        start = time.perf_counter()
        run_pass(ops)
        plain.append(time.perf_counter() - start)
        tracer.install()
        try:
            mark = tracer.mark()
            start = time.perf_counter()
            outs = run_pass(ops, span=tracer.span)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.since(mark))
        tally.add(0, outs)
    tracer.install()
    try:
        mark = tracer.mark()
        threads2 = run_pass(wl.threads2_ops(), span=tracer.span)
        threads2_self, _ = tracer.since(mark)
    finally:
        tracer.uninstall()
    tracer.write(trace_file)
    if any(counts != per_pass[0][1] for _, counts in per_pass):
        tally.problems.append("trace counts differ between identical passes")
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if unit == "s" and source is not None:
            value = statistics.median(s.get(source, 0.0) for s, _ in per_pass)
        elif source is not None:
            value = per_pass[0][1].get(source, 0)
        else:
            value = 0.0
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["mc.resample_counts_threads2_s"] = (
        threads2_self.get("mc.resample_counts", 0.0), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    tally.problems += tally.check(threads2)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import stickygeom.cli
    import_s = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(stickygeom.cli.__file__).resolve().parents:
        print(f"stickygeom was imported from {stickygeom.cli.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, in_process=bool(args.trace))
    print("READY", flush=True)
    if args.probe:
        print(f"GAUGE {calibrate() / CALIBRATION_REF_S!r}", flush=True)
        return 0

    if args.trace:
        tally, metrics = trace(wl, import_s, args.trace_file)
    else:
        tally, metrics = measure(wl, args.seconds)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
