#!/usr/bin/env python3
"""Minimizer values on seeded random measures, saved so that two versions of
the package compare value by value.

Usage: python scripts/kernel_values.py OUTDIR [--measures 2000] [--seed 2026]
       python scripts/kernel_values.py --compare A B

The measures come from tests/gen.py, taking turns over trees, cycles of
1.2 pi to 4 pi, the Petersen cone, kales below and above 2 pi, and finite
direction sets.  Each measure gives 52 rows: its weights and 51 resamples at
n = 20, as counts / n.  OUTDIR/kernel_values.npz holds (measures x 52)
arrays: `scalar` from `min_derivative`, `batch` from `batch_min_derivative`,
and `scale`, the row times the radii, which the tie rule of
`sample_sticking` reads, and `tie_tol`, the package's TIE_TOL.  `exact`
is (60 x 4 x 2): on 60 seeded spider measures with 1-4 atoms, the exact
probability that the mean leaves the cone point and the exact q = 2 distance
moment, at each n of 1, 7, 20 and 60.  `cones` is (60 x 3 x 2), the same
two values on 60 seeded measures with 1-3 atoms on the other cones, taking
turns as above, at each n of 1, 7 and 20; they are drawn after the spiders,
so the other arrays keep their values.  `pieces` is (measures x 32) uint8:
per measure, the sha256 of its direction system's candidates, piece table
and pulls, which draws nothing.  --compare takes two such files (or the
directories holding them) and prints, per array, how many values moved and
the largest move (relative for `exact` and `cones`, each where both files
have it), how many batch verdicts batch < -tie_tol * scale flipped, each
file by its own `tie_tol`, and how many measures' `pieces` moved, where both
files have them.  --compare needs numpy only, so it runs without the
package on the path.
"""
import argparse
import hashlib
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

TESTS = str(Path(__file__).resolve().parents[1] / "tests")
PI = math.pi
N = 20
RESAMPLES = 51
SPIDERS = 60
EXACT_N = (1, 7, 20, 60)
CONES = 60
CONES_N = (1, 7, 20)
FILE = "kernel_values.npz"


def values(measures: int, seed: int) -> dict[str, np.ndarray]:
    sys.path.insert(0, TESTS)
    import gen
    from stickygeom import spaces as S
    from stickygeom import stickiness as ST
    from stickygeom._mc import resample_counts
    from stickygeom.directions import (TIE_TOL, batch_min_derivative, build_system,
                                       min_derivative)

    makers = (
        gen.random_tree_graph_cone,
        lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
        lambda rng: S.petersen_cone(),
        lambda rng: S.kale(float(rng.uniform(0.5 * PI, 2.0 * PI))),
        lambda rng: S.kale(float(rng.uniform(2.0 * PI, 4.0 * PI))),
        gen.random_finite_cone,
    )
    rng = np.random.default_rng(seed)
    out = {name: np.empty((measures, RESAMPLES + 1))
           for name in ("scalar", "batch", "scale")}
    out["pieces"] = np.empty((measures, 32), dtype=np.uint8)
    for k in range(measures):
        sp = makers[k % len(makers)](rng)
        mu = gen.random_measure(sp, rng, max_atoms=8)
        system = build_system(sp, mu)
        w = np.asarray(mu.weights())
        rows = np.vstack([w[None, :], resample_counts(w, N, RESAMPLES, seed=k) / N])
        out["scalar"][k] = [min_derivative(system, row)[1] for row in rows]
        out["batch"][k] = batch_min_derivative(system, rows)
        out["scale"][k] = rows @ system.radii
        out["pieces"][k] = _piece_digest(system)
    out["tie_tol"] = np.array(TIE_TOL)
    out["exact"] = np.empty((SPIDERS, len(EXACT_N), 2))
    for k in range(SPIDERS):
        sp = S.spider(int(rng.integers(2, 5)))
        mu = gen.random_measure(sp, rng, max_atoms=4)
        out["exact"][k] = [(ST.exact_nonstick_probability(sp, mu, n),
                            ST.exact_mean_distance_moment(sp, mu, n, 2.0)) for n in EXACT_N]
    out["cones"] = np.empty((CONES, len(CONES_N), 2))
    for k in range(CONES):
        sp = makers[k % len(makers)](rng)
        mu = gen.random_measure(sp, rng, max_atoms=3)
        out["cones"][k] = [(ST.exact_nonstick_probability(sp, mu, n),
                            ST.exact_mean_distance_moment(sp, mu, n, 2.0)) for n in CONES_N]
    return out


def _piece_digest(system) -> np.ndarray:
    """sha256 of the candidates (their repr), and of each array of the piece
    table and the pulls with its dtype and shape, as 32 uint8."""
    h = hashlib.sha256(repr(system.candidates).encode())
    t = system.pieces
    for arr in (t.lo, t.hi, t.a, t.b, t.c, t.edge, system.pulls):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def save(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """An .npz whose bytes depend on the arrays alone: every member carries
    the same fixed timestamp."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr)


def load(path: Path) -> dict[str, np.ndarray]:
    if path.is_dir():
        path = path / FILE
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def compare(a: dict, b: dict) -> None:
    for name in ("scalar", "batch", "scale"):
        moved = a[name] != b[name]
        largest = float(np.abs(a[name] - b[name]).max(initial=0.0))
        print(f"{name}: {int(moved.sum())} of {moved.size} moved, largest move {largest:.3g}")
    leaves = [v["batch"] < -v["tie_tol"] * v["scale"] for v in (a, b)]
    print(f"verdicts: {int((leaves[0] != leaves[1]).sum())} of {leaves[0].size} flipped")
    for name in ("exact", "cones"):
        if name not in a or name not in b:
            continue
        moved = a[name] != b[name]
        pairs = np.abs([a[name][moved], b[name][moved]])
        rel = np.abs(pairs[0] - pairs[1]) / pairs.max(axis=0)
        print(f"{name}: {int(moved.sum())} of {moved.size} moved, "
              f"largest move {float(rel.max(initial=0.0)):.3g} relative")
    if "pieces" in a and "pieces" in b:
        moved = (a["pieces"] != b["pieces"]).any(axis=1)
        print(f"pieces: {int(moved.sum())} of {moved.size} moved")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path, nargs="?")
    ap.add_argument("--measures", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*(load(p) for p in args.compare))
        return
    if args.outdir is None:
        ap.error("give OUTDIR or --compare A B")
    args.outdir.mkdir(parents=True, exist_ok=True)
    save(args.outdir / FILE, values(args.measures, args.seed))


if __name__ == "__main__":
    main()
