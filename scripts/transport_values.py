#!/usr/bin/env python3
"""W_q values on seeded measure pairs, saved so that two versions of the
package compare value by value.

Usage: python scripts/transport_values.py OUTDIR [--seed 2026]
       python scripts/transport_values.py --compare A B

The pairs run over every combination of SIZES atoms a side, four spaces
(the 4-spider, the same without atoms at the apex, whose W_1 costs tie
across legs, a kale of angle 2.7 pi and the Petersen cone) and the orders
1, 2 and 3, with measures from tests/gen.py.  OUTDIR/transport_values.npz
holds `atoms`, `order` and `value`, the `wq_lp` value of each pair.
--compare takes two such files (or the directories holding them) and
prints, per band of sizes, how many values moved and the largest move,
relative to the value; it needs numpy only, so it runs without the package
on the path.
"""
import argparse
import math
import sys
from pathlib import Path

import numpy as np

from kernel_values import TESTS, save

SIZES = (8, 16, 24, 32, 48, 64, 72, 80, 96, 112, 120, 128, 160, 192, 256)
ORDERS = (1.0, 2.0, 3.0)
BANDS = ((1, 64), (65, 128), (129, 256))
FILE = "transport_values.npz"


def values(seed: int) -> dict[str, np.ndarray]:
    sys.path.insert(0, TESTS)
    import gen
    from stickygeom import spaces as S
    from stickygeom.transport import wq_lp

    spaces = ((S.spider(4), True), (S.spider(4), False),
              (S.kale(2.7 * math.pi), True), (S.petersen_cone(), True))
    rng = np.random.default_rng(seed)
    rows = []
    for order in ORDERS:
        for sp, allow_apex in spaces:
            for m in SIZES:
                p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=allow_apex), w)
                                       for w in rng.dirichlet(np.ones(m))])
                        for _ in range(2))
                rows.append((max(p.size, q.size), order, wq_lp(sp, p, q, order)))
    atoms, orders, vals = zip(*rows)
    return {"atoms": np.array(atoms), "order": np.array(orders), "value": np.array(vals)}


def load(path: Path) -> dict[str, np.ndarray]:
    if path.is_dir():
        path = path / FILE
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def compare(a: dict, b: dict) -> None:
    if not np.array_equal(a["atoms"], b["atoms"]):
        sys.exit("the two files hold different pairs")
    for lo, hi in BANDS:
        band = (a["atoms"] >= lo) & (a["atoms"] <= hi)
        x, y = a["value"][band], b["value"][band]
        moved = x != y
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.finfo(float).tiny)
        print(f"{lo}-{hi} atoms: {int(moved.sum())} of {moved.size} moved, "
              f"largest move {float(rel.max(initial=0.0)):.3g} relative")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path, nargs="?")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*(load(p) for p in args.compare))
        return
    if args.outdir is None:
        ap.error("give OUTDIR or --compare A B")
    args.outdir.mkdir(parents=True, exist_ok=True)
    save(args.outdir / FILE, values(args.seed))


if __name__ == "__main__":
    main()
