#!/usr/bin/env python3
"""Moment-modulation table contrasting the Euclidean plane (modulation 1 at
every n) with the sticky 3-spider (modulation decaying to 0), as CSV.

Usage: python scripts/modulation_table.py [--trials 10000] [--seed 7]
"""
import argparse
import math

from stickygeom import asymptotics, spaces


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--n-grid", type=int, nargs="+", default=[50, 200, 800])
    args = ap.parse_args()

    plane = spaces.kale(2.0 * math.pi)
    four = spaces.measure(plane, [((k * math.pi / 2.0, 1.0), 0.25)
                                  for k in range(4)])
    sp = spaces.spider(3)
    thirds = spaces.measure(sp, [((j, 1.0), 1.0 / 3.0) for j in range(3)])

    print("fixture,n,q,m_hat,se,exact")
    for n in args.n_grid:
        est = asymptotics.modulation(plane, four, n, args.q, args.trials,
                                     args.seed)
        print(f"plane,{n},{args.q:.17g},{est.m_hat:.17g},{est.se:.17g},"
              f"{str(est.exact).lower()}")
    for n in args.n_grid:
        est = asymptotics.modulation(sp, thirds, n, args.q, args.trials,
                                     args.seed)
        print(f"spider3,{n},{args.q:.17g},{est.m_hat:.17g},{est.se:.17g},"
              f"{str(est.exact).lower()}")


if __name__ == "__main__":
    main()
