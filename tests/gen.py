"""Seeded random instance generators shared across the test suite."""
import math

import numpy as np

from stickygeom import spaces as S
from stickygeom import stickiness as ST

PI = math.pi


def random_direction(sp, rng):
    ds = sp.directions
    if isinstance(ds, S.FiniteDirections):
        return int(rng.integers(0, ds.size))
    if isinstance(ds, S.CircleDirections):
        return float(rng.uniform(0.0, ds.alpha))
    eid = int(rng.integers(0, len(ds.edges)))
    return (eid, float(rng.uniform(0.0, ds.edges[eid][2])))


def random_point(sp, rng, rmax=2.0, allow_apex=True):
    r = float(rng.uniform(0.0 if allow_apex else 0.05, rmax))
    if allow_apex and rng.random() < 0.05:
        r = 0.0
    if isinstance(sp, S.OpenBook):
        return S.point(sp, int(rng.integers(0, sp.pages)), r,
                       tuple(rng.normal(size=sp.dim - 1)))
    return S.point(sp, random_direction(sp, rng), r)


def random_measure(sp, rng, max_atoms=8, rmax=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.dirichlet(np.ones(n))
    return S.measure(sp, [(random_point(sp, rng, rmax), wi) for wi in w])


def random_cat0_space(rng):
    """A random CAT(0) cone: spider, long-circle kale, plane, or Petersen."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return S.spider(int(rng.integers(3, 6)))
    if pick == 1:
        return S.kale(float(rng.uniform(2.0 * PI, 3.5 * PI)))
    if pick == 2:
        return S.kale(2.0 * PI)
    return S.petersen_cone()


def sticky_spider_measure(rng):
    """Random spider measure with a comfortable stickiness margin
    (smallest derivative at least 0.25 with radii below 1)."""
    for _ in range(400):
        k = int(rng.integers(3, 6))
        sp = S.spider(k)
        w = rng.dirichlet(np.full(k, 30.0))
        radii = rng.uniform(0.8, 1.0, size=k)
        mu = S.measure(sp, [((j, radii[j]), w[j]) for j in range(k)])
        if ST.classify(sp, mu).c_min >= 0.25:
            return sp, mu
    raise AssertionError("sticky spider generator failed to hit its margin")


def nonsticky_spider_measure(rng):
    for _ in range(400):
        k = int(rng.integers(3, 6))
        sp = S.spider(k)
        m = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(m))
        w = 0.3 * w
        w[0] += 0.7
        atoms = [((int(rng.integers(0, k)), float(rng.uniform(0.5, 1.0))), wi)
                 for wi in w]
        mu = S.measure(sp, atoms)
        if ST.classify(sp, mu).c_min <= -0.2:
            return sp, mu
    raise AssertionError("nonsticky spider generator failed to hit its margin")


def sticky_kale_measure(rng):
    """Random kale measure with a stickiness margin.

    Spread directions give a margin on the order of (alpha - 2 pi)/alpha, so
    circles close to 3 pi and longer are used."""
    for _ in range(400):
        alpha = float(rng.uniform(3.0 * PI - 0.3, 3.6 * PI))
        sp = S.kale(alpha)
        m = int(rng.integers(4, 8))
        base = np.arange(m) * alpha / m
        jitter = rng.uniform(-alpha / (10 * m), alpha / (10 * m), size=m)
        w = rng.dirichlet(np.full(m, 30.0))
        radii = rng.uniform(0.8, 1.0, size=m)
        mu = S.measure(sp, [((float(base[i] + jitter[i]) % alpha, radii[i]), w[i])
                            for i in range(m)])
        if ST.classify(sp, mu).c_min >= 0.25:
            return sp, mu
    raise AssertionError("sticky kale generator failed to hit its margin")


def nonsticky_kale_measure(rng):
    for _ in range(400):
        alpha = float(rng.uniform(2.0 * PI + 0.4, 3.5 * PI))
        sp = S.kale(alpha)
        m = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(m))
        w = 0.3 * w
        w[0] += 0.7
        atoms = [((float(rng.uniform(0, alpha)), float(rng.uniform(0.5, 1.0))), wi)
                 for wi in w]
        mu = S.measure(sp, atoms)
        if ST.classify(sp, mu).c_min <= -0.2:
            return sp, mu
    raise AssertionError("nonsticky kale generator failed to hit its margin")


def random_finite_cone(rng):
    """Random finite direction set with a valid (triangle-closed) matrix."""
    k = int(rng.integers(2, 6))
    raw = rng.uniform(0.3, PI + 1.0, size=(k, k))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    # shortest-path closure enforces the triangle inequality
    for l in range(k):
        for i in range(k):
            for j in range(k):
                raw[i, j] = min(raw[i, j], raw[i, l] + raw[l, j])
    return S.Cone(S.finite_directions(raw.tolist()))


def random_tree_graph_cone(rng):
    """Cone over a random metric tree."""
    n = int(rng.integers(3, 7))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.5))))
    return S.graph_cone(n, edges)


def random_cycle_graph_cone(rng, lo, hi):
    """Cone over a cycle of 3 to 6 edges, edge i joining vertices i and
    i + 1, with total length uniform in (lo, hi)."""
    n = int(rng.integers(3, 7))
    lengths = rng.uniform(0.5, 1.5, size=n)
    lengths *= rng.uniform(lo, hi) / lengths.sum()
    return S.graph_cone(n, [(i, (i + 1) % n, float(lengths[i])) for i in range(n)])
