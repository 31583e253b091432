"""Tests of the benchmark's reference computations on cases small enough to
brute-force.  Run with:  python3 -m pytest benchmark/test_oracles.py
"""
import math
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles as O  # noqa: E402

PI = math.pi
THIRDS = [1 / 3, 1 / 3, 1 / 3]


def _atoms(space, rng, m, uniform=False):
    atoms = []
    for _ in range(m):
        if space["kind"] == "spider":
            d = int(rng.integers(0, space["K"]))
        elif space["kind"] == "kale":
            d = float(rng.uniform(0.0, space["alpha"]))
        else:
            e = int(rng.integers(0, len(space["edges"])))
            d = [e, float(rng.uniform(0.0, space["edges"][e][2]))]
        atoms.append({"point": {"dir": d, "r": float(rng.uniform(0.2, 2.0))},
                      "weight": 1.0 / m})
    if not uniform:
        w = rng.dirichlet(np.ones(m))
        for a, wi in zip(atoms, w):
            a["weight"] = float(wi)
    return atoms


def _petersen(edge=PI / 2):
    outer = [[i, (i + 1) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    inner = [[5, 7], [6, 8], [7, 9], [8, 5], [9, 6]]
    return {"kind": "graph_cone", "vertices": 10,
            "edges": [e + [edge] for e in outer + spokes + inner]}


def _cycle(lengths):
    k = len(lengths)
    return {"kind": "graph_cone", "vertices": k,
            "edges": [[i, (i + 1) % k, float(lengths[i])] for i in range(k)]}


def brute_force_transport(geo, xs, ys, order):
    """Uniform weights on equal-size supports: by Birkhoff's theorem an
    optimal plan is a permutation, so try them all."""
    n = len(xs)
    best = math.inf
    for perm in permutations(range(n)):
        c = math.fsum(geo.distance(xs[i]["point"], ys[j]["point"]) ** order
                      for i, j in enumerate(perm)) / n
        best = min(best, c)
    return best


def brute_force_leg_excess(n, weights, q):
    """(P(leave), E[excess^q]) by enumerating every assignment of n draws to
    the legs."""
    prob = moment = 0.0
    for draw in product(range(len(weights)), repeat=n):
        p = math.prod(weights[j] for j in draw)
        top = max(draw.count(j) for j in range(len(weights)))
        if 2 * top > n:
            prob += p
            moment += p * ((2.0 * top - n) / n) ** q
    return prob, moment


# ---------------------------------------------------------------------------
# binomial-tail formula
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weights", [THIRDS, [0.45, 0.35, 0.2], [0.6, 0.3, 0.1]])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
def test_leg_excess_matches_enumeration(weights, n):
    prob, moment = brute_force_leg_excess(n, weights, 2.0)
    p0, m2 = O.leg_excess_moments(n, weights, [0, 2.0])
    assert p0 == pytest.approx(prob, rel=1e-12)
    assert m2 == pytest.approx(moment, rel=1e-12)
    assert O.nonstick_probability(n, weights) == pytest.approx(prob, rel=1e-12)


def test_binomial_tail_known_value():
    # n = 5 on the thirds spider: 3 P(Bin(5, 1/3) >= 3) = 153 / 243
    assert O.nonstick_probability(5, THIRDS) == pytest.approx(153 / 243, abs=1e-14)


def test_modulation_exact_scales_the_moment():
    n, q = 9, 2.0
    _, moment = brute_force_leg_excess(n, [0.45, 0.35, 0.2], q)
    m, se = O.modulation_exact(n, q, [0.45, 0.35, 0.2], trials=100)
    assert m == pytest.approx(n ** (q / 2) * moment, rel=1e-12)
    assert se > 0.0


# ---------------------------------------------------------------------------
# spider closed form for c_min
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_spider_c_min_matches_difference_quotients(seed):
    """The Frechet function along leg j is F(0) + s D_j + s^2 / 2 exactly, so
    D_j is a difference quotient of cone distances."""
    rng = np.random.default_rng(seed)
    space = {"kind": "spider", "K": int(rng.integers(2, 6))}
    geo = O.Geometry(space)
    atoms = _atoms(space, rng, int(rng.integers(1, 7)))

    def frechet(x):
        return 0.5 * math.fsum(a["weight"] * geo.distance(x, a["point"]) ** 2
                               for a in atoms)

    s = 0.25
    apex = frechet({"dir": 0, "r": 0.0})
    quotients = [(frechet({"dir": j, "r": s}) - apex) / s - s / 2.0
                 for j in range(space["K"])]
    assert O.spider_c_min(space["K"], atoms) == pytest.approx(min(quotients),
                                                              abs=1e-12)


def test_spider_c_min_thirds():
    atoms = [{"point": {"dir": j, "r": 1.0}, "weight": 1 / 3} for j in range(3)]
    assert O.spider_c_min(3, atoms) == pytest.approx(1 / 3, abs=1e-15)


# ---------------------------------------------------------------------------
# transport LP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", [{"kind": "spider", "K": 4},
                                   {"kind": "kale", "alpha": 2.6 * PI},
                                   _petersen()], ids=["spider", "kale", "petersen"])
@pytest.mark.parametrize("order", [1.0, 2.0])
def test_lp_matches_permutation_brute_force(space, order):
    rng = np.random.default_rng(7)
    geo = O.Geometry(space)
    for m in (2, 3, 5):
        xs, ys = _atoms(space, rng, m, uniform=True), _atoms(space, rng, m, uniform=True)
        assert O.transport_cost(geo, xs, ys, order) == pytest.approx(
            brute_force_transport(geo, xs, ys, order), abs=1e-12)


def test_lp_point_masses():
    geo = O.Geometry({"kind": "kale", "alpha": 3 * PI})
    x = [{"point": {"dir": 0.0, "r": 1.0}, "weight": 1.0}]
    y = [{"point": {"dir": 0.5, "r": 2.0}, "weight": 1.0}]
    want = math.sqrt(1.0 + 4.0 - 4.0 * math.cos(0.5))
    assert O.wasserstein(geo, x, y, 2.0) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# graph geometry and the cycle prismatic rule
# ---------------------------------------------------------------------------

def test_cycle_distance_is_the_shorter_arc():
    lengths = [1.0, 2.0, 0.5, 1.5]
    geo = O.Geometry(_cycle(lengths))
    starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    total = sum(lengths)
    rng = np.random.default_rng(3)
    for _ in range(200):
        (e1, e2) = rng.integers(0, 4, size=2)
        o1, o2 = rng.uniform(0, lengths[e1]), rng.uniform(0, lengths[e2])
        gap = abs(starts[e1] + o1 - starts[e2] - o2)
        got = float(geo.angles([(int(e1), o1)], (int(e2), o2))[0])
        assert got == pytest.approx(min(gap, total - gap), abs=1e-12)


@pytest.mark.parametrize("total", [4.0, 5.5, 6.0, 6.5, 7.5, 9.0, 12.0])
@pytest.mark.parametrize("k", [3, 4, 6])
def test_cycle_rule_matches_shadow_brute_force(total, k):
    """The shadow of q is {x : d(q, x) >= pi}; prismatic means every shadow
    has more than one point.  Checked on a grid fine enough to see it."""
    lengths = total * np.random.default_rng(k).dirichlet(np.full(k, 5.0))
    geo = O.Geometry(_cycle(lengths))
    grid = geo.grid(0.01)
    brute = all(int((geo.angles(grid, q) >= PI).sum()) >= 2 for q in grid)
    assert O.cycle_is_prismatic(total) is brute


def test_eccentricity_bracket_decides_petersen():
    def bracket(space):
        return O.min_eccentricity_bracket(space["vertices"],
                                          tuple(map(tuple, space["edges"])), 0.02)

    assert bracket(_petersen())[0] > PI
    assert bracket(_petersen(0.3))[1] < PI


# ---------------------------------------------------------------------------
# divergences and covariances
# ---------------------------------------------------------------------------

def test_divergence_definitions():
    p = [{"point": {"dir": 0, "r": 1.0}, "weight": 1.0}]
    q = [{"point": {"dir": 1, "r": 1.0}, "weight": 1.0}]
    assert O.f_divergence(p, q, "tv") == pytest.approx(1.0)
    assert O.f_divergence(p, q, "kl") == math.inf
    # generator x log x - (x + 1) log((x + 1) / 2): twice the usual JS
    assert O.f_divergence(p, q, "js") == pytest.approx(2.0 * math.log(2.0))
    assert O.f_divergence(p, p, "hellinger2") == pytest.approx(0.0, abs=1e-15)
    mixed = O.mixture(p, q[0]["point"], 0.25)
    assert O.f_divergence(p, mixed, "tv") == pytest.approx(0.25)


def test_centered_covariance_thirds():
    atoms = [{"point": {"dir": j, "r": 1.0}, "weight": 1 / 3} for j in range(3)]
    cov = O.centered_covariance(O.Geometry({"kind": "spider", "K": 3}), atoms,
                                [0, 1, 2])
    want = np.full((3, 3), -4 / 9)
    np.fill_diagonal(want, 8 / 9)
    assert np.allclose(cov, want, atol=1e-14)
