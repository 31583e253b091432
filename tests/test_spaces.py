import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from stickygeom import spaces as S

PI = math.pi


@pytest.fixture(scope="module")
def spider3():
    return S.spider(3)


@pytest.fixture(scope="module")
def petersen():
    return S.petersen_cone()


# ---------------------------------------------------------------------------
# direction distances
# ---------------------------------------------------------------------------

def test_spider_direction_distance(spider3):
    ds = spider3.directions
    assert S.direction_distance(ds, 0, 1) == PI
    assert S.direction_distance(ds, 2, 2) == 0.0


def test_circle_distance_wraps():
    ds = S.circle_directions(3 * PI)
    assert S.direction_distance(ds, 0.0, 2 * PI) == pytest.approx(PI, abs=1e-15)
    assert S.direction_distance(ds, 0.1, 0.1) == 0.0


def test_petersen_adjacent_midpoints(petersen):
    ds = petersen.directions
    d = S.direction_distance(ds, (0, PI / 4), (1, PI / 4))
    assert d == pytest.approx(PI / 2, abs=1e-14)


def _subdivision_oracle(ds, cuts=20):
    """Brute-force metric-graph distances through a fine subdivision."""
    import heapq

    nodes = {}

    def node(eid, off):
        key = ds.canonical((eid, off))
        return nodes.setdefault(key, len(nodes))

    adj = {}
    for eid, (u, v, length) in enumerate(ds.edges):
        offs = np.linspace(0.0, length, cuts + 1)
        for a, b in zip(offs, offs[1:]):
            na, nb = node(eid, float(a)), node(eid, float(b))
            adj.setdefault(na, []).append((nb, float(b - a)))
            adj.setdefault(nb, []).append((na, float(b - a)))

    def dist(c1, c2):
        s, t = node(*c1), node(*c2)
        dd = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, w = heapq.heappop(heap)
            if w == t:
                return d
            if d > dd.get(w, math.inf):
                continue
            for x, l in adj.get(w, ()):  # noqa: E741
                nd = d + l
                if nd < dd.get(x, math.inf):
                    dd[x] = nd
                    heapq.heappush(heap, (nd, x))
        return math.inf

    return dist


def test_graph_distance_against_subdivision(petersen):
    ds = petersen.directions
    oracle = _subdivision_oracle(ds, cuts=8)
    rng = np.random.default_rng(5)
    for _ in range(60):
        e1, e2 = rng.integers(0, 15, size=2)
        # snap offsets to the subdivision grid so the oracle is exact
        o1 = (PI / 2) * rng.integers(0, 9) / 8
        o2 = (PI / 2) * rng.integers(0, 9) / 8
        a, b = (int(e1), float(o1)), (int(e2), float(o2))
        assert S.direction_distance(ds, a, b) == pytest.approx(
            oracle(a, b), abs=1e-9)


# ---------------------------------------------------------------------------
# cone distances
# ---------------------------------------------------------------------------

def test_cone_distance_examples(spider3):
    assert S.cone_distance(spider3, S.point(spider3, 0, 0.5),
                           S.point(spider3, 0, 1.2)) == pytest.approx(0.7)
    assert S.cone_distance(spider3, S.point(spider3, 0, 1),
                           S.point(spider3, 1, 1)) == 2.0
    plane = S.kale(2 * PI)
    d = S.cone_distance(plane, S.point(plane, 0.0, 1), S.point(plane, PI / 2, 1))
    assert d == pytest.approx(math.sqrt(2), abs=1e-12)


def test_distance_to_apex_is_radius():
    rng = np.random.default_rng(1)
    for sp in (S.spider(4), S.kale(2.3 * PI), S.petersen_cone()):
        apex = S.cone_point(sp)
        for _ in range(50):
            p = gen.random_point(sp, rng)
            assert S.cone_distance(sp, p, apex) == p.radius
            assert S.cone_distance(sp, apex, p) == p.radius


@pytest.mark.parametrize("make_space", [
    lambda rng: S.spider(int(rng.integers(2, 6))),
    lambda rng: S.kale(float(rng.uniform(0.5, 10.0))),
    lambda rng: gen.random_finite_cone(rng),
    lambda rng: S.petersen_cone(),
    lambda rng: gen.random_tree_graph_cone(rng),
    lambda rng: S.open_book(int(rng.integers(3, 5)), int(rng.integers(2, 4))),
])
def test_metric_axioms(make_space):
    rng = np.random.default_rng(99)
    for _ in range(10):
        sp = make_space(rng)
        for _ in range(200):
            x, y, z = (gen.random_point(sp, rng) for _ in range(3))
            dxy = S.cone_distance(sp, x, y)
            assert dxy == S.cone_distance(sp, y, x)
            assert dxy >= 0.0
            assert dxy <= x.radius + y.radius + 1e-12 or sp.__class__ is S.OpenBook
            assert dxy <= S.cone_distance(sp, x, z) + S.cone_distance(sp, z, y) + 1e-12
        x = gen.random_point(sp, rng)
        assert S.cone_distance(sp, x, x) == 0.0


ARRAY_SPACES = {
    "finite": gen.random_finite_cone,
    "spider": lambda rng: S.spider(int(rng.integers(2, 6))),
    "short_kale": lambda rng: S.kale(float(rng.uniform(0.5, 2.0 * PI))),
    "long_kale": lambda rng: S.kale(float(rng.uniform(2.0 * PI, 4.0 * PI))),
    "tree": gen.random_tree_graph_cone,
    "cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    "petersen": lambda rng: S.petersen_cone(),
    "open_book": lambda rng: S.open_book(int(rng.integers(3, 5)), int(rng.integers(2, 4))),
}


def _array_points(sp, rng):
    # random points, the apex, and on graphs a point at every vertex
    pts = [gen.random_point(sp, rng) for _ in range(10)] + [S.cone_point(sp)]
    if isinstance(sp, S.Cone) and isinstance(sp.directions, S.GraphDirections):
        pts += [S.point(sp, home, float(rng.uniform(0.1, 2.0)))
                for home in sp.directions._vertex_home]
    return pts


@pytest.mark.parametrize("kind", sorted(ARRAY_SPACES))
def test_cone_distances_match_scalar_bit_for_bit(kind):
    rng = np.random.default_rng(13)
    for _ in range(20):
        sp = ARRAY_SPACES[kind](rng)
        xs, ys = _array_points(sp, rng), _array_points(sp, rng)
        for a, b in ((xs, ys), (ys, xs), (xs, xs)):
            want = np.array([[S.cone_distance(sp, x, y) for y in b] for x in a])
            assert S.cone_distances(sp, a, b).tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("kind", sorted(set(ARRAY_SPACES) - {"open_book"}))
def test_direction_distances_are_one_symmetric_metric(kind):
    """`distances(a, b)` is exactly the transpose of `distances(b, a)` and,
    cell by cell, the scalar `distance`."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        ds = ARRAY_SPACES[kind](rng).directions
        a, b = ([p.direction for p in _array_points(S.Cone(ds), rng)] for _ in range(2))
        table = ds.distances(a, b)
        assert table.tobytes() == ds.distances(b, a).T.tobytes(), kind
        want = np.array([[ds.distance(x, y) for y in b] for x in a])
        assert table.tobytes() == want.tobytes(), kind


def test_finite_matrix_within_tolerance_is_stored_symmetric():
    ds = S.finite_directions([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
    assert ds.distance(0, 1) == ds.distance(1, 0) == 1.0
    assert ds.distances([0, 1], [0, 1]).tolist() == [[0.0, 1.0], [1.0, 0.0]]


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_geodesic_examples(spider3):
    mid = S.geodesic_point(spider3, S.point(spider3, 0, 1),
                           S.point(spider3, 1, 1), 0.5)
    assert mid.radius == 0.0
    plane = S.kale(2 * PI)
    g = S.geodesic_point(plane, S.point(plane, 0.0, 1),
                         S.point(plane, PI / 2, 1), 0.5)
    assert g.direction == pytest.approx(PI / 4, abs=1e-12)
    assert g.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    same = S.geodesic_point(spider3, S.point(spider3, 0, 0.2),
                            S.point(spider3, 0, 1.0), 0.25)
    assert same.direction == 0 and same.radius == pytest.approx(0.4)


def test_geodesic_additivity():
    rng = np.random.default_rng(3)
    for sp in (S.spider(4), S.kale(2.7 * PI), S.kale(2 * PI), S.petersen_cone()):
        for _ in range(300):
            x, y = gen.random_point(sp, rng), gen.random_point(sp, rng)
            t = float(rng.uniform(0, 1))
            g = S.geodesic_point(sp, x, y, t)
            dxy = S.cone_distance(sp, x, y)
            assert S.cone_distance(sp, x, g) + S.cone_distance(sp, g, y) \
                == pytest.approx(dxy, abs=1e-12)
            assert S.cone_distance(sp, x, g) == pytest.approx(t * dxy, abs=1e-12)


def test_cycle_geodesic_follows_one_path():
    """Between antipodal directions on a cycle shorter than 2 pi both arcs
    are shortest; every fraction of the geodesic takes the same one, so
    d(g(t1), g(t2)) = (t2 - t1) d(x, y)."""
    rng = np.random.default_rng(31)
    for _ in range(240):
        sp = gen.random_cycle_graph_cone(rng, 1.2 * PI, 1.9 * PI)
        edges = sp.directions.edges
        starts = np.concatenate([[0.0], np.cumsum([l for _, _, l in edges])])
        total = starts[-1]
        s = float(rng.uniform(0.0, total))
        opposite = math.fmod(s + total / 2.0, total)
        ex = min(int(np.searchsorted(starts, s, side="right")) - 1, len(edges) - 1)
        ey = min(int(np.searchsorted(starts, opposite, side="right")) - 1, len(edges) - 1)
        x = S.point(sp, (ex, min(s - starts[ex], edges[ex][2])), rng.uniform(0.5, 2.0))
        y = S.point(sp, (ey, min(opposite - starts[ey], edges[ey][2])),
                    rng.uniform(0.5, 2.0))
        dxy = S.cone_distance(sp, x, y)
        ts = np.sort(rng.uniform(0.0, 1.0, size=6)).tolist()
        g = [S.geodesic_point(sp, x, y, t) for t in ts]
        for i in range(6):
            for j in range(i + 1, 6):
                assert S.cone_distance(sp, g[i], g[j]) == pytest.approx(
                    (ts[j] - ts[i]) * dxy, abs=1e-12), (edges, x, y, ts[i], ts[j])


def test_geodesic_open_book():
    bk = S.open_book(3, 2)
    x = S.point(bk, 0, 1.0, (0.0,))
    y = S.point(bk, 1, 1.0, (1.0,))
    g = S.geodesic_point(bk, x, y, 0.5)
    assert g.euclidean == (0.5,)
    d = S.cone_distance(bk, x, y)
    assert S.cone_distance(bk, x, g) + S.cone_distance(bk, g, y) \
        == pytest.approx(d, abs=1e-12)


def test_finite_cone_narrow_angle_has_no_geodesic():
    sp = S.Cone(S.finite_directions([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        S.geodesic_point(sp, S.point(sp, 0, 1.0), S.point(sp, 1, 1.0), 0.5)


def test_npc_inequality_sampled():
    rng = np.random.default_rng(17)
    for sp in (S.spider(3), S.kale(2.5 * PI), S.kale(2 * PI), S.petersen_cone()):
        for _ in range(250):
            x, y, z = (gen.random_point(sp, rng) for _ in range(3))
            dxy = S.cone_distance(sp, x, y)
            for t in (0.25, 0.5, 0.75):
                g = S.geodesic_point(sp, x, y, t)
                lhs = S.cone_distance(sp, z, g) ** 2
                rhs = (1 - t) * S.cone_distance(sp, z, x) ** 2 \
                    + t * S.cone_distance(sp, z, y) ** 2 - (1 - t) * t * dxy ** 2
                assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# comparison angles
# ---------------------------------------------------------------------------

def test_comparison_angle_flat():
    assert S.comparison_angle(0.0, 1, 1, 1) == pytest.approx(PI / 3)
    assert S.comparison_angle(0.0, 1, 1, 2) == pytest.approx(PI)


def test_comparison_angle_spherical_octant():
    assert S.comparison_angle(1.0, PI / 2, PI / 2, PI / 2) \
        == pytest.approx(PI / 2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(0.15, 0.85))
def test_comparison_angle_curvature_continuity(a, b, frac):
    # stay away from degenerate triangles where arccos is ill-conditioned
    lo, hi = abs(a - b), a + b
    c = lo + frac * (hi - lo)
    flat = S.comparison_angle(0.0, a, b, c)
    hyp = S.comparison_angle(-1e-8, a, b, c)
    sph = S.comparison_angle(1e-8, a, b, c)
    assert hyp == pytest.approx(flat, abs=1e-6)
    assert sph == pytest.approx(flat, abs=1e-6)
    # curvature monotonicity: larger kappa opens the comparison angle
    assert S.comparison_angle(-1.0, a, b, c) <= flat + 1e-12
    assert S.comparison_angle(0.5, a, b, c) >= flat - 1e-12


def test_comparison_angle_errors():
    with pytest.raises(ValueError):
        S.comparison_angle(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        S.comparison_angle(0.0, 1.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        S.comparison_angle(1.0, 3.0, 3.0, 0.5)  # perimeter above 2 pi


# ---------------------------------------------------------------------------
# shadows and prismatic points
# ---------------------------------------------------------------------------

def test_shadow_spider(spider3):
    sh = S.shadow(spider3.directions, 0)
    assert sh.indices == (1, 2)
    assert not sh.is_trivial


def test_shadow_circle_cases():
    arc = S.shadow(S.circle_directions(3 * PI), 0.0)
    (start, length), = arc.arcs
    assert start == pytest.approx(PI) and length == pytest.approx(PI)
    single = S.shadow(S.circle_directions(2 * PI), 0.0)
    assert single.is_trivial and single.arcs[0][0] == pytest.approx(PI)
    empty = S.shadow(S.circle_directions(PI), 0.0)
    assert empty.is_trivial and not empty.arcs


def test_shadow_graph_membership(petersen):
    ds = petersen.directions
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = (int(rng.integers(0, 15)), float(rng.uniform(0, PI / 2)))
        sh = S.shadow(ds, q)
        for eid, lo, hi in sh.arcs:
            for off in (lo, (lo + hi) / 2, hi):
                assert S.direction_distance(ds, q, (eid, off)) >= PI - 1e-9
        # points just outside a positive-length arc are below pi
        for eid, lo, hi in sh.arcs:
            if hi - lo > 1e-6 and lo > 1e-6:
                assert S.direction_distance(ds, q, (eid, lo - 1e-7)) < PI


@pytest.mark.parametrize("ds,expected", [
    (S.spider_directions(3), True),
    (S.spider_directions(5), True),
    (S.spider_directions(2), False),
    (S.circle_directions(2 * PI), False),
    (S.circle_directions(2 * PI + 0.1), True),
    (S.circle_directions(3 * PI), True),
    (S.circle_directions(4.0), False),
    (S.petersen_directions(), True),
    # one edge: its middle has eccentricity half its length
    (S.graph_directions(2, [(0, 1, 1.5 * PI)]), False),
    (S.graph_directions(2, [(0, 1, 2.5 * PI)]), True),
])
def test_is_prismatic(ds, expected):
    assert S.is_prismatic(ds) is expected


def test_petersen_short_edges_not_prismatic():
    # with very short edges every point has eccentricity below pi
    assert not S.is_prismatic(S.petersen_directions(0.3))


def _theta(k):
    # k edges of length pi between two vertices
    return S.graph_directions(2, [(0, 1, PI)] * k)


BORDERLINE = {
    "theta3": lambda: _theta(3),
    "theta6": lambda: _theta(6),
    # six paths of two pi/2 edges between vertices 0 and 1
    "paths6": lambda: S.graph_directions(8, [
        e for m in range(2, 8) for e in ((0, m, PI / 2), (m, 1, PI / 2))]),
    "cycle_2pi": lambda: S.graph_directions(
        4, [(i, (i + 1) % 4, PI / 2) for i in range(4)]),
}


@pytest.mark.parametrize("name", sorted(BORDERLINE))
def test_eccentricity_pi_on_whole_edges_not_prismatic(name):
    # eccentricity is pi on every edge; vertex 0 has a single farthest point
    ds = BORDERLINE[name]()
    assert S.is_prismatic(ds) is False
    assert S.shadow(ds, ds.canonical((0, 0.0))).is_trivial


def _square_with_pendants():
    # a 2 pi square with pendant edges: every direction has eccentricity
    # above pi except [pi/8, 3 pi/8] on edge 0, where it is pi and the
    # antipode on edge 2 is the only farthest point inside the interval
    return S.graph_directions(8, [
        (0, 1, PI / 2), (1, 2, PI / 2), (2, 3, PI / 2), (3, 0, PI / 2),
        (0, 4, PI / 2), (1, 5, PI / 2), (2, 6, PI / 8), (3, 7, PI / 8)])


def _cycle_with_doubled_far_side():
    # a 2 pi cycle 0-1-2-3-4-0 whose edges 2-3 and 3-4 are doubled, with
    # pendants at 0 and 1: from (0, o), eccentricity is pi with one antipode
    # on each copy, except at o = pi/3, where both copies meet at vertex 3
    return S.graph_directions(7, [
        (0, 1, PI / 2), (1, 2, PI / 2), (2, 3, PI / 3), (2, 3, PI / 3),
        (3, 4, PI / 6), (3, 4, PI / 6), (4, 0, PI / 2),
        (0, 5, PI / 2), (1, 6, PI / 2)])


@pytest.mark.parametrize("make,trivial,nontrivial", [
    (_square_with_pendants, [PI / 4, 0.15 * PI, 0.35 * PI],
     [0.0, PI / 16, PI / 8, 3 * PI / 8, 7 * PI / 16, PI / 2]),
    (_cycle_with_doubled_far_side, [PI / 3],
     [0.0, PI / 8, PI / 4, PI / 3 - 1e-6, PI / 3 + 1e-6, 3 * PI / 8, PI / 2]),
], ids=["square_with_pendants", "doubled_far_side"])
def test_trivial_shadow_inside_an_edge(make, trivial, nontrivial):
    """Eccentricity is pi on a whole interval of edge 0, and the shadow is
    trivial only on a sub-interval of it (or at one offset); no vertex is a
    witness."""
    ds = make()
    assert S.is_prismatic(ds) is False
    assert all(S.shadow(ds, (0, off)).is_trivial for off in trivial)
    assert not any(S.shadow(ds, (0, off)).is_trivial for off in nontrivial)
    assert not any(S.shadow(ds, ds.canonical((e, o))).is_trivial
                   for e, (_, _, length) in enumerate(ds.edges)
                   for o in (0.0, length))


def test_eccentricity_pi_with_two_farthest_points_is_prismatic():
    # three pi edges between two vertices, with pendants that lift the
    # vertices and the edge ends above pi: the middle of each pi edge has
    # eccentricity pi and a farthest point on each other pi edge
    ds = S.graph_directions(4, [(0, 1, PI)] * 3 + [(0, 2, 0.25), (1, 3, 0.25)])
    assert S.is_prismatic(ds) is True
    assert not S.shadow(ds, (0, PI / 2)).is_trivial


def _eccentricity_bracket(ds, h):
    """Lower and upper bounds on the smallest eccentricity of any direction,
    from points at spacing <= h on every edge: a test-local Floyd-Warshall
    table, the distance between every two sampled points, and 1-Lipschitz
    widening by h/2 on each side."""
    n = ds.vertex_count
    table = np.full((n, n), np.inf)
    np.fill_diagonal(table, 0.0)
    for u, v, length in ds.edges:
        table[u, v] = table[v, u] = min(table[u, v], length)
    for w in range(n):
        table = np.minimum(table, table[:, [w]] + table[[w], :])
    eids, offs = [], []
    for eid, (_, _, length) in enumerate(ds.edges):
        k = int(math.ceil(length / h)) + 1
        eids += [eid] * k
        offs += np.linspace(0.0, length, k).tolist()
    eids, offs = np.array(eids), np.array(offs)
    ends = np.array(ds.edges)[eids]
    u, v, length = ends[:, 0].astype(int), ends[:, 1].astype(int), ends[:, 2]
    # (points, vertices): distance from each sampled point to each vertex
    to_vertex = np.minimum(offs[:, None] + table[u], (length - offs)[:, None] + table[v])
    dist = np.minimum(to_vertex[:, u] + offs, to_vertex[:, v] + (length - offs))
    same = eids[:, None] == eids[None, :]
    dist = np.where(same, np.minimum(dist, np.abs(offs[:, None] - offs)), dist)
    ecc = dist.max(axis=1)
    return ecc.min() - h / 2.0, ecc.min() + h / 2.0


def test_prismatic_matches_dense_eccentricity_bracket():
    """On random trees, cycles near 2 pi and Petersen graphs, the verdict is
    True where every direction has eccentricity above pi and False where one
    has eccentricity below pi (its shadow is empty).  Graphs whose bracket
    holds pi are skipped."""
    rng = np.random.default_rng(1106)
    decided = {True: 0, False: 0}
    for i in range(360):
        if i % 3 == 0:
            ds = gen.random_tree_graph_cone(rng).directions
        elif i % 3 == 1:
            ds = gen.random_cycle_graph_cone(rng, 1.5 * PI, 2.5 * PI).directions
        else:
            ds = S.petersen_directions(float(rng.uniform(0.3, 1.2)))
        lo, hi = _eccentricity_bracket(ds, 0.02)
        if lo > PI:
            want = True
        elif hi < PI:
            want = False
        else:
            continue
        assert S.is_prismatic(ds) is want, (i, ds.edges, lo, hi)
        decided[want] += 1
    assert sum(decided.values()) >= 300 and min(decided.values()) >= 50, decided


def _loop_uncovered(lo, hi, length: float) -> list[tuple[float, float]]:
    """The maximal closed intervals [x, y] of [0, length] that no open
    interval (lo[i], hi[i]) meets; x == y is a single point."""
    keep = lo < hi
    order = np.argsort(lo[keep])
    lo, hi = np.append(lo[keep][order], np.inf), hi[keep][order]
    reach = np.maximum.accumulate(np.concatenate([[0.0], hi]))
    gap = (lo >= reach) & (reach <= length)
    return list(zip(reach[gap].tolist(), np.minimum(lo[gap], length).tolist()))


def _loop_witness_candidates(ds):
    """`_graph_witness_candidates` edge by edge: the oracle of the search
    that finds every edge's gaps at once."""
    dist, u, v, length = ds._endpoint_arrays
    alpha, beta, delta = S._eccentricity_trapezoids(ds)
    turns = (dist[v] + length[:, None] - dist[u]) / 2.0
    low, high = PI - S.COORD_TOL, PI + S.COORD_TOL
    for eid, edge_length in enumerate(length.tolist()):
        a, b, d = alpha[eid], beta[eid], delta[eid]
        cuts = np.concatenate([turns[eid], low - a, d - low, high - a, d - high])
        for x, y in _loop_uncovered(high - a[b > high], d[b > high] - high, edge_length):
            offs = sorted({x, y, *cuts[(cuts > x) & (cuts < y)].tolist()})
            mids = [(p + q) / 2.0 for p, q in zip(offs, offs[1:])]
            yield from ((eid, off) for off in offs + mids)


def test_witness_candidates_match_the_loop_oracle():
    """The same candidates, bit for bit, on Petersen graphs with edge
    lengths 0.2 to 2.0, the hand-made borderline graphs, and random trees and
    cycles near 2 pi."""
    graphs = [S.petersen_directions(float(x)) for x in np.linspace(0.2, 2.0, 60)]
    graphs += [make() for make in BORDERLINE.values()]
    graphs += [_square_with_pendants(), _cycle_with_doubled_far_side()]
    rng = np.random.default_rng(1107)
    for i in range(600):
        sp = (gen.random_tree_graph_cone(rng) if i % 2
              else gen.random_cycle_graph_cone(rng, 1.5 * PI, 2.5 * PI))
        graphs.append(sp.directions)
    found = 0
    for ds in graphs:
        want = list(_loop_witness_candidates(ds))
        assert repr(list(S._graph_witness_candidates(ds))) == repr(want), ds.edges
        found += bool(want)
    assert found >= 100, found


def test_open_book_spine_not_prismatic():
    assert S.open_book_prismatic(S.open_book(3, 2)) is False


# ---------------------------------------------------------------------------
# points and measures
# ---------------------------------------------------------------------------

def test_zero_radius_points_collapse(spider3):
    a = S.point(spider3, 0, 0.0)
    b = S.point(spider3, 2, 0.0)
    assert a == b
    assert S.cone_distance(spider3, a, b) == 0.0


def test_graph_vertex_coordinates_merge(petersen):
    ds = petersen.directions
    # edge 0 = (0, 1), edge 4 = (4, 0): both touch vertex 0
    p1 = S.point(petersen, (0, 0.0), 1.0)
    p2 = S.point(petersen, (4, PI / 2), 1.0)
    assert p1 == p2


def test_measure_merges_duplicate_atoms(spider3):
    mu = S.measure(spider3, [((0, 1.0), 0.25), ((0, 1.0), 0.25), ((1, 1.0), 0.5)])
    assert mu.size == 2
    assert mu.atoms[0][1] == 0.5


def test_measure_merged_weights_do_not_depend_on_atom_order():
    sp = S.spider(4)
    # seed 40: with += in input order, 72 of the 200 orders below moved a weight
    rng = np.random.default_rng(40)
    pts = [S.point(sp, j, 0.0) for j in range(3)]  # three atoms at the apex
    pts += [S.point(sp, int(rng.integers(0, 4)), float(rng.uniform(0.1, 2.0)))
            for _ in range(21)]
    pairs = list(zip(pts, rng.dirichlet(np.ones(len(pts)))))
    want = dict(S.measure(sp, pairs).atoms)
    for _ in range(200):
        mu = S.measure(sp, [pairs[i] for i in rng.permutation(len(pairs))])
        assert dict(mu.atoms) == want


def test_measure_weight_validation(spider3):
    with pytest.raises(ValueError, match="sum"):
        S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.3)])
    with pytest.raises(ValueError, match="positive"):
        S.measure(spider3, [((0, 1.0), 1.5), ((1, 1.0), -0.5)])
    with pytest.raises(ValueError):
        S.point(spider3, 0, -0.4)
    with pytest.raises(ValueError):
        S.point(spider3, 7, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6))
def test_measure_normalized_weights(raw):
    sp = S.spider(3)
    total = sum(raw)
    mu = S.measure(sp, [((i % 3, 0.5 + i), w / total) for i, w in enumerate(raw)])
    assert sum(mu.weights()) == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0 for w in mu.weights())


def test_invalid_direction_matrix():
    with pytest.raises(ValueError, match="triangle"):
        S.finite_directions([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        S.finite_directions([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="connected"):
        S.graph_directions(4, [(0, 1, 1.0), (2, 3, 1.0)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sp", [
    S.spider(3),
    S.kale(2 * PI),
    S.kale(3 * PI),
    S.petersen_cone(),
    S.open_book(3, 2),
    S.Cone(S.finite_directions([[0.0, 2.0], [2.0, 0.0]])),
])
def test_space_json_roundtrip(sp):
    text = json.dumps(S.space_to_json(sp), sort_keys=True)
    back = S.space_from_json(json.loads(text))
    assert json.dumps(S.space_to_json(back), sort_keys=True) == text


def test_measure_json_roundtrip(petersen):
    rng = np.random.default_rng(12)
    mu = gen.random_measure(petersen, rng)
    data = S.measure_to_json(petersen, mu)
    back = S.measure_from_json(petersen, json.loads(json.dumps(data)))
    assert back == mu
