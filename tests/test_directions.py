import math

import numpy as np
import pytest

import gen
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom import stickiness as ST
from stickygeom.directions import build_system, min_derivative

PI = math.pi

SPACE_MAKERS = {
    "finite": gen.random_finite_cone,
    "kale": lambda rng: S.kale(float(rng.uniform(2.0 * PI, 3.5 * PI))),
    "plane": lambda rng: S.kale(2.0 * PI),
    "tree": gen.random_tree_graph_cone,
    "petersen": lambda rng: S.petersen_cone(),
}


@pytest.mark.parametrize("kind", sorted(SPACE_MAKERS))
def test_one_pull_formula(kind):
    """The stored candidate pulls and derivatives are the one-column pulls
    and derivatives bit for bit, and each pull is the reference pull."""
    rng = np.random.default_rng(77)
    for _ in range(40):
        sp = SPACE_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng)
        system = build_system(sp, mu)
        w = mu.weights()
        derivs = system.derivatives(w)
        for g, coord in enumerate(system.candidates):
            column = system.pull_matrix([coord])[:, 0]
            assert column.tobytes() == system.pulls[:, g].tobytes(), (kind, coord)
            assert derivs[g] == system.derivative_at(w, coord), (kind, coord)
            for (z, _), p in zip(mu.atoms, column):
                assert abs(p - F.pull(sp, coord, z)) <= 1e-15 * z.radius, (kind, coord)


GRAPH_MAKERS = {
    "tree": gen.random_tree_graph_cone,
    "short_cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 1.9 * PI),
    "long_cycle": lambda rng: gen.random_cycle_graph_cone(rng, 2.0 * PI, 4.0 * PI),
    "petersen": SPACE_MAKERS["petersen"],
}


@pytest.mark.parametrize("kind", sorted(GRAPH_MAKERS))
def test_one_graph_metric(kind):
    """Every graph distance is the endpoint rule over the vertex-distance
    table, bit for bit: scalar and array, in either argument order, from a
    vertex's own row when an argument is a vertex, and inside the pulls."""
    rng = np.random.default_rng(79)
    for _ in range(30):
        sp = GRAPH_MAKERS[kind](rng)
        ds = sp.directions
        coords = [ds.canonical(gen.random_direction(sp, rng)) for _ in range(12)]
        coords += list(ds._vertex_home)
        vertex = {home: w for w, home in enumerate(ds._vertex_home)}
        to_first, to_second = ds.endpoint_distances(coords)
        for eid, (u, v, _) in enumerate(ds.edges):
            for j, c in enumerate(coords):
                assert to_first[eid, j] == ds.vertex_to_coord(u, c), (kind, eid, c)
                assert to_second[eid, j] == ds.vertex_to_coord(v, c), (kind, eid, c)
        table = ds.distances(coords, coords)
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                assert ds.distance(a, b) == ds.distance(b, a), (kind, a, b)
                assert table[i, j] == ds.distance(a, b), (kind, a, b)
                # a vertex reads its own row in either argument order; of
                # two vertices, the first in canonical order does
                for w, other in sorted([(a, b), (b, a)]):
                    if w in vertex:
                        want = ds.vertex_to_coord(vertex[w], other)
                        assert table[i, j] == ds.distance(a, b) == want, (kind, a, b)
                        break
        mu = gen.random_measure(sp, rng)
        system = build_system(sp, mu)
        want = system.radii[:, None] * np.cos(
            np.minimum(ds.distances(system.atom_dirs, coords), PI))
        assert system.pull_matrix(coords).tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("kind", sorted(GRAPH_MAKERS))
def test_vertex_table_is_symmetric(kind):
    """The vertex-distance table equals its transpose, and the scalar
    distance between w's coordinate and any other is the endpoint rule from
    vertex w, in either argument order."""
    rng = np.random.default_rng(83)
    for _ in range(30):
        sp = GRAPH_MAKERS[kind](rng)
        ds = sp.directions
        table = np.array(ds._vertex_dist)
        assert table.tobytes() == table.T.tobytes(), kind
        for _ in range(12):
            w = int(rng.integers(0, ds.vertex_count))
            c = ds.canonical(gen.random_direction(sp, rng))
            home = ds._vertex_home[w]
            assert ds.vertex_to_coord(w, c) == ds.distance(home, c) \
                == ds.distance(c, home), (kind, w, c)


PIECE_MAKERS = {
    "kale": SPACE_MAKERS["kale"],
    "plane": SPACE_MAKERS["plane"],
    "short_kale": lambda rng: S.kale(float(rng.uniform(0.3, 2.0 * PI))),
    "tree": SPACE_MAKERS["tree"],
    "petersen": SPACE_MAKERS["petersen"],
}


@pytest.mark.parametrize("kind", sorted(PIECE_MAKERS))
def test_piece_coefficients_are_the_pulls(kind):
    """At each piece's ends and midpoint, c - a cos(theta) - b sin(theta) is
    every atom's negated pull as pull_matrix gives it."""
    rng = np.random.default_rng(78)
    for _ in range(40):
        sp = PIECE_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng)
        system = build_system(sp, mu)
        t = system.pieces
        cols = np.tile(np.arange(len(t)), 3)
        theta = np.concatenate([t.lo, (t.lo + t.hi) / 2.0, t.hi])
        coords = (theta.tolist() if system.kind == "circle"
                  else list(zip(t.edge[cols].tolist(), theta.tolist())))
        table = (t.c[:, cols] - t.a[:, cols] * np.cos(theta)
                 - t.b[:, cols] * np.sin(theta))
        gap = np.abs(table + system.pull_matrix(coords))
        assert (gap <= 1e-14 * (1.0 + system.radii[:, None])).all(), (kind, gap.max())


PREMISE_MAKERS = {
    "cat0": gen.random_cat0_space,
    "tree": gen.random_tree_graph_cone,
    "cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    "petersen": SPACE_MAKERS["petersen"],
    "kale": lambda rng: S.kale(float(rng.uniform(0.3, 5.0 * PI))),
    "finite": gen.random_finite_cone,
}


@pytest.mark.parametrize("kind", sorted(PREMISE_MAKERS))
def test_smooth_pieces_are_at_most_pi_long(kind):
    """An atom's distance has slope +-1 on a piece and stays in [0, pi]
    there, so every piece with a nonzero sinusoid is at most pi long: the
    premise of the sign test in batch_min_derivative."""
    rng = np.random.default_rng(89)
    for _ in range(340):
        sp = PREMISE_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng, max_atoms=16 if kind == "petersen" else 8)
        t = build_system(sp, mu).pieces
        smooth = (t.a != 0.0).any(axis=0) | (t.b != 0.0).any(axis=0)
        assert (t.hi - t.lo)[smooth].max(initial=0.0) <= PI + 8e-15, kind


def test_pull_matrix_rejects_off_edge_coordinates():
    sp = S.petersen_cone()
    mu = S.measure(sp, [(((0, 0.5), 1.0), 0.5), (((7, 1.0), 0.7), 0.5)])
    system = build_system(sp, mu)
    length = sp.directions.edges[0][2]
    assert system.pull_matrix([(0, length)]).shape == (2, 1)
    for coord in [(0, 99.0), (0, -0.5), (-1, 0.5), (15, 0.5), (0, math.nan), (0,)]:
        with pytest.raises(ValueError):
            system.pull_matrix([coord])
        with pytest.raises(ValueError):
            system.derivative_at(mu.weights(), coord)


@pytest.mark.parametrize("sticky", [True, False])
def test_open_book_system_is_its_spider_marginal(sticky):
    sp = S.open_book(3, 2)
    pages = [(0, 1.0), (1, 1.0), (2, 1.0)] if sticky else [(0, 2.0), (1, 0.5), (2, 0.5)]
    mu = S.measure(sp, [(S.point(sp, j, r, (float(j),)), 1 / 3) for j, r in pages])
    page, c_min = min_derivative(build_system(sp, mu), mu.weights())
    rep = ST.classify(sp, mu)
    assert (page, c_min) == (rep.argmin_direction, rep.c_min)
    assert rep.label == ("sticky" if sticky else "nonsticky")


def test_open_book_sample_sticking_merges_the_marginal():
    """Atoms on one page at one radius merge in the spider marginal; the
    resample is drawn from that marginal."""
    sp = S.open_book(3, 2)
    mu = S.measure(sp, [(S.point(sp, 0, 1.0, (0.0,)), 0.25),
                        (S.point(sp, 0, 1.0, (1.0,)), 0.25),
                        (S.point(sp, 1, 1.0, (0.0,)), 0.25),
                        (S.point(sp, 2, 1.0, (0.0,)), 0.25)])
    res = ST.sample_sticking(sp, mu, 20, 400, seed=5)
    marg = S.spider_marginal(sp, mu)
    assert res == ST.sample_sticking(sp.spider, marg, 20, 400, seed=5)
    assert 0.0 < res.p_hat < 1.0
