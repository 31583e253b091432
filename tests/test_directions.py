import math

import numpy as np
import pytest

import gen
from stickygeom import directions as D
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
    "cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    "petersen": SPACE_MAKERS["petersen"],
}


@pytest.mark.parametrize("kind", sorted(PIECE_MAKERS))
def test_piece_coefficients_are_the_pulls(kind):
    """At each piece's ends and midpoint, c - a cos(theta) - b sin(theta) is
    every atom's negated pull as pull_matrix gives it; and a, b and c are
    rebuilt bit for bit from the metric alone: a cell is capped exactly
    where `ds.distances` to the midpoint is >= pi, and an atom's phase is
    slope * d(mid) - mid, with its slope the sign of d(hi) - d(lo)."""
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

        ds = sp.directions
        ends = coords[:len(t)] + coords[2 * len(t):]
        lo, hi = np.split(ds.distances(system.atom_dirs, [ds.canonical(c) for c in ends]),
                          2, axis=1)
        mid = ds.distances(system.atom_dirs, coords[len(t):2 * len(t)])
        r = system.radii[:, None]
        capped = (r > 0.0) & (mid >= PI)
        smooth = (r > 0.0) & (mid < PI)
        phase = np.sign(hi - lo) * mid - (t.lo + t.hi) / 2.0
        assert ((t.c != 0.0) == capped).all(), kind
        assert (np.where(capped, r, 0.0) == t.c).all(), kind
        assert (np.where(smooth, r * np.cos(phase), 0.0) == t.a).all(), kind
        assert (np.where(smooth, -r * np.sin(phase), 0.0) == t.b).all(), kind
        assert (np.sign(hi - lo)[smooth] != 0.0).all(), kind


def test_build_system_reads_one_distance_table(monkeypatch):
    """build_system asks the metric once, whatever the kind: at the
    candidates (the pulls and the piece ends) and at the midpoints, in one
    table."""
    calls = []
    for cls in (S.FiniteDirections, S.CircleDirections, S.GraphDirections):
        monkeypatch.setattr(cls, "distances", lambda self, a, b, real=cls.distances:
                            calls.append(type(self)) or real(self, a, b))
    rng = np.random.default_rng(80)
    for make in [*PIECE_MAKERS.values(), gen.random_finite_cone]:
        sp = make(rng)
        mu = gen.random_measure(sp, rng)
        calls.clear()
        build_system(sp, mu)
        assert calls == [type(sp.directions)], calls


@pytest.mark.parametrize("kind", sorted(SPACE_MAKERS))
def test_fused_distance_table_is_the_separate_tables(kind):
    """One `distances` table at the candidates and then the midpoints has,
    column by column, the bits of the two tables it replaced; a graph reads
    an (n, 2) array of coordinates as it reads the same list of pairs."""
    rng = np.random.default_rng(81)
    for _ in range(30):
        sp = SPACE_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng)
        system = build_system(sp, mu)
        ds, t = sp.directions, system.pieces
        ends = [ds.canonical(c) for c in system.candidates]
        mids = ((t.lo + t.hi) / 2.0).tolist()
        if system.kind == "graph":
            mids = list(zip(t.edge.tolist(), mids))
        fused = ds.distances(system.atom_dirs, ends + mids)
        apart = np.hstack([ds.distances(system.atom_dirs, ends),
                           ds.distances(system.atom_dirs, mids)])
        assert fused.tobytes() == apart.tobytes(), kind
        if system.kind == "graph":
            arrays = ds.distances(np.array(system.atom_dirs), np.array(ends + mids))
            assert arrays.tobytes() == fused.tobytes(), kind


# ---------------------------------------------------------------------------
# the loop builder of graph pieces, kept as the oracle of the array builder
# ---------------------------------------------------------------------------

def _sorted_merged(values) -> list:
    """The values in increasing order, less any within 1e-14 of the last one
    kept."""
    out = []
    for val in sorted(values):
        if not out or val - out[-1] > 1e-14:
            out.append(val)
    return out


def _loop_graph_pieces(ds, radii, dirs):
    """Candidates, pieces and piece-end indices, edge by edge and atom by
    atom into sets of cuts."""
    to_first, to_second = ds.endpoint_distances(dirs)
    cand_coords = []
    los, his, piece_edges, lo_end = [], [], [], []
    for eid, ((_u, _v, length), ra, rb) in enumerate(
            zip(ds.edges, to_first.tolist(), to_second.tolist())):
        cuts = {0.0, length}
        for i, r in enumerate(radii):
            if r <= 0.0:
                continue
            branches = [(ra[i], 1.0), (rb[i] + length, -1.0)]
            cuts.add((rb[i] + length - ra[i]) / 2.0)
            if dirs[i][0] == eid:
                off = dirs[i][1]
                cuts.add(off)
                cuts.add((off - ra[i]) / 2.0)
                cuts.add((off + rb[i] + length) / 2.0)
                branches += [(off, -1.0), (-off, 1.0)]
            for b, s in branches:
                cuts.add((PI - b) / s)
        cleaned = _sorted_merged(min(max(c, 0.0), length) for c in cuts
                                 if -1e-14 <= c <= length + 1e-14)
        lo_end += range(len(cand_coords), len(cand_coords) + len(cleaned) - 1)
        cand_coords += [(eid, coord) for coord in cleaned]
        los += cleaned[:-1]
        his += cleaned[1:]
        piece_edges += [eid] * (len(cleaned) - 1)
    lo_end = np.array(lo_end, dtype=int)
    return (cand_coords, np.array(los), np.array(his), np.array(piece_edges, dtype=int),
            np.array([lo_end, lo_end + 1]))


def _assert_matches_loop(sp, mu):
    """build_system's candidates, pulls and piece table, bit for bit, against
    the loop builder read through two tables of the metric: one at the
    candidates, canonicalized one by one, and one at the midpoints."""
    ds = sp.directions
    radii = np.array([p.radius for p in mu.points()])
    dirs = [p.direction for p in mu.points()]
    cands, lo, hi, edge, ends = _loop_graph_pieces(ds, radii, dirs)
    dist = ds.distances(dirs, [ds.canonical(c) for c in cands])
    mid = (lo + hi) / 2.0
    mid_dist = ds.distances(dirs, list(zip(edge.tolist(), mid.tolist())))
    phase = np.sign(dist[:, ends[1]] - dist[:, ends[0]]) * mid_dist - mid
    want = D._coefficients(radii, lo, hi, mid_dist, phase, edge)
    system = build_system(sp, mu)
    assert repr(system.candidates) == repr(cands), (ds.edges, mu)
    got = [system.pulls] + [getattr(system.pieces, f) for f in "lo hi a b c edge".split()]
    for g, w in zip(got, [D._pulls(radii, dist)]
                    + [getattr(want, f) for f in "lo hi a b c edge".split()]):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), mu


ORACLE_MAKERS = (
    gen.random_tree_graph_cone,
    lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    lambda rng: S.petersen_cone(),
    lambda rng: S.petersen_cone(float(rng.uniform(0.2, 2.0))),
)


def test_graph_pieces_match_the_loop_oracle():
    rng = np.random.default_rng(91)
    for k in range(320):
        sp = ORACLE_MAKERS[k % len(ORACLE_MAKERS)](rng)
        _assert_matches_loop(sp, gen.random_measure(sp, rng, max_atoms=12))


def test_graph_pieces_match_the_loop_oracle_on_awkward_cuts():
    """A path 0 - 1 - 2 with edges of length 1 and 4: cuts within 1e-14 of
    each other (a pair, and a chain of three of which `_merged` keeps the
    first and the third), atoms at a vertex and at the apex, and cuts at
    -5e-15 and at 1 + 5e-15 on edge 0, which clip to its ends."""
    sp = S.graph_cone(3, [(0, 1, 1.0), (1, 2, 4.0)])
    ds = sp.directions
    near_pi = PI - 1.0 + 5e-15  # edge 1: 1 + near_pi from vertex 0
    atoms = [((1, 0.5), 1.0), ((1, 0.5 + 5e-15), 0.8),
             ((1, 2.0), 0.6), ((1, 2.0 + 6e-15), 0.9), ((1, 2.0 + 1.2e-14), 0.7),
             ((0, 0.0), 1.1), ((1, 4.0), 0.4), ((0, 0.3), 0.0),
             ((1, near_pi), 1.3), ((1, PI + 5e-15), 1.2)]
    mu = S.measure(sp, [(a, 0.1) for a in atoms])
    assert -1e-14 <= PI - ds.vertex_to_coord(0, (1, near_pi)) < 0.0
    assert 1.0 < ds.vertex_to_coord(1, (1, PI + 5e-15)) + 1.0 - PI <= 1.0 + 1e-14
    _assert_matches_loop(sp, mu)
    offsets = [o for e, o in build_system(sp, mu).candidates if e == 1]
    assert 0.5 + 5e-15 not in offsets and 2.0 + 6e-15 not in offsets
    assert 2.0 + 1.2e-14 in offsets
    # and the same cuts, read from the other end of every edge
    flip = S.graph_cone(3, [(1, 0, 1.0), (2, 1, 4.0)])
    lengths = (1.0, 4.0)
    _assert_matches_loop(flip, S.measure(flip, [(((e, lengths[e] - o), r), 0.1)
                                                for (e, o), r in atoms]))


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
