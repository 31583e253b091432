import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from stickygeom import asymptotics as A
from stickygeom import directions as D
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom import stickiness as ST
from stickygeom._mc import CHUNK, resample_counts
from stickygeom.directions import (
    ROW_BLOCK,
    batch_min_derivative,
    build_system,
    min_derivative,
)

PI = math.pi


@pytest.fixture(scope="module")
def spider3():
    return S.spider(3)


@pytest.fixture(scope="module")
def thirds(spider3):
    return S.measure(spider3, [((j, 1.0), 1 / 3) for j in range(3)])


def test_frechet_value(spider3, thirds):
    apex = S.cone_point(spider3)
    assert F.frechet_value(spider3, S.dirac(spider3, S.point(spider3, 0, 1.0)),
                           apex) == 0.5
    x = S.point(spider3, 0, 0.5)
    assert F.frechet_value(spider3, thirds, x) \
        == pytest.approx((0.25 + 2 * 2.25) / 6, abs=1e-15)
    assert F.frechet_value(spider3, thirds, x, anchor=x) == 0.0


def test_pull(spider3):
    k = S.kale(3 * PI)
    assert F.pull(spider3, 0, S.point(spider3, 0, 1.7)) == 1.7
    assert F.pull(spider3, 0, S.point(spider3, 1, 1.7)) == -1.7
    assert F.pull(k, 0.0, S.point(k, PI / 2, 2.0)) == pytest.approx(0.0, abs=1e-15)
    assert F.pull(spider3, 1, S.cone_point(spider3)) == 0.0


def test_directional_derivative(spider3, thirds):
    assert F.directional_derivative(spider3, thirds, 0) == 1 / 3
    plane = S.kale(2 * PI)
    assert F.directional_derivative(
        plane, S.dirac(plane, S.point(plane, 0.0, 1.0)), 0.0) == -1.0
    at_apex = S.dirac(spider3, S.cone_point(spider3))
    assert F.directional_derivative(spider3, at_apex, 1) == 0.0


def test_min_directional_derivative(spider3, thirds):
    argmin, value = F.min_directional_derivative(spider3, thirds)
    assert argmin == 0 and value == 1 / 3
    plane = S.kale(2 * PI)
    argmin, value = F.min_directional_derivative(
        plane, S.dirac(plane, S.point(plane, 0.0, 1.0)))
    assert argmin == 0.0 and value == -1.0
    k = S.kale(3 * PI)
    kthirds = S.measure(k, [((i * PI, 1.0), 1 / 3) for i in range(3)])
    argmin, value = F.min_directional_derivative(k, kthirds)
    assert value == pytest.approx(1 / 3, abs=1e-15)
    assert argmin == pytest.approx(0.0, abs=1e-12)  # tie broken at smallest angle


def test_scalar_vs_batch_minimizer_random():
    rng = np.random.default_rng(23)
    for _ in range(120):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=6)
        system = build_system(sp, mu)
        _, scalar = min_derivative(system, mu.weights())
        batch = float(batch_min_derivative(
            system, np.asarray(mu.weights())[None, :])[0])
        assert abs(scalar - batch) <= 1e-13 * (1.0 + abs(scalar))


def test_batch_minimizer_row_blocks_match_scalar():
    # more rows than one block, on a measure with hundreds of pieces
    rng = np.random.default_rng(5)
    sp = S.petersen_cone()
    mu = S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                        for w in rng.dirichlet(np.ones(48))])
    system = build_system(sp, mu)
    rows = resample_counts(mu.weights(), 40, ROW_BLOCK + 1, seed=7) / 40.0
    batch = batch_min_derivative(system, rows)
    assert batch.shape == (ROW_BLOCK + 1,)
    for row, value in zip(rows, batch):
        _, scalar = min_derivative(system, row)
        assert abs(scalar - value) <= 1e-13 * (1.0 + abs(scalar))


def _assert_batch_matches_scalar(system, rows):
    batch = batch_min_derivative(system, rows)
    for row, value in zip(rows, batch):
        _, scalar = min_derivative(system, row)
        assert abs(scalar - value) <= 1e-13 * (1.0 + abs(scalar)), (scalar, value)


BATCH_MAKERS = {
    "tree": gen.random_tree_graph_cone,
    "cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    "long_kale": lambda rng: S.kale(float(rng.uniform(3.5 * PI, 5.0 * PI))),
    "petersen": lambda rng: S.petersen_cone(),
}


@pytest.mark.parametrize("kind", sorted(BATCH_MAKERS))
def test_scalar_vs_batch_minimizer_resampled(kind):
    """The weight row and resampled rows of graph cones, long kales and
    Petersen measures give the scalar minimum."""
    rng = np.random.default_rng(29)
    for seed in range(25):
        sp = BATCH_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng, max_atoms=12)
        w = np.asarray(mu.weights())
        rows = np.vstack([w[None, :], resample_counts(w, 15, 12, seed=seed) / 15.0])
        _assert_batch_matches_scalar(build_system(sp, mu), rows)


def test_batch_minimizer_where_a_piece_starts_at_the_maximum():
    """One direction's atoms make a sinusoid whose maximum is the antipode:
    on the piece that starts there the critical angle is lo + pi = hi."""
    for alpha, theta0 in [(2.0 * PI, 1.0), (2.0 * PI, 0.3), (3.0 * PI, 0.5)]:
        sp = S.kale(alpha)
        mu = S.measure(sp, [((theta0, 1.3), 0.7), ((theta0, 0.4), 0.3)])
        system = build_system(sp, mu)
        t = system.pieces
        w = np.asarray(mu.weights())
        theta, _ = D._critical_angles(t, w @ t.a, w @ t.b)
        assert np.isclose(np.mod(theta - t.lo, 2.0 * PI), PI, atol=1e-12).any()
        rows = np.vstack([w, [1.0, 0.0], [0.0, 1.0]])
        _assert_batch_matches_scalar(system, rows)


def test_batch_minimizer_with_a_critical_angle_on_a_breakpoint():
    """Two equal atoms at +-phi and one at pi on the plane: the sinusoid's
    critical angle is 0, the antipode of the atom at pi, a breakpoint that
    is no atom's direction."""
    sp = S.kale(2.0 * PI)
    for phi, r3 in [(0.7, 0.5), (1.2, 0.2), (PI / 4, 1.0)]:
        mu = S.measure(sp, [((phi, 1.0), 0.4), ((2.0 * PI - phi, 1.0), 0.4),
                            ((PI, r3), 0.2)])
        system = build_system(sp, mu)
        assert 0.0 in system.candidates
        t = system.pieces
        w = np.asarray(mu.weights())
        theta, _ = D._critical_angles(t, w @ t.a, w @ t.b)
        ends = np.minimum(np.abs(np.mod(theta + PI, 2.0 * PI) - PI),
                          np.abs(np.mod(theta - t.hi + PI, 2.0 * PI) - PI))
        assert (ends <= 1e-12).sum() >= 2
        assert min_derivative(system, w)[0] == 0.0
        _assert_batch_matches_scalar(system, w[None, :])


def test_batch_minimizer_forms_no_critical_angle(monkeypatch):
    rng = np.random.default_rng(37)
    sp = S.petersen_cone()
    mu = gen.random_measure(sp, rng, max_atoms=10)
    system = build_system(sp, mu)
    rows = resample_counts(mu.weights(), 20, 30, seed=3) / 20.0
    want = batch_min_derivative(system, rows)

    def refuse(*args, **kwargs):
        raise AssertionError("batch_min_derivative formed a critical angle")

    monkeypatch.setattr(D, "_critical_angles", refuse)
    assert batch_min_derivative(system, rows).tobytes() == want.tobytes()


END_TABLE_MAKERS = {
    "short_kale": lambda rng: S.kale(float(rng.uniform(0.5 * PI, 1.9 * PI))),
    "long_kale": lambda rng: S.kale(float(rng.uniform(2.0 * PI, 4.0 * PI))),
    "tree": gen.random_tree_graph_cone,
    "cycle": lambda rng: gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI),
    "petersen": lambda rng: S.petersen_cone(),
}


@pytest.mark.parametrize("kind", sorted(END_TABLE_MAKERS))
def test_end_derivative_table_matches_coefficients(kind):
    """Rows times the end-derivative table give a sin(theta) - b cos(theta)
    at every piece's lo and hi, with a and b from the piece coefficients."""
    rng = np.random.default_rng(41)
    for seed in range(20):
        sp = END_TABLE_MAKERS[kind](rng)
        mu = gen.random_measure(sp, rng, max_atoms=10)
        t = build_system(sp, mu).pieces
        w = np.asarray(mu.weights())
        x = np.vstack([w[None, :], resample_counts(w, 20, 12, seed=seed) / 20.0])
        a, b = x @ t.a, x @ t.b
        ends = x @ D._end_derivatives(t)
        P = len(t)
        for got, theta in ((ends[:, :P], t.lo), (ends[:, P:], t.hi)):
            want = a * np.sin(theta) - b * np.cos(theta)
            assert (np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))).all()


def test_batch_minimizer_rows_with_zero_entries():
    """A row that leaves atoms out makes their pieces flat or changes their
    sinusoid; single atoms, halves and the weight row all match."""
    rng = np.random.default_rng(43)
    for make in (lambda: S.kale(3.0 * PI), lambda: S.kale(1.5 * PI), S.petersen_cone):
        sp = make()
        mu = S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                            for w in rng.dirichlet(np.ones(8))])
        w = np.asarray(mu.weights())
        rows = [w, *np.eye(len(w))]
        for _ in range(10):
            keep = rng.random(len(w)) < 0.5
            rows.append(np.where(keep, w, 0.0))
        _assert_batch_matches_scalar(build_system(sp, mu), np.array(rows))


def test_batch_minimizer_on_finite_directions():
    """Spiders and finite direction sets have no pieces (P = 0): the
    candidates alone give the minimum."""
    rng = np.random.default_rng(47)
    for sp in (S.spider(4), gen.random_finite_cone(rng), gen.random_finite_cone(rng)):
        mu = gen.random_measure(sp, rng, max_atoms=6)
        system = build_system(sp, mu)
        assert len(system.pieces) == 0
        w = np.asarray(mu.weights())
        rows = np.vstack([w[None, :], resample_counts(w, 15, 20, seed=3) / 15.0])
        _assert_batch_matches_scalar(system, rows)


def test_batch_minimizer_across_a_chunk_edge():
    count = CHUNK + 1
    rng = np.random.default_rng(53)
    sp = S.kale(2.7 * PI)
    mu = S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                        for w in rng.dirichlet(np.ones(6))])
    rows = resample_counts(mu.weights(), 20, count, seed=9) / 20.0
    system = build_system(sp, mu)
    assert batch_min_derivative(system, rows).shape == (count,)
    _assert_batch_matches_scalar(system, rows)


def test_streamed_monte_carlo_matches_one_whole_matrix_call():
    """sample_sticking and Monte Carlo modulation score the resamples one
    `_mc.map_chunks` chunk at a time; the bits are those of one batch call on
    the whole count matrix."""
    rng = np.random.default_rng(59)
    sp = S.petersen_cone()
    mu = S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                        for w in rng.dirichlet(np.ones(16))])
    n, trials, seed = 20, 2 * CHUNK + 3, 17
    system = build_system(sp, mu)
    counts = resample_counts(mu.weights(), n, trials, seed)
    minvals = batch_min_derivative(system, counts.astype(float))
    p_hat = float((minvals < -D.TIE_TOL * (counts @ system.radii)).mean())
    assert 0.0 < p_hat < 1.0
    for threads in (1, 2):
        res = ST.sample_sticking(sp, mu, n, trials, seed, threads)
        assert res.p_hat.hex() == p_hat.hex()

    # a measure with its mean at the apex, for modulation
    kale = S.kale(3.0 * PI)
    thirds = S.measure(kale, [((k * PI, 1.0), 1.0 / 3.0) for k in range(3)])
    system = build_system(kale, thirds)
    counts = resample_counts(thirds.weights(), n, trials, seed)
    dq = np.maximum(0.0, -batch_min_derivative(system, counts.astype(float)) / n) ** 2.0
    assert dq.any()
    for threads in (1, 2):
        est = A.modulation(kale, thirds, n, 2.0, trials, seed, method="mc",
                           threads=threads)
        assert est.m_hat == n * float(dq.mean()) / est.denominator
        assert est.se == n * float(dq.std(ddof=1)) / math.sqrt(trials) / est.denominator


def test_cone_mean_examples(spider3, thirds):
    assert F.cone_mean(spider3, thirds) == S.cone_point(spider3)
    half = S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.5)])
    assert F.cone_mean(spider3, half) == S.cone_point(spider3)
    plane = S.kale(2 * PI)
    two = S.measure(plane, [((0.0, 1.0), 0.5), ((PI / 2, 1.0), 0.5)])
    m = F.cone_mean(plane, two)
    assert m.direction == pytest.approx(PI / 4, abs=1e-12)
    assert m.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_mean_characterization():
    rng = np.random.default_rng(31)
    for _ in range(150):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=6)
        _, c = F.min_directional_derivative(sp, mu)
        mean = F.cone_mean(sp, mu)
        assert (mean.radius == 0.0) == (c >= -1e-12)
        if mean.radius > 0:
            assert mean.radius == pytest.approx(-c, abs=1e-15)


def test_open_book_mean():
    bk = S.open_book(3, 2)
    thirds = S.measure(bk, [(S.point(bk, j, 1.0, (0.0,)), 1 / 3) for j in range(3)])
    m = F.open_book_mean(bk, thirds)
    assert m.radius == 0.0 and m.euclidean == (0.0,)
    # perturbing toward a lifted atom moves the mean along the spine only
    t, h = 0.1, 2.0
    y = S.point(bk, 0, 1.0, (h,))
    pairs = [(p, w * (1 - t)) for p, w in thirds.atoms] + [(y, t)]
    mixed = S.measure(bk, pairs)
    m2 = F.open_book_mean(bk, mixed)
    assert m2.radius == 0.0
    assert m2.euclidean[0] == pytest.approx(t * h, abs=1e-15)
    single = S.measure(bk, [(y, 1.0)])
    assert F.open_book_mean(bk, single) == y


def test_lipschitz_constant(spider3, thirds):
    apex = S.cone_point(spider3)
    assert F.lipschitz_L(spider3, S.dirac(spider3, S.point(spider3, 0, 2.0)),
                         apex) == 2.0
    assert F.lipschitz_L(spider3, thirds, apex) == pytest.approx(1.0, abs=1e-15)
    x = S.point(spider3, 1, 0.7)
    assert F.lipschitz_L(spider3, S.dirac(spider3, x), x) == 0.0


def test_derivative_lipschitz_in_direction():
    rng = np.random.default_rng(41)
    for _ in range(60):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=6)
        L = F.lipschitz_L(sp, mu, S.cone_point(sp))
        for _ in range(20):
            a = gen.random_direction(sp, rng)
            b = gen.random_direction(sp, rng)
            da = F.directional_derivative(sp, mu, a)
            db = F.directional_derivative(sp, mu, b)
            ang = min(S.direction_distance(sp.directions, a, b), PI)
            assert abs(da - db) <= L * ang + 1e-12


def test_pull_is_one_lipschitz():
    rng = np.random.default_rng(43)
    for _ in range(60):
        sp = gen.random_cat0_space(rng)
        sigma = gen.random_direction(sp, rng)
        for _ in range(20):
            z, y = gen.random_point(sp, rng), gen.random_point(sp, rng)
            gap = abs(F.pull(sp, sigma, z) - F.pull(sp, sigma, y))
            assert gap <= S.cone_distance(sp, z, y) + 1e-12


def test_first_variation_consistency():
    rng = np.random.default_rng(47)
    for _ in range(25):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=5)
        sigma = gen.random_direction(sp, rng)
        d = F.directional_derivative(sp, mu, sigma)
        apex = S.cone_point(sp)
        f0 = F.frechet_value(sp, mu, apex)
        tip = S.point(sp, sigma, 1.0)
        errs = []
        for h in (1e-3, 1e-4):
            g = S.point(sp, sigma, h)
            errs.append(abs((F.frechet_value(sp, mu, g) - f0) / h - d))
        # difference quotient error is O(h): exactly h/2 along a ray
        assert errs[0] <= 1e-3 and errs[1] <= 1e-4
        del tip


def test_derivative_profile(spider3, thirds):
    prof = F.derivative_profile(spider3, thirds)
    assert prof.min_value == 1 / 3
    assert prof.argmin == 0
    assert set(prof.directions) >= {0, 1, 2}
    assert prof.lipschitz == pytest.approx(1.0, abs=1e-15)
    for c1, v1 in zip(prof.directions, prof.values):
        for c2, v2 in zip(prof.directions, prof.values):
            ang = min(S.direction_distance(spider3.directions, c1, c2), PI)
            assert abs(v1 - v2) <= prof.lipschitz * ang + 1e-12


def test_pull_ratio_conventions():
    assert F.pull_ratio(0.7, 0.7, 0.0) == 1.0
    assert F.pull_ratio(0.0, 0.0, 1.3) == 1.0
    assert F.pull_ratio(PI / 2, PI / 2, PI / 2) == pytest.approx(math.sqrt(2))
    # close points keep their ratio: at colatitude a and small theta it
    # tends to a / sin a, where an acos arc loses every digit
    for a in (0.3, 1.0, 2.5):
        for theta in (1e-4, 1e-6, 1e-8):
            assert F.pull_ratio(a, a, theta) == pytest.approx(a / math.sin(a), rel=1e-7)


def _pull_ratio_grid_max(eps: float, grid: int, haversine: bool) -> float:
    """Largest chord-to-arc ratio over a grid x grid x grid sweep of a, b in
    [0, pi - eps] and theta in [0, pi], with the arc from acos or from the
    haversine formula."""
    axis = np.linspace(0.0, PI - eps, grid)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    best = 1.0
    for theta in np.linspace(0.0, PI, grid):
        half = math.sin(theta / 2.0) ** 2
        num = np.sqrt((aa - bb) ** 2 + 4.0 * aa * bb * half)
        if haversine:
            hav = np.sin((aa - bb) / 2.0) ** 2 + np.sin(aa) * np.sin(bb) * half
            den = 2.0 * np.arcsin(np.sqrt(np.minimum(hav, 1.0)))
        else:
            den = np.arccos(np.clip(np.sin(aa) * np.sin(bb) * math.cos(theta)
                                    + np.cos(aa) * np.cos(bb), -1.0, 1.0))
        psi = np.where(den < 1e-12, 1.0, num / np.maximum(den, 1e-300))
        best = max(best, float(psi.max()))
    return best


def test_c_kappa_epsilon():
    assert F.c_kappa_epsilon(-1.0, 0.4) == 1.0
    assert F.c_kappa_epsilon(0.0, 1.0) == 1.0
    value = F.c_kappa_epsilon(1.0, PI / 2)
    assert value >= math.sqrt(2) - 1e-9
    assert value == pytest.approx(PI / 2, rel=1e-6)
    assert value >= _pull_ratio_grid_max(PI / 2, 101, haversine=False)
    # eps = 1: the closed-form boundary value dominates the grid
    value2 = F.c_kappa_epsilon(2.5, 1.0)
    assert value2 >= (PI - 1.0) / math.sin(1.0) - 1e-12
    assert value2 >= _pull_ratio_grid_max(1.0, 81, haversine=False)
    assert value2 >= 1.0
    # the grid sweep is the oracle for the closed form, also beyond the
    # convex radius pi / 2 where the docstring's argument does not reach
    for eps in (0.05, 0.2, 0.5, 1.0, PI / 2, 1.5, 2.5, 3.0):
        for haversine in (False, True):
            assert F.c_kappa_epsilon(1.0, eps) >= _pull_ratio_grid_max(
                eps, 81, haversine), (eps, haversine)
    with pytest.raises(ValueError):
        F.c_kappa_epsilon(1.0, 0.0)
    with pytest.raises(ValueError):
        F.c_kappa_epsilon(1.0, PI)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.0, 1.0))
def test_pull_bounded_by_radius(radius, frac):
    sp = S.kale(2.6 * PI)
    z = S.point(sp, frac * sp.directions.alpha, radius)
    val = F.pull(sp, 0.0, z)
    assert abs(val) <= radius + 1e-15
