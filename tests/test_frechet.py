import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom._mc import resample_counts
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


def test_c_kappa_epsilon():
    assert F.c_kappa_epsilon(-1.0, 0.4) == 1.0
    assert F.c_kappa_epsilon(0.0, 1.0) == 1.0
    rep = F.c_kappa_epsilon_report(1.0, PI / 2, grid=101)
    assert rep.value >= math.sqrt(2) - 1e-9
    assert rep.value == pytest.approx(PI / 2, rel=1e-6)
    assert rep.value >= rep.grid_value
    # eps = 1: the closed-form boundary candidate dominates the grid
    rep2 = F.c_kappa_epsilon_report(2.5, 1.0, grid=81)
    assert rep2.value >= (PI - 1.0) / math.sin(1.0) - 1e-12
    assert rep2.value >= 1.0
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
