import math
import time

import numpy as np
import pytest

import gen
from stickygeom import asymptotics as A
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom import stickiness as ST
from stickygeom.directions import build_system

PI = math.pi


@pytest.fixture(scope="module")
def spider3():
    return S.spider(3)


@pytest.fixture(scope="module")
def thirds(spider3):
    return S.measure(spider3, [((j, 1.0), 1 / 3) for j in range(3)])


@pytest.fixture(scope="module")
def plane_four():
    plane = S.kale(2 * PI)
    return plane, S.measure(plane, [((k * PI / 2, 1.0), 0.25) for k in range(4)])


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def test_plane_modulation_is_one(plane_four):
    plane, four = plane_four
    for n in (50, 200):
        est = A.modulation(plane, four, n, 2.0, 8000, 7, method="mc")
        assert abs(est.m_hat - 1.0) <= 4 * est.se + 0.02
        assert not est.exact
        # auto enumerates the plane's resamples: modulation 1 to rounding
        est = A.modulation(plane, four, n, 2.0, 8000, 7)
        assert est.exact and abs(est.m_hat - 1.0) <= 1e-12


def test_sticky_modulation_decays(spider3, thirds):
    est = A.modulation(spider3, thirds, 200, 2.0, 0, 0)
    assert est.exact and est.se == 0.0
    assert est.m_hat < 0.01
    small = A.modulation(spider3, thirds, 20, 2.0, 0, 0)
    assert small.m_hat > est.m_hat


def test_modulation_exact_vs_mc(spider3, thirds):
    exact = A.modulation(spider3, thirds, 21, 2.0, 0, 0)
    mc = A.modulation(spider3, thirds, 21, 2.0, 20000, 9, method="mc")
    assert abs(mc.m_hat - exact.m_hat) <= 3 * mc.se
    q1 = A.modulation(spider3, thirds, 200, 1.0, 0, 0)
    assert q1.m_hat < 0.01


def test_modulation_validation(spider3, thirds):
    apex_mass = S.dirac(spider3, S.cone_point(spider3))
    with pytest.raises(ValueError, match="denominator"):
        A.modulation(spider3, apex_mass, 10, 2.0, 100, 1)
    off_center = S.dirac(spider3, S.point(spider3, 0, 1.0))
    with pytest.raises(ValueError, match="off the cone point"):
        A.modulation(spider3, off_center, 10, 2.0, 100, 1)
    with pytest.raises(ValueError, match="order"):
        A.modulation(spider3, thirds, 10, 0.5, 100, 1)


def test_empty_samples_are_rejected(spider3, thirds):
    """n = 0 has no sample mean: every modulation method refuses it, and so
    does the exact enumeration, instead of returning nan or 0."""
    calls = [lambda m=m: A.modulation(spider3, thirds, 0, 2.0, 10, 1, method=m)
             for m in A.MODULATION_METHODS]
    calls += [lambda: ST.exact_nonstick_probability(spider3, thirds, 0),
              lambda: ST.exact_mean_distance_moment(spider3, thirds, 0, 2.0)]
    for call in calls:
        with pytest.raises(ValueError, match="sample size must be positive"):
            call()


def test_modulation_checks_the_method_first(spider3, monkeypatch):
    """An unknown method is named as such before any geometry runs, even on
    a measure whose mean is off the cone point."""
    monkeypatch.setattr(A, "build_system", None)  # any geometry call fails
    off_center = S.dirac(spider3, S.point(spider3, 0, 1.0))
    with pytest.raises(ValueError, match="unknown modulation method 'bogus'"):
        A.modulation(spider3, off_center, 10, 2.0, 100, 1, method="bogus")


def test_modulation_reproducible(plane_four):
    plane, four = plane_four
    a = A.modulation(plane, four, 60, 2.0, 4000, 123, method="mc")
    b = A.modulation(plane, four, 60, 2.0, 4000, 123, method="mc")
    c = A.modulation(plane, four, 60, 2.0, 4000, 123, method="mc", threads=4)
    assert a == b == c


def test_wide_spider_modulation_falls_back_fast():
    """Four atoms at n = 400 on a 200-leg spider are 10.8 million resamples
    with 200 candidates each: past ENUMERATION_WORK, so auto takes Monte
    Carlo at once instead of enumerating them."""
    sp = S.spider(200)
    mu = S.measure(sp, [((j, 1.0), 0.25) for j in (0, 50, 100, 150)])
    start = time.perf_counter()
    est = A.modulation(sp, mu, 400, 2.0, 2000, 3)
    assert not est.exact
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="exceeds ENUMERATION_WORK"):
        A.modulation(sp, mu, 400, 2.0, 2000, 3, method="exact")
    # on four legs the same measure is the largest case the bound admits
    legs4 = S.spider(4)
    mu4 = S.measure(legs4, [((j, 1.0), 0.25) for j in range(4)])
    assert ST.enumeration_work(build_system(legs4, mu4), 400) == ST.ENUMERATION_WORK


def test_tangent_bound_is_identity_on_cones():
    rng = np.random.default_rng(15)
    for _ in range(80):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=6)
        _, c = F.min_directional_derivative(sp, mu)
        mean = F.cone_mean(sp, mu)
        assert S.cone_distance(sp, S.cone_point(sp), mean) \
            == max(0.0, -min(c, 0.0))


# ---------------------------------------------------------------------------
# CLT
# ---------------------------------------------------------------------------

def test_clt_covariance_fixture(spider3, thirds):
    cov = A.clt_covariance(spider3, thirds, [0, 1, 2])
    expect_paper = np.full((3, 3), -1 / 3)
    np.fill_diagonal(expect_paper, 1.0)
    expect_centered = np.full((3, 3), -4 / 9)
    np.fill_diagonal(expect_centered, 8 / 9)
    assert np.allclose(cov.paper_form, expect_paper, atol=1e-14)
    assert np.allclose(cov.centered_form, expect_centered, atol=1e-14)
    assert cov.max_discrepancy == pytest.approx(1 / 9, abs=1e-14)


def test_clt_covariance_edge_cases(spider3):
    apex = S.dirac(spider3, S.cone_point(spider3))
    cov = A.clt_covariance(spider3, apex, [0, 1, 2])
    assert np.allclose(cov.paper_form, 0.0) and np.allclose(cov.centered_form, 0.0)
    single = A.clt_covariance(
        spider3, S.dirac(spider3, S.point(spider3, 0, 1.5)), [0])
    assert single.paper_form[0, 0] == pytest.approx(2.25, abs=1e-15)
    assert single.centered_form[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_clt_centered_form_psd():
    rng = np.random.default_rng(21)
    for _ in range(40):
        sp = gen.random_cat0_space(rng)
        mu = gen.random_measure(sp, rng, max_atoms=5)
        grid = [gen.random_direction(sp, rng) for _ in range(4)]
        cov = A.clt_covariance(sp, mu, grid)
        assert np.allclose(cov.paper_form, cov.paper_form.T)
        assert np.allclose(cov.centered_form, cov.centered_form.T)
        assert np.linalg.eigvalsh(cov.centered_form).min() >= -1e-10


def test_clt_simulation_matches_centered(spider3, thirds):
    ana = A.clt_covariance(spider3, thirds, [0, 1, 2])
    sim = A.clt_simulate(spider3, thirds, [0, 1, 2], 500, 6000, 11)
    dev = np.abs(sim.covariance - ana.centered_form)
    assert (dev <= 4.5 * sim.se).all()
    # and visibly differs from the uncentered published form off-diagonal
    off = np.abs(sim.covariance[0, 1] - ana.paper_form[0, 1])
    assert off > 5 * sim.se[0, 1]


def test_clt_marginal_variances(spider3, thirds):
    sim = A.clt_simulate(spider3, thirds, [0, 1, 2], 400, 6000, 13)
    w = np.asarray(thirds.weights())
    for g in range(3):
        pulls = np.array([F.pull(spider3, g, z) for z in thirds.points()])
        var = float(w @ pulls ** 2 - (w @ pulls) ** 2)
        assert abs(sim.covariance[g, g] - var) <= 4 * sim.se[g, g]


def test_clt_simulation_degenerate(spider3):
    mu = S.dirac(spider3, S.point(spider3, 0, 1.0))
    sim = A.clt_simulate(spider3, mu, [0, 1, 2], 50, 100, 3)
    assert np.abs(sim.covariance).max() == 0.0


def test_clt_simulation_reproducible(spider3, thirds):
    a = A.clt_simulate(spider3, thirds, [0, 1], 100, 3000, 5)
    b = A.clt_simulate(spider3, thirds, [0, 1], 100, 3000, 5, threads=3)
    assert np.array_equal(a.covariance, b.covariance)


# ---------------------------------------------------------------------------
# decay fit
# ---------------------------------------------------------------------------

def test_decay_fit_exact_exponential():
    pts = [(n, math.exp(-0.1 * n)) for n in (10, 20, 40, 80, 160)]
    assert A.decay_fit(pts) == pytest.approx(-0.1, abs=1e-12)


def test_decay_fit_two_points():
    slope = A.decay_fit([(10, 0.5), (20, 0.25)])
    assert slope == pytest.approx(math.log(0.5) / 10, abs=1e-15)


def test_decay_fit_edge_cases():
    assert A.decay_fit([(10, 0.0), (20, 0.0)]) == -math.inf
    with pytest.raises(ValueError):
        A.decay_fit([(10, 0.5), (20, 0.0)])
