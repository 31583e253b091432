"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers.  Run under pytest, or directly:

    python tests/test_acceptance.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, str(Path(__file__).parent))
import gen  # noqa: E402

from stickygeom import asymptotics as A  # noqa: E402
from stickygeom import frechet as F  # noqa: E402
from stickygeom import spaces as S  # noqa: E402
from stickygeom import stickiness as ST  # noqa: E402
from stickygeom import transport as T  # noqa: E402

PI = math.pi

SPIDER3 = S.spider(3)
THIRDS = S.measure(SPIDER3, [((j, 1.0), 1 / 3) for j in range(3)])


# ---------------------------------------------------------------------------
# criterion 1: closed-form cone mean vs a dense-grid brute force
# ---------------------------------------------------------------------------

def _direction_grid(sp, n_dirs):
    ds = sp.directions
    if isinstance(ds, S.FiniteDirections):
        return list(range(ds.size))
    if isinstance(ds, S.CircleDirections):
        return [float(t) for t in np.linspace(0.0, ds.alpha, n_dirs,
                                              endpoint=False)]
    per_edge = max(8, n_dirs // len(ds.edges))
    out = []
    for eid, (_u, _v, length) in enumerate(ds.edges):
        out.extend((eid, float(t)) for t in np.linspace(0.0, length, per_edge))
    return out


def _brute_force_min_value(sp, mu, n_dirs=720, rounds=8):
    """Brute-force minimizer of the Frechet function built purely from metric
    evaluations (vectorized law-of-cosines distances).

    Along any fixed direction the Frechet function is a quadratic in the
    radius, so evaluations at three radii pin down the exact ray minimum;
    what remains is a dense direction grid with local refinement of every
    directional basin.  All basins are refined together: each round
    evaluates a (seeds x 9) stencil as one batch."""
    ds = sp.directions
    pts = mu.points()
    w = np.asarray(mu.weights())
    radii = np.asarray([p.radius for p in pts])
    rmax = float(radii.max()) + 1e-12
    rho = max(rmax / 2.0, 1e-6)

    def f_batch(ang: np.ndarray, r: float) -> np.ndarray:
        # 0.5 * sum_i w_i d((d, r), z_i)^2 for each row of capped angles
        d2 = r * r + radii ** 2 - 2.0 * r * radii * np.cos(np.minimum(ang, PI))
        return 0.5 * (d2 @ w)

    def ray_min_batch(ang: np.ndarray) -> np.ndarray:
        c = f_batch(ang, 0.0)
        f1 = f_batch(ang, rho)
        f2 = f_batch(ang, 2.0 * rho)
        a = (f2 - 2.0 * f1 + c) / (2.0 * rho * rho)
        b = (4.0 * f1 - f2 - 3.0 * c) / (2.0 * rho)
        return np.where(b >= 0.0, c, c - b * b / (4.0 * a))

    def circle_ang(thetas: np.ndarray) -> np.ndarray:
        atom_t = np.array([p.direction if p.radius > 0 else 0.0 for p in pts])
        raw = np.abs(thetas[:, None] - atom_t[None, :]) % ds.alpha
        return np.minimum(raw, ds.alpha - raw)

    def graph_ang(eid: int, offs: np.ndarray) -> np.ndarray:
        u, v, length = ds.edges[eid]
        ra = np.array([ds.vertex_to_coord(u, p.direction) if p.radius > 0 else 0.0
                       for p in pts])
        rb = np.array([ds.vertex_to_coord(v, p.direction) if p.radius > 0 else 0.0
                       for p in pts])
        out = np.minimum(ra[None, :] + offs[:, None],
                         rb[None, :] + (length - offs[:, None]))
        for i, p in enumerate(pts):
            if p.radius > 0 and isinstance(p.direction, tuple) \
                    and p.direction[0] == eid:
                out[:, i] = np.minimum(out[:, i], np.abs(offs - p.direction[1]))
        return out

    def refine(d0: np.ndarray, h: float, ang_of, clip=None) -> float:
        # `rounds` rounds of a 9-point stencil around every seed at once;
        # each seed moves to its stencil minimum and the stencil shrinks 4x
        best = math.inf
        rows = np.arange(len(d0))
        for _ in range(rounds):
            cands = d0[:, None] + np.linspace(-h, h, 9)
            if clip is not None:
                cands = np.clip(cands, 0.0, clip)
            # one (9, atoms) block per seed, so each stencil's sums run as
            # in a one-seed batch
            cvals = ray_min_batch(ang_of(cands.ravel()).reshape(*cands.shape, len(pts)))
            k = np.argmin(cvals, axis=1)
            d0 = cands[rows, k]
            best = min(best, float(cvals[rows, k].min(initial=math.inf)))
            h /= 4.0
        return best

    if isinstance(ds, S.FiniteDirections):
        ang = np.array([[min(ds.distance(g, p.direction), PI)
                         if p.radius > 0 else 0.0 for p in pts]
                        for g in range(ds.size)])
        return float(ray_min_batch(ang).min())

    if isinstance(ds, S.CircleDirections):
        thetas = np.linspace(0.0, ds.alpha, n_dirs, endpoint=False)
        vals = ray_min_batch(circle_ang(thetas))
        best = float(vals.min())
        n = len(thetas)
        h0 = ds.alpha / n_dirs
        seeds = [g for g in range(n)
                 if vals[g] <= vals[(g - 1) % n] and vals[g] <= vals[(g + 1) % n]]
        return min(best, refine(thetas[seeds], h0, circle_ang))

    best = math.inf
    per_edge = max(12, n_dirs // len(ds.edges))
    for eid, (_u, _v, length) in enumerate(ds.edges):
        offs = np.linspace(0.0, length, per_edge)
        vals = ray_min_batch(graph_ang(eid, offs))
        best = min(best, float(vals.min()))
        seeds = [k for k in range(per_edge)
                 if vals[k] <= (vals[k - 1] if k > 0 else math.inf)
                 and vals[k] <= (vals[k + 1] if k + 1 < per_edge else math.inf)]
        best = min(best, refine(offs[seeds], length / (per_edge - 1),
                                lambda o, e=eid: graph_ang(e, o), clip=length))
    return best


def criterion_1():
    rng = np.random.default_rng(1001)
    variants = [
        ("spider3", lambda: SPIDER3),
        ("spider4", lambda: S.spider(4)),
        ("finite", lambda: gen.random_finite_cone(rng)),
        ("kale", lambda: S.kale(float(rng.uniform(2 * PI + 0.2, 3.5 * PI)))),
        ("plane", lambda: S.kale(2 * PI)),
        ("petersen", S.petersen_cone),
    ]
    worst = 0.0
    for name, make in variants:
        count = 200 if name != "petersen" else 60
        for _ in range(count):
            sp = make()
            mu = gen.random_measure(sp, rng, max_atoms=8, rmax=1.5)
            mean = F.cone_mean(sp, mu)
            implemented = F.frechet_value(sp, mu, mean)
            oracle = _brute_force_min_value(sp, mu)
            gap = abs(implemented - oracle)
            assert implemented <= oracle + 1e-9, (name, implemented, oracle)
            assert gap <= 1e-6, (name, gap)
            worst = max(worst, gap)
    return f"max |F(cone_mean) - grid minimum| = {worst:.3g} <= 1e-6"


def test_criterion_1_cone_mean_oracle():
    print("ACCEPTANCE 1 PASS:", criterion_1())


# ---------------------------------------------------------------------------
# criterion 2: spider stickiness fixture
# ---------------------------------------------------------------------------

def criterion_2():
    rep = ST.classify(SPIDER3, THIRDS)
    assert rep.c_min == 1 / 3, rep.c_min
    y = S.point(SPIDER3, 0, 2.0)
    t_star = ST.perturbation_threshold(SPIDER3, THIRDS, y)
    assert abs(t_star - 1 / 7) <= 1e-12, t_star
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        c = ST.classify(SPIDER3, T.perturbed_measure(SPIDER3, THIRDS, y, mid),
                        tol=0.0).c_min
        if c >= 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(t_star - lo) <= 1e-10, (t_star, lo)
    return f"c_min = {rep.c_min} (= 1/3), threshold = {t_star} (= 1/7 +- 1e-12)"


def test_criterion_2_spider_fixture():
    print("ACCEPTANCE 2 PASS:", criterion_2())


# ---------------------------------------------------------------------------
# criterion 3: four-flavor equivalence, statistically
# ---------------------------------------------------------------------------

def criterion_3():
    rng = np.random.default_rng(3003)
    sticky = [gen.sticky_spider_measure(rng) for _ in range(25)] \
        + [gen.sticky_kale_measure(rng) for _ in range(25)]
    nonsticky = [gen.nonsticky_spider_measure(rng) for _ in range(25)] \
        + [gen.nonsticky_kale_measure(rng) for _ in range(25)]
    worst_freq = 0.0
    for i, (sp, mu) in enumerate(sticky):
        rep = ST.classify(sp, mu)
        assert rep.label == "sticky", (i, rep.label)
        for j in range(20):
            y = gen.random_point(sp, rng, rmax=1.5, allow_apex=False)
            t = ST.perturbation_threshold(sp, mu, y)
            assert t > 0.0, (i, j, t)
        res = ST.sample_sticking(sp, mu, 200, 10000, seed=50_000 + i)
        assert res.p_hat < 0.01, (i, res.p_hat)
        worst_freq = max(worst_freq, res.p_hat)
    for i, (sp, mu) in enumerate(nonsticky):
        rep = ST.classify(sp, mu)
        assert rep.label == "nonsticky", (i, rep.label)
        assert rep.mean.radius > 0.0, i
        y = gen.random_point(sp, rng, allow_apex=False)
        assert ST.perturbation_threshold(sp, mu, y) == 0.0, i
        res = ST.sample_sticking(sp, mu, 200, 10000, seed=60_000 + i)
        assert res.p_hat > 0.5, (i, res.p_hat)
    return (f"50 sticky + 50 nonsticky classified with zero mismatches; "
            f"worst sticky non-sticking frequency {worst_freq:.2g} < 0.01")


def test_criterion_3_flavor_equivalence():
    print("ACCEPTANCE 3 PASS:", criterion_3())


# ---------------------------------------------------------------------------
# criterion 4: exact multinomial sampling oracle
# ---------------------------------------------------------------------------

def criterion_4():
    details = []
    for n, seed in ((5, 41), (21, 42), (101, 43)):
        exact = float(3 * stats.binom.sf(n // 2, n, 1 / 3))
        if n == 5:
            assert abs(exact - 153 / 243) <= 1e-12
        assert abs(ST.exact_nonstick_probability(SPIDER3, THIRDS, n)
                   - exact) <= 1e-10
        res = ST.sample_sticking(SPIDER3, THIRDS, n, 10000, seed)
        se = math.sqrt(exact * (1 - exact) / res.trials)
        dev = abs(res.p_hat - exact)
        assert dev <= 3 * se, (n, res.p_hat, exact, se)
        details.append(f"n={n}: |{res.p_hat:.4f} - {exact:.4f}| = "
                       f"{dev / se:.2f} se")
    return "; ".join(details)


def test_criterion_4_exact_sampling_oracle():
    print("ACCEPTANCE 4 PASS:", criterion_4())


# ---------------------------------------------------------------------------
# criterion 5: transport oracles and flavor inequalities
# ---------------------------------------------------------------------------

def criterion_5():
    rng = np.random.default_rng(5005)
    worst_gap = 0.0
    for i in range(500):
        k = int(rng.integers(3, 6))
        sp = S.spider(k)
        p = gen.random_measure(sp, rng, max_atoms=8, rmax=2.0)
        q = gen.random_measure(sp, rng, max_atoms=8, rmax=2.0)
        w1 = T.w1_tree(sp, p, q)
        lp = T.wq_lp(sp, p, q, 1.0)
        worst_gap = max(worst_gap, abs(w1 - lp))
        assert abs(w1 - lp) <= 1e-9, (i, w1, lp)
        tv = T.f_divergence(sp, p, q, T.TOTAL_VARIATION)
        diam = T.support_diameter(sp, p, q)
        assert w1 <= diam * tv + 1e-9, i
        assert w1 <= T.wq_lp(sp, p, q, 2.0) + 1e-9, i
    return (f"500 instances: max |w1_tree - LP| = {worst_gap:.2g} <= 1e-9; "
            "W1 <= diam*TV and W1 <= W2 everywhere")


def test_criterion_5_transport_oracles():
    print("ACCEPTANCE 5 PASS:", criterion_5())


# ---------------------------------------------------------------------------
# criterion 6: perturbed-divergence closed form
# ---------------------------------------------------------------------------

def criterion_6():
    y = S.point(SPIDER3, 0, 2.0)
    with_mass = S.measure(
        SPIDER3, [(y, 0.2), ((1, 1.0), 0.4), ((2, 1.0), 0.4)])
    worst = 0.0
    for kind in T.BUILTIN_DIVERGENCES.values():
        for t in (0.01, 0.1, 0.5):
            for mu, wy in ((THIRDS, 0.0), (with_mass, 0.2)):
                closed = T.perturbed_divergence(SPIDER3, mu, y, t, kind)
                direct = T.f_divergence(
                    SPIDER3, mu, T.perturbed_measure(SPIDER3, mu, y, t), kind)
                gap = abs(closed - direct)
                assert gap <= 1e-12, (kind.name, t, wy, gap)
                worst = max(worst, gap)
    return (f"4 generators x t in (0.01, 0.1, 0.5) x w_y in (0, 0.2): "
            f"max |closed - direct| = {worst:.2g} <= 1e-12")


def test_criterion_6_perturbed_divergence():
    print("ACCEPTANCE 6 PASS:", criterion_6())


# ---------------------------------------------------------------------------
# criterion 7: modulation dichotomy
# ---------------------------------------------------------------------------

def criterion_7():
    plane = S.kale(2 * PI)
    four = S.measure(plane, [((k * PI / 2, 1.0), 0.25) for k in range(4)])
    plane_vals = []
    for n, seed in ((50, 71), (200, 72), (800, 73)):
        est = A.modulation(plane, four, n, 2.0, 10000, seed)
        assert 0.9 <= est.m_hat <= 1.1, (n, est.m_hat)
        plane_vals.append(est.m_hat)
    exact = A.modulation(SPIDER3, THIRDS, 200, 2.0, 0, 0)
    assert exact.exact and exact.m_hat < 0.01, exact.m_hat
    mc = A.modulation(SPIDER3, THIRDS, 101, 2.0, 20000, 74, method="mc")
    ref = A.modulation(SPIDER3, THIRDS, 101, 2.0, 0, 0)
    assert abs(mc.m_hat - ref.m_hat) <= 3 * mc.se + 1e-12, (mc.m_hat, ref.m_hat)
    return (f"plane m_hat = {plane_vals[0]:.3f}/{plane_vals[1]:.3f}/"
            f"{plane_vals[2]:.3f} in [0.9, 1.1]; sticky spider m_hat(200) = "
            f"{exact.m_hat:.2e} < 0.01 (exact enumeration)")


def test_criterion_7_modulation_dichotomy():
    print("ACCEPTANCE 7 PASS:", criterion_7())


# ---------------------------------------------------------------------------
# criterion 8: CLT for directions
# ---------------------------------------------------------------------------

def criterion_8():
    ana = A.clt_covariance(SPIDER3, THIRDS, [0, 1, 2])
    expect_centered = np.full((3, 3), -4 / 9)
    np.fill_diagonal(expect_centered, 8 / 9)
    assert np.allclose(ana.centered_form, expect_centered, atol=1e-14)
    sim = A.clt_simulate(SPIDER3, THIRDS, [0, 1, 2], 500, 10000, 88)
    dev = np.abs(sim.covariance - ana.centered_form)
    assert (dev <= 4 * sim.se).all(), dev / sim.se
    assert ana.max_discrepancy == pytest.approx(1 / 9, abs=1e-14)
    return (f"empirical covariance within "
            f"{float((dev / sim.se).max()):.2f} se of the centered form "
            f"(diag 8/9, off -4/9); paper-vs-centered discrepancy "
            f"{ana.max_discrepancy:.4f} reported")


def test_criterion_8_clt():
    print("ACCEPTANCE 8 PASS:", criterion_8())


# ---------------------------------------------------------------------------
# criterion 9: Lipschitz and NPC property suites
# ---------------------------------------------------------------------------

def criterion_9():
    rng = np.random.default_rng(9009)
    suites = {
        "spider4": S.spider(4),
        "kale": S.kale(2.5 * PI),
        "plane": S.kale(2 * PI),
        "petersen": S.petersen_cone(),
    }
    for name, sp in suites.items():
        for _ in range(10000):
            sigma = gen.random_direction(sp, rng)
            z = gen.random_point(sp, rng)
            y = gen.random_point(sp, rng)
            gap = abs(F.pull(sp, sigma, z) - F.pull(sp, sigma, y))
            assert gap <= S.cone_distance(sp, z, y) + 1e-12, name
    sp = S.spider(4)
    for i in range(10000):
        p = gen.random_measure(sp, rng, max_atoms=5)
        q = gen.random_measure(sp, rng, max_atoms=5)
        sup = max(abs(F.directional_derivative(sp, p, j)
                      - F.directional_derivative(sp, q, j)) for j in range(4))
        assert sup <= T.w1_tree(sp, p, q) + 1e-9, i
    for name, sp in suites.items():
        for _ in range(10000 // 3):
            x, y, z = (gen.random_point(sp, rng) for _ in range(3))
            dxy = S.cone_distance(sp, x, y)
            for t in (0.25, 0.5, 0.75):
                g = S.geodesic_point(sp, x, y, t)
                lhs = S.cone_distance(sp, z, g) ** 2
                rhs = (1 - t) * S.cone_distance(sp, z, x) ** 2 \
                    + t * S.cone_distance(sp, z, y) ** 2 \
                    - (1 - t) * t * dxy ** 2
                assert lhs <= rhs + 1e-9, name
    return ("pull 1-Lipschitz, |deriv(P) - deriv(Q)| <= W1, and the NPC "
            "inequality (C = 1) over 1e4 samples per space")


def test_criterion_9_lipschitz_and_npc():
    print("ACCEPTANCE 9 PASS:", criterion_9())


# ---------------------------------------------------------------------------
# criterion 10: prismatic gate
# ---------------------------------------------------------------------------

def criterion_10():
    prismatic = [S.spider_directions(3), S.spider_directions(4),
                 S.spider_directions(5), S.circle_directions(2 * PI + 0.1),
                 S.circle_directions(3 * PI), S.petersen_directions()]
    for ds in prismatic:
        assert S.is_prismatic(ds), ds
    non_prismatic = [S.circle_directions(2 * PI), S.spider_directions(2),
                     S.circle_directions(5.0)]
    for ds in non_prismatic:
        assert not S.is_prismatic(ds), ds
    rng = np.random.default_rng(1010)
    for ds in non_prismatic:
        sp = S.Cone(ds)
        for i in range(100):
            mu = gen.random_measure(sp, rng, max_atoms=6)
            rep = ST.classify(sp, mu)
            assert rep.label != "sticky", (ds, i, rep.c_min)
    return ("prismatic: spiders K>=3, kales alpha>2pi, Petersen; "
            "non-prismatic: plane, 2-spider, short circle — 300 random "
            "measures on those, none sticky")


def test_criterion_10_prismatic_gate():
    print("ACCEPTANCE 10 PASS:", criterion_10())


if __name__ == "__main__":
    failures = 0
    for num, fn in enumerate([criterion_1, criterion_2, criterion_3,
                              criterion_4, criterion_5, criterion_6,
                              criterion_7, criterion_8, criterion_9,
                              criterion_10], start=1):
        try:
            detail = fn()
            print(f"ACCEPTANCE {num} PASS: {detail}")
        except AssertionError as exc:
            failures += 1
            print(f"ACCEPTANCE {num} FAIL: {exc}")
    sys.exit(1 if failures else 0)
