import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gen
from stickygeom import asymptotics as A
from stickygeom import cli
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom import stickiness as ST
from stickygeom import transport as T
from stickygeom._mc import CHUNK

PI = math.pi


@pytest.fixture(scope="module")
def spider3():
    return S.spider(3)


@pytest.fixture(scope="module")
def thirds(spider3):
    return S.measure(spider3, [((j, 1.0), 1 / 3) for j in range(3)])


def exact_symmetric_nonstick(n: int) -> float:
    """P(some leg count exceeds n/2) for the uniform 3-leg multinomial; two
    legs can never both exceed n/2, so the union is a disjoint sum."""
    return float(3.0 * stats.binom.sf(math.floor(n / 2), n, 1 / 3))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_fixtures(spider3, thirds):
    rep = ST.classify(spider3, thirds)
    assert rep.label == "sticky"
    assert rep.c_min == 1 / 3
    assert rep.pull_condition
    assert rep.mean.radius == 0.0
    bnd = ST.classify(spider3, S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.5)]))
    assert bnd.label == "boundary" and bnd.c_min == pytest.approx(0.0, abs=1e-15)
    plane = S.kale(2 * PI)
    ns = ST.classify(plane, S.dirac(plane, S.point(plane, 0.0, 1.0)))
    assert ns.label == "nonsticky"
    assert ns.mean == S.point(plane, 0.0, 1.0)


def test_classify_derivative_table(spider3, thirds):
    rep = ST.classify(spider3, thirds)
    table = dict(rep.derivatives)
    assert table[0] == table[1] == table[2] == 1 / 3


def test_open_book_classification():
    bk = S.open_book(3, 2)
    thirds = S.measure(bk, [(S.point(bk, j, 1.0, (0.0,)), 1 / 3) for j in range(3)])
    rep = ST.classify(bk, thirds)
    assert rep.label == "sticky"
    assert rep.c_min == pytest.approx(1 / 3, abs=1e-15)
    assert rep.mean.radius == 0.0 and rep.mean.euclidean == (0.0,)


def _counted_builds(monkeypatch) -> list:
    build = ST.build_system
    calls = []

    def counted(sp, mu):
        calls.append(sp)
        return build(sp, mu)

    # frechet too: a second solve through cone_mean would go through it
    monkeypatch.setattr(ST, "build_system", counted)
    monkeypatch.setattr(F, "build_system", counted)
    return calls


def test_classify_cone_solves_once(monkeypatch):
    calls = _counted_builds(monkeypatch)
    k = S.kale(2 * PI)
    mu = S.measure(k, [((0.0, 1.0), 0.7), ((2.0, 0.5), 0.3)])
    rep = ST.classify(k, mu)
    assert len(calls) == 1
    assert rep.label == "nonsticky"
    assert rep.mean == F.cone_mean(k, mu)


def test_classify_open_book_solves_once(monkeypatch):
    calls = _counted_builds(monkeypatch)
    bk = S.open_book(3, 2)
    mu = S.measure(bk, [(S.point(bk, 0, 1.0, (0.5,)), 0.7),
                        (S.point(bk, 1, 0.5, (-1.0,)), 0.3)])
    rep = ST.classify(bk, mu)
    assert len(calls) == 1
    assert rep.label == "nonsticky"
    assert rep.mean == F.open_book_mean(bk, mu)


# ---------------------------------------------------------------------------
# folded moments
# ---------------------------------------------------------------------------

def test_folded_moments_fixture():
    bk = S.open_book(3, 2)
    thirds = S.measure(bk, [(S.point(bk, j, 1.0, (0.0,)), 1 / 3) for j in range(3)])
    m = ST.folded_moments(bk, thirds)
    assert np.allclose(m, -1 / 3, atol=1e-15)
    single = S.measure(bk, [(S.point(bk, 0, 2.0, (0.0,)), 1.0)])
    assert list(ST.folded_moments(bk, single)) == [2.0, -2.0, -2.0]
    spine = S.measure(bk, [(S.point(bk, 0, 0.0, (1.0,)), 0.5),
                           (S.point(bk, 0, 0.0, (-2.0,)), 0.5)])
    assert np.allclose(ST.folded_moments(bk, spine), 0.0)


def test_folded_moments_are_negative_derivatives():
    bk = S.open_book(3, 2)
    rng = np.random.default_rng(7)
    for _ in range(30):
        mu = gen.random_measure(bk, rng, max_atoms=6)
        m = ST.folded_moments(bk, mu)
        marg = S.spider_marginal(bk, mu)
        for j in range(3):
            assert m[j] == pytest.approx(
                -F.directional_derivative(bk.spider, marg, j), abs=1e-15)


def test_kale_folded_moment(spider3):
    k = S.kale(3 * PI)
    kthirds = S.measure(k, [((i * PI, 1.0), 1 / 3) for i in range(3)])
    assert ST.kale_folded_moment(k, kthirds, 0.0) == pytest.approx(-1 / 3, abs=1e-15)
    delta = S.dirac(k, S.point(k, 0.0, 1.0))
    assert ST.kale_folded_moment(k, delta, 0.0) == 1.0
    theta, value = ST.max_kale_folded_moment(k, delta)
    assert value == 1.0 and theta == pytest.approx(0.0, abs=1e-12)


def test_kale_folded_moment_max_against_grid():
    alpha = 2 * PI + 0.2
    k = S.kale(alpha)
    mu = S.measure(k, [((i * alpha / 4, 1.0), 0.25) for i in range(4)])
    _, value = ST.max_kale_folded_moment(k, mu)
    grid = max(ST.kale_folded_moment(k, mu, t)
               for t in np.linspace(0.0, alpha, 10000, endpoint=False))
    assert value >= grid - 1e-12
    assert value <= grid + 1e-4


# ---------------------------------------------------------------------------
# pull condition
# ---------------------------------------------------------------------------

def test_pull_condition(spider3, thirds):
    assert ST.pull_condition(spider3, thirds)
    assert not ST.pull_condition(spider3, S.dirac(spider3, S.cone_point(spider3)))
    # all atoms at right angles from one direction on a circle
    plane = S.kale(2 * PI)
    perp = S.measure(plane, [((PI / 2, 1.0), 0.5), ((3 * PI / 2, 1.0), 0.5)])
    assert not ST.pull_condition(plane, perp)
    moved = S.measure(plane, [((PI / 2, 1.0), 0.5), ((3 * PI / 2 + 0.3, 1.0), 0.5)])
    assert ST.pull_condition(plane, moved)
    # finite cone with a right angle available
    sq = S.Cone(S.finite_directions([[0.0, PI / 2], [PI / 2, 0.0]]))
    assert not ST.pull_condition(sq, S.dirac(sq, S.point(sq, 1, 1.0)))


def test_pull_condition_spine_reduction():
    # conditioning the open-book example onto its spine kills every pull
    bk = S.open_book(3, 2)
    spine_only = S.measure(bk, [(S.point(bk, 0, 0.0, (h,)), 0.5) for h in (1.0, -1.0)])
    marg = S.spider_marginal(bk, spine_only)
    assert not ST.pull_condition(bk.spider, marg)


def test_pull_condition_graph():
    pet = S.petersen_cone()
    rng = np.random.default_rng(11)
    mu = gen.random_measure(pet, rng, max_atoms=4)
    assert ST.pull_condition(pet, mu) in (True, False)
    single = S.dirac(pet, S.point(pet, (0, 0.3), 1.0))
    # a lone atom always leaves a perpendicular direction on the Petersen cone
    assert not ST.pull_condition(pet, single)


def _dilated(sp, mu, s):
    return S.measure(sp, [(S.point(sp, z.direction, z.radius * s), w)
                          for z, w in mu.atoms])


@pytest.mark.parametrize("log2_scale", (-40, -30, 30, 40))
def test_certificates_are_invariant_under_dilation(log2_scale, spider3, thirds):
    """A dilation r -> s r about the apex maps a cone onto itself and scales
    every direction derivative by s, exactly when s is a power of two. So
    the label, the argmin and the threshold stay bit for bit, and c_min
    scales by s."""
    s = 2.0 ** log2_scale
    rep = ST.classify(spider3, _dilated(spider3, thirds, s))
    assert (rep.label, rep.c_min) == ("sticky", s / 3)
    # a mean off the apex is off it at every scale, so modulation refuses it
    off = S.measure(spider3, [((0, 2 * s), 0.6), ((1, s), 0.2), ((2, s), 0.2)])
    assert ST.classify(spider3, off).label == "nonsticky"
    with pytest.raises(ValueError, match="off the cone point"):
        A.modulation(spider3, off, 4, 1.0, 100, 0, method="mc")
    # nor does a geodesic snap to the apex at a scale-dependent radius
    kale = S.kale(3 * PI)
    x, y = S.point(kale, 0.0, 1.0), S.point(kale, 2.0, 1.0)
    mid = S.geodesic_point(kale, x, y, 0.5)
    x_s, y_s = S.point(kale, 0.0, s), S.point(kale, 2.0, s)
    mid_s = S.geodesic_point(kale, x_s, y_s, 0.5)
    assert (mid_s.direction, mid_s.radius) == (mid.direction, mid.radius * s)
    assert S.cone_distance(kale, x_s, mid_s) == S.cone_distance(kale, x, mid) * s
    rng = np.random.default_rng(5)
    for k in range(60):
        sp = gen.random_cat0_space(rng) if k % 2 else gen.random_tree_graph_cone(rng)
        mu = gen.random_measure(sp, rng)
        y = gen.random_point(sp, rng)
        grown = _dilated(sp, mu, s)
        y_grown = S.point(sp, y.direction, y.radius * s)
        a, b = ST.classify(sp, mu), ST.classify(sp, grown)
        assert (b.label, b.argmin_direction, b.c_min) == (a.label, a.argmin_direction,
                                                        a.c_min * s)
        assert ST.perturbation_threshold(sp, grown, y_grown) \
            == ST.perturbation_threshold(sp, mu, y)


# ---------------------------------------------------------------------------
# perturbation thresholds
# ---------------------------------------------------------------------------

def test_threshold_fixture(spider3, thirds):
    t = ST.perturbation_threshold(spider3, thirds, S.point(spider3, 0, 2.0))
    assert abs(t - 1 / 7) <= 1e-15


def test_threshold_matches_classification_bisection(spider3, thirds):
    rng = np.random.default_rng(13)
    cases = [(spider3, thirds, S.point(spider3, 0, 2.0))]
    k = S.kale(3 * PI)
    kthirds = S.measure(k, [((i * PI, 1.0), 1 / 3) for i in range(3)])
    cases.append((k, kthirds, S.point(k, 1.0, 1.5)))
    for _ in range(4):
        sp, mu = gen.sticky_kale_measure(rng)
        cases.append((sp, mu, gen.random_point(sp, rng, rmax=1.5,
                                               allow_apex=False)))
    for make in (lambda r: S.petersen_cone(), gen.random_tree_graph_cone,
                 lambda r: gen.random_cycle_graph_cone(r, 3 * PI, 4 * PI),
                 gen.random_finite_cone):
        for _ in range(2):
            sp, mu = gen.sticky_spread_measure(rng, make)
            cases.append((sp, mu, gen.random_point(sp, rng, rmax=1.5,
                                                   allow_apex=False)))
    # y on an atom of mu (spider, kale, Petersen, tree, finite): the mixture
    # merges them into one atom
    for sp, mu, _ in cases[::3]:
        cases.append((sp, mu, mu.atoms[0][0]))
    # a mixture at its own threshold is a boundary measure whose derivative
    # touches zero, often inside a piece; a y that pulls there unsticks it
    for sp, mu, y in cases[2:4] + cases[6:8]:
        nu = T.perturbed_measure(sp, mu, y, ST.perturbation_threshold(sp, mu, y))
        arg = ST.classify(sp, nu).argmin_direction
        near = arg + 0.3 if isinstance(arg, float) else (arg[0], 0.8 * arg[1])
        cases.append((sp, nu, S.point(sp, near, 1.0)))
    for sp, mu, y in cases:
        t_star = ST.perturbation_threshold(sp, mu, y)
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = (lo + hi) / 2
            rep = ST.classify(sp, T.perturbed_measure(sp, mu, y, mid), tol=0.0)
            if rep.c_min >= 0.0:
                lo = mid
            else:
                hi = mid
        assert t_star == pytest.approx(lo, abs=1e-10)


def test_threshold_builds_one_system(monkeypatch):
    calls = _counted_builds(monkeypatch)
    k = S.kale(3 * PI)
    kthirds = S.measure(k, [((i * PI, 1.0), 1 / 3) for i in range(3)])
    t = ST.perturbation_threshold(k, kthirds, S.point(k, 1.0, 1.5))
    assert len(calls) == 1
    assert 0.0 < t < 1.0


def test_threshold_edge_cases(spider3, thirds):
    bnd = S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.5)])
    assert ST.perturbation_threshold(spider3, bnd, S.point(spider3, 0, 1.0)) == 0.0
    assert ST.perturbation_threshold(spider3, thirds, S.cone_point(spider3)) == 1.0
    nonsticky = S.dirac(spider3, S.point(spider3, 0, 1.0))
    assert ST.perturbation_threshold(spider3, nonsticky,
                                     S.point(spider3, 1, 1.0)) == 0.0


def test_threshold_open_book():
    bk = S.open_book(3, 2)
    thirds = S.measure(bk, [(S.point(bk, j, 1.0, (0.0,)), 1 / 3) for j in range(3)])
    y = S.point(bk, 0, 1.0, (5.0,))
    # spine stickiness threshold ignores the height component
    t = ST.perturbation_threshold(bk, thirds, y)
    assert t == pytest.approx((1 / 3) / (1 / 3 + 1.0), abs=1e-15)
    spine_y = S.point(bk, 0, 0.0, (3.0,))
    assert ST.perturbation_threshold(bk, thirds, spine_y) == 1.0


def test_threshold_open_book_nonsticky_is_zero():
    bk = S.open_book(3, 2)
    mu = S.measure(bk, [(S.point(bk, 0, 1.0, (0.0,)), 0.8),
                        (S.point(bk, 1, 1.0, (0.0,)), 0.2)])
    rep = ST.classify(bk, mu)
    assert rep.label == "nonsticky"
    assert rep.mean.radius == pytest.approx(0.6, abs=1e-15)
    y = S.point(bk, 1, 1.0, (0.0,))
    assert ST.perturbation_threshold(bk, mu, y) == 0.0


def test_open_book_reduces_to_its_spider_marginal():
    """An open book is classified, and its threshold found, on its spider
    marginal; the derivative table is the per-page derivatives of the
    marginal and the argmin the first page attaining the smallest."""
    rng = np.random.default_rng(31)
    for k in range(200):
        bk = S.open_book(int(rng.integers(3, 7)), int(rng.integers(2, 4)))
        if k % 2:
            mu = gen.random_measure(bk, rng)
        else:  # equal mass on several pages, so their derivatives tie exactly
            r = float(rng.uniform(0.2, 2.0))
            pages = rng.choice(bk.pages, size=int(rng.integers(2, bk.pages + 1)),
                               replace=False)
            heights = rng.normal(size=(len(pages), bk.dim - 1))
            mu = S.measure(bk, [(S.point(bk, int(j), r, h), 1 / len(pages))
                                for j, h in zip(pages, heights)])
        marg = S.spider_marginal(bk, mu)
        rep, ref = ST.classify(bk, mu), ST.classify(bk.spider, marg)
        assert (rep.label, rep.c_min, rep.argmin_direction, rep.derivatives) == \
            (ref.label, ref.c_min, ref.argmin_direction, ref.derivatives)
        pages = [F.directional_derivative(bk.spider, marg, j) for j in range(bk.pages)]
        assert rep.derivatives == tuple(enumerate(pages))
        assert (rep.c_min, rep.argmin_direction) == (min(pages), pages.index(min(pages)))
        assert rep.mean == F.open_book_mean(bk, mu)
        y = gen.random_point(bk, rng)
        assert ST.perturbation_threshold(bk, mu, y) == ST.perturbation_threshold(
            bk.spider, marg, S.point(bk.spider, y.direction, y.radius))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_exact_enumeration_against_binomial(spider3, thirds):
    assert ST.exact_nonstick_probability(spider3, thirds, 5) \
        == pytest.approx(153 / 243, abs=1e-12)
    for n in (5, 21, 101):
        assert ST.exact_nonstick_probability(spider3, thirds, n) \
            == pytest.approx(exact_symmetric_nonstick(n), abs=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_enumeration_against_brute_force(m):
    """Every count vector appears once, in blocks that share the first
    count, and both exact oracles equal a sum over itertools.product."""
    rng = np.random.default_rng(60 + m)
    sp = S.spider(3)
    for n in (1, 7, 12):
        counts = [c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n]
        blocks = list(ST._count_blocks(n, m))
        assert np.concatenate(blocks).tolist() == [list(c) for c in counts]
        assert all(len(set(b[:, 0].tolist())) == 1 for b in blocks)
        legs = rng.integers(0, 3, size=m).tolist()
        radii = rng.uniform(0.5, 1.5, size=m).tolist()
        weights = rng.dirichlet(np.ones(m)).tolist()
        mu = S.measure(sp, [((g, r), w) for g, r, w in zip(legs, radii, weights)])
        prob, moment = [], []
        for c in counts:
            pmf = math.factorial(n) * math.prod(
                w ** k / math.factorial(k) for w, k in zip(weights, c))
            best = max(sum(k * r for k, r, g in zip(c, radii, legs) if g == leg)
                       for leg in range(3))
            dist = max(0.0, (2.0 * best - sum(k * r for k, r in zip(c, radii))) / n)
            prob.append(pmf if dist > 0.0 else 0.0)
            moment.append(pmf * dist ** 2)
        assert ST.exact_nonstick_probability(sp, mu, n) == pytest.approx(
            math.fsum(prob), abs=1e-12)
        assert ST.exact_mean_distance_moment(sp, mu, n, 2.0) == pytest.approx(
            math.fsum(moment), abs=1e-12)


@pytest.mark.parametrize("m,n", [(4, 400), (15, 10)])
def test_count_blocks_stay_under_the_cap(m, n):
    """Every count vector appears once, in lexicographic order, in blocks
    that share their first count and hold at most BLOCK_ROWS rows: 4 atoms
    at n = 400 keep one block per first count, 15 atoms at n = 10 split the
    blocks of the small first counts further."""
    rows, prev, firsts = 0, None, []
    for block in ST._count_blocks(n, m):
        assert block.shape[1] == m and len(block) <= ST.BLOCK_ROWS
        assert (block.sum(axis=1) == n).all() and (block >= 0).all()
        assert len(set(block[:, 0].tolist())) == 1
        firsts.append(int(block[0, 0]))
        seq = block if prev is None else np.vstack([prev, block])
        step = np.diff(seq, axis=0)
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        assert (lead > 0).all()  # strictly increasing, so each vector once
        rows += len(block)
        prev = block[-1:]
    assert rows == math.comb(n + m - 1, m - 1)
    assert firsts == sorted(firsts)
    if m == 4:
        assert firsts == list(range(n + 1))
    else:
        assert len(firsts) > n + 1


def _fixture(name):
    with open(cli.fixture_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    sp = S.space_from_json(data["space"])
    return sp, S.measure_from_json(sp, data["measure"])


def test_exact_modulation_of_thirds_on_every_cone(spider3, thirds):
    """Three atoms of weight 1/3 a distance pi apart on the 3-pi kale and on
    the Petersen cone resample like the 3-spider thirds: the same exact
    modulation, to 2 ulp."""
    for name in ("kale_3pi_thirds.json", "petersen_cone.json"):
        sp, mu = _fixture(name)
        for n in (10, 20, 40):
            ref = A.modulation(spider3, thirds, n, 2.0, 0, 0, method="exact").m_hat
            est = A.modulation(sp, mu, n, 2.0, 0, 0)
            assert est.exact and abs(est.m_hat - ref) <= 2 * math.ulp(ref)


def _cone_maker(kind, rng):
    if kind == "kale":
        return S.kale(float(rng.uniform(0.5 * PI, 4.0 * PI)))
    if kind == "tree":
        return gen.random_tree_graph_cone(rng)
    if kind == "cycle":
        return gen.random_cycle_graph_cone(rng, 1.2 * PI, 4.0 * PI)
    return gen.random_finite_cone(rng)


def _sticky_measure(kind, rng):
    """A sticky measure of at most 4 atoms: thirds jittered on a kale of 3 to
    3.5 pi, else `gen.sticky_spread_measure`."""
    while True:
        if kind == "kale":
            alpha = float(rng.uniform(3.0 * PI, 3.5 * PI))
            sp = S.kale(alpha)
            mu = S.measure(sp, [((alpha * j / 3.0 + float(rng.uniform(0.0, 0.2)),
                                  float(rng.uniform(0.8, 1.0))), w)
                                for j, w in enumerate(rng.dirichlet(np.full(3, 30.0)))])
        else:
            sp, mu = gen.sticky_spread_measure(rng, lambda r: _cone_maker(kind, r))
        if mu.size <= 4 and ST.classify(sp, mu).label == "sticky":
            return sp, mu


@pytest.mark.parametrize("kind", ["kale", "tree", "cycle", "finite"])
def test_exact_moment_against_cone_means(kind):
    """On seeded kales, graph cones and finite cones, sticky or not, the
    enumeration's q = 2 moment is the pmf-weighted sum of the squared radius
    of the scalar `cone_mean` of every resampled measure."""
    rng = np.random.default_rng({"kale": 70, "tree": 71, "cycle": 72, "finite": 73}[kind])
    measures = []
    for m in (2, 3, 4):
        sp = _cone_maker(kind, rng)
        weights = rng.dirichlet(np.ones(m)).tolist()
        measures.append((sp, S.measure(sp, [(gen.random_point(sp, rng), w)
                                            for w in weights])))
    measures.append(_sticky_measure(kind, rng))
    n = 12
    for sp, mu in measures:
        pts, weights, m = mu.points(), mu.weights(), mu.size
        terms = []
        for c in itertools.product(range(n + 1), repeat=m):
            if sum(c) != n:
                continue
            pmf = math.factorial(n) * math.prod(
                w ** k / math.factorial(k) for w, k in zip(weights, c))
            resampled = S.measure(sp, [(p, k / n) for p, k in zip(pts, c) if k])
            terms.append(pmf * F.cone_mean(sp, resampled).radius ** 2)
        assert ST.exact_mean_distance_moment(sp, mu, n, 2.0) == pytest.approx(
            math.fsum(terms), rel=1e-12)


def test_exact_enumeration_refuses_open_books():
    bk = S.open_book(3, 2)
    mu = S.measure(bk, [(S.point(bk, j, 1.0, (0.1 * j,)), 1 / 3) for j in range(3)])
    for call in (lambda: ST.exact_nonstick_probability(bk, mu, 5),
                 lambda: ST.exact_mean_distance_moment(bk, mu, 5, 2.0)):
        with pytest.raises(ValueError, match="exact enumeration works on cones"):
            call()


def test_sample_sticking_matches_exact(spider3, thirds):
    for n, seed in ((5, 42), (21, 43)):
        res = ST.sample_sticking(spider3, thirds, n, 20000, seed)
        exact = exact_symmetric_nonstick(n)
        se = math.sqrt(exact * (1 - exact) / res.trials)
        assert abs(res.p_hat - exact) <= 3 * se


def test_sample_sticking_nonsticky_is_one(spider3):
    mu = S.dirac(spider3, S.point(spider3, 0, 1.0))
    res = ST.sample_sticking(spider3, mu, 11, 500, 1)
    assert res.p_hat == 1.0


def test_sample_sticking_deterministic(spider3, thirds):
    a = ST.sample_sticking(spider3, thirds, 21, 5000, 1234)
    b = ST.sample_sticking(spider3, thirds, 21, 5000, 1234)
    c = ST.sample_sticking(spider3, thirds, 21, 5000, 1234, threads=4)
    assert a == b == c
    d = ST.sample_sticking(spider3, thirds, 21, 5000, 999)
    assert d.p_hat != a.p_hat


def test_sample_sticking_ties_do_not_depend_on_radius():
    # a resample with exactly n/2 draws on one leg keeps the mean at the cone
    # point whatever the common radius; rounding must not decide that
    sp = S.spider(3)
    weights = (0.49, 0.3, 0.21)
    p_hats = set()
    for r in (1.0, 1.37, 0.77):
        mu = S.measure(sp, [((j, r), w) for j, w in enumerate(weights)])
        p_hats.add(ST.sample_sticking(sp, mu, 500, 10_000, 5).p_hat)
        # the exact enumeration scores its resamples by the same rule
        assert ST.exact_nonstick_probability(sp, mu, 20) == 0.39507298909463245
    assert len(p_hats) == 1


def test_sample_sticking_open_book():
    bk = S.open_book(3, 2)
    thirds = S.measure(bk, [(S.point(bk, j, 1.0, (h,)), 1 / 3)
                            for j, h in ((0, 0.5), (1, -0.3), (2, 0.1))])
    res = ST.sample_sticking(bk, thirds, 101, 4000, 7)
    # heights do not matter for spine sticking: compare with the marginal
    marg = S.spider_marginal(bk, thirds)
    res2 = ST.sample_sticking(bk.spider, marg, 101, 4000, 7)
    assert res.p_hat == res2.p_hat


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_sticking_memory_does_not_grow_with_trials(threads):
    """50 chunks of resamples of a 48-atom measure: one whole count matrix
    would be 50 chunk matrices (79 MB), the streamed run holds a few per
    worker."""
    rng = np.random.default_rng(61)
    sp = S.kale(3.0 * PI)
    mu = S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                        for w in rng.dirichlet(np.ones(48))])
    chunk_bytes = CHUNK * mu.size * 8
    tracemalloc.start()
    try:
        res = ST.sample_sticking(sp, mu, 20, 50 * CHUNK, seed=5, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < res.p_hat < 1.0
    assert peak < 8 * chunk_bytes


def test_decay_of_nonstick_rate(spider3, thirds):
    exact = [(n, ST.exact_nonstick_probability(spider3, thirds, n))
             for n in (10, 20, 40, 80, 160)]
    rates = [p for _, p in exact]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    from stickygeom.asymptotics import decay_fit
    assert decay_fit(exact) < 0.0
    # Monte Carlo tracks the exact oracle within 4 standard errors
    for n, p in exact[:3]:
        res = ST.sample_sticking(spider3, thirds, n, 20000, 5)
        se = math.sqrt(p * (1 - p) / res.trials)
        assert abs(res.p_hat - p) <= 4 * se


def test_tail_bound_values(spider3):
    assert ST.tail_bound(1 / 3, 0.0, 100) == pytest.approx(math.exp(-200 / 9))
    assert ST.tail_bound(0.5, 2.0, 0) == 0.0
    with pytest.raises(ValueError):
        ST.tail_bound(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        ST.tail_bound(0.5, -1.0, 10)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 0.8), st.floats(0.0, 3.0))
def test_tail_bound_eventually_decreasing(c, k):
    turn = k / (4 * c * c)
    start = max(1, math.ceil(turn) + 1)
    values = [ST.tail_bound(c, k, n) for n in range(start, start + 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# flavor equivalence (statistical, small version of the acceptance gate)
# ---------------------------------------------------------------------------

def test_flavor_equivalence_smoke():
    rng = np.random.default_rng(101)
    for make in (gen.sticky_spider_measure, gen.sticky_kale_measure):
        sp, mu = make(rng)
        rep = ST.classify(sp, mu)
        assert rep.label == "sticky"
        for _ in range(5):
            y = gen.random_point(sp, rng, rmax=1.5, allow_apex=False)
            assert ST.perturbation_threshold(sp, mu, y) > 1e-6
        res = ST.sample_sticking(sp, mu, 200, 2000, 77)
        assert res.p_hat < 0.01
    for make in (gen.nonsticky_spider_measure, gen.nonsticky_kale_measure):
        sp, mu = make(rng)
        rep = ST.classify(sp, mu)
        assert rep.label == "nonsticky"
        assert rep.mean.radius > 0.0
        y = gen.random_point(sp, rng, allow_apex=False)
        assert ST.perturbation_threshold(sp, mu, y) == 0.0
        res = ST.sample_sticking(sp, mu, 200, 2000, 78)
        assert res.p_hat > 0.95
