"""Sticky-flavor classification: direction-derivative certificates, folded
moments, the pull condition, exact perturbation thresholds, and sample
stickiness, seeded or enumerated exactly, with the exponential tail bound."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._mc import map_chunks
from .directions import (DirectionSystem, build_system, min_derivative,
                         resample_distances, touching_angles)
from .frechet import book_mean_over, directional_derivative, mean_from_min_derivative
from .spaces import (
    PI,
    CircleDirections,
    Cone,
    FiniteDirections,
    GraphDirections,
    Measure,
    OpenBook,
    Point,
    Space,
    point,
    spider_marginal,
)
from .transport import perturbed_measure

# relative to the first moment w @ radii, which a dilation r -> s r scales as
# it scales every direction derivative
CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class StickinessReport:
    """Classification of a measure at the cone point (open books: at the
    spine).  label is sticky when the smallest direction derivative c_min is
    positive, boundary when it vanishes within tolerance, else nonsticky."""

    label: str
    c_min: float
    argmin_direction: object
    pull_condition: bool
    mean: Point
    derivatives: tuple[tuple[object, float], ...]


def classify(sp: Space, mu: Measure, tol: float = CLASSIFY_TOL) -> StickinessReport:
    """Directional-stickiness certificate; by the flavor equivalences the
    label also certifies Wasserstein, perturbation and sample stickiness.
    An open book is classified by its spider marginal (the spine is sticky
    iff the marginal's apex is); its mean keeps the heights. c_min within
    tol (w @ radii) of zero is boundary."""
    if isinstance(sp, OpenBook):
        rep = classify(sp.spider, spider_marginal(sp, mu), tol)
        return replace(rep, mean=book_mean_over(sp, mu, rep.mean))
    system = build_system(sp, mu)
    w = mu.weights()
    argmin, c_min = min_derivative(system, w)
    derivs = tuple(zip(system.candidates, system.derivatives(w)))
    pc = pull_condition(sp, mu)
    mean = mean_from_min_derivative(sp, argmin, c_min)
    scale = tol * float(np.asarray(w) @ system.radii)
    if c_min > scale:
        label = "sticky"
    elif c_min < -scale:
        label = "nonsticky"
    else:
        label = "boundary"
    return StickinessReport(label, c_min, argmin, pc, mean, derivs)


def folded_moments(sp: OpenBook, mu: Measure) -> np.ndarray:
    """j-th folded moment: mean page coordinate after folding all pages but
    page j onto the negative axis.  Negative for every page certifies sample
    stickiness on the spine; equals the negative page-direction derivative."""
    if not isinstance(sp, OpenBook):
        raise ValueError("folded_moments expects an open book")
    out = np.zeros(sp.pages)
    for p, w in mu.atoms:
        for j in range(sp.pages):
            out[j] += w * (p.radius if (p.direction == j and p.radius > 0.0) else -p.radius)
    return out


def kale_folded_moment(sp: Cone, mu: Measure, theta: float) -> float:
    """First folded moment of a circle-cone measure at angle theta; equals
    the negative direction derivative there."""
    if not (isinstance(sp, Cone) and isinstance(sp.directions, CircleDirections)):
        raise ValueError("kale_folded_moment expects a cone over a circle")
    return -directional_derivative(sp, mu, theta)


def max_kale_folded_moment(sp: Cone, mu: Measure) -> tuple[float, float]:
    """Maximizing angle and value of the folded moment (the smallest
    direction derivative over breakpoints and closed-form critical angles,
    negated); stickiness holds iff the maximum is negative."""
    argmin, value = min_derivative(build_system(sp, mu), mu.weights())
    return argmin, -value


def pull_condition(sp: Cone, mu: Measure) -> bool:
    """True iff no direction has vanishing pull on the whole support.

    The pull at the cone point vanishes iff the atom sits at the cone point
    or its direction is at angle exactly pi/2, so the condition fails iff the
    intersection of those per-atom zero sets is nonempty."""
    if not isinstance(sp, Cone):
        raise ValueError(
            "pull_condition works on cones; reduce open books to the spider "
            "marginal")
    carried = [z for z, _ in mu.atoms if z.radius > 0.0]
    if not carried:
        return False  # the pull vanishes everywhere for a point mass at the apex
    ds = sp.directions
    dist = ds.distances(_right_angle_candidates(ds, carried[0].direction),
                        [z.direction for z in carried])
    right = np.abs(np.minimum(dist, PI) - PI / 2.0) <= 1e-12
    return not right.all(axis=1).any()


def _right_angle_candidates(ds, direction) -> list:
    """Directions that include every one at distance exactly pi/2 from the
    given one (graphs: the distance functions are piecewise linear with
    slopes +-1); a finite set gives all its directions."""
    if isinstance(ds, FiniteDirections):
        return list(range(ds.size))
    c = ds.canonical(direction)
    if isinstance(ds, CircleDirections):
        if ds.alpha < PI:
            return []
        return [ds.canonical(c + PI / 2.0), ds.canonical(c - PI / 2.0)]
    assert isinstance(ds, GraphDirections)
    to_first, to_second = ds.endpoint_distances([c])
    cands = set()
    for eid, ((_u, _v, length), ra, rb) in enumerate(
            zip(ds.edges, to_first[:, 0].tolist(), to_second[:, 0].tolist())):
        offs = {PI / 2.0 - ra, rb + length - PI / 2.0}
        if eid == c[0]:
            offs.add(c[1] - PI / 2.0)
            offs.add(c[1] + PI / 2.0)
        cands |= {ds.canonical((eid, min(max(off, 0.0), length))) for off in offs
                  if -1e-12 <= off <= length + 1e-12}
    return sorted(cands)


def perturbation_threshold(sp: Space, mu: Measure, y: Point,
                           tol: float = CLASSIFY_TOL) -> float:
    """Largest mixing weight t such that (1-t) mu + t delta_y keeps its mean
    at the cone point (open books: on the spine); 0 for a nonsticky mu.

    Each direction derivative of the mixture is affine in t, D_t = (1-t) D_0
    + t D_1 with D_1 = -pull_y, so where D_1 < 0 it reaches zero at
    t = D_0+ / (D_0+ - D_1); the threshold is the smallest such t, or 1.  It
    lies at a breakpoint or at a critical angle from `touching_angles`, and
    every candidate is scored with exact derivatives. mu counts as
    nonsticky when c_min < -tol (w @ radii)."""
    if isinstance(sp, OpenBook):
        # the mixture's mean stays on the spine iff its marginal's stays at the apex
        sp, mu = sp.spider, spider_marginal(sp, mu)
    if not isinstance(sp, Cone):
        raise ValueError("perturbation_threshold expects a cone or open book")
    y = point(sp, y.direction, y.radius)
    # the mixture's support is fixed across t, so one system serves every t:
    # its coefficient rows are (1-t) mu_row + t y_row
    mixed = perturbed_measure(sp, mu, y, 0.5)
    system = build_system(sp, mixed)
    points = mixed.points()
    mu_row, y_row = np.zeros((2, mixed.size))
    mu_row[[points.index(z) for z in mu.points()]] = mu.weights()
    y_row[points.index(y)] = 1.0
    argmin, c_min = min_derivative(system, mu_row)
    if c_min < -tol * float(mu_row @ system.radii):
        return 0.0
    # mu's own argmin: a boundary mu touches zero there at t = 0, where the
    # quadratic's root can round below 0
    extra = [argmin] + touching_angles(system, mu_row, y_row)
    d0 = np.maximum(system.derivatives(mu_row) + system.derivatives(mu_row, extra), 0.0)
    d1 = np.array(system.derivatives(y_row) + system.derivatives(y_row, extra))
    falls = d1 < 0.0  # an apex y has D_1 = 0 everywhere, so t = 1
    t = d0[falls] / (d0[falls] - d1[falls])
    return float(np.min(t, initial=1.0)) + 0.0  # + 0.0 turns -0.0 into 0.0


# ---------------------------------------------------------------------------
# sample stickiness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleStickingResult:
    n: int
    trials: int
    p_hat: float
    se: float
    seed: int


def sample_sticking(sp: Space, mu: Measure, n: int, trials: int, seed: int,
                    threads: int = 1) -> SampleStickingResult:
    """Monte Carlo estimate of the probability that the mean of an n-sample
    leaves the cone point (open books: the spine), where `resample_distances`
    is nonzero; deterministic given the seed and independent of the thread
    count.  Each worker draws and scores its own `_mc.CHUNK`-row chunks, so
    memory does not grow with the number of trials."""
    if isinstance(sp, OpenBook):
        # the mean leaves the spine iff the spider marginal's mean leaves the
        # apex; atoms that differ only off the spider merge there
        sp, mu = sp.spider, spider_marginal(sp, mu)
    system = build_system(sp, mu)
    leaving = sum(map_chunks(mu.weights(), n, trials, seed, threads,
                             lambda c: np.count_nonzero(resample_distances(system, c, n))))
    p_hat = leaving / trials
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return SampleStickingResult(n, trials, p_hat, se, seed)


def tail_bound(c_min: float, k: float, n: int) -> float:
    """Shape of the non-sticking tail bound (sqrt(n) c_min)^k exp(-2 n
    c_min^2); the multiplicative constant of the bound is not estimated.

    k is the covering exponent of the direction space (0 for finite
    direction sets)."""
    if c_min <= 0.0:
        raise ValueError("tail bound needs a positive smallest derivative")
    if k < 0.0:
        raise ValueError("covering exponent must be nonnegative")
    if n == 0:
        return 0.0 if k > 0.0 else 1.0
    base = math.sqrt(n) * c_min
    return base ** k * math.exp(-2.0 * n * c_min * c_min)


# ---------------------------------------------------------------------------
# exact resampling on any cone within ENUMERATION_WORK: every count vector
# ---------------------------------------------------------------------------

BLOCK_ROWS = 80_601  # C(402, 2); a block of more rows splits by its next count
SCREEN_WIDTH = 16  # per-row cost of batch_min_derivative's piece screen, in cells
BLOCK_WORK = 4096  # per-block cost of the pmf and the scoring calls, in cells
ENUMERATION_WORK = math.comb(403, 3) * 8 + 401 * BLOCK_WORK  # 4 atoms, 4-spider, n = 400


def enumeration_work(system: DirectionSystem, n: int) -> int:
    """Cells the exact enumeration at sample size n scores: C(n + m - 1,
    m - 1) rows as wide as the m atoms, the candidates and twice the pieces
    (plus SCREEN_WIDTH if there are any), and BLOCK_WORK per first count."""
    m, pieces = len(system.radii), len(system.pieces)
    width = m + len(system.candidates) + 2 * pieces + (SCREEN_WIDTH if pieces else 0)
    return math.comb(n + m - 1, m - 1) * width + (n + 1) * BLOCK_WORK


def _count_blocks(n: int, m: int, prefix: tuple = ()):
    """Every vector of m nonnegative counts summing to n, in lexicographic
    order after the prefix, in blocks of rows that share the first count; a
    block of more than BLOCK_ROWS rows splits by its next count, so a block
    holds O(BLOCK_ROWS * m) counts whatever m is."""
    if m > 1 and (not prefix or math.comb(n + m - 1, m - 1) > BLOCK_ROWS):
        for first in range(n + 1):
            yield from _count_blocks(n - first, m - 1, prefix + (first,))
        return
    rows = np.array([[*prefix, n]])
    for _ in range(m - 1):
        # split each row's last count t into (c, t - c) for c = 0..t
        t = rows[:, -1]
        start = np.repeat(np.cumsum(t + 1) - (t + 1), t + 1)
        c = np.arange(len(start)) - start
        rows = np.column_stack([np.repeat(rows[:, :-1], t + 1, axis=0), c,
                                np.repeat(t, t + 1) - c])
    yield rows


def _enumeration(sp: Cone, mu: Measure, n: int, system: DirectionSystem):
    """`resample_distances` on (sp, mu)'s system and the multinomial pmf of
    every resample count vector, as (dist, pmf) per block of
    `_count_blocks`: memory holds one block."""
    if not isinstance(sp, Cone):
        raise ValueError("exact enumeration works on cones; reduce open books "
                         "to the spider marginal")
    if n < 1:
        raise ValueError("sample size must be positive")
    if enumeration_work(system, n) > ENUMERATION_WORK:
        raise ValueError(f"exact enumeration at n = {n} exceeds ENUMERATION_WORK")
    logw = np.log(np.array(mu.weights()))
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])

    for counts in _count_blocks(n, mu.size):
        logpmf = (log_factorial[n] - log_factorial[counts].sum(axis=-1)
                  + (counts * logw).sum(axis=-1))
        yield resample_distances(system, counts, n), np.exp(logpmf)


def exact_nonstick_probability(sp: Cone, mu: Measure, n: int) -> float:
    """Exact probability that an n-sample mean leaves the cone point by the
    rule of `sample_sticking`, summed over every resample (within ENUMERATION_WORK)."""
    blocks = _enumeration(sp, mu, n, build_system(sp, mu))
    return math.fsum(float(pmf[dist > 0.0].sum()) for dist, pmf in blocks)


def exact_mean_distance_moment(sp: Cone, mu: Measure, n: int, q: float) -> float:
    """Exact E[d(cone point, mean of n-sample)^q] within ENUMERATION_WORK."""
    return _exact_moment(sp, mu, n, q, build_system(sp, mu))


def _exact_moment(sp: Cone, mu: Measure, n: int, q: float,
                  system: DirectionSystem) -> float:
    return math.fsum(float((pmf * dist ** q).sum())
                     for dist, pmf in _enumeration(sp, mu, n, system))
