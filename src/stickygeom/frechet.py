"""Frechet function values, pulls, direction derivatives at the cone point,
and closed-form means on cones and open books."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import build_system, min_derivative
from .spaces import (
    PI,
    Cone,
    Measure,
    OpenBook,
    Point,
    Space,
    cone_distances,
    cone_point,
    direction_distance,
    point,
    spider_marginal,
)


def frechet_value(sp: Space, mu: Measure, x: Point, anchor: Point | None = None) -> float:
    """Half the mean squared distance to x; with an anchor, the difference of
    the two such values (finite even for first-moment measures)."""
    if anchor is None:
        dist = cone_distances(sp, [x], mu.points())[0].tolist()
        return 0.5 * math.fsum(w * d ** 2 for d, w in zip(dist, mu.weights()))
    dist, base = cone_distances(sp, [x, anchor], mu.points()).tolist()
    return 0.5 * math.fsum(w * (d ** 2 - b ** 2)
                           for d, b, w in zip(dist, base, mu.weights()))


def pull(sp: Cone, sigma, z: Point) -> float:
    """Pull of z in direction sigma at the cone point: radius times the cosine
    of the capped angle between sigma and the direction of z."""
    if not isinstance(sp, Cone):
        raise ValueError("pull is defined on cones; open books use folded moments")
    if z.radius == 0.0:
        return 0.0
    ang = min(direction_distance(sp.directions, sigma, z.direction), PI)
    return z.radius * math.cos(ang)


def directional_derivative(sp: Cone, mu: Measure, sigma) -> float:
    """Derivative of the Frechet function at the cone point in direction
    sigma: the negative mean pull."""
    if not isinstance(sp, Cone):
        raise ValueError("directional derivatives are computed on cones")
    return -math.fsum(w * pull(sp, sigma, z) for z, w in mu.atoms)


def min_directional_derivative(sp: Cone, mu: Measure) -> tuple[object, float]:
    """Smallest direction derivative at the cone point and its direction.

    Finite direction sets are enumerated; circles and metric graphs add the
    closed-form critical angle of each smooth piece to the breakpoint
    candidates.  Ties go to the smallest direction coordinate.
    """
    if not isinstance(sp, Cone):
        raise ValueError("min_directional_derivative expects a cone")
    system = build_system(sp, mu)
    return min_derivative(system, mu.weights())


@dataclass(frozen=True)
class DerivativeProfile:
    directions: tuple
    values: tuple[float, ...]
    argmin: object
    min_value: float
    lipschitz: float


def derivative_profile(sp: Cone, mu: Measure, directions=None) -> DerivativeProfile:
    """Direction derivatives over a grid (all directions for finite sets,
    breakpoints otherwise) together with the global minimum and the Lipschitz
    bound for |derivative(sigma) - derivative(tau)|."""
    system = build_system(sp, mu)
    w = mu.weights()
    argmin, min_value = min_derivative(system, w)
    if directions is None:
        directions = list(system.candidates)
        values = system.derivatives(w)
        if argmin not in directions:
            directions.append(argmin)
            values.append(min_value)  # the exact derivative at argmin
    else:
        values = system.derivatives(w, directions)
    return DerivativeProfile(tuple(directions), tuple(values), argmin, min_value,
                             lipschitz_L(sp, mu, cone_point(sp)))


def cone_mean(sp: Cone, mu: Measure) -> Point:
    """Frechet mean of a finitely supported measure on a cone.

    The Frechet function restricted to the ray through any direction is an
    exact quadratic, so the global minimizer is the argmin direction at
    radius max(0, -smallest derivative)."""
    argmin, value = min_directional_derivative(sp, mu)
    return mean_from_min_derivative(sp, argmin, value)


def mean_from_min_derivative(sp: Cone, argmin, value: float) -> Point:
    """Cone mean from the smallest direction derivative and its direction:
    the cone point when value >= 0, else the point at radius -value."""
    radius = max(0.0, -value)
    if radius == 0.0:
        return cone_point(sp)
    return point(sp, argmin, radius)


def open_book_mean(sp: OpenBook, mu: Measure) -> Point:
    """Product mean: spider-marginal cone mean paired with the Euclidean mean
    of the height marginal."""
    if not isinstance(sp, OpenBook):
        raise ValueError("open_book_mean expects an open book")
    return book_mean_over(sp, mu, cone_mean(sp.spider, spider_marginal(sp, mu)))


def book_mean_over(sp: OpenBook, mu: Measure, base: Point) -> Point:
    """Open-book mean of mu from its spider-marginal mean base: base paired
    with the Euclidean mean of the heights."""
    heights = np.zeros(sp.dim - 1)
    for p, w in mu.atoms:
        heights += w * np.asarray(p.euclidean)
    return point(sp, base.direction, base.radius, tuple(float(h) for h in heights))


def frechet_mean(sp: Space, mu: Measure) -> Point:
    if isinstance(sp, OpenBook):
        return open_book_mean(sp, mu)
    return cone_mean(sp, mu)


def lipschitz_L(sp: Space, mu: Measure, x: Point) -> float:
    """Mean distance to x; Lipschitz constant of sigma -> derivative at x."""
    dist = cone_distances(sp, [x], mu.points())[0].tolist()
    return math.fsum(w * d for d, w in zip(dist, mu.weights()))


# ---------------------------------------------------------------------------
# pull Lipschitz constants
# ---------------------------------------------------------------------------

def pull_ratio(a: float, b: float, theta: float) -> float:
    """Ratio of the flat chord between polar points (a, 0), (b, theta) to
    their spherical distance; equals 1 by convention when both points are the
    pole or when theta = 0 and a = b."""
    if (a == 0.0 and b == 0.0) or (theta == 0.0 and a == b):
        return 1.0
    num = math.sqrt(max(a * a + b * b - 2.0 * a * b * math.cos(theta), 0.0))
    inner = math.sin(a) * math.sin(b) * math.cos(theta) + math.cos(a) * math.cos(b)
    den = math.acos(min(1.0, max(-1.0, inner)))
    if den < 1e-15:
        return 1.0
    return num / den


@dataclass(frozen=True)
class PullLipschitzReport:
    value: float
    grid_value: float
    refined_value: float
    boundary_value: float


def c_kappa_epsilon_report(kappa: float, eps: float, grid: int = 401,
                           refine: bool = True) -> PullLipschitzReport:
    """Lipschitz constant of the pull map on balls of radius determined by
    eps; 1 for nonpositive curvature, otherwise a maximization of the
    chord-to-arc ratio.  Grid maximization plus Nelder-Mead refinement; the
    supremum near the coincidence line theta -> 0, a = b is included in
    closed form, so the reported value upper-bounds the grid value."""
    if not 0.0 < eps < PI:
        raise ValueError("eps must lie in (0, pi)")
    if kappa <= 0.0:
        return PullLipschitzReport(1.0, 1.0, 1.0, 1.0)
    amax = PI - eps
    axis = np.linspace(0.0, amax, grid)
    thetas = np.linspace(0.0, PI, grid)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    grid_best = 1.0
    grid_arg = (0.0, 0.0, 0.0)
    for theta in thetas:
        ct = math.cos(theta)
        num = np.sqrt(np.maximum(aa * aa + bb * bb - 2.0 * aa * bb * ct, 0.0))
        inner = np.clip(np.sin(aa) * np.sin(bb) * ct + np.cos(aa) * np.cos(bb),
                        -1.0, 1.0)
        den = np.arccos(inner)
        psi = np.where(den < 1e-12, 1.0, num / np.maximum(den, 1e-300))
        k = int(np.argmax(psi))
        if psi.flat[k] > grid_best:
            grid_best = float(psi.flat[k])
            grid_arg = (float(aa.flat[k]), float(bb.flat[k]), theta)
    refined = grid_best
    if refine:
        from scipy import optimize

        # keep the refinement away from the coincidence line theta -> 0 where
        # the ratio is numerically noisy; its supremum there is the closed
        # form `boundary` below
        start = np.asarray([grid_arg[0], grid_arg[1], max(grid_arg[2], 1e-3)])
        res = optimize.minimize(
            lambda x: -pull_ratio(x[0], x[1], x[2]), start,
            method="Nelder-Mead",
            bounds=[(0.0, amax), (0.0, amax), (1e-3, PI)],
            options={"xatol": 1e-10, "fatol": 1e-12})
        refined = max(refined, float(-res.fun))
    boundary = amax / math.sin(amax) if amax > 0.0 else 1.0
    value = max(1.0, refined, boundary)
    return PullLipschitzReport(value, grid_best, refined, boundary)


def c_kappa_epsilon(kappa: float, eps: float, grid: int = 401,
                    refine: bool = True) -> float:
    """Pull Lipschitz constant: exactly 1 for kappa <= 0; for kappa > 0 it is
    curvature-independent after rescaling, so the kappa = 1 maximization is
    returned."""
    return c_kappa_epsilon_report(kappa, eps, grid, refine).value
