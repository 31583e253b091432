"""Frechet function values, pulls, direction derivatives at the cone point,
and closed-form means on cones and open books."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import _minimize, build_system, min_derivative
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
    argmin, min_value, values, _ = _minimize(system, np.asarray(w, dtype=float))
    if directions is None:
        directions = list(system.candidates)
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
    pole or when theta = 0 and a = b.  Chord and arc both come from half
    angles (the arc by the haversine formula), so neither cancels when the
    points are close."""
    if (a == 0.0 and b == 0.0) or (theta == 0.0 and a == b):
        return 1.0
    s = math.sin(theta / 2.0) ** 2
    num = math.sqrt((a - b) ** 2 + 4.0 * a * b * s)
    hav = math.sin((a - b) / 2.0) ** 2 + math.sin(a) * math.sin(b) * s
    den = 2.0 * math.asin(math.sqrt(min(1.0, hav)))
    if den < 1e-15:
        return 1.0
    return num / den


def c_kappa_epsilon(kappa: float, eps: float) -> float:
    """Pull Lipschitz constant: exactly 1 for kappa <= 0, else max(1, A / sin A)
    with A = pi - eps.

    For kappa > 0 the constant is curvature-independent after rescaling, so
    it is the kappa = 1 supremum of `pull_ratio` over a, b in [0, A] and
    theta in [0, pi]: the Lipschitz constant of the unit sphere's log map at
    the pole on the closed ball of radius A.  That map stretches a tangent
    vector at distance r from the pole by at most r / sin r, which grows
    with r.  For A <= pi/2 the ball is convex, so the geodesic between two of
    its points stays inside it, and integrating the stretch along it bounds
    the ratio by A / sin A; two points at distance A from the pole with
    theta -> 0 attain it.  For A > pi/2 the geodesic can leave the ball and
    the argument fails: there the value rests on a numerical search (a
    100-start Nelder-Mead search of the ratio for eps in {0.05, 0.2, 0.5,
    1, 1.5, 2, 2.5, 3} found its supremum at A / sin A within 4e-16
    relative), and the tests check it against a grid sweep of the ratio."""
    if not 0.0 < eps < PI:
        raise ValueError("eps must lie in (0, pi)")
    if kappa <= 0.0:
        return 1.0
    amax = PI - eps
    return max(1.0, amax / math.sin(amax))
