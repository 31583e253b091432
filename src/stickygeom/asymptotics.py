"""Moment-modulation estimation and the central limit theorem for direction
derivatives: analytic covariances (as-published and centered forms) plus
seeded Monte Carlo verification."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc import resample_counts
from .directions import batch_min_derivative, build_system, min_derivative
from .spaces import Cone, Measure
from .stickiness import exact_mean_distance_moment

MEAN_AT_APEX_TOL = 1e-10


@dataclass(frozen=True)
class ModulationEstimate:
    """n^(q/2) E d^q(apex, mean of n-sample) / E d^q(apex, X); a vanishing
    limit is the modulation flavor of stickiness."""

    n: int
    q: float
    m_hat: float
    se: float
    denominator: float
    trials: int
    exact: bool


def _require_mean_at_apex(sp: Cone, mu: Measure):
    if not isinstance(sp, Cone):
        raise ValueError("modulation and the direction CLT are defined on cones")
    system = build_system(sp, mu)
    _, c_min = min_derivative(system, mu.weights())
    if c_min < -MEAN_AT_APEX_TOL:
        raise ValueError(
            f"the measure's mean is off the cone point (smallest derivative "
            f"{c_min})")
    return system


MODULATION_METHODS = ("auto", "exact", "mc")


def modulation(sp: Cone, mu: Measure, n: int, q: float, trials: int, seed: int,
               method: str = "auto", threads: int = 1) -> ModulationEstimate:
    """Moment modulation at sample size n.

    method "exact" (or "auto" where tractable: spider cones, <= 4 atoms,
    n <= 400) enumerates multinomial resample counts; otherwise seeded Monte
    Carlo over `trials` resamples."""
    if q < 1.0:
        raise ValueError("moment order must be >= 1")
    system = _require_mean_at_apex(sp, mu)
    denom = math.fsum(w * z.radius ** q for z, w in mu.atoms)
    if denom <= 0.0:
        raise ValueError("modulation denominator vanishes (point mass at the apex)")
    scale = float(n) ** (q / 2.0)
    if method not in MODULATION_METHODS:
        raise ValueError(f"unknown modulation method {method!r}")
    if method in ("auto", "exact"):
        try:
            moment = exact_mean_distance_moment(sp, mu, n, q)
            return ModulationEstimate(n, q, scale * moment / denom, 0.0, denom,
                                      0, True)
        except ValueError:
            if method == "exact":
                raise
    counts = resample_counts(mu.weights(), n, trials, seed, threads)
    minvals = batch_min_derivative(system, counts.astype(float)) / float(n)
    dq = np.maximum(0.0, -minvals) ** q
    m_hat = scale * float(dq.mean()) / denom
    se = scale * float(dq.std(ddof=1)) / math.sqrt(trials) / denom if trials > 1 else 0.0
    return ModulationEstimate(n, q, m_hat, se, denom, trials, False)


# ---------------------------------------------------------------------------
# CLT for directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceMatrix:
    """Analytic covariance of the direction-derivative process over a grid.

    paper_form is the published expression E[pull_sigma pull_tau] (no
    centering); centered_form subtracts the product of mean pulls and is the
    covariance the scaled empirical process actually exhibits.  The two agree
    exactly when every direction derivative vanishes."""

    grid: tuple
    paper_form: np.ndarray
    centered_form: np.ndarray

    @property
    def max_discrepancy(self) -> float:
        return float(np.max(np.abs(self.paper_form - self.centered_form)))


def _grid_pulls(sp: Cone, mu: Measure, grid) -> np.ndarray:
    if not isinstance(sp, Cone):
        raise ValueError("the direction CLT is defined on cones")
    # column-major: the layout fixes the summation order of the matrix
    # products below, and so the last bits of the reports
    return np.asfortranarray(build_system(sp, mu).pull_matrix(grid))  # (m, g)


def clt_covariance(sp: Cone, mu: Measure, grid) -> CovarianceMatrix:
    if not grid:
        raise ValueError("direction grid must be nonempty")
    pulls = _grid_pulls(sp, mu, grid)
    w = np.asarray(mu.weights())
    paper = pulls.T @ (pulls * w[:, None])
    means = w @ pulls
    centered = paper - np.outer(means, means)
    return CovarianceMatrix(tuple(grid), paper, centered)


@dataclass(frozen=True)
class SimulatedCovariance:
    grid: tuple
    covariance: np.ndarray
    se: np.ndarray
    n: int
    trials: int
    seed: int


def clt_simulate(sp: Cone, mu: Measure, grid, n: int, trials: int, seed: int,
                 threads: int = 1) -> SimulatedCovariance:
    """Empirical covariance of sqrt(n) (empirical - population) direction
    derivatives over the grid, with per-entry standard errors."""
    if trials < 2:
        raise ValueError("need at least two trials")
    pulls = _grid_pulls(sp, mu, grid)
    w = np.asarray(mu.weights())
    counts = resample_counts(mu.weights(), n, trials, seed, threads)
    emp = -(counts @ pulls) / float(n)
    pop = -(w @ pulls)
    dev = math.sqrt(n) * (emp - pop[None, :])
    centered = dev - dev.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (trials - 1)
    g = len(grid)
    se = np.zeros((g, g))
    for i in range(g):
        prods = centered[:, i][:, None] * centered
        se[i, :] = prods.std(axis=0, ddof=1) / math.sqrt(trials)
    return SimulatedCovariance(tuple(grid), cov, se, n, trials, seed)


def decay_fit(results) -> float:
    """Least-squares slope of log(p_hat) against n; -inf when every rate is
    zero."""
    pts = [(float(n), math.log(p)) for n, p in results if p > 0.0]
    if not pts:
        return -math.inf
    if len(pts) < 2:
        raise ValueError("need at least two positive rates to fit a slope")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    xc = xs - xs.mean()
    return float((xc @ (ys - ys.mean())) / (xc @ xc))
