"""Internal machinery for minimizing direction derivatives of the Frechet
function at the cone point.

The derivative in direction sigma is -sum_i w_i pull_i(sigma) with the pull
r_i cos(min(d(sigma, dir_i), pi)).  `DirectionSystem.pull_matrix` is the one
evaluator of pulls; every derivative is an exact fsum over one of its columns.

Between breakpoints (atom directions, points where an atom's capped distance
reaches pi, branch switches of graph distances) every atom contributes either
a constant or cos(theta + delta_i), so each smooth piece is a single sinusoid
plus a constant, c - R cos(theta - phi).  Its minimizer on the piece is the
critical angle phi when that lies inside, else an endpoint.  The pieces of
a measure are built once, as arrays: the circle and graph builders find the
breakpoints, then give every atom's distance to every piece's midpoint and
its phase there as (atoms x pieces) arrays, and `_coefficients` turns those
into a `PieceTable` (one column per piece) by one rule.  One closed form
for the critical angles serves the exact queries: the scalar minimizer
scores them exactly with the breakpoints, and `touching_angles` finds where
a piece minimum of the perturbation threshold's mixtures reaches zero.  The
batched minimizer used by the Monte Carlo paths never forms an angle.  An
atom's distance has slope +-1 on a piece and stays in [0, pi] there, so a
piece that is not flat is at most pi long, and on it the minimum lies
strictly inside exactly when the derivative a sin(theta) - b cos(theta) is
negative at lo and positive at hi; only those cells take c - hypot(a, b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    PI,
    CircleDirections,
    FiniteDirections,
    GraphDirections,
    Measure,
    OpenBook,
    Space,
    spider_marginal,
)

TWO_PI = 2.0 * PI
TIE_TOL = 1e-12
ROW_BLOCK = 256  # rows per block in batch_min_derivative; bounds its memory


@dataclass
class PieceTable:
    """The smooth pieces of a direction system, stacked: piece j spans
    [lo[j], hi[j]] (on edge edge[j] for graph directions, else -1) and
    contributes c - a cos(theta) - b sin(theta) with atom coefficients in
    column j of a, b and c."""

    lo: np.ndarray    # (P,)
    hi: np.ndarray    # (P,)
    a: np.ndarray     # (m, P) atom coefficients of cos(theta)
    b: np.ndarray     # (m, P) atom coefficients of sin(theta)
    c: np.ndarray     # (m, P) constant contribution of capped atoms
    edge: np.ndarray  # (P,)

    def __len__(self) -> int:
        return len(self.lo)


@dataclass
class DirectionSystem:
    """Per-measure support structure for direction-derivative queries."""

    kind: str                      # finite | circle | graph
    space: Space                   # a cone
    radii: np.ndarray              # (m,)
    candidates: list               # direction coords: enumeration or breakpoints
    pulls: np.ndarray              # (m, len(candidates)) pull_matrix(candidates)
    pieces: PieceTable
    atom_dirs: list = field(default_factory=list)

    def pull_matrix(self, coords) -> np.ndarray:
        """Pulls r_i cos(min(d(coord, dir_i), pi)) of every atom at every
        coordinate, as an (m, len(coords)) array.  Coordinates are
        canonicalized first, so one off the direction space raises
        ValueError."""
        ds = self.space.directions
        dist = ds.distances(self.atom_dirs, [ds.canonical(c) for c in coords])
        return self.radii[:, None] * np.cos(np.minimum(dist, PI))

    def derivatives(self, weights, coords=None) -> list[float]:
        """Exact derivatives -fsum_i w_i pull_i at each coordinate (default:
        the candidates, read from the stored pulls)."""
        pulls = self.pulls if coords is None else self.pull_matrix(coords)
        prods = np.asarray(weights, dtype=float)[:, None] * pulls
        return [-math.fsum(col) for col in prods.T.tolist()]

    def derivative_at(self, weights, coord) -> float:
        """Exact derivative at one coordinate."""
        return self.derivatives(weights, [coord])[0]


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def build_system(sp: Space, mu: Measure) -> DirectionSystem:
    """Direction system of a cone measure.  An open book has none of its own:
    this is the system of its spider marginal, whose weights go with it."""
    if isinstance(sp, OpenBook):
        return build_system(sp.spider, spider_marginal(sp, mu))
    ds = sp.directions
    radii = np.array([p.radius for p in mu.points()])
    dirs = [p.direction for p in mu.points()]
    if isinstance(ds, FiniteDirections):
        empty = np.zeros((len(radii), 0))
        system = DirectionSystem("finite", sp, radii, list(range(ds.size)), None,
                                 _coefficients(radii, np.zeros(0), np.zeros(0), empty,
                                               empty, np.zeros(0, dtype=int)), dirs)
    elif isinstance(ds, CircleDirections):
        system = _build_circle(sp, ds, radii, dirs)
    else:
        system = _build_graph(sp, ds, radii, dirs)
    system.pulls = system.pull_matrix(system.candidates)
    return system


def _coefficients(radii, lo, hi, dist, delta, edge) -> PieceTable:
    """Piece table from each atom's distance to every piece's midpoint and
    its phase there, both (m, P): a capped atom (dist >= pi) adds the
    constant r, any other atom r cos(theta + delta) = a cos(theta) +
    b sin(theta); an atom at the apex adds nothing."""
    r = radii[:, None]
    capped = dist >= PI
    smooth = (r > 0.0) & ~capped
    a = np.where(smooth, r * np.cos(delta), 0.0)
    b = np.where(smooth, -r * np.sin(delta), 0.0)
    c = np.where((r > 0.0) & capped, r, 0.0)
    return PieceTable(lo, hi, a, b, c, edge)


def _sorted_merged(values) -> list:
    """The values in increasing order, less any within 1e-14 of the last one
    kept."""
    out = []
    for val in sorted(values):
        if not out or val - out[-1] > 1e-14:
            out.append(val)
    return out


def _build_circle(sp, ds: CircleDirections, radii, dirs) -> DirectionSystem:
    alpha = ds.alpha
    bps = set()
    for r, theta in zip(radii, dirs):
        if r <= 0.0:
            continue
        bps.add(ds.canonical(theta))
        if alpha >= TWO_PI:
            bps.add(ds.canonical(theta + PI))
            bps.add(ds.canonical(theta - PI))
        else:
            bps.add(ds.canonical(theta + alpha / 2.0))
    if not bps:
        bps.add(0.0)
    cands = _sorted_merged(bps)
    if alpha - (cands[-1] - cands[0]) <= 1e-14:
        cands.pop()  # the last breakpoint wraps onto the first
    lo = np.array(cands)
    hi = np.append(lo[1:], lo[0] + alpha)
    keep = hi - lo > 1e-14
    lo, hi = lo[keep], hi[keep]
    mid = (lo + hi) / 2.0
    # each atom is reached through the winding k alpha nearest the midpoint;
    # ties go to the smaller k.  An atom with r > 0 is a breakpoint, so
    # mid - theta lies in (-alpha, alpha) and k = -1, 0 or 1; atoms at the
    # apex add nothing whatever their k
    theta = np.array(dirs, dtype=float)[:, None]
    offsets = np.abs(mid - theta + np.arange(-1, 2)[:, None, None] * alpha)
    delta = (offsets.argmin(axis=0) - 1) * alpha - theta
    return DirectionSystem("circle", sp, radii, cands, None,
                           _coefficients(radii, lo, hi, offsets.min(axis=0), delta,
                                         np.full(len(lo), -1)), dirs)


def _build_graph(sp, ds: GraphDirections, radii, dirs) -> DirectionSystem:
    # (edges, m): distance from each edge's first and second endpoint to
    # each atom's direction
    to_first, to_second = ds.endpoint_distances(dirs)
    cand_coords: list[tuple[int, float]] = []
    los, his, piece_edges = [], [], []
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
        cand_coords += [(eid, coord) for coord in cleaned]
        los += cleaned[:-1]
        his += cleaned[1:]
        piece_edges += [eid] * (len(cleaned) - 1)
    lo, hi, edge = np.array(los), np.array(his), np.array(piece_edges, dtype=int)
    mid = (lo + hi) / 2.0
    length = np.array([e[2] for e in ds.edges])[edge]
    ra, rb = to_first[edge].T, to_second[edge].T
    # the three branches of an atom's distance to the midpoint: through the
    # piece's first endpoint, through its second, and along the piece's own
    # edge; ties go to the earlier branch
    atom_eid, atom_off = np.array(dirs).reshape(-1, 2).T[:, :, None]
    branches = np.stack([ra + mid, rb + length - mid,
                         np.where(atom_eid == edge, np.abs(mid - atom_off), np.inf)])
    branch = branches.argmin(axis=0)
    dist = branches.min(axis=0)
    slope = np.where((branch == 0) | ((branch == 2) & (mid >= atom_off)), 1.0, -1.0)
    return DirectionSystem("graph", sp, radii, cand_coords, None,
                           _coefficients(radii, lo, hi, dist, slope * dist - mid, edge),
                           dirs)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _critical_angles(table: PieceTable, a, b):
    """Critical angles lo + mod(atan2(b, a) - lo, 2 pi) of c - a cos(theta)
    - b sin(theta) on every piece, and whether each lies in its piece (a
    flat piece, a = b = 0, has none)."""
    theta = table.lo + np.mod(np.arctan2(b, a) - table.lo, TWO_PI)
    return theta, (theta <= table.hi + 1e-15) & (np.hypot(a, b) > 0.0)


def _inside_coords(system: DirectionSystem, theta, inside) -> list:
    """Canonical direction coordinates of the angles (one per piece, in
    rows or not) that lie inside their pieces."""
    edges = np.broadcast_to(system.pieces.edge, theta.shape)[inside]
    canonical = system.space.directions.canonical
    return [canonical(t if system.kind == "circle" else (eid, t))
            for t, eid in zip(theta[inside].tolist(), edges.tolist())]


def min_derivative(system: DirectionSystem, weights) -> tuple[object, float]:
    """Minimize the direction derivative over all directions.

    Breakpoints are always candidates (the derivative is non-smooth there);
    each smooth piece adds its closed-form critical angle when that lies
    inside the piece.  Every candidate is scored with the exact derivative,
    and ties within TIE_TOL go to the smallest canonical coordinate."""
    w = np.asarray(weights, dtype=float)
    table = system.pieces
    theta, inside = _critical_angles(table, w @ table.a, w @ table.b)
    critical = _inside_coords(system, theta, inside)
    coords = system.candidates + critical
    values = system.derivatives(w) + system.derivatives(w, critical)
    best = min(values)
    tol = TIE_TOL * (1.0 + abs(best))
    canonical = system.space.directions.canonical
    _, g = min((canonical(coords[g]), g) for g, v in enumerate(values)
               if v <= best + tol)
    return coords[g], values[g]


def touching_angles(system: DirectionSystem, row0, row1) -> list:
    """Critical angles where the derivative of the row (1 - t) row0 + t row1
    can reach zero at a piece minimum, for t in [0, 1].

    A piece's coefficients a, b and c are affine in t, and a zero minimum
    inside it needs c(t) = hypot(a(t), b(t)): one quadratic in t per piece.
    Its roots only locate the angles; the caller scores them exactly, since
    a root carries the quadratic's rounding."""
    table = system.pieces
    rows = np.array([row0, row1], dtype=float)
    (a0, a1), (b0, b1), (c0, c1) = rows @ table.a, rows @ table.b, rows @ table.c
    da, db, dc = a1 - a0, b1 - b0, c1 - c0
    # c(t)^2 - a(t)^2 - b(t)^2 = qa t^2 + 2 qb t + qc; q keeps the roots
    # q / qa and qc / q free of cancellation, and no real root leaves nan
    qa = dc * dc - da * da - db * db
    qb = c0 * dc - a0 * da - b0 * db
    qc = c0 * c0 - a0 * a0 - b0 * b0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
        t = np.array([q / qa, qc / q])
    t = np.where((t >= 0.0) & (t <= 1.0), t, np.nan)  # nan: no angle
    theta, inside = _critical_angles(table, a0 + t * da, b0 + t * db)
    return _inside_coords(system, theta, inside)


def batch_min_derivative(system: DirectionSystem, coeffs: np.ndarray) -> np.ndarray:
    """Vectorized minimum derivative for rows of atom coefficients.

    Each row plays the role of (weight * radius-normalization) per atom, e.g.
    resample counts / n.  Rows go through the candidate pulls and the
    stacked piece table in blocks of ROW_BLOCK, so memory stays
    O(ROW_BLOCK * (candidates + pieces)) for any number of rows.  A piece
    adds its value c - hypot(a, b) only where the sign test at its ends puts
    the critical angle strictly inside; a critical angle on a piece end is
    a breakpoint, which the candidates already score.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    table = system.pieces
    cos_lo, sin_lo = np.cos(table.lo), np.sin(table.lo)
    cos_hi, sin_hi = np.cos(table.hi), np.sin(table.hi)
    best = np.empty(len(coeffs))
    for start in range(0, len(coeffs), ROW_BLOCK):
        x = coeffs[start:start + ROW_BLOCK]
        a, b, c = x @ table.a, x @ table.b, x @ table.c
        # the derivative a sin(theta) - b cos(theta) is < 0 at lo and > 0 at hi
        rows, cols = np.nonzero((a * sin_lo < b * cos_lo) & (a * sin_hi > b * cos_hi))
        piece_min = np.full(len(x), np.inf)
        np.minimum.at(piece_min, rows,
                      c[rows, cols] - np.hypot(a[rows, cols], b[rows, cols]))
        # min over candidates of -(x . pull) == -(max of x . pull)
        best[start:start + ROW_BLOCK] = np.minimum(-(x @ system.pulls).max(axis=1),
                                                   piece_min)
    return best
