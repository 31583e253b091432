"""Internal machinery for minimizing direction derivatives of the Frechet
function at the cone point.

The derivative in direction sigma is -sum_i w_i pull_i(sigma) with the pull
r_i cos(min(d(sigma, dir_i), pi)), and every derivative is an exact fsum
over a column of pulls.  Every distance here is the direction space's own
`distances`; this module holds no metric of its own.

Between breakpoints (atom directions, points where an atom's capped distance
reaches pi, branch switches of graph distances) every atom contributes either
a constant or cos(theta + delta_i), so each smooth piece is a single sinusoid
plus a constant, c - R cos(theta - phi).  Its minimizer on the piece is the
critical angle phi when that lies inside, else an endpoint.  The pieces of
a measure are built once, as arrays.  The circle and graph builders only
find the breakpoints, which are the candidates, and the pieces between them;
`build_system` reads the rest from the metric, in one table of each atom's
distance to every candidate and to every piece's midpoint.  Its candidate
columns give the pulls and each atom's distance at both ends of every
piece.  The slope, the sign of d(hi) - d(lo), and the midpoint distance give
the phase, and
`_coefficients` turns those into a `PieceTable` (one column per piece) by one
rule.  One closed form for the critical angles serves the exact queries: the
scalar minimizer scores them exactly with the breakpoints, and
`touching_angles` finds where a piece minimum of the perturbation
threshold's mixtures reaches zero.  The batched minimizer used by the Monte
Carlo paths never forms an angle.  An atom's distance has slope +-1 on a
piece and stays in [0, pi] there, so a piece that is not flat is at most pi
long, and on it the minimum lies strictly inside exactly when the derivative
a sin(theta) - b cos(theta) is negative at lo and positive at hi.  Those end
derivatives are linear in the row of weights, so a table of every atom's
part of them, built once per call, screens every piece of a block of rows
with one matrix product; a, b, c and c - hypot(a, b) are formed only on the
cells that pass.  `resample_distances` holds the one tie rule of resamples.
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
    pulls: np.ndarray              # (m, len(candidates)) pulls at the candidates
    pieces: PieceTable
    atom_dirs: list = field(default_factory=list)

    def pull_matrix(self, coords) -> np.ndarray:
        """Pulls r_i cos(min(d(coord, dir_i), pi)) of every atom at every
        coordinate, as an (m, len(coords)) array.  Coordinates are
        canonicalized first, so one off the direction space raises
        ValueError."""
        ds = self.space.directions
        return self._canonical_pulls([ds.canonical(c) for c in coords])

    def _canonical_pulls(self, coords) -> np.ndarray:
        # `pull_matrix` at coordinates that are canonical already
        if not len(coords):
            return np.zeros((len(self.radii), 0))
        return _pulls(self.radii, self.space.directions.distances(self.atom_dirs, coords))

    def derivatives(self, weights, coords=None) -> list[float]:
        """Exact derivatives -fsum_i w_i pull_i at each coordinate (default:
        the candidates, read from the stored pulls)."""
        return _derivatives(weights, self.pulls if coords is None
                            else self.pull_matrix(coords))

    def derivative_at(self, weights, coord) -> float:
        """Exact derivative at one coordinate."""
        return self.derivatives(weights, [coord])[0]


def _derivatives(weights, pulls) -> list[float]:
    """Exact derivatives -fsum_i w_i pull_i at every column of pulls."""
    prods = np.asarray(weights, dtype=float)[:, None] * pulls
    return [-math.fsum(col) for col in prods.T.tolist()]


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def build_system(sp: Space, mu: Measure) -> DirectionSystem:
    """Direction system of a cone measure.  An open book has none of its own:
    this is the system of its spider marginal, whose weights go with it.

    The kind's builder finds the candidates and the pieces between them;
    everything else is read from the metric, in one table of every atom's
    distance to every candidate (canonicalized) and then to every piece's
    midpoint.  Its candidate columns give the pulls and the distances at
    both ends of every piece.  On a piece an atom's distance has slope +-1,
    the sign of d(hi) - d(lo), and the atom adds r cos(theta + phase) with
    phase slope * d(mid) - mid."""
    if isinstance(sp, OpenBook):
        return build_system(sp.spider, spider_marginal(sp, mu))
    ds = sp.directions
    radii = np.array([p.radius for p in mu.points()])
    dirs = [p.direction for p in mu.points()]
    if isinstance(ds, FiniteDirections):
        kind, cands = "finite", list(range(ds.size))
        at, lo = cands, np.zeros(0)
        hi, edge, ends = lo, np.zeros(0, dtype=int), np.zeros((2, 0), dtype=int)
    elif isinstance(ds, CircleDirections):
        kind, (cands, at, lo, hi, edge, ends) = "circle", _circle_pieces(ds, radii, dirs)
    else:
        kind, (cands, at, lo, hi, edge, ends) = "graph", _graph_pieces(ds, radii, dirs)
    table = ds.distances(dirs, at)
    dist, mid_dist = table[:, :len(cands)], table[:, len(cands):]
    slope = np.sign(dist.take(ends[1], axis=1) - dist.take(ends[0], axis=1))
    phase = slope * mid_dist - (lo + hi) / 2.0
    return DirectionSystem(kind, sp, radii, cands, _pulls(radii, dist),
                           _coefficients(radii, lo, hi, mid_dist, phase, edge), dirs)


def _pulls(radii, dist) -> np.ndarray:
    """Pulls r cos(min(d, pi)) from the (m, k) distance table d."""
    return radii[:, None] * np.cos(np.minimum(dist, PI))


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


def _merged(values: np.ndarray, close: np.ndarray) -> np.ndarray:
    """Which of the increasing values to keep: all but those within 1e-14 of
    the last one kept.  close[j] marks each step from values[j] to
    values[j + 1] of at most 1e-14; a value after any other step is kept."""
    keep = np.ones(len(values), dtype=bool)
    last = 0.0
    for j in np.flatnonzero(close).tolist():
        if keep[j]:
            last = values[j]
        keep[j + 1] = values[j + 1] - last > 1e-14
    return keep


def _circle_pieces(ds: CircleDirections, radii, dirs):
    """Candidates (the breakpoints: every atom's direction and where its
    distance reaches pi or its largest value), the candidates and then the
    piece midpoints as one array, the pieces between the candidates, and the
    (2, P) candidate indices at each piece's lo and hi."""
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
    bps = np.array(sorted(bps)) if bps else np.zeros(1)
    cands = bps[_merged(bps, np.diff(bps) <= 1e-14)]
    if alpha - (cands[-1] - cands[0]) <= 1e-14:
        cands = cands[:-1]  # the last breakpoint wraps onto the first
    hi = np.append(cands[1:], cands[0] + alpha)
    keep = hi - cands > 1e-14
    ends = np.arange(len(cands))
    ends = np.array([ends, (ends + 1) % len(cands)])[:, keep]
    lo, hi = cands[keep], hi[keep]
    return (cands.tolist(), np.concatenate([cands, (lo + hi) / 2.0]), lo, hi,
            np.full(keep.sum(), -1), ends)


def _graph_pieces(ds: GraphDirections, radii, dirs):
    """Candidates (the breakpoints on every edge: its ends, atom directions,
    and where an atom's distance switches branch or reaches pi), the
    canonical candidates and then the piece midpoints as one (edge, offset)
    array, the pieces between consecutive candidates on each edge, and the
    (2, P) candidate indices at each piece's lo and hi.

    Every edge's cuts are one row of an (edges, cuts) array, a column per
    cut rule and carried atom (nan where an atom is not on the edge).  A row
    keeps the cuts in [-1e-14, L + 1e-14], clipped to [0, L], sorted, less
    exact repeats and less those that `_merged` drops."""
    # (edges, m): distance from each edge's first and second endpoint to
    # each carried atom's direction
    carried = radii > 0.0
    ra, rb = (d[:, carried] for d in ds.endpoint_distances(dirs))
    length = ds._endpoint_arrays[3][:, None]
    home, off = np.array([d for d, r in zip(dirs, carried) if r]).reshape(-1, 2).T
    off = np.where(home == np.arange(len(length))[:, None], off, np.nan)
    far = rb + length  # the distance along the branch through the second endpoint
    cuts = np.hstack([np.zeros_like(length), length, (far - ra) / 2.0,
                      PI - ra, (PI - far) / -1.0,  # the pi crossing of each branch
                      off, (off - ra) / 2.0, (off + rb + length) / 2.0,
                      (PI - off) / -1.0, PI + off])
    keep = (cuts >= -1e-14) & (cuts <= length + 1e-14)
    # past every kept cut: a row sorts its dropped cuts last
    cuts = np.where(keep, np.where(cuts > 0.0, np.minimum(cuts, length), 0.0), length + 1.0)
    cuts.sort(axis=1)
    keep = cuts <= length
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    edge, col = np.nonzero(keep)
    coord = cuts[edge, col]
    kept = _merged(coord, (edge[1:] == edge[:-1]) & (np.diff(coord) <= 1e-14))
    edge, coord = edge[kept], coord[kept]
    e, o = ds.canonical_arrays(edge, coord)
    lo_end = np.flatnonzero(edge[1:] == edge[:-1])
    lo, hi = coord[lo_end], coord[lo_end + 1]
    at = np.column_stack([np.concatenate([e, edge[lo_end]]),
                          np.concatenate([o, (lo + hi) / 2.0])])
    return (list(zip(edge.tolist(), coord.tolist())), at, lo, hi, edge[lo_end],
            np.array([lo_end, lo_end + 1]))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _critical_angles(table: PieceTable, a, b, pieces=slice(None)):
    """Critical angles lo + mod(atan2(b, a) - lo, 2 pi) of c - a cos(theta)
    - b sin(theta) on every piece (or on the pieces given as indices into
    the table), and whether each lies in its piece (a flat piece, a = b = 0,
    has none)."""
    lo = table.lo[pieces]
    theta = lo + np.mod(np.arctan2(b, a) - lo, TWO_PI)
    return theta, (theta <= table.hi[pieces] + 1e-15) & (np.hypot(a, b) > 0.0)


def _inside_coords(system: DirectionSystem, theta, edges) -> tuple[list, object]:
    """Canonical direction coordinates of the angles theta on pieces of the
    given edges: as a list, and as an array the metric reads."""
    ds = system.space.directions
    if system.kind == "circle":
        coords = [ds.canonical(t) for t in theta.tolist()]
        return coords, coords
    if system.kind == "finite":
        return [], []  # a finite direction set has no pieces
    e, o = ds.canonical_arrays(edges, theta)
    return list(zip(e.tolist(), o.tolist())), np.column_stack([e, o])


def min_derivative(system: DirectionSystem, weights) -> tuple[object, float]:
    """Minimize the direction derivative over all directions.

    Breakpoints are always candidates (the derivative is non-smooth there);
    each smooth piece adds its closed-form critical angle when that lies
    inside the piece.  Every candidate is scored with the exact derivative,
    and ties within TIE_TOL (w @ radii + |best|) go to the smallest canonical
    coordinate: both terms scale with a dilation r -> s r, so the argmin does
    not depend on the scale."""
    return _minimize(system, np.asarray(weights, dtype=float))[:2]


def _minimize(system: DirectionSystem, w: np.ndarray) -> tuple[object, float, list,
                                                                np.ndarray]:
    """`min_derivative`'s argmin and value, the exact derivatives at the
    candidates that it scored on the way, and the pulls at the argmin."""
    table = system.pieces
    theta, inside = _critical_angles(table, w @ table.a, w @ table.b)
    critical, at = _inside_coords(system, theta[inside], table.edge[inside])
    coords = system.candidates + critical
    at_candidates = system.derivatives(w)
    pulls = system._canonical_pulls(at)
    values = at_candidates + _derivatives(w, pulls)
    best = min(values)
    tied = best + TIE_TOL * (float(w @ system.radii) + abs(best))
    canonical = system.space.directions.canonical
    ties = np.flatnonzero(np.array(values) <= tied).tolist()
    _, g = min((canonical(coords[g]), g) for g in ties)
    k = len(at_candidates)
    return coords[g], values[g], at_candidates, (system.pulls[:, g] if g < k
                                                 else pulls[:, g - k])


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
    # the roots in [0, 1], root by root (nan and the others have no angle)
    root, piece = np.nonzero((t >= 0.0) & (t <= 1.0))
    t = t[root, piece]
    theta, inside = _critical_angles(table, a0[piece] + t * da[piece],
                                     b0[piece] + t * db[piece], piece)
    return _inside_coords(system, theta[inside], table.edge[piece][inside])[0]


def _end_derivatives(table: PieceTable) -> np.ndarray:
    """(m, 2P) table of each atom's part of the derivative a sin(theta) -
    b cos(theta) at every piece's lo (first P columns) and hi (last P)."""
    return np.hstack([table.a * np.sin(table.lo) - table.b * np.cos(table.lo),
                      table.a * np.sin(table.hi) - table.b * np.cos(table.hi)])


def batch_min_derivative(system: DirectionSystem, coeffs: np.ndarray) -> np.ndarray:
    """Vectorized minimum derivative for rows of atom coefficients.

    Each row plays the role of (weight * radius-normalization) per atom, e.g.
    resample counts / n.  A piece's end derivatives a sin(theta) -
    b cos(theta) are linear in the row, so one (m x 2P) table of the
    per-atom derivatives at every lo and hi screens every piece with one
    matrix product.  A piece adds its value c - hypot(a, b) only where the
    derivative is < 0 at lo and > 0 at hi, which puts the critical angle
    strictly inside; a, b and c are formed for those cells alone.  A flat
    piece has a zero column, so it never passes, and a critical angle on a
    piece end is a breakpoint, which the candidates already score.  Rows go
    through in blocks of ROW_BLOCK, each converted to float on its own, so
    integer rows such as resample counts need no float copy and memory
    stays O(ROW_BLOCK * (candidates + pieces)) for any number of rows.
    """
    coeffs = np.asarray(coeffs)
    table = system.pieces
    P = len(table)
    ends = _end_derivatives(table)
    abc = np.stack([table.a.T, table.b.T, table.c.T])  # (3, P, m)
    best = np.empty(len(coeffs))
    for start in range(0, len(coeffs), ROW_BLOCK):
        x = coeffs[start:start + ROW_BLOCK].astype(float, copy=False)
        piece_min = np.inf  # a finite direction set has no pieces
        if P:
            d = x @ ends
            rows, cols = np.divmod(np.flatnonzero((d[:, :P] < 0.0) & (d[:, P:] > 0.0)), P)
            a, b, c = np.einsum("kj,ikj->ik", x[rows], abc[:, cols])
            piece_min = np.full(len(x), np.inf)
            np.minimum.at(piece_min, rows, c - np.hypot(a, b))
        # min over candidates of -(x . pull) == -(max of x . pull)
        best[start:start + ROW_BLOCK] = np.minimum(-(x @ system.pulls).max(axis=1), piece_min)
    return best


def resample_distances(system: DirectionSystem, counts: np.ndarray, n: int) -> np.ndarray:
    """Distance -min / n from the cone point of each n-sample mean, for rows
    of resample counts; 0 unless min < -TIE_TOL (counts @ radii), as a tie's
    rounding grows with the radii.  That scale is formed a ROW_BLOCK at a
    time, so integer counts need no whole float copy."""
    best = batch_min_derivative(system, counts)
    scale = np.empty(len(best))
    for start in range(0, len(best), ROW_BLOCK):
        scale[start:start + ROW_BLOCK] = counts[start:start + ROW_BLOCK] @ system.radii
    return np.where(best < -TIE_TOL * scale, -best / n, 0.0)
