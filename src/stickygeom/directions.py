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
`build_system` reads the rest from the metric: one table of atom-to-candidate
distances gives the pulls and each atom's distance at both ends of every
piece, and one more gives its distance at every midpoint.  The slope, the
sign of d(hi) - d(lo), and the midpoint distance give the phase, and
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
        return _pulls(self.radii, ds.distances(self.atom_dirs,
                                               [ds.canonical(c) for c in coords]))

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
    this is the system of its spider marginal, whose weights go with it.

    The kind's builder finds the candidates and the pieces between them;
    everything else is read from the metric.  One table of every atom's
    distance to every candidate gives the pulls and, in its columns, the
    distances at both ends of every piece; one more gives the distances at
    the piece midpoints.  On a piece an atom's distance has slope +-1, the
    sign of d(hi) - d(lo), and the atom adds r cos(theta + phase) with phase
    slope * d(mid) - mid."""
    if isinstance(sp, OpenBook):
        return build_system(sp.spider, spider_marginal(sp, mu))
    ds = sp.directions
    radii = np.array([p.radius for p in mu.points()])
    dirs = [p.direction for p in mu.points()]
    if isinstance(ds, FiniteDirections):
        kind, cands = "finite", list(range(ds.size))
        lo = hi = np.zeros(0)
        edge, ends = np.zeros(0, dtype=int), np.zeros((2, 0), dtype=int)
    elif isinstance(ds, CircleDirections):
        kind, (cands, lo, hi, edge, ends) = "circle", _circle_pieces(ds, radii, dirs)
    else:
        kind, (cands, lo, hi, edge, ends) = "graph", _graph_pieces(ds, radii, dirs)
    dist = ds.distances(dirs, [ds.canonical(c) for c in cands])
    mid = (lo + hi) / 2.0
    mid_dist = ds.distances(dirs, mid if kind == "circle"
                            else list(zip(edge.tolist(), mid.tolist())))
    phase = np.sign(dist[:, ends[1]] - dist[:, ends[0]]) * mid_dist - mid
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


def _sorted_merged(values) -> list:
    """The values in increasing order, less any within 1e-14 of the last one
    kept."""
    out = []
    for val in sorted(values):
        if not out or val - out[-1] > 1e-14:
            out.append(val)
    return out


def _circle_pieces(ds: CircleDirections, radii, dirs):
    """Candidates (the breakpoints: every atom's direction and where its
    distance reaches pi or its largest value), the pieces between them, and
    the (2, P) candidate indices at each piece's lo and hi."""
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
    ends = np.arange(len(lo))
    ends = np.array([ends, (ends + 1) % len(lo)])[:, keep]
    return cands, lo[keep], hi[keep], np.full(keep.sum(), -1), ends


def _graph_pieces(ds: GraphDirections, radii, dirs):
    """Candidates (the breakpoints on every edge: its ends, atom directions,
    and where an atom's distance switches branch or reaches pi), the pieces
    between consecutive ones on each edge, and the (2, P) candidate indices
    at each piece's lo and hi."""
    # (edges, m): distance from each edge's first and second endpoint to
    # each atom's direction
    to_first, to_second = ds.endpoint_distances(dirs)
    cand_coords: list[tuple[int, float]] = []
    los, his, piece_edges, lo_end = [], [], [], []
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
        lo_end += range(len(cand_coords), len(cand_coords) + len(cleaned) - 1)
        cand_coords += [(eid, coord) for coord in cleaned]
        los += cleaned[:-1]
        his += cleaned[1:]
        piece_edges += [eid] * (len(cleaned) - 1)
    lo_end = np.array(lo_end, dtype=int)
    return (cand_coords, np.array(los), np.array(his), np.array(piece_edges, dtype=int),
            np.array([lo_end, lo_end + 1]))


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
    and ties within TIE_TOL (w @ radii + |best|) go to the smallest canonical
    coordinate: both terms scale with a dilation r -> s r, so the argmin does
    not depend on the scale."""
    w = np.asarray(weights, dtype=float)
    table = system.pieces
    theta, inside = _critical_angles(table, w @ table.a, w @ table.b)
    critical = _inside_coords(system, theta, inside)
    coords = system.candidates + critical
    values = system.derivatives(w) + system.derivatives(w, critical)
    best = min(values)
    tol = TIE_TOL * (float(w @ system.radii) + abs(best))
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
