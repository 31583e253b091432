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
a measure are stacked once into a `PieceTable` (one column per piece), and
both minimizers share one closed form over the whole table: the scalar one
adds the critical angles to the breakpoint candidates and scores them
exactly, the batched one used by the Monte Carlo paths takes the
closed-form values for blocks of rows at once.
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

    @classmethod
    def stack(cls, pieces, m: int) -> "PieceTable":
        """Table from (lo, hi, col_a, col_b, col_c, edge) tuples."""
        if not pieces:
            empty = np.zeros((m, 0))
            return cls(np.zeros(0), np.zeros(0), empty, empty, empty,
                       np.zeros(0, dtype=int))
        lo, hi, col_a, col_b, col_c, edge = zip(*pieces)
        return cls(np.array(lo), np.array(hi), np.column_stack(col_a),
                   np.column_stack(col_b), np.column_stack(col_c),
                   np.array(edge))

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
    # graph: (ra, rb), each (edges, m): distance from each edge's first and
    # second endpoint to each atom's direction
    edge_data: tuple | None = None

    def pull_matrix(self, coords) -> np.ndarray:
        """Pulls r_i cos(min(d(coord, dir_i), pi)) of every atom at every
        coordinate, as an (m, len(coords)) array.  Coordinates are
        canonicalized first, so one off the direction space raises
        ValueError."""
        ds = self.space.directions
        canon = [ds.canonical(c) for c in coords]
        if self.kind == "finite":
            dist = np.asarray(ds.angles).T[np.ix_(self.atom_dirs, canon)]
        elif self.kind == "circle":
            raw = np.fmod(np.abs(np.array(canon) - np.array(self.atom_dirs)[:, None]),
                          ds.alpha)
            dist = np.minimum(raw, ds.alpha - raw)
        else:
            eids = np.array([e for e, _ in canon], dtype=int)
            offs = np.array([o for _, o in canon], dtype=float)
            length = np.array([e[2] for e in ds.edges])[eids]
            ra, rb = self.edge_data
            dist = np.minimum(ra[eids].T + offs, rb[eids].T + (length - offs))
            # an atom on the coordinate's own edge is also reached directly
            atom_eid, atom_off = np.array(self.atom_dirs).reshape(-1, 2).T[:, :, None]
            dist = np.minimum(dist, np.where(atom_eid == eids, np.abs(offs - atom_off),
                                             np.inf))
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
        system = DirectionSystem("finite", sp, radii, list(range(ds.size)), None,
                                 PieceTable.stack([], len(radii)), dirs)
    elif isinstance(ds, CircleDirections):
        system = _build_circle(sp, ds, radii, dirs)
    else:
        system = _build_graph(sp, ds, radii, dirs)
    system.pulls = system.pull_matrix(system.candidates)
    return system


def _wrap_sorted_unique(values, period):
    out = []
    for val in sorted(values):
        if not out or val - out[-1] > 1e-14:
            out.append(val)
    if out and period - (out[-1] - out[0]) <= 1e-14:
        out.pop()
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
    cands = _wrap_sorted_unique(bps, alpha)
    pieces = []
    m = len(radii)
    for idx, lo in enumerate(cands):
        hi = cands[idx + 1] if idx + 1 < len(cands) else cands[0] + alpha
        if hi - lo <= 1e-14:
            continue
        mid = (lo + hi) / 2.0
        col_a = np.zeros(m)
        col_b = np.zeros(m)
        col_c = np.zeros(m)
        for i, (r, theta) in enumerate(zip(radii, dirs)):
            if r <= 0.0:
                continue
            best_k, best_d = 0, math.inf
            for k in (-2, -1, 0, 1, 2):
                d = abs(mid - theta + k * alpha)
                if d < best_d:
                    best_k, best_d = k, d
            if best_d >= PI:
                col_c[i] = r
            else:
                delta = best_k * alpha - theta
                col_a[i] = r * math.cos(delta)
                col_b[i] = -r * math.sin(delta)
        pieces.append((lo, hi, col_a, col_b, col_c, -1))
    return DirectionSystem("circle", sp, radii, cands, None,
                           PieceTable.stack(pieces, m), dirs)


def _build_graph(sp, ds: GraphDirections, radii, dirs) -> DirectionSystem:
    m = len(radii)
    ra_rows, rb_rows = [], []
    pieces = []
    cand_coords: list[tuple[int, float]] = []
    for eid, (u, v, length) in enumerate(ds.edges):
        ra = [ds.vertex_to_coord(u, d) for d in dirs]
        rb = [ds.vertex_to_coord(v, d) for d in dirs]
        ra_rows.append(ra)
        rb_rows.append(rb)
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
        cut_list = sorted(c for c in cuts if -1e-14 <= c <= length + 1e-14)
        cleaned = []
        for c in cut_list:
            c = min(max(c, 0.0), length)
            if not cleaned or c - cleaned[-1] > 1e-14:
                cleaned.append(c)
        for coord in cleaned:
            cand_coords.append((eid, coord))
        for lo, hi in zip(cleaned, cleaned[1:]):
            mid = (lo + hi) / 2.0
            col_a = np.zeros(m)
            col_b = np.zeros(m)
            col_c = np.zeros(m)
            for i, r in enumerate(radii):
                if r <= 0.0:
                    continue
                opts = [(ra[i] + mid, 1.0), (rb[i] + length - mid, -1.0)]
                if dirs[i][0] == eid:
                    off = dirs[i][1]
                    opts.append((abs(mid - off), 1.0 if mid >= off else -1.0))
                dist, slope = min(opts, key=lambda t: t[0])
                if dist >= PI:
                    col_c[i] = r
                else:
                    delta = slope * dist - mid
                    col_a[i] = r * math.cos(delta)
                    col_b[i] = -r * math.sin(delta)
            pieces.append((lo, hi, col_a, col_b, col_c, eid))
    edge_data = (np.array(ra_rows).reshape(len(ds.edges), m),
                 np.array(rb_rows).reshape(len(ds.edges), m))
    return DirectionSystem("graph", sp, radii, cand_coords, None,
                           PieceTable.stack(pieces, m), dirs, edge_data)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _piece_minimum(table: PieceTable, coeffs: np.ndarray):
    """Closed-form minimum of c - a cos(theta) - b sin(theta) on every piece
    of the table, for each row of atom coefficients (one matrix product per
    coefficient; a 1-D row gives 1-D results).

    Returns the critical angles theta* = lo + mod(atan2(b, a) - lo, 2 pi),
    whether each theta* lies in its piece (a flat piece, a = b = 0, has
    none), and the values c - hypot(a, b) there."""
    a = coeffs @ table.a
    b = coeffs @ table.b
    radius = np.hypot(a, b)
    theta = table.lo + np.mod(np.arctan2(b, a) - table.lo, TWO_PI)
    inside = (theta <= table.hi + 1e-15) & (radius > 0.0)
    return theta, inside, coeffs @ table.c - radius


def min_derivative(system: DirectionSystem, weights) -> tuple[object, float]:
    """Minimize the direction derivative over all directions.

    Breakpoints are always candidates (the derivative is non-smooth there);
    each smooth piece adds its closed-form critical angle when that lies
    inside the piece.  Every candidate is scored with the exact derivative,
    and ties within TIE_TOL go to the smallest canonical coordinate."""
    w = np.asarray(weights, dtype=float)
    table = system.pieces
    theta, inside, _ = _piece_minimum(table, w)
    canonical = system.space.directions.canonical
    critical = [canonical(t if system.kind == "circle" else (eid, t))
                for t, eid in zip(theta[inside].tolist(), table.edge[inside].tolist())]
    coords = system.candidates + critical
    values = system.derivatives(w) + system.derivatives(w, critical)
    best = min(values)
    tol = TIE_TOL * (1.0 + abs(best))
    _, g = min((canonical(coords[g]), g) for g, v in enumerate(values)
               if v <= best + tol)
    return coords[g], values[g]


def batch_min_derivative(system: DirectionSystem, coeffs: np.ndarray) -> np.ndarray:
    """Vectorized minimum derivative for rows of atom coefficients.

    Each row plays the role of (weight * radius-normalization) per atom, e.g.
    resample counts / n.  Rows go through the candidate pulls and the
    stacked piece table in blocks of ROW_BLOCK, so memory stays
    O(ROW_BLOCK * (candidates + pieces)) for any number of rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    best = np.empty(len(coeffs))
    for start in range(0, len(coeffs), ROW_BLOCK):
        x = coeffs[start:start + ROW_BLOCK]
        _, inside, value = _piece_minimum(system.pieces, x)
        # min over candidates of -(x . pull) == -(max of x . pull)
        best[start:start + ROW_BLOCK] = np.minimum(
            -(x @ system.pulls).max(axis=1),
            np.where(inside, value, np.inf).min(axis=1, initial=np.inf))
    return best
