"""Internal machinery for minimizing direction derivatives of the Frechet
function at the cone point.

The derivative in direction sigma is -sum_i w_i r_i cos(d_pi(sigma, dir_i)).
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

    kind: str                      # finite | circle | graph | book
    space: Space
    radii: np.ndarray              # (m,)
    candidates: list               # direction coords: enumeration or breakpoints
    pulls: np.ndarray              # (m, len(candidates)) pull of atom i at candidate
    pieces: PieceTable
    atom_dirs: list = field(default_factory=list)
    alpha: float | None = None
    edge_data: dict | None = None  # graph: per-edge per-atom endpoint distances

    def derivative_at(self, weights, coord) -> float:
        """Exact scalar derivative -sum w_i * pull_i(coord)."""
        return -math.fsum(w * p for w, p in zip(weights, self._pull_column(coord)))

    def _pull_column(self, coord):
        if self.kind in ("finite", "book"):
            ds: FiniteDirections = self.space.directions if self.kind == "finite" \
                else self.space.spider.directions
            c = ds.canonical(coord)
            return [r * math.cos(min(ds.distance(c, d), PI))
                    for r, d in zip(self.radii, self.atom_dirs)]
        if self.kind == "circle":
            ds = self.space.directions
            t = ds.canonical(coord)
            return [r * math.cos(min(ds.distance(t, d), PI))
                    for r, d in zip(self.radii, self.atom_dirs)]
        eid, off = coord
        u, v, length = self.space.directions.edges[eid]
        ra, rb = self.edge_data[eid]
        cols = []
        for i, (r, d) in enumerate(zip(self.radii, self.atom_dirs)):
            dist = min(ra[i] + off, rb[i] + (length - off))
            if d[0] == eid:
                dist = min(dist, abs(off - d[1]))
            cols.append(r * math.cos(min(dist, PI)))
        return cols


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def build_system(sp: Space, mu: Measure) -> DirectionSystem:
    if isinstance(sp, OpenBook):
        marg = spider_marginal(sp, mu)
        sub = build_system(sp.spider, marg)
        return DirectionSystem("book", sp, sub.radii, sub.candidates, sub.pulls,
                               sub.pieces, sub.atom_dirs)
    ds = sp.directions
    radii = np.array([p.radius for p in mu.points()])
    dirs = [p.direction for p in mu.points()]
    if isinstance(ds, FiniteDirections):
        cands = list(range(ds.size))
        pulls = np.array([[r * math.cos(min(ds.distance(d, g), PI)) for g in cands]
                          for r, d in zip(radii, dirs)])
        return DirectionSystem("finite", sp, radii, cands, pulls,
                               PieceTable.stack([], len(radii)), dirs)
    if isinstance(ds, CircleDirections):
        return _build_circle(sp, ds, radii, dirs)
    return _build_graph(sp, ds, radii, dirs)


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
    pulls = np.array([[r * math.cos(min(ds.distance(d, g), PI)) for g in cands]
                      for r, d in zip(radii, dirs)])
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
    return DirectionSystem("circle", sp, radii, cands, pulls,
                           PieceTable.stack(pieces, m), dirs, alpha=alpha)


def _build_graph(sp, ds: GraphDirections, radii, dirs) -> DirectionSystem:
    m = len(radii)
    edge_data = {}
    pieces = []
    cand_coords: list[tuple[int, float]] = []
    for eid, (u, v, length) in enumerate(ds.edges):
        ra = [ds.vertex_to_coord(u, d) for d in dirs]
        rb = [ds.vertex_to_coord(v, d) for d in dirs]
        edge_data[eid] = (ra, rb)
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
    pulls = np.array([
        [0.0] * len(cand_coords) for _ in range(m)]) if m else np.zeros((0, 0))
    for i, (r, d) in enumerate(zip(radii, dirs)):
        for g, coord in enumerate(cand_coords):
            pulls[i][g] = r * math.cos(min(ds.distance(d, coord), PI))
    return DirectionSystem("graph", sp, radii, cand_coords, np.asarray(pulls),
                           PieceTable.stack(pieces, m), dirs,
                           edge_data=edge_data)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _coord_key(system: DirectionSystem, coord):
    if system.kind in ("finite", "book"):
        return (coord,)
    if system.kind == "circle":
        return (system.space.directions.canonical(coord),)
    c = system.space.directions.canonical(coord)
    return c


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
    and ties within TIE_TOL go to the smallest coordinate."""
    w = np.asarray(weights, dtype=float)
    entries = []
    for g, coord in enumerate(system.candidates):
        val = -math.fsum(wi * pi_ for wi, pi_ in zip(w, system.pulls[:, g]))
        entries.append((val, _coord_key(system, coord), coord))
    table = system.pieces
    theta, inside, _ = _piece_minimum(table, w)
    canonical = system.space.directions.canonical
    for t, eid in zip(theta[inside].tolist(), table.edge[inside].tolist()):
        coord = canonical(t if system.kind == "circle" else (eid, t))
        entries.append((system.derivative_at(w, coord),
                        _coord_key(system, coord), coord))
    best = min(e[0] for e in entries)
    tol = TIE_TOL * (1.0 + abs(best))
    tied = [e for e in entries if e[0] <= best + tol]
    tied.sort(key=lambda e: e[1])
    _, _, coord = tied[0]
    if system.kind in ("finite", "book"):
        return coord, min(e[0] for e in tied if e[1] == tied[0][1])
    # return the exact value at the winning coordinate
    return coord, system.derivative_at(w, coord)


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
