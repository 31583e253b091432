"""Stratified metric spaces: Euclidean cones over direction spaces, and open books.

Conventions used throughout the package:

- A point of a cone is a (direction, radius) pair; every point with radius 0
  is the cone point and compares equal no matter which direction it carries.
- Direction distances are "raw"; the cone metric caps them at pi.
- Angles are radians stored as float64.
- Open books are the product of a K-spider (all page angles pi) with
  R^(d-1); their points additionally carry a euclidean component.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PI = math.pi
COORD_TOL = 1e-12
WEIGHT_TOL = 1e-12


# ---------------------------------------------------------------------------
# direction spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDirections:
    """Finite direction set given by a symmetric matrix of pairwise angles."""

    angles: tuple[tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.angles)

    def distance(self, a: int, b: int) -> float:
        return self.angles[a][b]

    def distances(self, a, b) -> np.ndarray:
        """`distance` from each index of a to each of b, as a (len(a),
        len(b)) array."""
        return np.array(self.angles)[np.ix_(a, b)]

    def canonical(self, coord) -> int:
        try:
            c = int(coord)
        except (TypeError, ValueError, OverflowError):
            c = -1
        if c != coord or not 0 <= c < self.size:
            raise ValueError(f"direction index {coord!r} out of range 0..{self.size - 1}")
        return c

    @property
    def is_spider(self) -> bool:
        k = self.size
        return all(self.angles[i][j] >= PI - COORD_TOL
                   for i in range(k) for j in range(k) if i != j)


@dataclass(frozen=True)
class CircleDirections:
    """Circle of total length alpha with the wrap-around metric."""

    alpha: float

    def distance(self, a: float, b: float) -> float:
        d = math.fmod(abs(a - b), self.alpha)
        return min(d, self.alpha - d)

    def distances(self, a, b) -> np.ndarray:
        """`distance` from each coordinate of a to each of b, as a (len(a),
        len(b)) array."""
        d = np.fmod(np.abs(np.subtract.outer(a, b)), self.alpha)
        return np.minimum(d, self.alpha - d)

    def canonical(self, coord) -> float:
        try:
            t = float(coord)
        except (TypeError, ValueError):
            raise ValueError(f"circle coordinate {coord!r} is not a number") from None
        if not math.isfinite(t):
            raise ValueError(f"circle coordinate {coord!r} is not finite")
        t = math.fmod(t, self.alpha)
        if t < 0.0:
            t += self.alpha
        if t >= self.alpha:  # fmod rounding at the seam
            t = 0.0
        return t


@dataclass(frozen=True)
class GraphDirections:
    """Connected metric graph; coordinates are (edge id, offset from the
    edge's first endpoint).  Every distance on it comes from one endpoint
    rule over the vertex-distance table D: d(w, (e, o)) =
    min(D[w][u_e] + o, D[w][v_e] + (L_e - o))."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    @cached_property
    def _vertex_dist(self) -> tuple[tuple[float, ...], ...]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.vertex_count)]
        for u, v, length in self.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        rows = []
        for s in range(self.vertex_count):
            dist = [math.inf] * self.vertex_count
            dist[s] = 0.0
            heap = [(0.0, s)]
            while heap:
                d, w = heapq.heappop(heap)
                if d > dist[w]:
                    continue
                for x, length in adj[w]:
                    nd = d + length
                    if nd < dist[x]:
                        dist[x] = nd
                        heapq.heappush(heap, (nd, x))
            rows.append(dist)
        # each row sums its paths from its own source, so D[s][t] and D[t][s]
        # can differ in the last bit; one copy of each pair keeps D symmetric
        for s in range(self.vertex_count):
            for t in range(s + 1, self.vertex_count):
                rows[t][s] = rows[s][t]
        return tuple(tuple(row) for row in rows)

    @cached_property
    def _vertex_home(self) -> tuple[tuple[int, float], ...]:
        # canonical (edge, offset) representation of each vertex
        home: list[tuple[int, float] | None] = [None] * self.vertex_count
        for eid, (u, v, length) in enumerate(self.edges):
            if home[u] is None:
                home[u] = (eid, 0.0)
            if home[v] is None:
                home[v] = (eid, length)
        return tuple(home)  # connectivity guarantees no None survives

    @cached_property
    def _home_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # `_vertex_home` as an edge array and an offset array
        eids, offs = zip(*self._vertex_home)
        return np.array(eids), np.array(offs)

    def canonical(self, coord) -> tuple[int, float]:
        try:
            raw_eid, off = coord
            eid, off = int(raw_eid), float(off)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"graph coordinate {coord!r} is not an (edge, offset) pair") from None
        if eid != raw_eid or not 0 <= eid < len(self.edges):
            raise ValueError(f"edge id {raw_eid!r} is not one of 0..{len(self.edges) - 1}")
        u, v, length = self.edges[eid]
        if not -COORD_TOL <= off <= length + COORD_TOL:  # also rejects nan
            raise ValueError(f"offset {off} is off edge {eid} of length {length}")
        if off <= 0.0:
            return self._vertex_home[u]
        if off >= length:
            return self._vertex_home[v]
        return (eid, off)

    def canonical_arrays(self, eids: np.ndarray,
                         offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`canonical` of coordinates that lie on their edges (offsets in
        [-COORD_TOL, length + COORD_TOL]), given and returned as an edge
        array and an offset array."""
        _, u, v, length = self._endpoint_arrays
        at = np.where(offs <= 0.0, u[eids], np.where(offs >= length[eids], v[eids], -1))
        home_e, home_o = self._home_arrays
        vertex = at >= 0
        return np.where(vertex, home_e[at], eids), np.where(vertex, home_o[at], offs)

    @cached_property
    def _endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # the vertex-distance table, and each edge's first endpoint, second
        # endpoint and length, as arrays (the table stays tuples for the
        # scalar readers)
        u, v, length = zip(*self.edges)
        return np.array(self._vertex_dist), np.array(u), np.array(v), np.array(length)

    def vertex_to_coord(self, w: int, coord: tuple[int, float]) -> float:
        """Distance from vertex w to the point (edge, offset) by the endpoint
        rule min(d(w, u) + offset, d(w, v) + (length - offset))."""
        eid, off = coord
        u, v, length = self.edges[eid]
        dv = self._vertex_dist[w]
        return min(dv[u] + off, dv[v] + (length - off))

    def _from_vertices(self, eids, offs) -> tuple[np.ndarray, ...]:
        # `vertex_to_coord` from every vertex to every coordinate, given as
        # edge and offset arrays, as a (vertices, len(eids)) array; with each
        # coordinate's edge's first endpoint, second endpoint and length
        dist, u, v, length = self._endpoint_arrays
        ue, ve, le = u[eids], v[eids], length[eids]
        # take: a gather of whole rows or columns, faster than [] indexing
        return (np.minimum(dist.take(ue, axis=1) + offs, dist.take(ve, axis=1) + (le - offs)),
                ue, ve, le)

    def endpoint_distances(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """`vertex_to_coord` from every edge's first endpoint and from its
        second endpoint to every coordinate: two (edges, len(coords)) arrays."""
        near = self._from_vertices(*_edges_offsets(coords))[0]
        _, u, v, _ = self._endpoint_arrays
        return near.take(u, axis=0), near.take(v, axis=0)

    def distances(self, a, b) -> np.ndarray:
        """`distance` from each coordinate of a to each of b, as a (len(a),
        len(b)) array, read cell by cell as `distance` reads it, so
        distances(a, b) is exactly distances(b, a).T.  Each of a and b is a
        sequence of (edge, offset) pairs, such as a list of tuples or an
        (n, 2) array."""
        (ea, oa), (eb, ob) = _edges_offsets(a), _edges_offsets(b)
        n = len(ea)
        o = np.concatenate([oa, ob])
        near, ue, ve, le = self._from_vertices(np.concatenate([ea, eb]), o)
        w = np.where(o == 0.0, ue, np.where(o == le, ve, -1))  # -1 inside an edge
        near_a, ua, va, la, wa = near[:, :n], ue[:n], ve[:n], le[:n, None], w[:n]
        near_b, ub, vb, lb, wb = near[:, n:], ue[n:], ve[n:], le[n:], w[n:]
        oa = oa[:, None]
        same = ea[:, None] == eb
        a_first = (ea[:, None] < eb) | (same & (oa < ob))
        # the endpoint rule from the ends of the later coordinate's edge, or
        # along an edge both share; in place, so that a wide table holds
        # three arrays of its size at once
        dist = _plus(near_b.take(ua, axis=0), oa)
        np.minimum(dist, _plus(near_b.take(va, axis=0), la - oa), out=dist)
        other = _plus(near_a.take(ub, axis=0).T, ob)
        np.minimum(other, _plus(near_a.take(vb, axis=0).T, lb - ob), out=other)
        np.copyto(dist, other, where=a_first)
        np.abs(np.subtract(oa, ob, out=other), out=other)
        np.minimum(dist, other, out=dist, where=same)
        # a vertex reads the rule from its own row of the table; of two
        # vertices, the first in canonical order does
        rows, cols = np.flatnonzero(wa >= 0), np.flatnonzero(wb >= 0)
        if len(rows):
            dist[rows] = np.where(a_first[rows] | (wb < 0), near_b.take(wa[rows], axis=0),
                                  dist[rows])
        if len(cols):
            read = (wa[:, None] >= 0) & a_first[:, cols]  # the row read it
            dist[:, cols] = np.where(read, dist[:, cols], near_a.take(wb[cols], axis=0).T)
        return dist

    def distance(self, a, b) -> float:
        ca, cb = self.canonical(a), self.canonical(b)
        if ca == cb:
            return 0.0
        if cb < ca:  # fixed evaluation order keeps the metric exactly symmetric
            ca, cb = cb, ca
        (ea, oa), (eb, ob) = ca, cb
        ua, va, la = self.edges[ea]
        u, v, length = self.edges[eb]
        # a vertex reads the rule from its own row (of two, the first does)
        if oa == 0.0 or oa == la:
            return self.vertex_to_coord(ua if oa == 0.0 else va, cb)
        if ob == 0.0 or ob == length:
            return self.vertex_to_coord(u if ob == 0.0 else v, ca)
        best = min(self.vertex_to_coord(u, ca) + ob,
                   self.vertex_to_coord(v, ca) + (length - ob))
        if ea == eb:
            best = min(best, abs(oa - ob))
        return best


DirectionSpace = FiniteDirections | CircleDirections | GraphDirections


def _plus(x: np.ndarray, y) -> np.ndarray:
    # x + y into x, which the caller owns
    x += y
    return x


def _edges_offsets(coords) -> tuple[np.ndarray, np.ndarray]:
    # the edges and the offsets of a sequence of (edge, offset) pairs; rows
    # of an (n, 2) array convert without a Python loop
    if isinstance(coords, np.ndarray):
        return coords[:, 0].astype(int), coords[:, 1].astype(float, copy=False)
    return (np.array([e for e, _ in coords], dtype=int),
            np.array([o for _, o in coords], dtype=float))


def finite_directions(matrix) -> FiniteDirections:
    rows = [[float(x) for x in row] for row in matrix]
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise ValueError("distance matrix must be square and non-empty")
    for i in range(k):
        if rows[i][i] != 0.0:
            raise ValueError(f"distance matrix diagonal entry {i} is not 0")
        for j in range(k):
            if rows[i][j] < 0.0:
                raise ValueError(f"negative distance at ({i},{j})")
            if abs(rows[i][j] - rows[j][i]) > COORD_TOL:
                raise ValueError(f"distance matrix not symmetric at ({i},{j})")
    # one copy of each pair keeps the metric exactly symmetric
    for i in range(k):
        for j in range(i + 1, k):
            rows[j][i] = rows[i][j]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if rows[i][j] > rows[i][l] + rows[l][j] + COORD_TOL:
                    raise ValueError(
                        f"triangle inequality fails for direction triple ({i},{j},{l})")
    return FiniteDirections(tuple(tuple(row) for row in rows))


def spider_directions(k: int) -> FiniteDirections:
    if k < 2:
        raise ValueError("a spider needs at least 2 legs")
    return FiniteDirections(tuple(
        tuple(0.0 if i == j else PI for j in range(k)) for i in range(k)))


def circle_directions(alpha: float) -> CircleDirections:
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("circle length alpha must be positive and finite")
    return CircleDirections(alpha)


def graph_directions(vertex_count: int, edges) -> GraphDirections:
    vertex_count = int(vertex_count)
    norm = []
    for e in edges:
        u, v, length = int(e[0]), int(e[1]), float(e[2])
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) references a vertex out of range")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if not (length > 0.0 and math.isfinite(length)):
            raise ValueError(f"edge ({u},{v}) must have positive finite length")
        norm.append((u, v, length))
    if not norm:
        raise ValueError("graph needs at least one edge")
    ds = GraphDirections(vertex_count, tuple(norm))
    if any(math.inf in row for row in ds._vertex_dist):
        raise ValueError("graph is not connected")
    return ds


def petersen_directions(edge_length: float = PI / 2) -> GraphDirections:
    """The Petersen graph; with edge length pi/2 its cone models the space
    of phylogenetic trees on four leaves."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (6, 8), (7, 9), (8, 5), (9, 6)]
    edges = [(u, v, edge_length) for u, v in outer + spokes + inner]
    return graph_directions(10, edges)


# ---------------------------------------------------------------------------
# spaces, points, measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cone:
    directions: DirectionSpace


@dataclass(frozen=True)
class OpenBook:
    pages: int
    dim: int

    def __post_init__(self):
        if self.pages < 3:
            raise ValueError("an open book needs at least 3 pages")
        if self.dim < 2:
            raise ValueError("an open book needs dimension at least 2")

    @cached_property
    def spider(self) -> Cone:
        return Cone(spider_directions(self.pages))


Space = Cone | OpenBook


def spider(k: int) -> Cone:
    return Cone(spider_directions(k))


def kale(alpha: float) -> Cone:
    """Cone over a circle of length alpha (alpha > 2*pi is the classic kale;
    alpha = 2*pi is the Euclidean plane in polar coordinates)."""
    return Cone(circle_directions(alpha))


def graph_cone(vertex_count: int, edges) -> Cone:
    return Cone(graph_directions(vertex_count, edges))


def petersen_cone(edge_length: float = PI / 2) -> Cone:
    return Cone(petersen_directions(edge_length))


def open_book(pages: int, dim: int) -> OpenBook:
    return OpenBook(pages, dim)


@dataclass(frozen=True)
class Point:
    direction: object
    radius: float
    euclidean: tuple[float, ...] | None = None


def _zero_direction(ds: DirectionSpace):
    if isinstance(ds, FiniteDirections):
        return 0
    if isinstance(ds, CircleDirections):
        return 0.0
    return ds.canonical((0, 0.0))


def point(sp: Space, direction, radius: float, euclidean=None) -> Point:
    """Build a canonical point of `sp`; radius-0 points collapse to the cone
    point (or to the spine for open books). A radius down to -COORD_TOL is
    read as 0. That slack is absolute, not relative to the measure's scale:
    it checks input, not a derivative, and forgives a radius that rounding
    left just below 0."""
    r = float(radius)
    if not math.isfinite(r):
        raise ValueError(f"radius {radius} must be finite")
    if r < 0.0:
        if r < -COORD_TOL:
            raise ValueError(f"radius {radius} must be nonnegative")
        r = 0.0
    if isinstance(sp, OpenBook):
        if euclidean is None:
            raise ValueError("open-book points need a euclidean component")
        eu = tuple(float(x) for x in euclidean)
        if len(eu) != sp.dim - 1:
            raise ValueError(
                f"euclidean component has length {len(eu)}, expected {sp.dim - 1}")
        ds = sp.spider.directions
        d = 0 if r == 0.0 else ds.canonical(direction)
        return Point(d, r, eu)
    if euclidean is not None:
        raise ValueError("cone points carry no euclidean component")
    ds = sp.directions
    d = _zero_direction(ds) if r == 0.0 else ds.canonical(direction)
    return Point(d, r, None)


def cone_point(sp: Space, euclidean=None) -> Point:
    if isinstance(sp, OpenBook):
        if euclidean is None:
            euclidean = (0.0,) * (sp.dim - 1)
        return point(sp, 0, 0.0, euclidean)
    return point(sp, _zero_direction(sp.directions), 0.0)


@dataclass(frozen=True)
class Measure:
    """Finitely supported probability measure; weights are positive and sum
    to one within 1e-12."""

    atoms: tuple[tuple[Point, float], ...]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def points(self) -> list[Point]:
        return [p for p, _ in self.atoms]

    def weights(self) -> list[float]:
        return [w for _, w in self.atoms]


def measure(sp: Space, pairs) -> Measure:
    # weights per point, in first-seen order; fsum makes a merged weight
    # independent of the order in which the repeats are listed
    merged: dict[Point, list[float]] = {}
    total = 0.0
    for raw_point, w in pairs:
        w = float(w)
        if not w > 0.0:
            raise ValueError(f"atom weight {w} must be positive")
        if isinstance(raw_point, Point):
            p = point(sp, raw_point.direction, raw_point.radius, raw_point.euclidean)
        else:
            p = point(sp, *raw_point)
        merged.setdefault(p, []).append(w)
        total += w
    if not merged:
        raise ValueError("a measure needs at least one atom")
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    return Measure(tuple((p, math.fsum(ws)) for p, ws in merged.items()))


def dirac(sp: Space, p) -> Measure:
    return measure(sp, [(p, 1.0)])


def spider_marginal(sp: OpenBook, mu: Measure) -> Measure:
    """Marginal of an open-book measure on its spider factor."""
    if not isinstance(sp, OpenBook):
        raise ValueError("spider_marginal expects an open book")
    return measure(sp.spider, [((p.direction, p.radius), w) for p, w in mu.atoms])


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------

def direction_distance(ds: DirectionSpace, a, b) -> float:
    """Raw direction-space distance (not capped at pi)."""
    if isinstance(ds, GraphDirections):
        return ds.distance(a, b)  # canonicalizes its arguments itself
    return ds.distance(ds.canonical(a), ds.canonical(b))


def _cone_dist(ds: DirectionSpace, x: Point, y: Point) -> float:
    s, t = x.radius, y.radius
    if s == 0.0 or t == 0.0:
        return s + t
    ang = direction_distance(ds, x.direction, y.direction)
    if ang <= 0.0:
        return abs(s - t)
    if ang >= PI:
        return s + t
    c = math.cos(ang)
    return math.sqrt(max(s * s + t * t - 2.0 * (s * t) * c, 0.0))


def cone_distance(sp: Space, x: Point, y: Point) -> float:
    """Metric of the cone (law of cosines with angles capped at pi); open
    books use the product metric."""
    if isinstance(sp, OpenBook):
        if x.euclidean is None or y.euclidean is None:
            raise ValueError("open-book points need euclidean components")
        base = _cone_dist(sp.spider.directions, x, y)
        esq = sum((a - b) ** 2 for a, b in zip(x.euclidean, y.euclidean))
        return math.sqrt(base * base + esq)
    return _cone_dist(sp.directions, x, y)


def cone_distances(sp: Space, xs, ys) -> np.ndarray:
    """`cone_distance` from each point of xs to each of ys, as a (len(xs),
    len(ys)) array with the same bits in every cell: `_cone_dist`'s branches
    cell by cell, and for open books the product with the heights."""
    book = isinstance(sp, OpenBook)
    ds = sp.spider.directions if book else sp.directions
    s = np.array([p.radius for p in xs], dtype=float)[:, None]
    t = np.array([p.radius for p in ys], dtype=float)
    ang = ds.distances([p.direction for p in xs], [p.direction for p in ys])
    law = np.sqrt(np.maximum(s * s + t * t - 2.0 * (s * t) * np.cos(ang), 0.0))
    base = np.where((s == 0.0) | (t == 0.0) | (ang >= PI), s + t,
                    np.where(ang <= 0.0, np.abs(s - t), law))
    if not book:
        return base
    if any(p.euclidean is None for p in (*xs, *ys)):
        raise ValueError("open-book points need euclidean components")
    # the height sums as the scalar builds them: in order, squared by
    # Python's float power (numpy's x * x can differ in the last bit)
    esq = [[sum((a - b) ** 2 for a, b in zip(x.euclidean, y.euclidean)) for y in ys]
           for x in xs]
    return np.sqrt(base * base + np.array(esq, dtype=float).reshape(base.shape))


def _walk_direction(ds: DirectionSpace, a, b, dist: float):
    """Point at distance `dist` from a on a shortest direction path to b."""
    if dist <= 0.0:
        return a
    if isinstance(ds, FiniteDirections):
        raise ValueError(
            "cone over a finite direction set has no geodesic between "
            "directions at angle below pi")
    if isinstance(ds, CircleDirections):
        ta, tb = ds.canonical(a), ds.canonical(b)
        alpha = ds.alpha
        fwd = math.fmod(tb - ta, alpha)
        if fwd < 0.0:
            fwd += alpha
        back = alpha - fwd
        if abs(fwd - back) <= COORD_TOL:
            # both arcs are shortest: pick the smaller resulting coordinate
            return min(ds.canonical(ta + dist), ds.canonical(ta - dist))
        return ds.canonical(ta + dist if fwd < back else ta - dist)
    # one shortest path, leg by leg from the distance table: a leg runs on
    # edge eid from offset f to offset t; equal lengths (within COORD_TOL) go
    # to the earliest leg listed
    cb = ds.canonical(b)
    e2, o2 = cb
    e1, o1 = ds.canonical(a)
    u1, v1, l1 = ds.edges[e1]
    legs = [(abs(o2 - o1), e1, o1, o2)] if e1 == e2 else []
    legs += [(o1 + ds.vertex_to_coord(u1, cb), e1, o1, 0.0),
             (l1 - o1 + ds.vertex_to_coord(v1, cb), e1, o1, l1)]
    left = dist
    while True:
        best = min(cost for cost, *_ in legs)
        _, eid, f, t = next(leg for leg in legs if leg[0] <= best + COORD_TOL)
        seg_len = abs(t - f)
        if left <= seg_len:
            return ds.canonical((eid, f + math.copysign(left, t - f)))
        left -= seg_len
        if (eid, t) == cb:
            return cb
        u, v, _ = ds.edges[eid]
        w = u if t == 0.0 else v
        # from vertex w: along b's edge to b, or along any other edge to its
        # far end, in order of edge id
        legs = []
        for fid, (u, v, length) in enumerate(ds.edges):
            if w not in (u, v):
                continue
            f, far = (0.0, v) if w == u else (length, u)
            if fid == e2:
                legs.append((abs(o2 - f), fid, f, o2))
            else:
                legs.append((length + ds.vertex_to_coord(far, cb), fid, f, length - f))


def geodesic_point(sp: Space, x: Point, y: Point, frac: float) -> Point:
    """Unit-speed geodesic from x to y evaluated at the given fraction of its
    length."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if isinstance(sp, OpenBook):
        base = geodesic_point(sp.spider, Point(x.direction, x.radius),
                              Point(y.direction, y.radius), frac)
        eu = tuple(a + frac * (b - a) for a, b in zip(x.euclidean, y.euclidean))
        return point(sp, base.direction, base.radius, eu)
    ds = sp.directions
    s, t = x.radius, y.radius
    if x == y:
        return x
    if s == 0.0:
        return point(sp, y.direction, frac * t)
    if t == 0.0:
        return point(sp, x.direction, (1.0 - frac) * s)
    raw = direction_distance(ds, x.direction, y.direction)
    if raw <= 0.0:
        return point(sp, x.direction, s + frac * (t - s))
    if raw >= PI:
        u = frac * (s + t)
        if u <= s:
            return point(sp, x.direction, s - u)
        return point(sp, y.direction, u - s)
    # planar unfolding of the sector spanned by the two directions
    px = (1.0 - frac) * s + frac * t * math.cos(raw)
    py = frac * t * math.sin(raw)
    r = math.hypot(px, py)
    if r <= COORD_TOL * max(s, t):  # relative: invariant under dilation
        return cone_point(sp)
    psi = math.atan2(py, px)
    if psi <= 0.0:
        return point(sp, x.direction, r)
    if psi >= raw:
        return point(sp, y.direction, r)
    return point(sp, _walk_direction(ds, x.direction, y.direction, psi), r)


def comparison_angle(kappa: float, dxy: float, dxz: float, dyz: float) -> float:
    """Angle at the first vertex of a triangle with the given side lengths in
    the constant-curvature model plane."""
    if dxy <= 0.0 or dxz <= 0.0:
        raise ValueError("comparison angle needs both adjacent sides positive")
    if dyz > dxy + dxz + COORD_TOL or dxy > dxz + dyz + COORD_TOL \
            or dxz > dxy + dyz + COORD_TOL:
        raise ValueError("side lengths violate the triangle inequality")
    if kappa > 0.0:
        r = PI / math.sqrt(kappa)
        if dxy + dxz + dyz >= 2.0 * r:
            raise ValueError(
                f"triangle perimeter must be below {2.0 * r} for curvature {kappa}")
        s = math.sqrt(kappa)
        num = math.cos(s * dyz) - math.cos(s * dxy) * math.cos(s * dxz)
        den = math.sin(s * dxy) * math.sin(s * dxz)
    elif kappa == 0.0:
        num = dxy * dxy + dxz * dxz - dyz * dyz
        den = 2.0 * dxy * dxz
    else:
        s = math.sqrt(-kappa)
        num = math.cosh(s * dxy) * math.cosh(s * dxz) - math.cosh(s * dyz)
        den = math.sinh(s * dxy) * math.sinh(s * dxz)
    return math.acos(min(1.0, max(-1.0, num / den)))


# ---------------------------------------------------------------------------
# shadows and prismatic points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shadow:
    """Directions at capped distance exactly pi from a reference direction.

    `indices` is used for finite direction sets; `arcs` holds (start, length)
    for circles and (edge, lo, hi) intervals for graphs.
    """

    indices: tuple[int, ...] = ()
    arcs: tuple[tuple, ...] = ()

    @property
    def is_trivial(self) -> bool:
        if self.indices:
            return len(self.indices) <= 1 and not self.arcs
        if not self.arcs:
            return True
        points = set()
        for arc in self.arcs:
            length = arc[-1] - arc[-2] if len(arc) == 3 else arc[1]
            if length > COORD_TOL:
                return False
            points.add(tuple(round(v, 9) for v in arc[:-1]))
        return len(points) <= 1


def shadow(ds: DirectionSpace, coord) -> Shadow:
    if isinstance(ds, FiniteDirections):
        c = ds.canonical(coord)
        idx = tuple(j for j in range(ds.size) if ds.angles[c][j] >= PI - COORD_TOL)
        return Shadow(indices=idx)
    if isinstance(ds, CircleDirections):
        alpha = ds.alpha
        if alpha < 2.0 * PI - COORD_TOL:
            return Shadow()
        t = ds.canonical(coord)
        start = ds.canonical(t + PI)
        return Shadow(arcs=((start, max(alpha - 2.0 * PI, 0.0)),))
    c = ds.canonical(coord)
    to_first, to_second = ds.endpoint_distances([c])
    arcs = []
    for eid, ((_u, _v, length), da, db) in enumerate(
            zip(ds.edges, to_first[:, 0].tolist(), to_second[:, 0].tolist())):
        lo = max(0.0, PI - da)
        hi = min(length, length - (PI - db))
        if lo > hi + COORD_TOL:
            continue
        hi = max(hi, lo)
        pieces = [(lo, hi)]
        if eid == c[0]:
            off = c[1]
            pieces = [(max(lo, 0.0), min(hi, off - PI)), (max(lo, off + PI), hi)]
        for plo, phi in pieces:
            if phi < plo - COORD_TOL:
                continue
            phi = max(phi, plo)
            if phi - plo <= COORD_TOL:
                # canonical form keeps degenerate arcs at shared vertices from
                # being counted once per incident edge; within COORD_TOL of an
                # edge end, an arc is at that end's vertex
                if plo <= COORD_TOL:
                    plo = 0.0
                elif plo >= length - COORD_TOL:
                    plo = length
                ceid, coff = ds.canonical((eid, plo))
                arc = (ceid, coff, coff)
            else:
                arc = (eid, plo, phi)
            if arc not in arcs:
                arcs.append(arc)
    return Shadow(arcs=tuple(arcs))


def _eccentricity_trapezoids(ds: GraphDirections):
    """Three (edges, edges + 2) arrays alpha, beta, delta.  From offset o on
    edge e = (u, v, L), the farthest point of edge f = (a, b, l) != e is at
    (d(o, a) + d(o, b) + l)/2 = min(alpha + o, beta, delta - o) by the
    endpoint rule (row e, column f).  Column e is void (beta = -inf); the
    last two hold e's own farthest points behind and ahead of o,
    min(o, (D[u][v] + L)/2) and min(L - o, (D[u][v] + L)/2)."""
    dist, u, v, length = ds._endpoint_arrays
    du, dv = dist.take(u, axis=0), dist.take(v, axis=0)
    uu, uv = du.take(u, axis=1), du.take(v, axis=1)
    vu, vv = dv.take(u, axis=1), dv.take(v, axis=1)
    own, other = length[:, None], length[None, :]
    alpha = (uu + uv + other) / 2.0
    beta = (np.minimum(uu + vv, vu + uv) + own + other) / 2.0
    delta = (vu + vv + 2.0 * own + other) / 2.0
    np.fill_diagonal(beta, -np.inf)
    half = (dist[u, v] + length) / 2.0
    inf = np.full_like(length, np.inf)
    return (np.column_stack([alpha, np.zeros_like(length), inf]),
            np.column_stack([beta, half, half]),
            np.column_stack([delta, inf, length]))


def _uncovered(lo, hi, length):
    """The maximal closed intervals [x, y] of [0, length[e]] that no open
    interval (lo[e, i], hi[e, i]) meets, for every row e of the (edges, k)
    arrays lo and hi, as three arrays: the edges, x and y, in order of edge
    and then of x; x == y is a single point."""
    # an empty interval sorts last as (nan, -inf): it meets nothing and is
    # no gap's end
    keep = lo < hi
    order = np.argsort(np.where(keep, lo, np.nan), axis=1)
    lo = np.take_along_axis(np.where(keep, lo, np.nan), order, axis=1)
    hi = np.take_along_axis(np.where(keep, hi, -np.inf), order, axis=1)
    # reach[:, i]: 0 or the largest hi before column i in order of lo
    reach = np.maximum.accumulate(np.hstack([np.zeros((len(lo), 1)), hi]), axis=1)
    lo = np.hstack([lo, np.full((len(lo), 1), np.inf)])
    edges, col = np.nonzero((lo >= reach) & (reach <= length[:, None]))
    return edges, reach[edges, col], np.minimum(lo[edges, col], length[edges])


def _graph_witness_candidates(ds: GraphDirections):
    """Directions that include one with a trivial shadow if any has one.

    The shadow of q has more than one element iff ecc(q) > pi, or ecc(q) = pi
    with two or more farthest points.  On edge e, ecc(o) is the largest
    trapezoid of `_eccentricity_trapezoids`, so it exceeds pi + COORD_TOL
    on the union of the intervals (c - alpha, delta - c) with beta > c.  In
    each gap of that union, every farthest point is fixed or moves linearly
    between the offsets where d(o, x) turns from the route through u to the
    route through v or a trapezoid crosses pi -/+ COORD_TOL; those offsets
    and the midpoints between them are the candidates.  (Where ecc < pi -
    COORD_TOL the shadow is empty; such a stretch lies between crossings.)
    The gaps of every edge are found at once, and only edges with a gap
    form their offsets."""
    dist, u, v, length = ds._endpoint_arrays
    alpha, beta, delta = _eccentricity_trapezoids(ds)
    low, high = PI - COORD_TOL, PI + COORD_TOL
    gaps = _uncovered(np.where(beta > high, high - alpha, np.inf), delta - high, length)
    for eid, x, y in zip(*(g.tolist() for g in gaps)):
        a, d = alpha[eid], delta[eid]
        turns = (dist[v[eid]] + length[eid] - dist[u[eid]]) / 2.0
        cuts = np.concatenate([turns, low - a, d - low, high - a, d - high])
        offs = sorted({x, y, *cuts[(cuts > x) & (cuts < y)].tolist()})
        mids = [(p + q) / 2.0 for p, q in zip(offs, offs[1:])]
        yield from ((eid, off) for off in offs + mids)


def is_prismatic(ds: DirectionSpace) -> bool:
    """True iff every direction has a shadow with more than one element.

    Finitely many directions decide it: every direction of a finite set, one
    direction of a circle (a rotation carries its shadow to any other), and
    `_graph_witness_candidates` on a graph."""
    if isinstance(ds, FiniteDirections):
        candidates = range(ds.size)
    elif isinstance(ds, CircleDirections):
        candidates = (0.0,)
    else:
        candidates = _graph_witness_candidates(ds)
    return not any(shadow(ds, c).is_trivial for c in candidates)


def open_book_prismatic(sp: OpenBook) -> bool:
    """Spine points of an open book are never prismatic: a spine direction's
    shadow is the single opposite spine direction."""
    return False


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def space_to_json(sp: Space) -> dict:
    if isinstance(sp, OpenBook):
        return {"kind": "open_book", "K": sp.pages, "d": sp.dim}
    ds = sp.directions
    if isinstance(ds, FiniteDirections):
        if ds.is_spider:
            return {"kind": "spider", "K": ds.size}
        return {"kind": "finite_cone",
                "distance_matrix": [list(row) for row in ds.angles]}
    if isinstance(ds, CircleDirections):
        return {"kind": "kale", "alpha": ds.alpha}
    return {"kind": "graph_cone", "vertices": ds.vertex_count,
            "edges": [[u, v, length] for u, v, length in ds.edges]}


def space_from_json(data: dict) -> Space:
    kind = data.get("kind")
    if kind == "spider":
        return spider(int(data["K"]))
    if kind == "finite_cone":
        return Cone(finite_directions(data["distance_matrix"]))
    if kind == "kale":
        return kale(float(data["alpha"]))
    if kind == "graph_cone":
        return graph_cone(int(data["vertices"]), data["edges"])
    if kind == "open_book":
        return open_book(int(data["K"]), int(data["d"]))
    raise ValueError(f"unknown space kind {kind!r}")


def point_to_json(sp: Space, p: Point) -> dict:
    d = p.direction
    if isinstance(d, tuple):
        d = [d[0], d[1]]
    out = {"dir": d, "r": p.radius}
    if p.euclidean is not None:
        out["eu"] = list(p.euclidean)
    return out


def point_from_json(sp: Space, data: dict) -> Point:
    direction = data.get("dir", 0)
    if isinstance(direction, list):
        direction = tuple(direction)
    return point(sp, direction, data.get("r", 0.0), data.get("eu"))


def measure_to_json(sp: Space, mu: Measure) -> dict:
    return {"atoms": [{"point": point_to_json(sp, p), "weight": w}
                      for p, w in mu.atoms]}


def measure_from_json(sp: Space, data: dict) -> Measure:
    return measure(sp, [(point_from_json(sp, a["point"]), a["weight"])
                        for a in data["atoms"]])
