"""Reference computations the benchmark checks the program against.

Everything here is computed apart from the package: spaces and measures are
read from their JSON form (the same form the CLI configs use), distances are
recomputed from the definitions, probabilities come from binomial sums, and
transport values come from a linear program built here.  Nothing in this
module imports stickygeom.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

PI = math.pi


# ---------------------------------------------------------------------------
# geometry from the JSON description
# ---------------------------------------------------------------------------

class Geometry:
    """Direction metric and cone metric of a space given as a config dict.

    Directions use the config encoding: leg or page index, circle angle, or
    an [edge, offset] pair.  Open-book points also carry a height vector.
    """

    def __init__(self, space: dict):
        self.kind = space["kind"]
        if self.kind in ("spider", "open_book"):
            self.legs = int(space["K"])
        elif self.kind == "kale":
            self.alpha = float(space["alpha"])
        elif self.kind == "graph_cone":
            self.edges = [(int(u), int(v), float(l)) for u, v, l in space["edges"]]
            self.vdist = _vertex_distances(int(space["vertices"]), self.edges)
        else:
            raise ValueError(f"unsupported space kind {self.kind!r}")

    # raw direction distance, vectorized over the first argument
    def angles(self, dirs, d) -> np.ndarray:
        if self.kind in ("spider", "open_book"):
            return np.where(np.asarray(dirs) == d, 0.0, PI)
        if self.kind == "kale":
            raw = np.abs(np.asarray(dirs, dtype=float) - float(d)) % self.alpha
            return np.minimum(raw, self.alpha - raw)
        edges = np.asarray([e for e, _ in dirs], dtype=int)
        offs = np.asarray([o for _, o in dirs], dtype=float)
        return self._graph_angles(edges, offs, int(d[0]), float(d[1]))

    def _graph_angles(self, edges, offs, e2, o2) -> np.ndarray:
        ends = np.asarray(self.edges)
        u1, v1, l1 = ends[edges, 0].astype(int), ends[edges, 1].astype(int), ends[edges, 2]
        u2, v2, l2 = self.edges[e2]
        to_u1, to_v1 = offs, l1 - offs
        to_u2, to_v2 = o2, l2 - o2
        dv = self.vdist
        best = np.minimum.reduce([
            to_u1 + dv[u1, u2] + to_u2, to_u1 + dv[u1, v2] + to_v2,
            to_v1 + dv[v1, u2] + to_u2, to_v1 + dv[v1, v2] + to_v2])
        same = edges == e2
        best[same] = np.minimum(best[same], np.abs(offs[same] - o2))
        return best

    def distance(self, x: dict, y: dict) -> float:
        """Cone metric (open books: product with the height space)."""
        s, t = float(x["r"]), float(y["r"])
        if s == 0.0 or t == 0.0:
            base = s + t
        else:
            ang = min(float(self.angles([_dir(x)], _dir(y))[0]), PI)
            base = math.sqrt(max(s * s + t * t - 2.0 * s * t * math.cos(ang), 0.0))
        if self.kind != "open_book":
            return base
        esq = sum((a - b) ** 2 for a, b in zip(x["eu"], y["eu"]))
        return math.sqrt(base * base + esq)

    def distances(self, xs, ys) -> np.ndarray:
        """Matrix of cone distances between two lists of points."""
        t = np.asarray([float(y["r"]) for y in ys])
        ydirs = [_dir(y) for y in ys]
        out = np.empty((len(xs), len(ys)))
        for i, x in enumerate(xs):
            s = float(x["r"])
            ang = np.minimum(self.angles(ydirs, _dir(x)), PI)
            sq = s * s + t * t - 2.0 * s * t * np.cos(ang)
            row = np.where((s == 0.0) | (t == 0.0), s + t, np.sqrt(np.maximum(sq, 0.0)))
            if self.kind == "open_book":
                eu = np.asarray([y["eu"] for y in ys]) - np.asarray(x["eu"])
                row = np.sqrt(row * row + (eu * eu).sum(axis=1))
            out[i] = row
        return out

    def pulls(self, atoms, grid) -> np.ndarray:
        """(atoms, grid) matrix of r cos(min(angle, pi))."""
        out = np.zeros((len(atoms), len(grid)))
        for i, atom in enumerate(atoms):
            p = atom["point"]
            if p["r"] > 0.0:
                out[i] = p["r"] * np.cos(np.minimum(self.angles(grid, _dir(p)), PI))
        return out

    def grid(self, h: float) -> list:
        """Directions such that every direction lies within h/2 of one."""
        if self.kind in ("spider", "open_book"):
            return list(range(self.legs))
        if self.kind == "kale":
            g = math.ceil(self.alpha / h)
            return [float(t) for t in np.arange(g) * (self.alpha / g)]
        out = []
        for eid, (_u, _v, length) in enumerate(self.edges):
            g = math.ceil(length / h)
            out.extend((eid, float(t)) for t in np.linspace(0.0, length, g + 1))
        return out


def _dir(point: dict):
    d = point["dir"]
    return (int(d[0]), float(d[1])) if isinstance(d, (list, tuple)) else d


def _vertex_distances(count: int, edges) -> np.ndarray:
    dist = np.full((count, count), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, length in edges:
        dist[u, v] = dist[v, u] = min(dist[u, v], length)
    for k in range(count):  # Floyd-Warshall
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def lipschitz(atoms) -> float:
    """Lipschitz constant of sigma -> derivative(sigma): sum of w r."""
    return math.fsum(a["weight"] * a["point"]["r"] for a in atoms)


# ---------------------------------------------------------------------------
# smallest direction derivative
# ---------------------------------------------------------------------------

def spider_c_min(legs: int, atoms) -> float:
    """Closed form on a spider: the derivative along leg j is T - 2 S_j with
    T the total of w r and S_j the part carried by leg j."""
    carried = [0.0] * legs
    for a in atoms:
        carried[int(a["point"]["dir"])] += a["weight"] * a["point"]["r"]
    return lipschitz(atoms) - 2.0 * max(carried)


@lru_cache(maxsize=None)
def min_eccentricity_bracket(vertices: int, edges: tuple, h: float) -> tuple[float, float]:
    """Interval that holds the smallest eccentricity of a metric graph (the
    largest distance from a point to any other), from a grid of spacing h;
    eccentricity is 1-Lipschitz."""
    geo = Geometry({"kind": "graph_cone", "vertices": vertices, "edges": edges})
    grid = geo.grid(h)
    ecc = np.array([float(geo.angles(grid, d).max()) for d in grid])
    g = float(ecc.min())
    return g - h / 2.0, g + h / 2.0


def cycle_is_prismatic(total_length: float) -> bool:
    """Cone point over a cycle: every direction has one antipode at distance
    L/2, so the shadow holds more than one direction iff L > 2 pi."""
    return total_length > 2.0 * PI


# ---------------------------------------------------------------------------
# resampling on a spider with one atom per leg and a common radius
# ---------------------------------------------------------------------------

def _binom_pmf(n: int, p: float, counts: np.ndarray) -> np.ndarray:
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    logs = (lg[n] - lg[counts] - lg[n - counts]
            + counts * math.log(p) + (n - counts) * math.log1p(-p))
    return np.exp(logs)


def leg_excess_moments(n: int, weights, powers) -> list[float]:
    """E[max(0, (2 c_j - n) / n)^k summed over legs] for each power k, where
    c_j is the number of draws on leg j out of n.

    On a spider with one atom per leg and a common radius r, the sample mean
    leaves the cone point iff some leg gets more than half the draws (at
    most one can), and its distance to the cone point is then
    r (2 c_j - n) / n.  Power 0 gives the probability of leaving."""
    out = [0.0] * len(powers)
    counts = np.arange(n // 2 + 1, n + 1)
    excess = (2.0 * counts - n) / n
    for w in weights:
        pmf = _binom_pmf(n, float(w), counts)
        for k, q in enumerate(powers):
            out[k] += math.fsum(pmf * excess ** q)
    return out


def nonstick_probability(n: int, weights) -> float:
    return leg_excess_moments(n, weights, [0])[0]


def modulation_exact(n: int, q: float, weights, trials: int) -> tuple[float, float]:
    """Exact moment modulation n^(q/2) E d^q / E d^q(apex, X) on the spider
    above (the radius cancels), and the standard error of its Monte Carlo
    estimate over `trials` resamples."""
    m1, m2 = leg_excess_moments(n, weights, [q, 2.0 * q])
    scale = float(n) ** (q / 2.0)
    return scale * m1, scale * math.sqrt(max(m2 - m1 * m1, 0.0) / trials)


def centered_covariance(geo: Geometry, atoms, grid) -> np.ndarray:
    """Covariance of the pulls over the grid: E[p p^T] - E[p] E[p]^T."""
    p = geo.pulls(atoms, grid)
    w = np.asarray([a["weight"] for a in atoms])
    mean = w @ p
    return p.T @ (p * w[:, None]) - np.outer(mean, mean)


# ---------------------------------------------------------------------------
# transport and divergences
# ---------------------------------------------------------------------------

def transport_cost(geo: Geometry, xs, ys, order: float) -> float:
    """Optimal transport cost sum c_ij x_ij with c = d^order, solved as a
    linear program over the flow matrix."""
    from scipy import optimize, sparse

    a = np.asarray([x["weight"] for x in xs])
    b = np.asarray([y["weight"] for y in ys])
    b = b * (a.sum() / b.sum())
    cost = geo.distances([x["point"] for x in xs], [y["point"] for y in ys]) ** order
    m, n = cost.shape
    rows = sparse.kron(sparse.identity(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.identity(n))
    res = optimize.linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]).tocsr(),
                           b_eq=np.concatenate([a, b]), bounds=(0, None),
                           method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein(geo: Geometry, xs, ys, order: float) -> float:
    return max(transport_cost(geo, xs, ys, order), 0.0) ** (1.0 / order)


GENERATORS = {
    "tv": (lambda x: 0.5 * abs(x - 1.0), 0.5),
    "kl": (lambda x: 0.0 if x == 0.0 else x * math.log(x), math.inf),
    "js": (lambda x: (x * math.log(x) if x > 0.0 else 0.0)
           - (x + 1.0) * math.log((x + 1.0) / 2.0), math.log(2.0)),
    "hellinger2": (lambda x: 2.0 * (1.0 - math.sqrt(x)), 0.0),
}


def _key(point: dict):
    d = _dir(point)
    return (d if point["r"] > 0.0 else None, float(point["r"]),
            tuple(point.get("eu") or ()))


def f_divergence(p_atoms, q_atoms, kind: str) -> float:
    """D_f(p || q) = sum_q q f(p/q) plus the slope of f at infinity times
    the mass of p where q vanishes."""
    f, slope = GENERATORS[kind]
    pw, qw = {}, {}
    for atoms, acc in ((p_atoms, pw), (q_atoms, qw)):
        for a in atoms:
            k = _key(a["point"])
            acc[k] = acc.get(k, 0.0) + a["weight"]
    total = 0.0
    for k in pw.keys() | qw.keys():
        pz, qz = pw.get(k, 0.0), qw.get(k, 0.0)
        if qz > 0.0:
            total += qz * f(pz / qz)
        elif pz > 0.0:
            total += slope * pz
    return total


def mixture(atoms, y: dict, t: float):
    """Atoms of (1 - t) p + t delta_y."""
    return ([{"point": a["point"], "weight": (1.0 - t) * a["weight"]} for a in atoms]
            + [{"point": y, "weight": t}])
