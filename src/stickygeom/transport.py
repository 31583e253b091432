"""Wasserstein distances (tree closed form plus an exact LP solver) and
f-divergences between finitely supported measures."""
from __future__ import annotations

import math
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spaces import (
    PI,
    Cone,
    Measure,
    Point,
    Space,
    cone_distances,
    measure,
    point,
)

EXACT_LP_LIMIT = 64


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


# ---------------------------------------------------------------------------
# f-divergences
# ---------------------------------------------------------------------------

def _kl_gen(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def _js_gen(x: float) -> float:
    out = -(x + 1.0) * math.log((x + 1.0) / 2.0)
    if x > 0.0:
        out += x * math.log(x)
    return out


@dataclass(frozen=True)
class FDivergence:
    """Convex generator f with f(1) = 0 and finite f(0), plus the slope of f
    at infinity (weight of mass that the second measure misses)."""

    name: str
    generator: object
    slope_at_infinity: float

    def __call__(self, x: float) -> float:
        return self.generator(x)


TOTAL_VARIATION = FDivergence("tv", lambda x: 0.5 * abs(x - 1.0), 0.5)
KULLBACK_LEIBLER = FDivergence("kl", _kl_gen, math.inf)
JENSEN_SHANNON = FDivergence("js", _js_gen, math.log(2.0))
SQUARED_HELLINGER = FDivergence("hellinger2", lambda x: 2.0 * (1.0 - math.sqrt(x)), 0.0)

BUILTIN_DIVERGENCES = {
    d.name: d for d in (TOTAL_VARIATION, KULLBACK_LEIBLER, JENSEN_SHANNON,
                        SQUARED_HELLINGER)
}


def custom_divergence(generator, slope_at_infinity: float,
                      name: str = "custom") -> FDivergence:
    if abs(generator(1.0)) > 1e-12:
        raise ValueError("generator must vanish at 1")
    if not math.isfinite(generator(0.0)):
        raise ValueError("generator must be finite at 0")
    return FDivergence(name, generator, slope_at_infinity)


def f_divergence(sp: Space, p: Measure, q: Measure, kind: FDivergence) -> float:
    """D_f(p || q) over the union support, with the mixture (p+q)/2 as the
    dominating measure (the value does not depend on that choice)."""
    pw: dict[Point, float] = defaultdict(float)
    qw: dict[Point, float] = defaultdict(float)
    for z, w in p.atoms:
        pw[z] += w
    for z, w in q.atoms:
        qw[z] += w
    # the union is a set, whose order follows the points' hashes and so can
    # change between processes; fsum makes the total independent of it
    terms = []
    for z in pw.keys() | qw.keys():
        pz, qz = pw.get(z, 0.0), qw.get(z, 0.0)
        if qz > 0.0:
            terms.append(qz * kind(pz / qz))
        elif pz > 0.0:
            if math.isinf(kind.slope_at_infinity):
                return math.inf
            terms.append(kind.slope_at_infinity * pz)
    total = max(math.fsum(terms), 0.0)
    if kind.name == "tv":
        total = min(total, 1.0)
    return total


def perturbed_measure(sp: Space, p: Measure, y: Point, t: float) -> Measure:
    """Mixture (1-t) p + t delta_y."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 1.0:
        return measure(sp, [(y, 1.0)])
    pairs = [(z, w * (1.0 - t)) for z, w in p.atoms]
    if t > 0.0:
        pairs.append((y, t))
    return measure(sp, pairs)


def perturbed_divergence(sp: Space, p: Measure, y: Point, t: float,
                         kind: FDivergence) -> float:
    """Closed form of D_f(p || (1-t) p + t delta_y) for t in [0, 1)."""
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    if t == 0.0:
        return 0.0
    y = point(sp, y.direction, y.radius, y.euclidean)
    wy = 0.0
    for z, w in p.atoms:
        if z == y:
            wy = w
            break
    first = (1.0 - t) * (1.0 - wy) * kind(1.0 / (1.0 - t))
    second = (t + (1.0 - t) * wy) * kind(wy / ((1.0 - t) * wy + t))
    return first + second


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------

def _support_is_star(sp: Cone, groups: list) -> bool:
    dist = sp.directions.distances(groups, groups)
    return bool(np.all((dist >= PI - 1e-12) | np.eye(len(groups), dtype=bool)))


def w1_tree(sp: Cone, p: Measure, q: Measure) -> float:
    """First Wasserstein distance via the edge-cut integral when the union
    support spans a star tree (always on spiders: every pair of distinct
    directions is at angle >= pi, so geodesics run through the cone point).
    Otherwise falls back to the exact LP."""
    if not isinstance(sp, Cone):
        raise ValueError("w1_tree expects a cone")
    # legs keyed by canonical direction: within one cone every direction has
    # the same type, so the keys sort
    legs: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for mu, sign in ((p, 1.0), (q, -1.0)):
        for z, w in mu.atoms:
            if z.radius == 0.0:
                continue  # mass at the cone point never crosses a cut
            legs[z.direction].append((z.radius, sign * w))
    if not _support_is_star(sp, sorted(legs)):
        return wq_lp(sp, p, q, 1.0)
    total = 0.0
    for leg in legs.values():
        items = sorted(leg)
        radii = [0.0] + [r for r, _ in items]
        suffix = 0.0
        flows = []
        for r, w in reversed(items):
            suffix += w
            flows.append(suffix)
        flows.reverse()
        for k, (r, _w) in enumerate(items):
            total += (r - radii[k]) * abs(flows[k])
    return total


def wq_lp(sp: Space, p: Measure, q: Measure, order: float = 1.0) -> float:
    """q-th Wasserstein distance by solving the transportation LP with costs
    d^q. Up to 64x64 atoms the value is exact: a float transportation simplex
    in numpy finds a start basis, which is certified (and pivoted on if need
    be) in rational arithmetic, see `_exact_transport`. Beyond, HiGHS solves
    it in floats without presolve, checked by its duality gap. Raises
    `NumericalError` when a cost d^q overflows, or when the largest one falls
    below the smallest normal float: at such an order the float costs no
    longer tell the distances apart."""
    if order < 1.0:
        raise ValueError("Wasserstein order must be >= 1")
    xs, aw = p.points(), p.weights()
    ys, bw = q.points(), q.weights()
    dist = cone_distances(sp, xs, ys)
    # powers by Python's float power: every cost bit reaches the exact solver,
    # and numpy's power can round differently
    try:
        cost = [[c ** order for c in row] for row in dist.tolist()]
    except OverflowError:
        raise NumericalError(
            f"transport cost d^q overflows at order q = {order:g}") from None
    top = float(dist.max(initial=0.0))
    if top > 0.0 and top ** order < sys.float_info.min:
        raise NumericalError(
            f"transport cost d^q underflows at order q = {order:g}: the largest "
            f"distance {top:g} to that power is below the smallest normal float")
    if len(xs) <= EXACT_LP_LIMIT and len(ys) <= EXACT_LP_LIMIT:
        value = float(_exact_transport(aw, bw, cost))
    else:
        value = _highs_transport(aw, bw, cost)
    return max(value, 0.0) ** (1.0 / order)


def _exact_transport(a_weights, b_weights, cost_rows) -> Fraction:
    """Optimal total cost of the transportation LP in exact rational
    arithmetic.

    `_float_start` finds a near-optimal spanning-tree basis with the
    transportation simplex in floats. Its flows and reduced costs are then
    computed in `Fraction`s. If both are nonnegative the basis is optimal as
    given. If only some reduced cost is negative, the Bland's-rule simplex
    pivots on from that basis. If the tree's flows are infeasible, the
    simplex starts from the northwest corner. The optimal value of the
    rational LP is unique, so the start changes the time taken, not the
    result. Certifying a float basis exactly follows Applegate, Cook, Dash and
    Espinoza, "Exact solutions to linear programming problems" (Oper. Res.
    Lett. 2007)."""
    a, b, cost = _rational_problem(a_weights, b_weights, cost_rows)
    start = _tree_flows(a, b, _float_start(a_weights, b_weights, cost_rows))
    if start is None:
        start = _northwest_corner(a, b)
    return _transport_simplex(cost, start)


# float pivots per row and column before `_float_start` hands its basis on
START_PIVOTS = 20


def _float_start(a_weights, b_weights, cost_rows) -> list[tuple[int, int]]:
    """Spanning tree of a transportation basis by the MODI method in floats:
    a matrix-minimum allocation, then Dantzig-rule pivots (the most negative
    reduced cost enters) until no reduced cost is below a rounding tolerance
    or START_PIVOTS * (m + n) pivots are spent. Floats only choose the tree;
    `_exact_transport` certifies it."""
    cost = np.asarray(cost_rows, dtype=float)
    m, n = cost.shape
    c = cost.tolist()
    a = [float(w) for w in a_weights]
    scale = math.fsum(a) / math.fsum(float(w) for w in b_weights)
    b = [float(w) * scale for w in b_weights]
    # matrix minimum: each allocation empties its row or its column, so the
    # positive cells form a forest, which `_spanning_tree` keeps whole
    alloc = np.zeros((m, n))
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, n)
        t = min(a[i], b[j])
        if t > 0.0:
            alloc[i, j] = t
            a[i] -= t
            b[j] -= t
    flow = {cell: float(alloc[cell]) for cell in _spanning_tree(alloc)}
    # nodes: rows 0..m-1, columns m..m+n-1; a tree edge is a basic cell
    nbrs: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in flow:
        nbrs[i].append(m + j)
        nbrs[m + j].append(i)
    tol = 1e-12 * (1.0 + float(cost.max(initial=0.0)))
    for _ in range(START_PIVOTS * (m + n)):
        # potentials u_i + v_j = c_ij on the tree, by a BFS from row 0
        pot = [0.0] * (m + n)
        parent = [-1] * (m + n)
        depth = [0] * (m + n)
        parent[0] = 0
        order = [0]
        for k in order:
            for nb in nbrs[k]:
                if parent[nb] < 0:
                    parent[nb], depth[nb] = k, depth[k] + 1
                    i, j = _cell(k, nb, m)
                    pot[nb] = c[i][j] - pot[k]
                    order.append(nb)
        reduced = cost - np.array(pot[:m])[:, None] - np.array(pot[m:])[None, :]
        best = int(reduced.argmin())
        if reduced.flat[best] >= -tol:
            break
        i_in, j_in = divmod(best, n)
        # the cycle closes the tree path from column j_in to row i_in; its
        # cells alternate -, +, - ... from the column end
        up, down = m + j_in, i_in
        from_col, from_row = [], []
        while up != down:
            if depth[up] >= depth[down]:
                from_col.append(_cell(up, parent[up], m))
                up = parent[up]
            else:
                from_row.append(_cell(down, parent[down], m))
                down = parent[down]
        path = from_col + from_row[::-1]
        minus, plus = path[0::2], path[1::2]
        leaving = min(minus, key=flow.__getitem__)
        theta = flow[leaving]
        for cell in minus:
            flow[cell] -= theta
        for cell in plus:
            flow[cell] += theta
        del flow[leaving]
        flow[(i_in, j_in)] = theta
        i_out, j_out = leaving
        nbrs[i_out].remove(m + j_out)
        nbrs[m + j_out].remove(i_out)
        nbrs[i_in].append(m + j_in)
        nbrs[m + j_in].append(i_in)
    return list(flow)


def _cell(k: int, l: int, m: int) -> tuple[int, int]:
    """The cell of the tree edge between nodes k and l (one row, one
    column)."""
    return (k, l - m) if k < m else (l, k - m)


def _rational_problem(a_weights, b_weights, cost_rows):
    """Supplies, demands and costs as `Fraction`s, with the demands rescaled
    to the total supply."""
    a = [Fraction(w) for w in a_weights]
    b = [Fraction(w) for w in b_weights]
    ta, tb = sum(a), sum(b)
    if ta != tb:
        # float weight vectors rarely sum to exactly the same rational; a
        # rescaling of order 1e-16 keeps the LP feasible without moving the
        # optimum beyond that scale
        scale = ta / tb
        b = [w * scale for w in b]
    return a, b, [[Fraction(c) for c in row] for row in cost_rows]


def _northwest_corner(a, b) -> dict[tuple[int, int], Fraction]:
    """Feasible tree basis {cell: flow} by the northwest-corner rule."""
    m, n = len(a), len(b)
    flow = {}
    ra, rb = a[:], b[:]
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        flow[(i, j)] = t
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            return flow
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif ra[i] == 0:
            i += 1
        else:
            j += 1


def _spanning_tree(flows: np.ndarray) -> list[tuple[int, int]]:
    """m + n - 1 cells that form a spanning tree of the bipartite graph of
    rows and columns. Cells are taken largest flow first, so the support of a
    vertex stays in the tree; zero cells, in row-major order, connect what is
    left."""
    m, n = flows.shape
    root = list(range(m + n))  # union-find over rows 0..m-1, columns m..

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    tree = []
    for cell in np.argsort(-flows, axis=None, kind="stable").tolist():
        i, j = divmod(cell, n)
        ri, rj = find(i), find(m + j)
        if ri != rj:
            root[ri] = rj
            tree.append((i, j))
            if len(tree) == m + n - 1:
                break
    return tree


def _tree_flows(a, b, tree) -> dict[tuple[int, int], Fraction] | None:
    """The unique flows {cell: flow} of a spanning-tree basis, found by
    eliminating leaves, or None if one of them is negative."""
    m = len(a)
    left = a + b  # supply or demand not yet routed, per row then per column
    cells: list[set] = [set() for _ in left]
    for i, j in tree:
        cells[i].add((i, j))
        cells[m + j].add((i, j))
    leaves = [k for k, c in enumerate(cells) if len(c) == 1]
    flow = {}
    while leaves:
        k = leaves.pop()
        if not cells[k]:
            continue  # the last node: its cell went with its neighbour
        (i, j), = cells[k]
        t = left[k]
        if t < 0:
            return None
        flow[(i, j)] = t
        other = m + j if k == i else i
        left[other] -= t
        cells[k].clear()
        cells[other].remove((i, j))
        if len(cells[other]) == 1:
            leaves.append(other)
    return flow


def _transport_simplex(cost, flow) -> Fraction:
    """Transportation simplex in exact rational arithmetic with Bland's rule
    (anti-cycling) from the feasible tree basis `flow` ({cell: flow},
    updated in place), returning the optimal total cost."""
    m, n = len(cost), len(cost[0])
    zero = Fraction(0)
    while True:
        by_row = defaultdict(list)
        by_col = defaultdict(list)
        for (i0, j0) in flow:
            by_row[i0].append(j0)
            by_col[j0].append(i0)
        u: list[Fraction | None] = [None] * m
        v: list[Fraction | None] = [None] * n
        u[0] = zero
        stack = [("r", 0)]
        while stack:
            side, k = stack.pop()
            if side == "r":
                for j0 in by_row[k]:
                    if v[j0] is None:
                        v[j0] = cost[k][j0] - u[k]
                        stack.append(("c", j0))
            else:
                for i0 in by_col[k]:
                    if u[i0] is None:
                        u[i0] = cost[i0][k] - v[k]
                        stack.append(("r", i0))
        entering = None
        for i0 in range(m):
            ui = u[i0]
            for j0 in range(n):
                if (i0, j0) in flow:
                    continue
                if cost[i0][j0] < ui + v[j0]:  # reduced cost c - u - v < 0
                    entering = (i0, j0)
                    break
            if entering:
                break
        if entering is None:
            return sum(f * cost[i0][j0] for (i0, j0), f in flow.items())
        i_star, j_star = entering
        parent = {("r", i_star): None}
        queue = deque([("r", i_star)])
        target = ("c", j_star)
        while queue:
            node = queue.popleft()
            if node == target:
                break
            side, k = node
            nbrs = (("c", j0) for j0 in by_row[k]) if side == "r" \
                else (("r", i0) for i0 in by_col[k])
            for nxt in nbrs:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        cells = []
        node = target
        while parent[node] is not None:
            prev = parent[node]
            cell = (node[1], prev[1]) if node[0] == "r" else (prev[1], node[1])
            cells.append(cell)
            node = prev
        minus = cells[0::2]
        plus = cells[1::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        for c in minus:
            flow[c] -= theta
        for c in plus:
            flow[c] += theta
        flow[entering] = theta
        del flow[leaving]


def _highs_transport(a_weights, b_weights, cost_rows) -> float:
    """Optimal total cost of the transportation LP by the HiGHS dual simplex
    in floats, checked by its duality gap. Presolve is off: it removes
    nothing from a dense transportation LP and was most of the solve time.
    The feasibility tolerances are HiGHS's tightest, 1e-10: at the default
    1e-7 a reduced cost just above -1e-7 counts as optimal, and on spider
    costs d^3 that left the value up to 5e-8 (relative) above the optimum
    while the duality gap stayed within its check."""
    from scipy import optimize, sparse

    m, n = len(a_weights), len(b_weights)
    c = np.asarray(cost_rows, dtype=float).ravel()
    # cell k = i n + j appears in supply row i and demand row m + j
    cells = np.arange(m * n)
    a_eq = sparse.csr_matrix(
        (np.ones(2 * m * n), (np.concatenate([cells // n, m + cells % n]),
                              np.tile(cells, 2))),
        shape=(m + n, m * n))
    rhs = np.concatenate([a_weights, b_weights])
    rhs[:m] *= np.sum(b_weights) / np.sum(a_weights)
    res = optimize.linprog(c, A_eq=a_eq, b_eq=rhs, bounds=(0, None),
                           method="highs-ds",
                           options={"presolve": False,
                                    "primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NumericalError(f"transport LP failed: {res.message}")
    duals = res.eqlin.marginals
    gap = abs(float(res.fun) - float(rhs @ duals))
    if gap > 1e-10 * (1.0 + abs(float(res.fun))):
        raise NumericalError(f"transport LP duality gap {gap} too large")
    return float(res.fun)


def support_diameter(sp: Space, p: Measure, q: Measure) -> float:
    """Diameter of the union of the two supports."""
    pts = p.points() + q.points()
    return float(cone_distances(sp, pts, pts).max(initial=0.0))
