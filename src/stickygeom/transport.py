"""Wasserstein distances (tree closed form plus an exact LP solver) and
f-divergences between finitely supported measures."""
from __future__ import annotations

import math
import sys
from collections import defaultdict
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
    d^q. The value is exact at every size: a transportation simplex priced
    in numpy floats moves exact integer flows to a start basis, which is
    certified (and pivoted on if need be) in integer arithmetic, see
    `_exact_transport`. Raises `NumericalError` when a cost d^q overflows,
    or when the largest one falls below the smallest normal float: at such
    an order the float costs no longer tell the distances apart."""
    if order < 1.0:
        raise ValueError("Wasserstein order must be >= 1")
    xs, aw = p.points(), p.weights()
    ys, bw = q.points(), q.weights()
    dist = cone_distances(sp, xs, ys)
    # powers by Python's float power: every cost bit reaches the exact solver,
    # and numpy's power can round differently; d^1 is d exactly
    if order == 1.0:
        cost = dist
    else:
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
    return float(_exact_transport(aw, bw, cost)) ** (1.0 / order)


def _exact_transport(a_weights, b_weights, cost_rows) -> Fraction:
    """Optimal total cost of the transportation LP in exact rational
    arithmetic.

    Every float is a dyadic rational, so the LP is solved in integers: each
    cost is C = cost 2^K, and the supplies and the rescaled demands share
    one denominator D (`_integer_margins`). `_float_start` moves these
    integer flows by the transportation simplex, choosing its pivots in
    floats, so every basis it visits is exactly feasible; `_exact_simplex`
    certifies the last one in integers, or pivots on from it until it can.
    The optimal value of the rational LP is unique, so the start changes the
    time taken, not the result; it is sum(F C) / (D 2^K). Certifying a
    float basis exactly follows Applegate, Cook, Dash and Espinoza, "Exact
    solutions to linear programming problems" (Oper. Res. Lett. 2007)."""
    costs = _DyadicCosts(cost_rows)
    supply, demand, denom = _integer_margins(a_weights, b_weights)
    flow = _float_start(supply, demand, costs.scaled)
    return Fraction(_exact_simplex(costs, flow), denom << costs.shift)


# float pivots per row and column before `_float_start` hands its basis on
START_PIVOTS = 20
# float reduced costs below this fraction of |c| + |u| + |v| may be negative
# in exact arithmetic: rounding the potentials and pricing in floats errs by
# at most 4 2^-53 < 5e-16 of that sum
SCREEN_MARGIN = 1e-14
_MASK64 = (1 << 64) - 1


class _DyadicCosts:
    """An m x n cost matrix two ways: `scaled`, the floats times 2^-top,
    which brings the largest to [0.5, 1) so that no potential overflows,
    for pricing; and the integers C = cost 2^`shift`, per cell from
    `exact`. An integer potential or reduced cost x is x 2^-(shift + top)
    in the units of `scaled`."""

    def __init__(self, cost_rows):
        cost = np.asarray(cost_rows, dtype=float)
        mant, exp = np.frexp(cost)  # cost = mant 2^exp, 0.5 <= |mant| < 1
        nonzero = cost != 0.0
        top = int(exp[nonzero].max(initial=0))
        self.scaled = np.ldexp(cost, -top)
        # cost = M 2^(exp - 53) with the integer M = mant 2^53
        self.shift = int((53 - exp[nonzero]).max(initial=0))
        self._units = self.shift + top
        self._mant = (mant * 2.0 ** 53).astype(np.int64).ravel()
        self._left = np.where(nonzero, exp + self.shift - 53, 0).ravel()
        # a shift of 64 or more does not fit int64 arithmetic
        self._wide = int(self._left.max(initial=0)) >= 64

    def exact(self, flat: np.ndarray) -> np.ndarray:
        """The integer costs C of the cells with these row-major indices,
        as an object array of Python integers."""
        return self._mant[flat].astype(object) << self._left[flat].astype(object)

    def reduced(self, flat: np.ndarray, pot: np.ndarray, bound: float) -> np.ndarray:
        """Exact reduced costs C_ij - pot[i] + pot[m + j] of the cells with
        these row-major indices, from the integer potentials `pot` (an
        object array, rows then columns), none of them above `bound` in
        magnitude in the units of `scaled`. While that is below 2^62
        integer units, int64 arithmetic modulo 2^64 is exact; else they are
        Python integers. On LPs with cost ties, where thousands of cells are
        priced per pivot, int64 halves the solve time."""
        m, n = self.scaled.shape
        rows, cols = np.divmod(flat, n)
        if self._wide or bound >= 2.0 ** (62 - self._units):
            return self.exact(flat) - pot[rows] + pot[m + cols]
        low = (pot & _MASK64).astype(np.uint64)
        cost = self._mant[flat].astype(np.uint64) << self._left[flat].astype(np.uint64)
        return (cost - low[rows] + low[m + cols]).view(np.int64)

    def approx(self, pot: np.ndarray) -> np.ndarray:
        """Integer potentials (an object array) as floats in the units of
        `scaled`, each correctly rounded but for subnormal rounding."""
        try:
            return np.ldexp(pot.astype(float), -self._units)
        except OverflowError:  # beyond the float range before scaling
            return (pot / (1 << self._units)).astype(float)


def _dyadic(values) -> tuple[list[int], int]:
    """Integers N_k and one exponent K with values[k] = N_k / 2^K."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k + 1 - den.bit_length()) for num, den in ratios], k


def _integer_margins(a_weights, b_weights) -> tuple[list[int], list[int], int]:
    """Supplies, demands and their common denominator D: a_i = supply_i / D,
    and b_j rescaled to the total supply, b_j sum(a) / sum(b), is
    demand_j / D. Float weights rarely sum to the same rational; the
    rescaling, of order 1e-16, keeps the LP feasible without moving the
    optimum beyond that scale. Both simplex phases move flows of these
    margins."""
    a, ka = _dyadic(a_weights)
    b, _ = _dyadic(b_weights)
    ta, tb = sum(a), sum(b)
    return [x * tb for x in a], [y * ta for y in b], tb << ka


def _float_start(supply, demand, cost) -> dict[tuple[int, int], int]:
    """Feasible spanning-tree basis {cell: flow} of the integer margins by
    the MODI method: a matrix-minimum allocation, then pivots chosen from
    a candidate list (Ahuja, Magnanti and Orlin, Network Flows, 1993,
    sec. 11.5). One pricing of every cell lists each row's most negative
    cell, most negative first; each enters in turn if its reduced cost,
    priced again from the current potentials, is still negative, and the
    matrix is priced again when the list is used up. The start ends when a
    full pricing finds no reduced cost below a rounding tolerance, or when
    START_PIVOTS * (m + n) pivots are spent. Floats only price the cells
    and choose the entering ones; the flows stay exact integers, and
    `_exact_transport` certifies the basis."""
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    flow = _matrix_minimum(supply, demand, cost)
    tree = _Tree(m, n, flow)
    pot = tree.potentials(lambda i, j: cost.item(i, j), 0.0)
    tol = 1e-12 * float(np.abs(cost).max(initial=0.0))
    budget = START_PIVOTS * (m + n)
    rows = np.arange(m)
    reduced = np.empty_like(cost)
    while budget > 0:
        prices = np.array(pot)
        np.subtract(cost, prices[:m, None], out=reduced)
        reduced += prices[None, m:]
        cols = reduced.argmin(axis=1)
        best = reduced[rows, cols]
        listed = np.flatnonzero(best < -tol)
        if listed.size == 0:
            break
        for i in listed[np.argsort(best[listed], kind="stable")].tolist():
            j = int(cols[i])
            red = cost.item(i, j) - pot[i] + pot[m + j]
            if red >= -tol:
                continue
            _, sub, delta, _ = _pivot(tree, flow, (i, j), red)
            for k in sub:
                pot[k] += delta
            budget -= 1
            if budget == 0:
                break
    return flow


def _matrix_minimum(supply, demand, cost) -> dict[tuple[int, int], int]:
    """Spanning-tree basis {cell: flow} of the matrix-minimum rule on the
    integer margins: the cheapest cell whose row and column are both live
    takes as much as they allow (ties: row-major order), and closes its row
    or its column. When both empty together, only the row closes, unless it
    is the last live row; the column then takes a zero flow later. Each
    allocation closes exactly one line, the last one two, so the m + n - 1
    cells form a spanning tree."""
    m, n = cost.shape
    a, b = list(supply), list(demand)
    rows_left = m
    live_col = np.ones(n, dtype=bool)
    # per row, its cheapest live column (first on ties) and that cost; a
    # closed row's cost is inf
    best_col = cost.argmin(axis=1)
    best = cost[np.arange(m), best_col]
    flow = {}
    while True:
        i = int(best.argmin())
        j = int(best_col[i])
        t = min(a[i], b[j])
        flow[(i, j)] = t
        a[i] -= t
        b[j] -= t
        if a[i] == 0 and rows_left > 1:
            best[i] = math.inf
            rows_left -= 1
            continue
        live_col[j] = False
        if not live_col.any():
            return flow
        stale = np.flatnonzero((best_col == j) & (best < math.inf))
        if stale.size:
            rows = np.where(live_col, cost[stale], math.inf)
            best_col[stale] = rows.argmin(axis=1)
            best[stale] = rows[np.arange(stale.size), best_col[stale]]


class _Tree:
    """Spanning tree of a transportation basis, rooted at row 0. Nodes
    0..m-1 are the rows and m..m+n-1 the columns; each edge is a basic
    cell. Potentials are kept by the caller, one per node, with
    C_ij = pot[i] - pot[m + j] on every tree cell, so the reduced cost of a
    cell is C_ij - pot[i] + pot[m + j], and a constant added to the
    potentials of a subtree keeps its own cells at reduced cost zero."""

    def __init__(self, m: int, n: int, cells):
        self.m = m
        self.nbrs: list[list[int]] = [[] for _ in range(m + n)]
        for i, j in cells:
            self.nbrs[i].append(m + j)
            self.nbrs[m + j].append(i)
        self.parent = [-1] * (m + n)
        self.depth = [0] * (m + n)
        self.parent[0] = 0
        self.order = [0]  # breadth first from the root
        self._hang(self.order)

    def _hang(self, order: list[int]) -> None:
        """Set parent and depth below order[0], whose own are set, extending
        `order` by the nodes reached."""
        parent, depth, nbrs = self.parent, self.depth, self.nbrs
        for k in order:
            above, level = parent[k], depth[k] + 1
            for nb in nbrs[k]:
                if nb != above:
                    parent[nb], depth[nb] = k, level
                    order.append(nb)

    def potentials(self, cost_of, zero) -> list:
        """Tree potentials with pot[0] = zero, from cost_of(i, j) per cell."""
        m, parent = self.m, self.parent
        pot = [zero] * len(parent)
        for k in self.order[1:]:
            p = parent[k]
            pot[k] = pot[p] + cost_of(k, p - m) if k < m else pot[p] - cost_of(p, k - m)
        return pot

    def cycle(self, i: int, j: int) -> tuple[list[tuple[int, int]], int]:
        """The tree path from column j to row i, which cell (i, j) closes to
        a cycle, and how many of its cells lie below the lowest common
        ancestor on the column side. Along the cycle, flows change by -t,
        +t, -t, ... from the column end."""
        m, parent, depth = self.m, self.parent, self.depth
        up, down = m + j, i
        from_col, from_row = [], []
        while up != down:
            if depth[up] >= depth[down]:
                k = parent[up]
                from_col.append((k, up - m) if up >= m else (up, k - m))
                up = k
            else:
                k = parent[down]
                from_row.append((k, down - m) if down >= m else (down, k - m))
                down = k
        return from_col + from_row[::-1], len(from_col)

    def exchange(self, entering: tuple[int, int], leaving: tuple[int, int],
                 below: int) -> list[int]:
        """Swap the leaving tree cell for the entering one. `below` is the
        end of the entering cell that removing the leaving cell cuts off
        from the root; that subtree is re-hung from it. Returns its nodes."""
        m, nbrs = self.m, self.nbrs
        i_out, j_out = leaving
        nbrs[i_out].remove(m + j_out)
        nbrs[m + j_out].remove(i_out)
        i_in, j_in = entering
        above = i_in if below == m + j_in else m + j_in
        nbrs[below].append(above)
        nbrs[above].append(below)
        self.parent[below], self.depth[below] = above, self.depth[above] + 1
        sub = [below]
        self._hang(sub)
        return sub


def _pivot(tree: _Tree, flow: dict, entering: tuple[int, int], red):
    """One simplex pivot on the basis {cell: flow} and its tree: the
    entering cell, of reduced cost `red`, takes the largest flow the cycle
    allows, and the cycle cell with the least flow (on ties the smallest)
    leaves. Returns the leaving cell, the re-hung subtree, the shift of its
    potentials that brings the entering cell to reduced cost zero, and the
    flow moved."""
    i, j = entering
    path, on_col_side = tree.cycle(i, j)
    minus = path[0::2]
    flows = [flow[cell] for cell in minus]
    theta = min(flows)
    leaving, k = min((cell, 2 * t) for t, cell in enumerate(minus)
                     if flows[t] == theta)
    for cell in minus:
        flow[cell] -= theta
    for cell in path[1::2]:
        flow[cell] += theta
    del flow[leaving]
    flow[entering] = theta
    if k < on_col_side:  # the column end is cut off: v_j absorbs the cost
        return leaving, tree.exchange(entering, leaving, tree.m + j), -red, theta
    return leaving, tree.exchange(entering, leaving, i), red, theta


def _exact_simplex(costs: _DyadicCosts, flow: dict) -> int:
    """Transportation simplex in integers from the feasible tree basis
    `flow` ({cell: flow}, updated in place), returning sum(F C) at the
    optimum.

    The potentials are exact integers, updated per pivot on the re-hung
    subtree only (Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 11).
    Each pass prices every cell in floats from the rounded potentials. A
    cell's float reduced cost is within SCREEN_MARGIN (|c| + |u| + |v|) of
    the exact one, so only the non-basic cells whose float value is within
    two margins of the float minimum can hold the exact minimum; only they
    are priced exactly (`_DyadicCosts.reduced`). The most negative exact
    reduced cost enters; after m + n degenerate pivots in a row, Bland's
    rule takes over until a pivot moves flow (the first negative cell in
    row-major order enters, and the smallest tied cell leaves), so the
    simplex cannot cycle."""
    m, n = costs.scaled.shape
    cells = list(flow)
    tree = _Tree(m, n, cells)
    flat = np.array([i * n + j for i, j in cells], dtype=np.intp)
    exact = dict(zip(cells, costs.exact(flat).tolist()))
    pot = np.array(tree.potentials(lambda i, j: exact[(i, j)], 0), dtype=object)
    approx = costs.approx(pot)
    # with the margin's potential terms moved to the left, a cell can be
    # exactly negative only where the float value is below `floor`; basic
    # cells, of reduced cost zero, have floor -inf
    floor = SCREEN_MARGIN * np.abs(costs.scaled) + 1e-300  # 1e-300: subnormals
    floor.flat[flat] = -math.inf
    screened = np.empty((m, n))
    top_cost = float(np.abs(costs.scaled).max(initial=0.0))
    degenerate = 0
    while True:
        slack = SCREEN_MARGIN * np.abs(approx)
        np.subtract(costs.scaled, (approx[:m] + slack[:m])[:, None], out=screened)
        screened += (approx[m:] - slack[m:])[None, :]
        near = np.flatnonzero(screened < floor)
        if near.size == 0:
            break
        # a near cell's exact reduced cost lies within `err` of its screened
        # value, or up to `lift` (the slack moved to the left) above it
        lift = 2.0 * float(slack.max())
        err = SCREEN_MARGIN * top_cost + lift + 1e-300
        s = screened.ravel()[near]
        lowest = float(s.min())
        if degenerate < m + n:  # only these can hold the exact minimum
            near = near[s <= lowest + lift + 2.0 * err]
        red = costs.reduced(near, pot, abs(lowest) + 2.0 * lift + 4.0 * err)
        negative = np.flatnonzero(red < 0)
        if negative.size == 0:
            break
        k = int(negative[0]) if degenerate >= m + n else \
            int(negative[np.argmin(red[negative])])
        i, j = divmod(int(near[k]), n)
        leaving, sub, delta, theta = _pivot(tree, flow, (i, j), int(red[k]))
        floor[leaving] = SCREEN_MARGIN * abs(costs.scaled[leaving]) + 1e-300
        floor[i, j] = -math.inf
        sub = np.array(sub)
        pot[sub] += delta
        approx[sub] = costs.approx(pot[sub])
        degenerate = degenerate + 1 if theta == 0 else 0
    cells = list(flow)
    cost = costs.exact(np.array([i * n + j for i, j in cells], dtype=np.intp))
    return sum(flow[cell] * c for cell, c in zip(cells, cost))


def _highs_transport(a_weights, b_weights, cost_rows) -> float:
    """Optimal total cost of the transportation LP by the HiGHS dual simplex
    in floats, checked by its duality gap. No runtime path calls it. The
    tests use it as the float reference against `_exact_transport`, and
    `benchmark/tracer.py` looks the name up; ROADMAP item 1 frees the name
    for deletion. Presolve is off: it removes
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
