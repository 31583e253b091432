import itertools
import math
from collections import defaultdict, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from stickygeom import spaces as S
from stickygeom import transport as T
from stickygeom.transport import _exact_transport, _highs_transport

PI = math.pi


@pytest.fixture(scope="module")
def spider3():
    return S.spider(3)


@pytest.fixture(scope="module")
def spider4():
    return S.spider(4)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------

def test_wq_identical_measures(spider3):
    rng = np.random.default_rng(2)
    mu = gen.random_measure(spider3, rng)
    assert T.wq_lp(spider3, mu, mu, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert T.w1_tree(spider3, mu, mu) == pytest.approx(0.0, abs=1e-15)


def test_wq_between_diracs(spider3):
    x, y = S.point(spider3, 0, 1.0), S.point(spider3, 1, 1.0)
    for q in (1.0, 2.0, 3.0):
        assert T.wq_lp(spider3, S.dirac(spider3, x), S.dirac(spider3, y), q) \
            == pytest.approx(2.0, abs=1e-12)
    assert T.w1_tree(spider3, S.dirac(spider3, x), S.dirac(spider3, y)) == 2.0


def test_2x2_brute_force(spider3):
    p = S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.5)])
    q = S.measure(spider3, [((0, 0.5), 0.5), ((2, 1.0), 0.5)])
    got = T.wq_lp(spider3, p, q, 1.0)
    # the transportation polytope here is a segment; scan it
    d = lambda a, b: S.cone_distance(spider3, a, b)
    x = [S.point(spider3, 0, 1.0), S.point(spider3, 1, 1.0)]
    y = [S.point(spider3, 0, 0.5), S.point(spider3, 2, 1.0)]
    best = min(
        lam * d(x[0], y[0]) + (0.5 - lam) * d(x[0], y[1])
        + (0.5 - lam) * d(x[1], y[0]) + lam * d(x[1], y[1])
        for lam in np.linspace(0.0, 0.5, 100001))
    assert got == pytest.approx(best, abs=1e-9)
    assert got == pytest.approx(1.25, abs=1e-12)
    assert T.w1_tree(spider3, p, q) == pytest.approx(got, abs=1e-12)


def test_w1_tree_matches_lp_random(spider4):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(150):
        p = gen.random_measure(spider4, rng)
        q = gen.random_measure(spider4, rng)
        worst = max(worst, abs(T.w1_tree(spider4, p, q)
                               - T.wq_lp(spider4, p, q, 1.0)))
    assert worst <= 1e-9


def test_w1_tree_fallback_on_short_angles():
    # plane support is never a star tree, so the closed form defers to the LP
    plane = S.kale(2 * PI)
    p = S.measure(plane, [((0.0, 1.0), 0.5), ((0.3, 1.0), 0.5)])
    q = S.dirac(plane, S.point(plane, 0.15, 1.0))
    assert T.w1_tree(plane, p, q) == pytest.approx(T.wq_lp(plane, p, q, 1.0),
                                                   abs=1e-12)


def test_perturbation_transport_identity(spider3):
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = gen.random_measure(spider3, rng)
        y = gen.random_point(spider3, rng)
        t = float(rng.uniform(0.0, 1.0))
        lhs = T.w1_tree(spider3, p, T.perturbed_measure(spider3, p, y, t))
        rhs = t * T.w1_tree(spider3, p, S.dirac(spider3, y))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs <= rhs + 1e-12


def test_wasserstein_monotone_in_order(spider4):
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = gen.random_measure(spider4, rng)
        q = gen.random_measure(spider4, rng)
        w1 = T.wq_lp(spider4, p, q, 1.0)
        w2 = T.wq_lp(spider4, p, q, 2.0)
        assert w1 <= w2 + 1e-9


def test_exact_simplex_matches_highs():
    rng = np.random.default_rng(19)
    for _ in range(60):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(n))
        cost = rng.uniform(0.0, 3.0, size=(m, n))
        exact = float(_exact_transport(list(a), list(b), cost.tolist()))
        approx = _highs_transport(list(a), list(b), cost.tolist())
        assert exact == pytest.approx(approx, abs=1e-9)


def _random_lp(sp, rng, order, max_atoms=24):
    """Weights and cost matrix of W_order between two random measures."""
    p, q = (S.measure(sp, [(gen.random_point(sp, rng), w) for w in
                           rng.dirichlet(np.ones(int(rng.integers(1, max_atoms + 1))))])
            for _ in range(2))
    cost = [[S.cone_distance(sp, x, y) ** order for y in q.points()]
            for x in p.points()]
    return p.weights(), q.weights(), cost


def _rational_problem(a_weights, b_weights, cost_rows):
    """Supplies, demands and costs as `Fraction`s, with the demands rescaled
    to the total supply."""
    a = [Fraction(w) for w in a_weights]
    b = [Fraction(w) for w in b_weights]
    scale = sum(a) / sum(b)
    return a, [w * scale for w in b], [[Fraction(c) for c in row] for row in cost_rows]


def _adjacency(basis):
    """The columns of each row and the rows of each column in `basis`."""
    by_row = defaultdict(list)
    by_col = defaultdict(list)
    for (i0, j0) in basis:
        by_row[i0].append(j0)
        by_col[j0].append(i0)
    return by_row, by_col


def _reduced_costs(cost, basis):
    """(cell, reduced cost) of every cell off the spanning tree `basis`, in
    row-major order, from potentials with u_0 = 0 and u_i + v_j = c_ij on
    the tree."""
    m, n = len(cost), len(cost[0])
    by_row, by_col = _adjacency(basis)
    u: list[Fraction | None] = [None] * m
    v: list[Fraction | None] = [None] * n
    u[0] = Fraction(0)
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
    return (((i0, j0), cost[i0][j0] - u[i0] - v[j0])
            for i0 in range(m) for j0 in range(n) if (i0, j0) not in basis)


def _bland_simplex(cost, flow) -> Fraction:
    """Transportation simplex in `Fraction`s with Bland's rule from the
    feasible tree basis `flow` ({cell: flow}, updated in place): every pass
    prices the cells exactly, the first negative cell in row-major order
    enters and the smallest tied cell leaves."""
    while True:
        by_row, by_col = _adjacency(flow)
        entering = next((cell for cell, red in _reduced_costs(cost, flow) if red < 0),
                        None)
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


def _northwest_corner(a, b) -> dict[tuple[int, int], object]:
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


def _tree_flows(a, b, tree) -> dict[tuple[int, int], object] | None:
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


def _oracle_value(a_weights, b_weights, cost_rows, tree=None) -> Fraction:
    """Optimal value of the transportation LP by the all-`Fraction` Bland
    simplex: from the northwest corner, or from the spanning tree `tree` if
    its flows are feasible. The start changes the time taken, not the
    value; the flows are checked against the margins first."""
    a, b, cost = _rational_problem(a_weights, b_weights, cost_rows)
    flow = None if tree is None else _tree_flows(a, b, tree)
    if flow is None:
        flow = _northwest_corner(a, b)
    rows, cols = [Fraction(0)] * len(a), [Fraction(0)] * len(b)
    for (i, j), f in flow.items():
        assert f >= 0
        rows[i] += f
        cols[j] += f
    assert rows == a and cols == b
    return _bland_simplex(cost, flow)


def _record_simplex(monkeypatch):
    """Collect the (starting, final) basis of every exact simplex run."""
    runs = []
    simplex = T._exact_simplex

    def recording(costs, flow):
        start = set(flow)
        value = simplex(costs, flow)
        runs.append((start, set(flow)))
        return value

    monkeypatch.setattr(T, "_exact_simplex", recording)
    return runs


def test_exact_transport_matches_northwest_simplex():
    rng = np.random.default_rng(47)
    for k in range(204):
        sp = (S.spider(4), S.kale(float(rng.uniform(2 * PI, 3.5 * PI))),
              S.petersen_cone())[k % 3]
        aw, bw, cost = _random_lp(sp, rng, (1.0, 2.0)[k // 3 % 2])
        assert _exact_transport(aw, bw, cost) == _oracle_value(aw, bw, cost)


def _record_start(monkeypatch):
    """Collect the cells of every basis `_float_start` returns."""
    trees = []
    float_start = T._float_start

    def recording(supply, demand, cost):
        flow = float_start(supply, demand, cost)
        trees.append(set(flow))
        return flow

    monkeypatch.setattr(T, "_float_start", recording)
    return trees


def test_exact_transport_pivots_from_degenerate_float_start(monkeypatch):
    # across legs a spider's W_1 cost is r + s, so the LP has many optimal
    # vertices; the tree the float start ends on here is feasible, but some
    # reduced cost is negative in exact arithmetic
    sp = S.spider(4)
    rng = np.random.default_rng(2)
    p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                           for w in rng.dirichlet(np.ones(8))]) for _ in range(2))
    aw, bw = p.weights(), q.weights()
    cost = [[S.cone_distance(sp, x, y) for y in q.points()] for x in p.points()]
    want = _oracle_value(aw, bw, cost)
    a, b, _ = T._integer_margins(aw, bw)
    trees = _record_start(monkeypatch)
    runs = _record_simplex(monkeypatch)
    assert _exact_transport(aw, bw, cost) == want
    (start, final), = runs
    assert start == trees[0]
    assert start != set(_northwest_corner(a, b))
    assert final != start


def test_exact_transport_survives_capped_float_start(monkeypatch):
    # with no float pivots allowed, the start stops at its matrix-minimum
    # tree, which is not optimal here; the exact simplex pivots on from it
    aw, bw, cost = _random_lp(S.petersen_cone(), np.random.default_rng(53), 2.0)
    want = _oracle_value(aw, bw, cost)
    a, b, _ = T._integer_margins(aw, bw)
    uncapped = set(T._float_start(a, b, T._DyadicCosts(cost).scaled))
    monkeypatch.setattr(T, "START_PIVOTS", 0)
    trees = _record_start(monkeypatch)
    runs = _record_simplex(monkeypatch)
    assert _exact_transport(aw, bw, cost) == want
    (start, final), = runs
    assert start == trees[0] != uncapped
    assert final != start


def test_exact_simplex_pivots_past_a_float_tie(monkeypatch):
    # from the start tree {(0, 0), (0, 1), (1, 1)}, row 1's potential is
    # c11 - c01 = 1 + 2^-53, which rounds to 1; cell (1, 0) then has float
    # reduced cost +2^-54 but exact reduced cost -2^-54, and entering it
    # lowers the cost by 2^-55
    aw, bw = [0.5, 0.5], [0.5, 0.5]
    c00, c01, c10, c11 = 3 * 2.0 ** -54, 2.0 ** -53, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52
    u1 = float(Fraction(c11) - Fraction(c01))
    assert c10 - u1 - c00 > 0.0
    assert Fraction(c10) - (Fraction(c11) - Fraction(c01)) - Fraction(c00) < 0
    cost = [[c00, c01], [c10, c11]]
    tree = [(0, 0), (0, 1), (1, 1)]
    monkeypatch.setattr(T, "_float_start",
                        lambda supply, demand, cost: _tree_flows(supply, demand, tree))
    runs = _record_simplex(monkeypatch)
    want = Fraction(1, 2) + Fraction(3, 2 ** 54)
    assert _exact_transport(aw, bw, cost) == _oracle_value(aw, bw, cost) == want
    assert runs == [(set(tree), {(0, 1), (1, 0), (1, 1)})]


def test_exact_simplex_hands_degenerate_runs_to_blands_rule(monkeypatch):
    # `_exact_simplex` counts the pivots in a row that move no flow, from the
    # theta `_pivot` returns. Reporting theta = 0 for the first m + n + 8
    # pivots makes them count as degenerate, as on a degenerate LP, while the
    # flows move as they should. So pivots m + n + 1 to m + n + 9 enter by
    # Bland's rule (the first negative cell in row-major order); pivot
    # m + n + 9 reports its real theta, which resets the count, and from
    # there the most negative cell enters again. The entering cells are
    # checked against reduced costs priced in `Fraction`s from scratch.
    rng = np.random.default_rng(3)
    m = n = 16
    i, j = np.indices((m, n))
    # the northwest corner is the costliest staircase: many pivots follow
    cost_rows = (rng.uniform(0.0, 0.3, size=(m, n))
                 - np.abs(i / (m - 1) - j / (n - 1))).tolist()
    aw, bw = rng.dirichlet(np.ones(m)).tolist(), rng.dirichlet(np.ones(n)).tolist()
    cost = _rational_problem(aw, bw, cost_rows)[2]
    bland_from, bland_to = m + n + 1, m + n + 9
    pivots = []  # (Bland's rule due, entering, first negative, most negative)
    pivot = T._pivot

    def recording(tree, flow, entering, red):
        priced = [(r, cell) for cell, r in _reduced_costs(cost, flow) if r < 0]
        pivots.append((bland_from <= len(pivots) + 1 <= bland_to, entering,
                       priced[0][1], min(priced)[1]))
        leaving, sub, delta, theta = pivot(tree, flow, entering, red)
        assert theta > 0
        return leaving, sub, delta, theta if len(pivots) >= bland_to else 0

    monkeypatch.setattr(T, "_pivot", recording)
    supply, demand, denom = T._integer_margins(aw, bw)
    costs = T._DyadicCosts(cost_rows)
    flow = _northwest_corner(supply, demand)
    got = T._exact_simplex(costs, flow)
    assert Fraction(got, denom << costs.shift) == _oracle_value(aw, bw, cost_rows)
    assert len(pivots) > bland_to + 2
    for bland, entering, first, most in pivots:
        assert entering == (first if bland else most)
    # the two rules part ways in both phases, so each choice is tested
    assert any(first != most for bland, _, first, most in pivots if bland)
    assert any(first != most for bland, _, first, most in pivots[bland_to:])


def _float_range_lps():
    """Weights and costs from subnormal to near the largest float."""
    rng = np.random.default_rng(71)
    for k in range(12):
        m, n = (int(x) for x in rng.integers(2, 9, size=2))
        exponent = rng.integers(-320, 1, size=(m, n)) if k % 2 else \
            rng.integers(0, 308, size=(m, n))
        cost = (rng.uniform(0.1, 1.0, size=(m, n)) * 10.0 ** exponent).tolist()
        aw, bw = rng.dirichlet(np.ones(m)).tolist(), rng.dirichlet(np.ones(n)).tolist()
        yield aw, bw, cost


def test_exact_transport_across_the_float_range():
    # the reduced costs leave int64 (exact pricing falls back to Python
    # integers) and, past 2^1024 units, the float range (their rounding
    # falls back to integer division)
    for aw, bw, cost in _float_range_lps():
        assert _exact_transport(aw, bw, cost) == _oracle_value(aw, bw, cost)


def _is_spanning_tree(m: int, n: int, cells) -> bool:
    """Whether the cells join the m rows and n columns into one tree."""
    root = list(range(m + n))  # union-find over rows 0..m-1, columns m..

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for i, j in cells:
        ri, rj = find(i), find(m + j)
        if ri == rj:
            return False
        root[ri] = rj
    return len(cells) == m + n - 1


def test_float_start_moves_the_integer_margins():
    """`_float_start` returns a spanning-tree basis whose flows are
    nonnegative Python integers with exactly the margins of
    `_integer_margins`, on LPs with cost ties, costs across the float range
    and equal weights, where a row and a column empty together."""
    rng = np.random.default_rng(73)
    lps = [(aw, bw, cost, False) for aw, bw, cost in _float_range_lps()]
    for sp, order, allow_apex in ((S.spider(4), 1.0, False), (S.kale(2.7 * PI), 2.0, True),
                                  (S.petersen_cone(), 1.0, True)):
        for m in (8, 40, 100):
            p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=allow_apex), w)
                                   for w in rng.dirichlet(np.ones(m))]) for _ in range(2))
            cost = S.cone_distances(sp, p.points(), q.points()) ** order
            lps.append((p.weights(), q.weights(), cost.tolist(), False))
    for aw, bw in (([1 / 7] * 7, [1 / 7] * 7), ([0.5, 0.5], [0.25] * 4),
                   ([0.125] * 8, [0.25] * 4)):
        lps.append((aw, bw, rng.uniform(0.0, 1.0, size=(len(aw), len(bw))).tolist(), True))
    for aw, bw, cost, tied in lps:
        supply, demand, _ = T._integer_margins(aw, bw)
        flow = T._float_start(supply, demand, T._DyadicCosts(cost).scaled)
        assert _is_spanning_tree(len(aw), len(bw), list(flow))
        rows, cols = [0] * len(aw), [0] * len(bw)
        for (i, j), f in flow.items():
            assert type(f) is int and f >= 0
            rows[i] += f
            cols[j] += f
        assert rows == supply and cols == demand
        # a basis of an LP whose margins tie has fewer positive flows than cells
        assert not tied or 0 in flow.values()


def test_float_start_ends_on_a_full_pricing():
    """The float start stops only when pricing every cell finds no reduced
    cost below its tolerance, not when a candidate list runs out: on the
    LPs above, the float potentials of the tree it returns leave no
    non-basic cell below -1e-12 max|cost|."""
    rng = np.random.default_rng(79)
    lps = list(_float_range_lps())
    for sp, order, allow_apex in ((S.spider(4), 1.0, False), (S.kale(2.7 * PI), 2.0, True),
                                  (S.petersen_cone(), 1.0, True)):
        for m in (8, 40, 100):
            p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=allow_apex), w)
                                   for w in rng.dirichlet(np.ones(m))]) for _ in range(2))
            cost = S.cone_distances(sp, p.points(), q.points()) ** order
            lps.append((p.weights(), q.weights(), cost.tolist()))
    for aw, bw, cost_rows in lps:
        supply, demand, _ = T._integer_margins(aw, bw)
        cost = T._DyadicCosts(cost_rows).scaled
        flow = T._float_start(supply, demand, cost)
        m, n = cost.shape
        pot = np.array(T._Tree(m, n, flow).potentials(lambda i, j: cost.item(i, j), 0.0))
        reduced = cost - pot[:m, None] + pot[None, m:]
        for cell in flow:
            reduced[cell] = math.inf
        assert reduced.min() >= -1e-12 * np.abs(cost).max()


def test_float_start_pivot_budget_spans_its_batches(monkeypatch):
    """START_PIVOTS * (m + n) caps the float pivots over all candidate
    lists together. A list holds at most one cell per row, fewer than
    m + n, so a start that reaches the cap has priced more than once."""
    rng = np.random.default_rng(80)
    sp = S.kale(2.7 * PI)
    p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=False), w)
                           for w in rng.dirichlet(np.ones(40))]) for _ in range(2))
    aw, bw = p.weights(), q.weights()
    cost = (S.cone_distances(sp, p.points(), q.points()) ** 2.0).tolist()
    m, n = len(aw), len(bw)
    supply, demand, _ = T._integer_margins(aw, bw)
    pivots = []
    pivot = T._pivot

    def counting(tree, flow, entering, red):
        pivots.append(entering)
        return pivot(tree, flow, entering, red)

    monkeypatch.setattr(T, "_pivot", counting)
    T._float_start(supply, demand, T._DyadicCosts(cost).scaled)
    uncapped = len(pivots)
    monkeypatch.setattr(T, "START_PIVOTS", 1)
    pivots.clear()
    T._float_start(supply, demand, T._DyadicCosts(cost).scaled)
    assert len(pivots) <= m + n < uncapped
    runs = _record_simplex(monkeypatch)
    assert _exact_transport(aw, bw, cost) == _oracle_value(aw, bw, cost, runs[-1][1])


def test_exact_band_does_not_call_highs(monkeypatch):
    """Every size is in the exact band, past 128 atoms a side too, where
    HiGHS used to take over."""
    def failing(a_weights, b_weights, cost_rows):
        raise AssertionError("HiGHS called in the exact band")

    monkeypatch.setattr(T, "_highs_transport", failing)
    runs = _record_simplex(monkeypatch)
    rng = np.random.default_rng(59)
    for sp, sizes, order in ((S.spider(4), (64, 8), 1.0),
                             (S.kale(2.5 * PI), (24, 24), 2.0),
                             (S.petersen_cone(), (16, 20), 2.0),
                             (S.petersen_cone(), (128, 128), 1.0),
                             (S.kale(2.7 * PI), (150, 140), 2.0)):
        p, q = (S.measure(sp, [(gen.random_point(sp, rng), w)
                               for w in rng.dirichlet(np.ones(m))]) for m in sizes)
        # atoms drawn at the apex merge into one
        assert max(sizes) <= 128 or min(p.size, q.size) > 128
        cost = [[S.cone_distance(sp, x, y) ** order for y in q.points()]
                for x in p.points()]
        got = T.wq_lp(sp, p, q, order)
        # from the northwest corner the Fraction simplex takes minutes at 128
        # atoms; its start does not change its value
        tree = runs[-1][1] if max(sizes) > 64 else None
        want = float(_oracle_value(p.weights(), q.weights(), cost, tree))
        assert got == max(want, 0.0) ** (1.0 / order)


def test_wq_lp_is_the_rational_optimum_through_128_atoms(monkeypatch):
    """Bit for bit at 65-128 atoms, where HiGHS ran before. The oracle
    starts from the basis the exact simplex ended on, and prices every cell
    in `Fraction`s."""
    runs = _record_simplex(monkeypatch)
    rng = np.random.default_rng(67)
    spider, kale, petersen = S.spider(4), S.kale(2.7 * PI), S.petersen_cone()
    cases = [(sp, order, True) for sp in (spider, kale, petersen)
             for order in (1.0, 2.0, 3.0)]
    cases.append((spider, 1.0, False))  # apex-free: cost ties across legs
    for sp, order, allow_apex in cases:
        p, q = (S.measure(sp, [(gen.random_point(sp, rng, allow_apex=allow_apex), w)
                               for w in rng.dirichlet(np.ones(m))])
                for m in rng.integers(65, 129, size=2))
        got = T.wq_lp(sp, p, q, order)
        cost = [[d ** order for d in row]
                for row in S.cone_distances(sp, p.points(), q.points()).tolist()]
        want = _oracle_value(p.weights(), q.weights(), cost, runs[-1][1])
        assert got == max(float(want), 0.0) ** (1.0 / order)


def test_float_band_matches_exact_transport():
    rng = np.random.default_rng(61)
    for k in range(6):
        sp = (S.spider(4), S.kale(float(rng.uniform(2 * PI, 3.5 * PI))),
              S.petersen_cone())[k % 3]
        order = (1.0, 2.0)[k // 3]
        # atoms drawn at the apex merge into one, so draw well above 128,
        # where HiGHS used to take over
        p, q = (S.measure(sp, [(gen.random_point(sp, rng), w) for w in
                               rng.dirichlet(np.ones(int(rng.integers(140, 171))))])
                for _ in range(2))
        aw, bw = p.weights(), q.weights()
        assert min(len(aw), len(bw)) > 128
        cost = [[S.cone_distance(sp, x, y) ** order for y in q.points()]
                for x in p.points()]
        exact = float(_exact_transport(aw, bw, cost))
        assert _highs_transport(aw, bw, cost) == pytest.approx(exact, rel=1e-12)


def test_float_band_is_optimal_on_cubic_spider_costs():
    # across legs the cost (r + s)^3 leaves many vertices close to optimal;
    # at HiGHS's default feasibility tolerances (1e-7) this LP stopped at one
    # 2.6e-11 (relative) above the optimum, within the duality-gap check
    sp = S.spider(4)
    rng = np.random.default_rng(0)
    m = int(rng.integers(72, 97))
    p, q = (S.measure(sp, [((int(rng.integers(0, 4)), float(rng.uniform(0.5, 1.5))), w)
                           for w in rng.dirichlet(np.ones(m))]) for _ in range(2))
    aw, bw = p.weights(), q.weights()
    cost = [[d ** 3.0 for d in row]
            for row in S.cone_distances(sp, p.points(), q.points()).tolist()]
    exact = float(_exact_transport(aw, bw, cost))
    assert _highs_transport(aw, bw, cost) == pytest.approx(exact, rel=1e-12)


def test_large_instance_matches_tree_closed_form(spider3):
    rng = np.random.default_rng(23)
    w = rng.dirichlet(np.ones(140))
    p = S.measure(spider3, [((int(rng.integers(0, 3)), float(rng.uniform(0.1, 2))), wi)
                            for wi in w])
    q = gen.random_measure(spider3, rng, max_atoms=5)
    assert T.wq_lp(spider3, p, q, 1.0) == pytest.approx(
        T.w1_tree(spider3, p, q), abs=1e-9)


def test_open_book_transport():
    bk = S.open_book(3, 2)
    p = S.dirac(bk, S.point(bk, 0, 1.0, (0.0,)))
    q = S.dirac(bk, S.point(bk, 1, 1.0, (1.0,)))
    assert T.wq_lp(bk, p, q, 1.0) == pytest.approx(math.sqrt(5.0), abs=1e-12)


# ---------------------------------------------------------------------------
# f-divergences
# ---------------------------------------------------------------------------

def test_array_callers_make_no_scalar_distance_calls(monkeypatch):
    """Cost matrices, diameters, Frechet sums, the star test and the pull
    condition read the array metric, never a scalar distance."""
    from stickygeom import frechet as F
    from stickygeom import stickiness as ST

    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    monkeypatch.setattr(S, "_cone_dist", counted(S._cone_dist))
    for cls in (S.FiniteDirections, S.CircleDirections, S.GraphDirections):
        monkeypatch.setattr(cls, "distance", counted(cls.distance))
    rng = np.random.default_rng(23)
    for sp in (S.spider(3), S.kale(2.5 * PI), S.petersen_cone(), S.open_book(3, 2)):
        p, q = gen.random_measure(sp, rng), gen.random_measure(sp, rng)
        x, anchor = gen.random_point(sp, rng), gen.random_point(sp, rng)
        T.wq_lp(sp, p, q, 2.0)
        T.support_diameter(sp, p, q)
        F.frechet_value(sp, p, x)
        F.frechet_value(sp, p, x, anchor)
        F.lipschitz_L(sp, p, x)
        if isinstance(sp, S.Cone):
            T.w1_tree(sp, p, q)
            ST.pull_condition(sp, p)
    assert calls == []
    S.cone_distance(sp, x, anchor)  # the counter does see scalar calls
    assert calls


def test_divergence_zero_iff_equal(spider3):
    rng = np.random.default_rng(29)
    for kind in T.BUILTIN_DIVERGENCES.values():
        for _ in range(20):
            p = gen.random_measure(spider3, rng)
            assert T.f_divergence(spider3, p, p, kind) == pytest.approx(0.0, abs=1e-12)
            q = gen.random_measure(spider3, rng)
            if dict(p.atoms) != dict(q.atoms):
                val = T.f_divergence(spider3, p, q, kind)
                assert val > 0.0 or math.isinf(val)


def test_divergence_reference_values(spider3):
    mu = S.measure(spider3, [((0, 1.0), 0.75), ((1, 1.0), 0.25)])
    nu = S.measure(spider3, [((0, 1.0), 0.25), ((1, 1.0), 0.75)])
    assert T.f_divergence(spider3, mu, nu, T.TOTAL_VARIATION) == pytest.approx(0.5)
    a = S.dirac(spider3, S.point(spider3, 0, 1.0))
    b = S.dirac(spider3, S.point(spider3, 1, 1.0))
    assert T.f_divergence(spider3, a, b, T.TOTAL_VARIATION) == 1.0
    assert math.isinf(T.f_divergence(spider3, a, b, T.KULLBACK_LEIBLER))
    assert T.f_divergence(spider3, a, b, T.JENSEN_SHANNON) \
        == pytest.approx(2 * math.log(2), abs=1e-12)
    assert T.f_divergence(spider3, a, b, T.SQUARED_HELLINGER) \
        == pytest.approx(2.0, abs=1e-12)


def test_divergence_does_not_depend_on_atom_order(spider4):
    rng = np.random.default_rng(37)
    support = [gen.random_point(spider4, rng, allow_apex=False) for _ in range(24)]
    for _ in range(10):
        wp = rng.dirichlet(np.ones(len(support)))
        wq = rng.dirichlet(np.ones(len(support)))
        p_pairs = list(zip(support, wp))
        q_pairs = list(zip(support, wq))
        values = None
        for _ in range(6):
            p = S.measure(spider4, [p_pairs[i] for i in rng.permutation(len(p_pairs))])
            q = S.measure(spider4, [q_pairs[i] for i in rng.permutation(len(q_pairs))])
            got = [T.f_divergence(spider4, p, q, kind)
                   for kind in T.BUILTIN_DIVERGENCES.values()]
            assert values is None or got == values
            values = got


def test_tv_equals_half_l1(spider3):
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = gen.random_measure(spider3, rng)
        q = gen.random_measure(spider3, rng)
        pw = {z: w for z, w in p.atoms}
        qw = {z: w for z, w in q.atoms}
        support = set(pw) | set(qw)
        half_l1 = 0.5 * sum(abs(pw.get(z, 0.0) - qw.get(z, 0.0)) for z in support)
        sup_sets = max(
            abs(sum(pw.get(z, 0.0) - qw.get(z, 0.0) for z in subset))
            for r in range(len(support) + 1)
            for subset in itertools.combinations(support, r)
        ) if len(support) <= 8 else half_l1
        tv = T.f_divergence(spider3, p, q, T.TOTAL_VARIATION)
        assert tv == pytest.approx(half_l1, abs=1e-12)
        assert tv == pytest.approx(sup_sets, abs=1e-12)


def test_perturbed_divergence_closed_form(spider3):
    rng = np.random.default_rng(37)
    thirds = S.measure(spider3, [((j, 1.0), 1 / 3) for j in range(3)])
    fresh = S.point(spider3, 0, 2.0)
    owned = S.point(spider3, 0, 1.0)
    for kind in T.BUILTIN_DIVERGENCES.values():
        for t in (0.01, 0.1, 0.5):
            for y in (fresh, owned):
                closed = T.perturbed_divergence(spider3, thirds, y, t, kind)
                direct = T.f_divergence(
                    spider3, thirds,
                    T.perturbed_measure(spider3, thirds, y, t), kind)
                assert closed == pytest.approx(direct, abs=1e-12)
        assert T.perturbed_divergence(spider3, thirds, fresh, 0.0, kind) == 0.0


def test_perturbed_divergence_reference_values(spider3):
    p = S.measure(spider3, [((j, 1.0), 1 / 3) for j in range(3)])
    y = S.point(spider3, 0, 2.0)
    assert T.perturbed_divergence(spider3, p, y, 0.5, T.TOTAL_VARIATION) \
        == pytest.approx(0.5, abs=1e-15)
    # (1-t) f(1/(1-t)) at t = 1/2 for the KL generator x log x is log 2
    assert T.perturbed_divergence(spider3, p, y, 0.5, T.KULLBACK_LEIBLER) \
        == pytest.approx(math.log(2), abs=1e-15)
    for t in (0.05, 0.2, 0.6):
        assert T.perturbed_divergence(spider3, p, y, t, T.TOTAL_VARIATION) \
            == pytest.approx(t, abs=1e-13)


def test_perturbed_measure_shapes(spider3):
    p = S.measure(spider3, [((0, 1.0), 0.5), ((1, 1.0), 0.5)])
    y = S.point(spider3, 2, 1.0)
    assert T.perturbed_measure(spider3, p, y, 0.0) == p
    assert T.perturbed_measure(spider3, p, y, 1.0) == S.dirac(spider3, y)
    mixed = T.perturbed_measure(spider3, p, S.point(spider3, 0, 1.0), 0.5)
    assert mixed.size == 2
    assert dict(mixed.atoms)[S.point(spider3, 0, 1.0)] == pytest.approx(0.75)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.1, 2.0))
def test_perturbed_measure_is_probability(t, r):
    sp = S.spider(3)
    p = S.measure(sp, [((0, 1.0), 0.6), ((1, 0.5), 0.4)])
    mixed = T.perturbed_measure(sp, p, S.point(sp, 2, r), t)
    assert sum(mixed.weights()) == pytest.approx(1.0, abs=1e-12)


def test_flavor_inequalities(spider4):
    rng = np.random.default_rng(41)
    for _ in range(120):
        p = gen.random_measure(spider4, rng)
        q = gen.random_measure(spider4, rng)
        w1 = T.w1_tree(spider4, p, q)
        tv = T.f_divergence(spider4, p, q, T.TOTAL_VARIATION)
        diam = T.support_diameter(spider4, p, q)
        assert w1 <= diam * tv + 1e-9
        assert w1 <= T.wq_lp(spider4, p, q, 2.0) + 1e-9


def test_custom_divergence_validation():
    with pytest.raises(ValueError):
        T.custom_divergence(lambda x: x, 1.0)
    chi2 = T.custom_divergence(lambda x: (x - 1.0) ** 2, math.inf, name="chi2")
    sp = S.spider(3)
    p = S.measure(sp, [((0, 1.0), 0.5), ((1, 1.0), 0.5)])
    q = S.measure(sp, [((0, 1.0), 0.25), ((1, 1.0), 0.75)])
    expected = 0.25 * (0.5 / 0.25 - 1) ** 2 + 0.75 * (0.5 / 0.75 - 1) ** 2
    assert T.f_divergence(sp, p, q, chi2) == pytest.approx(expected, abs=1e-12)
