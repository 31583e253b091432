"""Workload inputs, operations and output checks.

Each workload builds its inputs from the workload seed, using only numpy and
stickygeom, so that set-up time measures the package's own import and input
construction.  The mix of operations has a fixed make-up (space kinds, atom
counts, sample sizes); the seed only moves atoms, weights and lengths.
Reference computations (`oracles`, which imports scipy) are loaded only by
`check`, after the timed passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from stickygeom import asymptotics as A
from stickygeom import _mc
from stickygeom import cli
from stickygeom import frechet as F
from stickygeom import spaces as S
from stickygeom import stickiness as ST
from stickygeom import transport as T

PI = math.pi
TRIALS = 10_000
CLASSIFY_TOL = 1e-10


class Failure:
    """Output of an operation that raised."""

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other):
        return isinstance(other, Failure) and other.message == self.message

    def __repr__(self):
        return f"Failure({self.message!r})"


# ---------------------------------------------------------------------------
# seeded inputs in config (JSON) form
# ---------------------------------------------------------------------------

def _atom(direction, radius, weight, eu=None) -> dict:
    point = {"dir": direction, "r": float(radius)}
    if eu is not None:
        point["eu"] = [float(x) for x in eu]
    return {"point": point, "weight": float(weight)}


def _weights(rng, m: int, style: str) -> np.ndarray:
    if style == "spread":
        return rng.dirichlet(np.full(m, 20.0))
    # one heavy atom pulls the mean off the cone point
    w = 0.35 * rng.dirichlet(np.ones(m - 1))
    return np.concatenate([[0.65], w])


def _directions(rng, space: dict, m: int, style: str) -> list:
    kind = space["kind"]
    if kind in ("spider", "open_book"):
        k = space["K"]
        if style == "spread":
            return [int(j) for j in (np.arange(m) + rng.integers(0, k)) % k]
        return [int(j) for j in rng.integers(0, k, size=m)]
    if kind == "kale":
        alpha = space["alpha"]
        if style == "spread":
            jitter = rng.uniform(-alpha / (10 * m), alpha / (10 * m), size=m)
            return [float(t) for t in (np.arange(m) * alpha / m + jitter) % alpha]
        return [float(t) for t in rng.uniform(0.0, alpha, size=m)]
    edges = space["edges"]
    if style == "spread":
        order = rng.permutation(len(edges))
        eids = [int(order[k % len(edges)]) for k in range(m)]
    else:
        eids = [int(e) for e in rng.integers(0, len(edges), size=m)]
    return [[e, float(rng.uniform(0.05, edges[e][2] - 0.05))] for e in eids]


def random_atoms(rng, space: dict, m: int, style: str = "spread") -> list[dict]:
    dirs = _directions(rng, space, m, style)
    w = _weights(rng, m, style)
    radii = rng.uniform(0.5, 1.5, size=m)
    if style == "concentrated":
        # the heavy atom pulls harder than all others together can push
        # back (0.65 * 1.2 > 0.35 * 1.0): nonsticky on every cone
        radii[0] = rng.uniform(1.2, 1.5)
        radii[1:] = rng.uniform(0.5, 1.0, size=m - 1)
    if space["kind"] == "open_book" and style == "spread":
        # equal weight per page and radii within 1.5x of each other: no page
        # carries half the pull, so the measure is sticky by construction
        pages = np.asarray(dirs)
        for j in set(dirs):
            w[pages == j] /= w[pages == j].sum() * len(set(dirs))
        radii = rng.uniform(0.8, 1.2, size=m)
    eu = [rng.normal(size=space["d"] - 1) if space["kind"] == "open_book" else None
          for _ in range(m)]
    return [_atom(d, r, wi, e) for d, r, wi, e in zip(dirs, radii, w, eu)]


def random_point(rng, space: dict, radius: float) -> dict:
    eu = rng.normal(size=space["d"] - 1) if space["kind"] == "open_book" else None
    return _atom(_directions(rng, space, 1, "concentrated")[0], radius, 1.0,
                 eu)["point"]


def kale_space(rng, lo: float, hi: float) -> dict:
    return {"kind": "kale", "alpha": float(rng.uniform(lo, hi))}


def cycle_space(rng, total: float) -> dict:
    k = int(rng.integers(4, 7))
    lengths = total * rng.dirichlet(np.full(k, 10.0))
    return {"kind": "graph_cone", "vertices": k,
            "edges": [[i, (i + 1) % k, float(lengths[i])] for i in range(k)]}


def petersen_space() -> dict:
    return S.space_to_json(S.petersen_cone())


def build_measure(sp, atoms):
    return S.measure_from_json(sp, {"atoms": atoms})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Operations run in passes.

    `ops(k)` is one pass over instance set k: (label, callable) pairs with
    the same labels for every k.  Passes cycle through the `SETS` sets, so
    that each operation's median time is taken over several seeded
    instances.  `threads2_ops` repeats set 0's Monte Carlo operations with
    two worker threads; their outputs must equal the single-threaded ones.
    `check(k, outs, threads2)` compares the outputs of set k with reference
    computations and returns a list of problems.
    """

    name = ""
    SETS = 1
    warmup = True  # run one untimed pass before timing

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def ops(self, k: int = 0) -> list:
        raise NotImplementedError

    def threads2_ops(self) -> list:
        return []

    def failed(self, label: str, out) -> bool:
        return isinstance(out, Failure)

    def check(self, k: int, outs: dict, threads2: dict) -> list[str]:
        problems = []
        for label, out in threads2.items():
            if out != outs.get(label):
                problems.append(f"{label}: --threads 2 output differs")
        return problems


class Certify(Workload):
    """classify + perturbation_threshold (+ is_prismatic on graph cones) on
    seeded measures with 4-16 atoms."""

    name = "certify"
    SETS = 3
    # many mid-sized cases rather than a few large ones, so that no single
    # measure's cost moves the total much from seed to seed
    MIX = (  # (space, atoms, style)
        ("spider", 4, "spread"), ("spider", 8, "concentrated"),
        ("spider", 12, "spread"), ("spider", 16, "spread"),
        ("kale", 4, "concentrated"), ("kale", 8, "spread"),
        ("kale", 8, "concentrated"), ("kale", 12, "spread"),
        ("kale", 12, "concentrated"), ("kale", 16, "spread"),
        ("petersen", 4, "spread"), ("petersen", 6, "spread"),
        ("petersen", 6, "concentrated"), ("petersen", 8, "spread"),
        ("petersen", 8, "concentrated"),
        ("cycle_short", 8, "spread"), ("cycle_long", 8, "spread"),
        ("cycle_long", 12, "concentrated"),
        ("open_book", 6, "spread"), ("open_book", 12, "concentrated"),
    )
    # perturbation_threshold on an open book returns a positive threshold
    # for some nonsticky measures, depending on the page of y; it runs on
    # the sticky-by-construction books only
    NO_THRESHOLD = (("open_book", "concentrated"),)

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.sets = [self._cases() for _ in range(self.SETS)]

    def _cases(self) -> list:
        rng = self.rng
        cases = []
        for k, (kind, m, style) in enumerate(self.MIX):
            if kind == "spider":
                space = {"kind": "spider", "K": int(rng.integers(3, 7))}
            elif kind == "kale":
                # spread kales need a long circle to be sticky with a margin
                lo = 2.5 * PI if style == "spread" else 2.0 * PI + 0.2
                space = kale_space(rng, lo, 3.5 * PI)
            elif kind == "petersen":
                space = petersen_space()
            elif kind == "cycle_short":
                space = cycle_space(rng, float(rng.uniform(1.2 * PI, 1.9 * PI)))
            elif kind == "cycle_long":
                space = cycle_space(rng, float(rng.uniform(2.2 * PI, 4.0 * PI)))
            else:
                space = {"kind": "open_book", "K": int(rng.integers(3, 6)),
                         "d": int(rng.integers(2, 4))}
            atoms = random_atoms(rng, space, m, style)
            y = random_point(rng, space, float(rng.uniform(2.5, 3.5)))
            if (kind, style) in self.NO_THRESHOLD:
                y = None
            sp = S.space_from_json(space)
            cases.append((f"{k:02d}/{kind}/m={m}/{style}", space, atoms, y,
                           sp, build_measure(sp, atoms),
                           None if y is None else S.point_from_json(sp, y)))
        return cases

    def ops(self, k=0):
        return [(label, _certify_op(sp, mu, yp))
                for label, _space, _atoms, _y, sp, mu, yp in self.sets[k]]

    def check(self, k, outs, threads2):
        import oracles as O

        problems = super().check(k, outs, threads2)
        for label, space, atoms, y, sp, mu, _yp in self.sets[k]:
            if label not in outs:
                continue
            rep, t_star, prismatic = outs[label]
            geo = O.Geometry(space)
            c = rep.c_min
            L = O.lipschitz(atoms)
            if space["kind"] in ("spider", "open_book"):
                want = O.spider_c_min(space["K"], atoms)
                if abs(c - want) > 1e-12 * (1.0 + L):
                    problems.append(f"{label}: c_min {c!r} != closed form {want!r}")
            else:
                lo, hi = grid_bracket(geo, sp, mu, atoms)
                if not in_bracket(c, lo, hi):
                    problems.append(f"{label}: c_min {c!r} outside grid bracket "
                                    f"[{lo!r}, {hi!r}]")
            problems += _label_problems(label, rep)
            problems += self._threshold_problems(label, rep, t_star, atoms, y, sp)
            if space["kind"] == "graph_cone":
                problems += _prismatic_problems(label, space, prismatic)
        return problems

    @staticmethod
    def _threshold_problems(label, rep, t_star, atoms, y, sp):
        import oracles as O

        if t_star is None:
            return []
        if rep.label == "nonsticky":
            return [] if t_star == 0.0 else [f"{label}: nonsticky but t* = {t_star!r}"]
        if rep.label != "sticky":
            return []
        if not 0.0 < t_star <= 1.0:
            return [f"{label}: sticky but t* = {t_star!r}"]
        if t_star == 1.0:
            return []
        problems = []
        for t, want in ((t_star * (1.0 - 1e-3), "sticky"),
                        (t_star + 1e-3 * (1.0 - t_star), "nonsticky")):
            got = ST.classify(sp, build_measure(sp, O.mixture(atoms, y, t))).label
            if got != want:
                problems.append(f"{label}: mixture at t={t!r} (t*={t_star!r}) is "
                                f"{got}, expected {want}")
        return problems


def _certify_op(sp, mu, y):
    graph = isinstance(sp, S.Cone) and isinstance(sp.directions, S.GraphDirections)

    def op():
        rep = ST.classify(sp, mu)
        t_star = None if y is None else ST.perturbation_threshold(sp, mu, y)
        return rep, t_star, (S.is_prismatic(sp.directions) if graph else None)

    return op


def grid_bracket(geo, sp, mu, atoms, h: float = 0.01) -> tuple[float, float]:
    """Interval that holds the smallest direction derivative: the minimum of
    frechet.directional_derivative over a grid of spacing h, widened by the
    Lipschitz bound below."""
    import oracles as O

    g = min(F.directional_derivative(sp, mu, d) for d in geo.grid(h))
    return g - O.lipschitz(atoms) * h / 2.0, g


def in_bracket(c: float, lo: float, hi: float) -> bool:
    # min_derivative breaks near-ties (within 1e-12 (1 + |c|)) by direction
    # coordinate, so c_min may sit that much above the true minimum
    tie = 2e-12 * (1.0 + abs(c))
    return lo - tie <= c <= hi + tie


def _label_problems(label, rep) -> list[str]:
    c, r = rep.c_min, rep.mean.radius
    want = "sticky" if c > CLASSIFY_TOL else "nonsticky" if c < -CLASSIFY_TOL \
        else "boundary"
    if rep.label != want:
        return [f"{label}: label {rep.label} for c_min {c!r}"]
    if rep.label == "sticky" and r != 0.0:
        return [f"{label}: sticky but mean radius {r!r}"]
    if rep.label == "nonsticky" and abs(r + c) > 1e-12 * (1.0 + abs(c)):
        return [f"{label}: mean radius {r!r} != -c_min {-c!r}"]
    return []


def _prismatic_problems(label, space, prismatic) -> list[str]:
    import oracles as O

    lengths = [e[2] for e in space["edges"]]
    if len(lengths) == space["vertices"]:  # a cycle
        want = O.cycle_is_prismatic(math.fsum(lengths))
    else:
        lo, hi = O.min_eccentricity_bracket(space["vertices"],
                                            tuple(map(tuple, space["edges"])), 0.02)
        if lo > PI:
            want = True
        elif hi < PI:
            want = False
        else:
            return [f"{label}: eccentricity bracket [{lo}, {hi}] cannot decide"]
    if prismatic is not want:
        return [f"{label}: is_prismatic {prismatic} expected {want}"]
    return []


class Resample(Workload):
    """One Monte Carlo estimate at one n with 10^4 trials per operation."""

    name = "resample"
    # odd sizes: no leg can hold exactly half the draws (see CHANGES.md on
    # how sample_sticking counts such ties)
    SPIDER_N = (501, 1001, 2001)
    MC_N = 1001
    MANY_ATOMS = 48
    MANY_N = 20

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        rng = self.rng
        # 3-spider, one atom per leg, common radius, heaviest leg just under
        # one half: sticky, but samples of a few thousand still leave
        delta = float(rng.uniform(0.008, 0.02))
        u = float(rng.uniform(0.3, 0.7))
        w = [0.5 - delta, (0.5 + delta) * u, (0.5 + delta) * (1.0 - u)]
        legs = [int(j) for j in rng.permutation(3)]
        radius = float(rng.uniform(0.5, 2.0))
        self.spider = {"kind": "spider", "K": 3}
        self.spider_atoms = [_atom(legs[i], radius, w[i]) for i in range(3)]
        self.many = []
        for space in (kale_space(rng, 2.5 * PI, 3.5 * PI), petersen_space()):
            self.many.append((space, random_atoms(rng, space, self.MANY_ATOMS)))
        self.sp3 = S.space_from_json(self.spider)
        self.mu3 = build_measure(self.sp3, self.spider_atoms)
        self.many_built = []
        for space, atoms in self.many:
            sp = S.space_from_json(space)
            self.many_built.append((space["kind"], sp, build_measure(sp, atoms)))

    def mc_seed(self, k: int) -> int:
        return 1000 * self.seed + k

    def _ops(self, threads: int):
        sp3, mu3 = self.sp3, self.mu3
        out = []
        for k, n in enumerate(self.SPIDER_N):
            out.append((f"sample_sticking/spider3/n={n}",
                        _call(ST, "sample_sticking", sp3, mu3, n, TRIALS,
                              self.mc_seed(k), threads)))
        out.append((f"modulation/spider3/n={self.MC_N}",
                    _call(A, "modulation", sp3, mu3, self.MC_N, 2.0, TRIALS,
                          self.mc_seed(10), method="mc", threads=threads)))
        out.append((f"clt_simulate/spider3/n={self.MC_N}",
                    partial(_clt, sp3, mu3, self.MC_N, self.mc_seed(11), threads)))
        for k, (kind, sp, mu) in enumerate(self.many_built):
            out.append((f"sample_sticking/{kind}{self.MANY_ATOMS}/n={self.MANY_N}",
                        _call(ST, "sample_sticking", sp, mu, self.MANY_N, TRIALS,
                              self.mc_seed(20 + k), threads)))
        return out

    def ops(self, k=0):
        return self._ops(1)

    def threads2_ops(self):
        return self._ops(2)

    def check(self, k, outs, threads2):
        import oracles as O

        problems = super().check(k, outs, threads2)
        w = [a["weight"] for a in self.spider_atoms]
        for n in self.SPIDER_N:
            label = f"sample_sticking/spider3/n={n}"
            if label in outs:
                res = outs[label]
                p = O.nonstick_probability(n, w)
                se = math.sqrt(p * (1.0 - p) / TRIALS)
                if abs(res.p_hat - p) > 5.0 * se + 1e-12:
                    problems.append(f"{label}: p_hat {res.p_hat} vs exact {p} "
                                    f"(se {se})")
                problems += _se_problems(label, res)
        label = f"modulation/spider3/n={self.MC_N}"
        if label in outs:
            est = outs[label]
            m, se = O.modulation_exact(self.MC_N, 2.0, w, TRIALS)
            if est.exact or abs(est.m_hat - m) > 5.0 * se + 1e-12:
                problems.append(f"{label}: m_hat {est.m_hat} vs exact {m} (se {se})")
        label = f"clt_simulate/spider3/n={self.MC_N}"
        if label in outs:
            cov, se = (np.asarray(x) for x in outs[label])
            want = O.centered_covariance(O.Geometry(self.spider), self.spider_atoms,
                                         [0, 1, 2])
            if (np.abs(cov - want) > 5.0 * se + 1e-12).any():
                problems.append(f"{label}: covariance {cov.tolist()} vs centered "
                                f"form {want.tolist()}")
        for k, (space, atoms) in enumerate(self.many):
            label = f"sample_sticking/{space['kind']}{self.MANY_ATOMS}/n={self.MANY_N}"
            if label in outs:
                problems += _bracket_problems(label, outs[label], space, atoms,
                                              self.mc_seed(20 + k))
                problems += _se_problems(label, outs[label])
        return problems


def _call(module, name: str, *args, **kwargs):
    """Operation calling module.name, looked up at call time so that the
    tracer's wrappers are seen."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _clt(sp, mu, n, seed, threads):
    res = A.clt_simulate(sp, mu, [0, 1, 2], n, TRIALS, seed, threads)
    return res.covariance.tolist(), res.se.tolist()


def _se_problems(label, res) -> list[str]:
    want = math.sqrt(res.p_hat * (1.0 - res.p_hat) / res.trials)
    if not 0.0 <= res.p_hat <= 1.0 or abs(res.se - want) > 1e-15:
        return [f"{label}: p_hat {res.p_hat} with se {res.se}"]
    return []


def _bracket_problems(label, res, space, atoms, seed) -> list[str]:
    """Recount the non-sticking resamples from the same draws with a dense
    direction grid: rows whose grid minimum is negative must count, rows
    whose grid minimum stays above the Lipschitz slack must not."""
    import oracles as O

    geo = O.Geometry(space)
    h = 0.01
    pulls = geo.pulls(atoms, geo.grid(h))
    radii = np.asarray([a["point"]["r"] for a in atoms])
    counts = _mc.resample_counts([a["weight"] for a in atoms], res.n, res.trials,
                                 seed).astype(float)
    sure = unsure = 0
    for rows in np.array_split(counts, max(1, len(counts) // 1000)):
        g = -(rows @ pulls).max(axis=1)
        slack = (rows @ radii) * h / 2.0
        sure += int((g < -1e-9 * slack).sum())
        unsure += int(((g >= -1e-9 * slack) & (g - slack <= 1e-9 * slack)).sum())
    got = round(res.p_hat * res.trials)
    if not sure <= got <= sure + unsure:
        return [f"{label}: {got} non-sticking resamples, grid says "
                f"{sure}..{sure + unsure}"]
    return []


class Transport(Workload):
    """One distance per operation: W_q on measure pairs on both sides of the
    exact-LP size limit, w1_tree on spiders, and f-divergences."""

    name = "transport"
    SETS = 4
    # (atoms per side, order) per space; up to 24 atoms the exact rational
    # simplex runs, from 80 HiGHS.  Several mid-sized exact instances rather
    # than one large one, since the pivot count varies from instance to
    # instance.
    PAIRS = {
        "spider": ((8, 1.0), (12, 2.0), (12, 1.0), (16, 1.0), (16, 2.0),
                   (16, 1.0), (80, 2.0), (128, 1.0)),
        "kale": ((8, 1.0), (16, 2.0), (20, 1.0), (24, 1.0), (24, 2.0),
                 (80, 2.0), (128, 1.0)),
        "graph_cone": ((8, 1.0), (12, 1.0), (12, 2.0), (16, 1.0), (16, 2.0),
                       (16, 1.0), (80, 2.0), (128, 1.0)),
    }
    TREE_SIZES = (16, 128)
    KINDS = ("tv", "kl", "js", "hellinger2")

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.sets = [self._instances() for _ in range(self.SETS)]

    def _instances(self) -> dict:
        """Inputs in config form, and the program objects built from them."""
        rng = self.rng
        spider = {"kind": "spider", "K": 4}
        kale = kale_space(rng, 2.0 * PI + 0.2, 3.5 * PI)
        distances = []  # (label, function, space, xs, ys, order)
        for space in (spider, kale, petersen_space()):
            for k, (m, order) in enumerate(self.PAIRS[space["kind"]]):
                xs, ys = (random_atoms(rng, space, m) for _ in range(2))
                distances.append((f"wq_lp/{space['kind']}/{k}/m={m}/q={order:g}",
                                  "wq_lp", space, xs, ys, order))
        for m in self.TREE_SIZES:
            distances.append((f"w1_tree/spider/m={m}", "w1_tree", spider,
                              random_atoms(rng, spider, m),
                              random_atoms(rng, spider, m), 1.0))
        # q shares p's support and adds four atoms, so every divergence is
        # finite
        p = random_atoms(rng, kale, 12)
        w = rng.dirichlet(np.ones(16))
        q = [{"point": a["point"], "weight": float(wi)}
             for a, wi in zip(p + random_atoms(rng, kale, 4), w)]
        base = random_atoms(rng, spider, 12)
        perturbed = []  # (kind, y, t): y on an atom of base, or off its support
        for k, kind in enumerate(self.KINDS):
            y = base[0]["point"] if k % 2 == 0 else random_point(rng, spider, 1.7)
            perturbed.append((kind, y, float(rng.uniform(0.05, 0.5))))

        built = {}
        for label, _fn, space, xs, ys, _order in distances:
            sp = S.space_from_json(space)
            built[label] = (sp, build_measure(sp, xs), build_measure(sp, ys))
        sp_kale, sp_spider = S.space_from_json(kale), S.space_from_json(spider)
        return {"distances": distances, "built": built, "fdiv": (p, q),
                "fdiv_built": (sp_kale, build_measure(sp_kale, p),
                               build_measure(sp_kale, q)),
                "base": base, "perturbed": perturbed,
                "perturbed_built": (sp_spider, build_measure(sp_spider, base),
                                    [S.point_from_json(sp_spider, y)
                                     for _k, y, _t in perturbed])}

    def ops(self, k=0):
        inst = self.sets[k]
        out = []
        for label, fn, _space, _xs, _ys, order in inst["distances"]:
            sp, x, y = inst["built"][label]
            args = (sp, x, y, order) if fn == "wq_lp" else (sp, x, y)
            out.append((label, _call(T, fn, *args)))
        sp, p, q = inst["fdiv_built"]
        for kind in self.KINDS:
            out.append((f"f_divergence/{kind}",
                        _call(T, "f_divergence", sp, p, q, T.BUILTIN_DIVERGENCES[kind])))
        sp, base, ys = inst["perturbed_built"]
        for (kind, _y, t), yp in zip(inst["perturbed"], ys):
            out.append((f"perturbed_divergence/{kind}",
                        _call(T, "perturbed_divergence", sp, base, yp, t,
                              T.BUILTIN_DIVERGENCES[kind])))
        return out

    def check(self, k, outs, threads2):
        import oracles as O

        inst = self.sets[k]
        problems = super().check(k, outs, threads2)
        for label, _fn, space, xs, ys, order in inst["distances"]:
            if label in outs:
                want = O.wasserstein(O.Geometry(space), xs, ys, order)
                if abs(outs[label] - want) > 1e-9:
                    problems.append(f"{label}: {outs[label]!r} vs LP {want!r}")
        p, q = inst["fdiv"]
        for kind in self.KINDS:
            label = f"f_divergence/{kind}"
            if label in outs:
                want = O.f_divergence(p, q, kind)
                if abs(outs[label] - want) > 1e-12 * (1.0 + abs(want)):
                    problems.append(f"{label}: {outs[label]!r} vs direct {want!r}")
        for kind, y, t in inst["perturbed"]:
            label = f"perturbed_divergence/{kind}"
            if label in outs:
                want = O.f_divergence(inst["base"], O.mixture(inst["base"], y, t), kind)
                if abs(outs[label] - want) > 1e-12 * (1.0 + abs(want)):
                    problems.append(f"{label}: closed form {outs[label]!r} vs "
                                    f"direct {want!r}")
        return problems


class Cli(Workload):
    """One `python -m stickygeom.cli` process per operation on a bundled
    fixture.  Every command runs twice: once with --out and once writing
    its report to stdout; three open-book commands must be rejected."""

    name = "cli"
    warmup = False  # a round is long; the first timed round is the reference
    # command: (fixture for --out, fixture for stdout)
    TABLE = {
        "mean": ("spider3_thirds", "openbook3_2"),
        "derivs": ("petersen_cone", "kale_2pi"),
        "classify": ("spider3_thirds", "kale_3pi_thirds"),
        "perturb": ("spider3_thirds", "petersen_cone"),
        "wasserstein": ("kale_3pi_thirds", "spider3_thirds"),
        "divergence": ("openbook3_2", "kale_2pi"),
        "sample-sim": ("kale_2pi", "spider3_thirds"),
        "modulation": ("kale_3pi_thirds", "petersen_cone"),
        "clt": ("petersen_cone", "kale_3pi_thirds"),
        "prismatic": ("openbook3_2", "kale_2pi"),
    }
    REJECTED = ("derivs", "modulation", "clt")  # on the open book

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.calls = []  # (label, mode, argv)
        for cmd, (out_fix, std_fix) in self.TABLE.items():
            self.calls.append(self._argv(cmd, out_fix, "out"))
            self.calls.append(self._argv(cmd, std_fix, "stdout"))
        for cmd in self.REJECTED:
            self.calls.append(self._argv(cmd, "openbook3_2", "reject"))
        order = self.rng.permutation(len(self.calls))
        self.calls = [self.calls[i] for i in order]

    def _argv(self, cmd, fixture, mode, threads=None):
        argv = [cmd, "--config", cli.fixture_path(fixture + ".json")]
        if cmd in cli.STOCHASTIC:
            argv += ["--seed", str(1000 + self.seed)]
        if mode != "stdout":
            tag = f"-t{threads}" if threads else ""
            argv += ["--out", str(self.workdir / f"{cmd}-{fixture}-{mode}{tag}.json")]
        if threads:
            argv += ["--threads", str(threads)]
        return f"{cmd}/{fixture}/{mode}", mode, argv

    def _op(self, argv):
        out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
        if self.in_process:
            def run():
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    rc = cli.main(list(argv))
                return rc, so.getvalue(), se.getvalue()
        else:
            def run():
                proc = subprocess.run([sys.executable, "-m", "stickygeom.cli", *argv],
                                      capture_output=True, text=True, timeout=60)
                return proc.returncode, proc.stdout, proc.stderr

        def op():
            rc, stdout, stderr = run()
            text = None
            if out_path is not None and rc == 0:
                text = Path(out_path).read_text(encoding="utf-8")
            return rc, stdout, stderr, text

        return op

    def ops(self, k=0):
        return [(label, self._op(argv)) for label, _mode, argv in self.calls]

    def threads2_ops(self):
        out = []
        for cmd in cli.STOCHASTIC:
            label, _mode, argv = self._argv(cmd, self.TABLE[cmd][0], "out", threads=2)
            out.append((label, self._op(argv)))
        return out

    def failed(self, label, out):
        if isinstance(out, Failure):
            return True
        rc, stdout, stderr, text = out
        mode = label.rsplit("/", 1)[1]
        if mode == "reject":
            return rc != 2 or "/space" not in stderr
        if rc != 0:
            return True
        try:
            json.loads(stdout if mode == "stdout" else text)
        except ValueError:
            return True
        return False

    def check(self, k, outs, threads2):
        import oracles as O

        problems = []
        for label, out in threads2.items():
            if label in outs and out[3] != outs[label][3]:
                problems.append(f"{label}: report differs with --threads 2")
        reports = {label: json.loads(out[3]) for label, out in outs.items()
                   if label.endswith("/out")}

        def fixture(name):
            with open(cli.fixture_path(name + ".json"), encoding="utf-8") as fh:
                return json.load(fh)

        spider = fixture("spider3_thirds")
        atoms = spider["measure"]["atoms"]
        legs = spider["space"]["K"]
        rep = reports.get("classify/spider3_thirds/out")
        if rep is not None:
            want = O.spider_c_min(legs, atoms)
            if rep["label"] != "sticky" or abs(rep["c_min"] - 1 / 3) > 1e-12 \
                    or abs(rep["c_min"] - want) > 1e-12:
                problems.append(f"classify spider3: {rep} (paper: c_min = 1/3)")
        rep = reports.get("perturb/spider3_thirds/out")
        if rep is not None:
            y = spider["parameters"]["y"]
            want = _spider_threshold(legs, atoms, y)
            if abs(rep["threshold"] - 1 / 7) > 1e-12 or abs(rep["threshold"] - want) > 1e-12:
                problems.append(f"perturb spider3: threshold {rep['threshold']} "
                                f"(paper: 1/7, direct {want})")
        rep = reports.get("mean/spider3_thirds/out")
        if rep is not None and rep["mean"]["r"] != 0.0:
            problems.append(f"mean spider3: {rep['mean']} is not the cone point")
        rep = reports.get("wasserstein/kale_3pi_thirds/out")
        if rep is not None:
            cfg = fixture("kale_3pi_thirds")
            want = O.wasserstein(O.Geometry(cfg["space"]), cfg["measure"]["atoms"],
                                 cfg["measure2"]["atoms"], rep["q"])
            if abs(rep["wq_lp"] - want) > 1e-9:
                problems.append(f"wasserstein kale: {rep['wq_lp']} vs LP {want}")
        rep = reports.get("divergence/openbook3_2/out")
        if rep is not None:
            cfg = fixture("openbook3_2")
            want = O.f_divergence(cfg["measure"]["atoms"], cfg["measure2"]["atoms"],
                                  rep["kind"])
            if abs(rep["value"] - want) > 1e-12:
                problems.append(f"divergence book: {rep} vs direct {want}")
        rep = reports.get("sample-sim/kale_2pi/out")
        if rep is not None:
            for row in rep["rows"]:
                se = math.sqrt(row["p_hat"] * (1.0 - row["p_hat"]) / row["trials"])
                if not 0.0 <= row["p_hat"] <= 1.0 or abs(row["se"] - se) > 1e-15:
                    problems.append(f"sample-sim kale: row {row}")
        rep = reports.get("clt/petersen_cone/out")
        if rep is not None:
            cfg = fixture("petersen_cone")
            grid = [tuple(g) for g in rep["grid"]]
            want = O.centered_covariance(O.Geometry(cfg["space"]),
                                         cfg["measure"]["atoms"], grid)
            if np.abs(np.asarray(rep["centered_form"]) - want).max() > 1e-12:
                problems.append("clt petersen: centered form differs from direct")
        rep = reports.get("derivs/petersen_cone/out")
        if rep is not None:
            cfg = fixture("petersen_cone")
            sp = S.space_from_json(cfg["space"])
            lo, hi = grid_bracket(O.Geometry(cfg["space"]), sp,
                                  build_measure(sp, cfg["measure"]["atoms"]),
                                  cfg["measure"]["atoms"])
            if not in_bracket(rep["min_value"], lo, min(hi, min(rep["derivatives"]))):
                problems.append(f"derivs petersen: min {rep['min_value']} outside "
                                f"[{lo}, {hi}]")
        rep = reports.get("prismatic/openbook3_2/out")
        if rep is not None and rep["prismatic"] is not False:
            problems.append("prismatic book: spine reported prismatic")
        return problems


def _spider_threshold(legs: int, atoms, y: dict) -> float:
    """Mixing weight at which some leg's derivative (1-t) D_j - t pull_y(j)
    first reaches zero."""
    total = math.fsum(a["weight"] * a["point"]["r"] for a in atoms)
    best = 1.0
    for j in range(legs):
        on_leg = math.fsum(a["weight"] * a["point"]["r"] for a in atoms
                           if a["point"]["dir"] == j)
        d = max(total - 2.0 * on_leg, 0.0)
        pull = y["r"] if y["dir"] == j else -y["r"]
        if d + pull > 0.0:
            best = min(best, d / (d + pull))
    return best


WORKLOADS = {w.name: w for w in (Certify, Resample, Transport, Cli)}
