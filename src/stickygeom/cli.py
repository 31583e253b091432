"""Declarative command-line front end.

Configs are JSON documents holding a space, one or two measures, and
command parameters; reports are emitted as JSON or CSV with full float
precision so reruns are byte-identical.  The report goes to the output
path, or to stdout when there is none; a one-line summary goes to stderr.

    stickygeom <command> --config cfg.json [--out report.csv]
               [--format csv|json] [--seed N] [--threads K]

Exit codes: 0 success, 2 invalid config, environment or report path,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import asymptotics, frechet, spaces, stickiness, transport
from .asymptotics import MODULATION_METHODS
from .spaces import (
    Cone,
    FiniteDirections,
    Measure,
    OpenBook,
    Space,
    is_prismatic,
    measure,
    open_book_prismatic,
    point_from_json,
    point_to_json,
    space_from_json,
)
from .transport import BUILTIN_DIVERGENCES, NumericalError

COMMANDS = ("mean", "derivs", "classify", "perturb", "wasserstein", "divergence",
            "sample-sim", "modulation", "clt", "prismatic")
STOCHASTIC = ("sample-sim", "modulation", "clt")
TWO_MEASURE = ("wasserstein",)
CONE_ONLY = ("derivs", "modulation", "clt")


@dataclass
class ExperimentConfig:
    command: str
    space: Space
    measure: Measure
    measure2: Measure | None = None
    parameters: dict = field(default_factory=dict)
    out_path: str | None = None
    out_format: str = "json"
    threads: int = 1


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _shallow_measure_errors(data, ptr: str) -> list[str]:
    errors = []
    atoms = data.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        return [f"{ptr}/atoms: must be a non-empty list"]
    total = 0.0
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            errors.append(f"{ptr}/atoms/{i}: must be an object")
            continue
        w = atom.get("weight")
        if not _is_number(w) or not w > 0.0:
            errors.append(f"{ptr}/atoms/{i}/weight: must be > 0")
        else:
            total += float(w)
        pt = atom.get("point")
        if not isinstance(pt, dict):
            errors.append(f"{ptr}/atoms/{i}/point: must be an object")
            continue
        r = pt.get("r")
        if not _is_number(r) or r < -spaces.COORD_TOL:
            errors.append(f"{ptr}/atoms/{i}/point/r: radius must be finite and >= 0")
        for key in ("dir", "eu"):
            errors.extend(_boolean_errors(pt.get(key), f"{ptr}/atoms/{i}/point/{key}"))
    if not errors and abs(total - 1.0) > spaces.WEIGHT_TOL:
        errors.append(f"{ptr}/atoms: weights must sum to 1 (got {total!r})")
    return errors


def _boolean_errors(value, ptr: str) -> list[str]:
    """An error at every JSON true or false inside value, where a number is
    read: Python would take it for 1 or 0."""
    if isinstance(value, bool):
        return [f"{ptr}: must be a number, not {json.dumps(value)}"]
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [e for key, item in items for e in _boolean_errors(item, f"{ptr}/{key}")]
    return []


def _coord_from_json(value):
    return tuple(value) if isinstance(value, list) else value


def validate(config_text: str, command: str | None = None,
             seed_override: int | None = None,
             threads: int = 1) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse and validate a config document; returns (config, errors) with
    every schema violation reported at once as JSON-pointer paths."""
    errors: list[str] = []
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as exc:
        return None, [f"/: invalid JSON ({exc.msg} at line {exc.lineno})"]
    if not isinstance(data, dict):
        return None, ["/: config must be a JSON object"]

    cmd = command or data.get("command")
    if cmd not in COMMANDS:
        errors.append(f"/command: must be one of {', '.join(COMMANDS)} (got {cmd!r})")
        cmd = None

    space = None
    if "space" not in data:
        errors.append("/space: required")
    else:
        errors.extend(booleans := _boolean_errors(data["space"], "/space"))
        try:
            space = None if booleans else space_from_json(data["space"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"/space: {exc}")

    def build_measure(key: str) -> Measure | None:
        raw = data.get(key)
        if not isinstance(raw, dict):
            errors.append(f"/{key}: must be an object with an atoms list")
            return None
        shallow = _shallow_measure_errors(raw, f"/{key}")
        if shallow:
            errors.extend(shallow)
            return None
        if space is None:
            return None
        points = []
        for i, atom in enumerate(raw["atoms"]):
            try:
                points.append(point_from_json(space, atom["point"]))
            except (ValueError, TypeError) as exc:
                errors.append(f"/{key}/atoms/{i}/point: {exc}")
        if len(points) < len(raw["atoms"]):
            return None
        try:
            return measure(space, zip(points, (a["weight"] for a in raw["atoms"])))
        except ValueError as exc:
            errors.append(f"/{key}: {exc}")
            return None

    mu = build_measure("measure") if "measure" in data else None
    if "measure" not in data:
        errors.append("/measure: required")
    mu2 = build_measure("measure2") if "measure2" in data else None

    params = data.get("parameters", {})
    if not isinstance(params, dict):
        errors.append("/parameters: must be an object")
        params = {}
    params = dict(params)
    if seed_override is not None:
        params["seed"] = seed_override

    if cmd is not None:
        _validate_params(cmd, params, data, space, errors)

    out_path = None
    out_format = "json"
    output = data.get("output")
    if output is not None:
        if not isinstance(output, dict):
            errors.append("/output: must be an object")
        else:
            out_path = output.get("path")
            out_format = output.get("format", "json")
            if out_format not in ("csv", "json"):
                errors.append("/output/format: must be csv or json")

    if errors:
        return None, errors
    return ExperimentConfig(cmd, space, mu, mu2, params, out_path, out_format,
                            threads), []


def _is_int(x) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _validate_params(cmd: str, params: dict, data: dict, space, errors: list):
    seed = params.get("seed")
    if cmd in STOCHASTIC and not (_is_int(seed) and 0 <= seed < 2 ** 128):
        errors.append(f"/parameters/seed: integer seed in [0, 2**128) required "
                      f"for {cmd}")
    if cmd in TWO_MEASURE and "measure2" not in data:
        errors.append(f"/measure2: required for {cmd}")
    if cmd == "divergence" and "measure2" not in data:
        if not ("y" in params and "t" in params):
            errors.append("/measure2: required for divergence (or give "
                          "parameters y, t)")
        elif not (_is_number(params["t"]) and 0 <= params["t"] < 1):
            errors.append("/parameters/t: number in [0, 1) required")
    if cmd in CONE_ONLY and space is not None and isinstance(space, OpenBook):
        errors.append(f"/space: {cmd} is not supported on open books")
    if cmd == "perturb" and "y" not in params:
        errors.append("/parameters/y: perturbation point required")
    y = params.get("y")
    if space is not None and cmd in ("perturb", "divergence") and y is not None:
        try:  # point() canonicalizes the direction of a point off the apex
            if not isinstance(y, dict):
                raise ValueError("must be an object with dir and r")
            errors.extend(booleans := _boolean_errors(y, "/parameters/y"))
            if not booleans:
                point_from_json(space, y)
        except (TypeError, ValueError) as exc:
            errors.append(f"/parameters/y: {exc}")
    grid = params.get("grid")
    if isinstance(space, Cone) and cmd in ("derivs", "clt") and grid is not None:
        if not isinstance(grid, list) or not grid:
            errors.append("/parameters/grid: non-empty list of directions required")
        for k, coord in enumerate(grid if isinstance(grid, list) else ()):
            try:
                errors.extend(booleans := _boolean_errors(coord, f"/parameters/grid/{k}"))
                if not booleans:
                    space.directions.canonical(_coord_from_json(coord))
            except ValueError as exc:
                errors.append(f"/parameters/grid/{k}: {exc}")
    if cmd in ("sample-sim", "modulation"):
        grid = params.get("n_grid")
        if not isinstance(grid, list) or not grid \
                or any(not _is_int(n) or n <= 0 for n in grid) \
                or any(b <= a for a, b in zip(grid, grid[1:])):
            errors.append("/parameters/n_grid: strictly increasing positive "
                          "integers required")
    if cmd in STOCHASTIC:
        least = 2 if cmd == "clt" else 1  # a covariance needs two trials
        trials = params.get("trials")
        if not _is_int(trials) or trials < least:
            errors.append(f"/parameters/trials: integer >= {least} required")
    if cmd == "sample-sim" and "k" in params \
            and not (_is_number(params["k"]) and params["k"] >= 0):
        errors.append("/parameters/k: covering exponent must be a finite number >= 0")
    if cmd == "modulation" and params.get("method", "auto") not in MODULATION_METHODS:
        errors.append(
            f"/parameters/method: must be one of {', '.join(MODULATION_METHODS)}")
    if cmd == "clt":
        if not _is_int(params.get("n")) or params["n"] <= 0:
            errors.append("/parameters/n: positive integer sample size required")
        if space is not None and isinstance(space, Cone) \
                and not isinstance(space.directions, FiniteDirections) \
                and params.get("grid") is None:
            errors.append("/parameters/grid: direction grid required for "
                          "non-finite direction spaces")
    kind = params.get("kind")
    if cmd == "divergence" and kind is not None and kind not in BUILTIN_DIVERGENCES:
        errors.append(
            f"/parameters/kind: must be one of {', '.join(sorted(BUILTIN_DIVERGENCES))}")
    q = params.get("q")
    if q is not None and not (_is_number(q) and q >= 1):
        errors.append("/parameters/q: must be a finite number >= 1")
    tg = params.get("t_grid")
    if tg is not None and (not isinstance(tg, list) or any(
            not _is_number(t) or not 0 <= t <= 1 for t in tg)):
        errors.append("/parameters/t_grid: list of fractions in [0, 1] required")


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def _coord_json(coord):
    return list(coord) if isinstance(coord, tuple) else coord


def _coord_csv(coord):
    return f"{coord[0]}:{_csv_cell(coord[1])}" if isinstance(coord, tuple) else _csv_cell(coord)


def run_config(cfg: ExperimentConfig):
    """Execute a validated config; returns (report dict, rows, summary)."""
    return _HANDLERS[cfg.command](cfg)


def _cmd_mean(cfg):
    m = frechet.frechet_mean(cfg.space, cfg.measure)
    val = frechet.frechet_value(cfg.space, cfg.measure, m)
    report = {"mean": point_to_json(cfg.space, m), "frechet_value": val}
    rows = [{"mean_dir": _coord_csv(m.direction), "mean_r": m.radius,
             "frechet_value": val}]
    return report, rows, f"mean: {point_to_json(cfg.space, m)} F={_csv_cell(val)}"


def _cmd_derivs(cfg):
    grid = cfg.parameters.get("grid")
    if grid is not None:
        grid = [_coord_from_json(g) for g in grid]
    prof = frechet.derivative_profile(cfg.space, cfg.measure, grid)
    rows = [{"direction": _coord_csv(c), "derivative": v}
            for c, v in zip(prof.directions, prof.values)]
    report = {
        "directions": [_coord_json(c) for c in prof.directions],
        "derivatives": list(prof.values),
        "argmin": _coord_json(prof.argmin),
        "min_value": prof.min_value,
        "lipschitz": prof.lipschitz,
    }
    return report, rows, f"derivs: min={_csv_cell(prof.min_value)} at {prof.argmin}"


def _cmd_classify(cfg):
    rep = stickiness.classify(cfg.space, cfg.measure)
    report = {
        "label": rep.label,
        "c_min": rep.c_min,
        "argmin_direction": _coord_json(rep.argmin_direction),
        "pull_condition": rep.pull_condition,
        "mean": point_to_json(cfg.space, rep.mean),
    }
    rows = [{"label": rep.label, "c_min": rep.c_min,
             "argmin_direction": _coord_csv(rep.argmin_direction),
             "pull_condition": rep.pull_condition}]
    return report, rows, f"classify: label={rep.label} c_min={_csv_cell(rep.c_min)}"


def _cmd_perturb(cfg):
    y = point_from_json(cfg.space, cfg.parameters["y"])
    t_star = stickiness.perturbation_threshold(cfg.space, cfg.measure, y)
    rows = []
    for t in cfg.parameters.get("t_grid", []):
        mixed = transport.perturbed_measure(cfg.space, cfg.measure, y, float(t))
        rep = stickiness.classify(cfg.space, mixed)
        rows.append({"t": float(t), "label": rep.label, "c_min": rep.c_min})
    report = {"threshold": t_star, "y": point_to_json(cfg.space, y),
              "t_grid": [r["t"] for r in rows],
              "labels": [r["label"] for r in rows]}
    if not rows:
        rows = [{"t": t_star, "label": "threshold", "c_min": 0.0}]
    return report, rows, f"perturb: threshold={_csv_cell(t_star)}"


def _cmd_wasserstein(cfg):
    q = float(cfg.parameters.get("q", 1))
    wq = transport.wq_lp(cfg.space, cfg.measure, cfg.measure2, q)
    report = {"q": q, "wq_lp": wq}
    if isinstance(cfg.space, Cone) and q == 1.0:
        report["w1_tree"] = transport.w1_tree(cfg.space, cfg.measure, cfg.measure2)
    rows = [{k: v for k, v in report.items()}]
    return report, rows, f"wasserstein: W_{_csv_cell(q)}={_csv_cell(wq)}"


def _cmd_divergence(cfg):
    kind = BUILTIN_DIVERGENCES[cfg.parameters.get("kind", "tv")]
    report = {"kind": kind.name}
    if cfg.measure2 is not None:
        value = transport.f_divergence(cfg.space, cfg.measure, cfg.measure2, kind)
        report["value"] = value
    else:
        y = point_from_json(cfg.space, cfg.parameters["y"])
        t = float(cfg.parameters["t"])
        closed = transport.perturbed_divergence(cfg.space, cfg.measure, y, t, kind)
        value = transport.f_divergence(
            cfg.space, cfg.measure,
            transport.perturbed_measure(cfg.space, cfg.measure, y, t), kind)
        report.update({"value": value, "closed_form": closed, "t": t})
    rows = [dict(report)]
    return report, rows, f"divergence: {kind.name}={_csv_cell(value)}"


def _cmd_sample_sim(cfg):
    params = cfg.parameters
    seed = params["seed"]
    trials = params["trials"]
    k = float(params.get("k", 0.0))
    rep = stickiness.classify(cfg.space, cfg.measure)
    rows = []
    for n in params["n_grid"]:
        res = stickiness.sample_sticking(cfg.space, cfg.measure, n, trials, seed,
                                         cfg.threads)
        bound = stickiness.tail_bound(rep.c_min, k, n) if rep.c_min > 0 else math.nan
        rows.append({"n": n, "trials": trials, "p_hat": res.p_hat, "se": res.se,
                     "bound": bound})
    slope = asymptotics.decay_fit([(r["n"], r["p_hat"]) for r in rows]) \
        if sum(r["p_hat"] > 0 for r in rows) >= 2 else None
    report = {"label": rep.label, "c_min": rep.c_min, "seed": seed,
              "rows": rows, "log_slope": slope}
    tail = rows[-1]
    return report, rows, (f"sample-sim: p_hat(n={tail['n']})="
                          f"{_csv_cell(tail['p_hat'])} se={_csv_cell(tail['se'])}")


def _cmd_modulation(cfg):
    params = cfg.parameters
    seed = params["seed"]
    trials = params["trials"]
    q = float(params.get("q", 2))
    method = params.get("method", "auto")
    rows = []
    for n in params["n_grid"]:
        est = asymptotics.modulation(cfg.space, cfg.measure, n, q, trials, seed,
                                     method=method, threads=cfg.threads)
        rows.append({"n": n, "q": q, "m_hat": est.m_hat, "se": est.se})
    report = {"q": q, "seed": seed, "rows": rows}
    tail = rows[-1]
    return report, rows, f"modulation: m_hat(n={tail['n']})={_csv_cell(tail['m_hat'])}"


def _cmd_clt(cfg):
    params = cfg.parameters
    sp = cfg.space
    grid = params.get("grid")
    if grid is None:
        grid = list(range(sp.directions.size))
    else:
        grid = [_coord_from_json(g) for g in grid]
    ana = asymptotics.clt_covariance(sp, cfg.measure, grid)
    sim = asymptotics.clt_simulate(sp, cfg.measure, grid, params["n"],
                                   params["trials"], params["seed"], cfg.threads)
    rows = []
    for i in range(len(grid)):
        for j in range(len(grid)):
            rows.append({
                "i": i, "j": j,
                "paper_cov": float(ana.paper_form[i, j]),
                "centered_cov": float(ana.centered_form[i, j]),
                "empirical_cov": float(sim.covariance[i, j]),
                "se": float(sim.se[i, j]),
            })
    report = {
        "grid": [_coord_json(g) for g in grid],
        "paper_form": ana.paper_form.tolist(),
        "centered_form": ana.centered_form.tolist(),
        "empirical": sim.covariance.tolist(),
        "se": sim.se.tolist(),
        "paper_vs_centered_max_discrepancy": ana.max_discrepancy,
        "n": params["n"], "trials": params["trials"], "seed": params["seed"],
    }
    return report, rows, (f"clt: max |paper - centered| = "
                          f"{_csv_cell(ana.max_discrepancy)}")


def _cmd_prismatic(cfg):
    if isinstance(cfg.space, OpenBook):
        value = open_book_prismatic(cfg.space)
    else:
        value = is_prismatic(cfg.space.directions)
    report = {"prismatic": value}
    return report, [dict(report)], f"prismatic: {str(value).lower()}"


_HANDLERS = {cmd: globals()["_cmd_" + cmd.replace("-", "_")] for cmd in COMMANDS}


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def _csv_text(rows) -> str:
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _json_finite(value):
    """The report with every non-finite float (a nan bound, an infinite
    divergence) as None, so that it dumps as strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_finite(item) for item in value]
    return value


def _json_text(report) -> str:
    return json.dumps(_json_finite(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stickygeom",
        description="Frechet means and stickiness diagnostics on metric cones")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="report file path")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    threads, source = args.threads, "--threads"
    if threads is None:
        env, source = os.environ.get("STICKYGEOM_THREADS", "1"), "STICKYGEOM_THREADS"
        try:
            threads = int(env)
        except ValueError:
            print(f"error: STICKYGEOM_THREADS must be an integer (got {env!r})",
                  file=sys.stderr)
            return 2
    if threads < 1:
        print(f"error: {source} must be >= 1", file=sys.stderr)
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    cfg, errors = validate(text, args.command, seed_override=args.seed,
                           threads=threads)
    if errors:
        for err in errors:
            print(f"config{err}", file=sys.stderr)
        return 2

    if args.out is not None:
        cfg.out_path = args.out
    if args.format is not None:
        cfg.out_format = args.format

    try:
        report, rows, summary = run_config(cfg)
    except (NumericalError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    text_out = _csv_text(rows) if cfg.out_format == "csv" else _json_text(report)
    if cfg.out_path:
        try:
            with open(cfg.out_path, "w", encoding="utf-8") as fh:
                fh.write(text_out)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text_out)
    print(summary, file=sys.stderr)
    return 0


def fixture_path(name: str) -> str:
    """Path of a bundled example config (spider3_thirds.json, kale_2pi.json,
    kale_3pi_thirds.json, openbook3_2.json, petersen_cone.json)."""
    from importlib import resources

    ref = resources.files("stickygeom") / "fixtures" / name
    return str(ref)


if __name__ == "__main__":
    sys.exit(main())
