import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stickygeom import cli
from stickygeom.cli import fixture_path, main, validate

FIXTURES = ["spider3_thirds.json", "kale_2pi.json", "kale_3pi_thirds.json",
            "openbook3_2.json", "petersen_cone.json"]
BOOK_UNSUPPORTED = {"derivs", "modulation", "clt"}


def read_fixture(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_minimal_config():
    cfg, errors = validate(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [{"point": {"dir": 0, "r": 1.0}, "weight": 1.0}]},
    }), command="classify")
    assert errors == []
    assert cfg.command == "classify"
    assert cfg.measure.size == 1


def test_validate_reports_weight_sum():
    cfg, errors = validate(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [
            {"point": {"dir": 0, "r": 1.0}, "weight": 0.5},
            {"point": {"dir": 1, "r": 1.0}, "weight": 0.3},
        ]},
    }), command="classify")
    assert cfg is None
    assert any("weights must sum to 1" in e for e in errors)


def test_validate_reports_negative_radius_with_pointer():
    cfg, errors = validate(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [
            {"point": {"dir": 0, "r": 1.0}, "weight": 0.5},
            {"point": {"dir": 1, "r": -0.2}, "weight": 0.5},
        ]},
    }), command="classify")
    assert cfg is None
    assert any(e.startswith("/measure/atoms/1/point/r") for e in errors)


def test_validate_reads_the_spaces_tolerances(monkeypatch):
    """The radius slack and the weight-sum tolerance of the CLI's checks are
    `spaces.COORD_TOL` and `spaces.WEIGHT_TOL`, which `spaces` itself uses."""
    from stickygeom import spaces

    atoms = {"atoms": [{"point": {"dir": 0, "r": -1e-9}, "weight": 1.0 + 1e-9}]}
    assert cli._shallow_measure_errors(atoms, "/measure") == [
        "/measure/atoms/0/point/r: radius must be finite and >= 0"]
    monkeypatch.setattr(spaces, "COORD_TOL", 1e-8)
    assert cli._shallow_measure_errors(atoms, "/measure") == [
        f"/measure/atoms: weights must sum to 1 (got {1.0 + 1e-9!r})"]
    monkeypatch.setattr(spaces, "WEIGHT_TOL", 1e-8)
    assert cli._shallow_measure_errors(atoms, "/measure") == []


def test_validate_collects_multiple_errors():
    cfg, errors = validate(json.dumps({
        "space": {"kind": "mystery"},
        "measure": {"atoms": [
            {"point": {"dir": 0, "r": -1.0}, "weight": -2.0},
        ]},
    }), command="modulation")
    assert cfg is None
    joined = "\n".join(errors)
    assert "/space" in joined
    assert "/measure/atoms/0/weight" in joined
    assert "/measure/atoms/0/point/r" in joined
    assert "/parameters/seed" in joined


def test_validate_requires_seed_for_stochastic():
    base = json.loads(read_fixture("spider3_thirds.json"))
    del base["parameters"]["seed"]
    cfg, errors = validate(json.dumps(base), command="sample-sim")
    assert cfg is None and any("seed" in e for e in errors)
    cfg, errors = validate(json.dumps(base), command="sample-sim", seed_override=7)
    assert errors == [] and cfg.parameters["seed"] == 7


def test_validate_rejects_unsupported_combination():
    base = json.loads(read_fixture("openbook3_2.json"))
    cfg, errors = validate(json.dumps(base), command="modulation")
    assert cfg is None
    assert any("not supported on open books" in e for e in errors)


def test_validate_n_grid_monotone():
    base = json.loads(read_fixture("spider3_thirds.json"))
    base["parameters"]["n_grid"] = [10, 10, 20]
    cfg, errors = validate(json.dumps(base), command="sample-sim")
    assert cfg is None and any("n_grid" in e for e in errors)


def test_validate_bad_json():
    cfg, errors = validate("{not json", command="classify")
    assert cfg is None and "invalid JSON" in errors[0]


# ---------------------------------------------------------------------------
# command runs
# ---------------------------------------------------------------------------

def test_classify_spider_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["classify", "--config", fixture_path("spider3_thirds.json"),
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["label"] == "sticky"
    assert report["c_min"] == pytest.approx(1 / 3, abs=1e-15)
    assert "classify: label=sticky" in capsys.readouterr().err


def test_stdout_report_parses_without_out(capsys):
    rc = main(["classify", "--config", fixture_path("kale_2pi.json")])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["label"] == "boundary"
    assert captured.err.startswith("classify: label=")


def test_prismatic_kale_2pi(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["prismatic", "--config", fixture_path("kale_2pi.json"),
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text()) == {"prismatic": False}


def test_prismatic_true_fixtures(tmp_path):
    for name in ("spider3_thirds.json", "kale_3pi_thirds.json",
                 "petersen_cone.json"):
        out = tmp_path / "p.json"
        assert main(["prismatic", "--config", fixture_path(name),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"prismatic": True}


def test_prismatic_theta_graph(tmp_path):
    # three edges of length pi between two vertices: each vertex has the
    # other as its only farthest point, so the cone point is not prismatic
    config = tmp_path / "theta.json"
    config.write_text(json.dumps({
        "space": {"kind": "graph_cone", "vertices": 2,
                  "edges": [[0, 1, math.pi]] * 3},
        "measure": {"atoms": [{"point": {"dir": [0, 1.0], "r": 1.0},
                               "weight": 1.0}]},
    }))
    out = tmp_path / "p.json"
    assert main(["prismatic", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"prismatic": False}


def test_sample_sim_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["sample-sim", "--config", fixture_path("spider3_thirds.json"),
                   "--out", str(out), "--format", "csv", "--seed", "42"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "n,trials,p_hat,se,bound"


def test_clt_csv_columns(tmp_path):
    out = tmp_path / "clt.csv"
    rc = main(["clt", "--config", fixture_path("spider3_thirds.json"),
               "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,paper_cov,centered_cov,empirical_cov,se"
    assert len(lines) == 10


def test_clt_reports_discrepancy(tmp_path):
    out = tmp_path / "clt.json"
    rc = main(["clt", "--config", fixture_path("spider3_thirds.json"),
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["paper_vs_centered_max_discrepancy"] == pytest.approx(1 / 9, abs=1e-12)


def test_modulation_csv(tmp_path):
    out = tmp_path / "mod.csv"
    rc = main(["modulation", "--config", fixture_path("kale_2pi.json"),
               "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,q,m_hat,se"


def test_every_fixture_runs_every_applicable_command(tmp_path):
    for name in FIXTURES:
        for cmd in cli.COMMANDS:
            if name.startswith("openbook") and cmd in BOOK_UNSUPPORTED:
                rc = main([cmd, "--config", fixture_path(name),
                           "--out", str(tmp_path / "r.json")])
                assert rc == 2
                continue
            rc = main([cmd, "--config", fixture_path(name),
                       "--out", str(tmp_path / "r.json")])
            assert rc == 0, (name, cmd)


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [{"point": {"dir": 0, "r": 1.0}, "weight": 0.8}]},
    }))
    rc = main(["classify", "--config", str(bad)])
    assert rc == 2
    assert "weights must sum to 1" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [{"point": {"dir": 0, "r": 1.0}, "weight": 1.0}]},
        "parameters": {"n_grid": [10], "q": 2, "trials": 50, "seed": 1},
    }))
    # modulation requires the mean at the cone point; this measure's is not
    rc = main(["modulation", "--config", str(cfg)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("space, measures, q, error", [
    # one atom a side, 1 rad apart at r = 0.5: W_q is about 0.479, but every
    # d^q underflows to 0
    ({"kind": "kale", "alpha": 9.42477796076938},
     ([{"point": {"dir": 0.0, "r": 0.5}, "weight": 1.0}],
      [{"point": {"dir": 1.0, "r": 0.5}, "weight": 1.0}]), 1e6, "underflows"),
    # the fixture's distances of 2 overflow
    (None, None, 2000, "overflows"),
])
def test_wasserstein_order_beyond_float_range(tmp_path, capsys, space, measures,
                                              q, error):
    data = json.loads(read_fixture("kale_3pi_thirds.json"))
    if space is not None:
        data["space"] = space
        data["measure"] = {"atoms": measures[0]}
        data["measure2"] = {"atoms": measures[1]}
    data["parameters"]["q"] = q
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["wasserstein", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure: transport cost d^q {error} at order q = {q:g}" in err


BAD_DIRECTIONS = [
    # (fixture, command, parameter, value, pointer)
    ("petersen_cone.json", "derivs", "grid", [[0, 99.0]], "/parameters/grid/0"),
    ("petersen_cone.json", "derivs", "grid", [[0, 0.5], [-1, 0.5]],
     "/parameters/grid/1"),
    ("petersen_cone.json", "clt", "grid", [[0]], "/parameters/grid/0"),
    ("petersen_cone.json", "perturb", "y", {"dir": [15, 0.5], "r": 1.0},
     "/parameters/y"),
    ("spider3_thirds.json", "derivs", "grid", [0, 3], "/parameters/grid/1"),
    ("spider3_thirds.json", "clt", "grid", [-1], "/parameters/grid/0"),
    ("spider3_thirds.json", "perturb", "y", {"dir": 7, "r": 2.0}, "/parameters/y"),
    ("openbook3_2.json", "divergence", "y", {"dir": 3, "r": 1.0, "eu": [0.0]},
     "/parameters/y"),
    ("kale_3pi_thirds.json", "derivs", "grid", [0.5, math.nan], "/parameters/grid/1"),
    ("kale_3pi_thirds.json", "clt", "grid", [math.inf], "/parameters/grid/0"),
    ("kale_2pi.json", "derivs", "grid", ["east"], "/parameters/grid/0"),
    ("spider3_thirds.json", "perturb", "y", {"dir": 0, "r": math.nan}, "/parameters/y"),
    # a parameter name with slashes is a path from the config root
    ("spider3_thirds.json", "classify", "measure/atoms/0/point/r", math.inf,
     "/measure/atoms/0/point/r"),
    ("kale_2pi.json", "divergence", "t", 1.0, "/parameters/t"),
    ("kale_2pi.json", "divergence", "t", -0.5, "/parameters/t"),
    ("kale_2pi.json", "divergence", "t", "x", "/parameters/t"),
    ("spider3_thirds.json", "sample-sim", "k", -1, "/parameters/k"),
    ("spider3_thirds.json", "sample-sim", "k", "x", "/parameters/k"),
    ("spider3_thirds.json", "clt", "trials", 1, "/parameters/trials"),
    ("spider3_thirds.json", "modulation", "method", "foo", "/parameters/method"),
    ("spider3_thirds.json", "wasserstein", "q", math.nan, "/parameters/q"),
    ("spider3_thirds.json", "wasserstein", "q", math.inf, "/parameters/q"),
    ("spider3_thirds.json", "modulation", "q", math.nan, "/parameters/q"),
    ("spider3_thirds.json", "modulation", "q", math.inf, "/parameters/q"),
    ("spider3_thirds.json", "sample-sim", "seed", -1, "/parameters/seed"),
    # a name starting with -- is a command-line option instead
    ("spider3_thirds.json", "sample-sim", "--seed", -1, "/parameters/seed"),
    # JSON true is not the integer 1
    ("spider3_thirds.json", "sample-sim", "seed", True, "/parameters/seed"),
    ("spider3_thirds.json", "clt", "trials", True, "/parameters/trials"),
    ("spider3_thirds.json", "clt", "n", True, "/parameters/n"),
    ("spider3_thirds.json", "sample-sim", "n_grid", [True, 2], "/parameters/n_grid"),
    ("kale_2pi.json", "classify", "measure/atoms/0/point/dir", False,
     "/measure/atoms/0/point/dir"),
    ("openbook3_2.json", "classify", "measure/atoms/2/point/eu/0", True,
     "/measure/atoms/2/point/eu/0"),
    ("petersen_cone.json", "classify", "measure2/atoms/1/point/dir/0", True,
     "/measure2/atoms/1/point/dir/0"),
    ("kale_2pi.json", "classify", "space/alpha", True, "/space/alpha"),
    ("petersen_cone.json", "classify", "space/edges/3/1", True, "/space/edges/3/1"),
    ("petersen_cone.json", "classify", "space/edges/0/2", True, "/space/edges/0/2"),
    ("spider3_thirds.json", "perturb", "y", {"dir": True, "r": 2.0}, "/parameters/y/dir"),
    ("spider3_thirds.json", "derivs", "grid", [0, True], "/parameters/grid/1"),
    # a bad point is reported at its own atom
    ("spider3_thirds.json", "classify", "measure/atoms/1/point/dir", 7,
     "/measure/atoms/1/point"),
    ("petersen_cone.json", "classify", "measure2/atoms/0/point/dir", [15, 0.5],
     "/measure2/atoms/0/point"),
]


@pytest.mark.parametrize("name,cmd,key,value,pointer", BAD_DIRECTIONS)
def test_bad_direction_is_a_validation_error(tmp_path, capsys, name, cmd, key,
                                             value, pointer):
    data = json.loads(read_fixture(name))
    argv = [cmd, "--config", str(tmp_path / "cfg.json")]
    if key.startswith("--"):
        argv += [key, str(value)]
    else:
        path = key.split("/") if "/" in key else ["parameters", key]
        node = data
        for part in path[:-1]:
            node = node[int(part) if isinstance(node, list) else part]
        node[int(path[-1]) if isinstance(node, list) else path[-1]] = value
    if cmd == "divergence":
        del data["measure2"]  # so the y, t form runs
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config{pointer}: " in err, err


def test_booleans_are_not_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [{"point": {"dir": True, "r": True}, "weight": True}]},
    }))
    assert main(["classify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    for pointer in ("/measure/atoms/0/weight", "/measure/atoms/0/point/r",
                    "/measure/atoms/0/point/dir"):
        assert f"config{pointer}: " in err, err
    cfg.write_text(json.dumps({
        "space": {"kind": "finite_cone", "distance_matrix": [[0, 1], [False, 0]]},
        "measure": {"atoms": [{"point": {"dir": 0, "r": 1.0}, "weight": 1.0}]},
    }))
    assert main(["classify", "--config", str(cfg)]) == 2
    assert "config/space/distance_matrix/1/0: " in capsys.readouterr().err


def test_every_bad_atom_is_reported_at_once():
    cfg, errors = validate(json.dumps({
        "space": {"kind": "spider", "K": 3},
        "measure": {"atoms": [
            {"point": {"dir": 0, "r": 1.0}, "weight": 0.5},
            {"point": {"dir": 7, "r": 1.0}, "weight": 0.25},
            {"point": {"dir": "x", "r": 1.0}, "weight": 0.25},
        ]},
    }), command="classify")
    assert cfg is None
    assert errors == ["/measure/atoms/1/point: direction index 7 out of range 0..2",
                      "/measure/atoms/2/point: direction index 'x' out of range 0..2"]


def test_missing_config_file():
    assert main(["classify", "--config", "/nonexistent/cfg.json"]) == 2


def test_unwritable_report_path(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["classify", "--config", fixture_path("spider3_thirds.json"),
                 "--out", str(out)]) == 2
    assert "error: cannot write report: " in capsys.readouterr().err


def test_threads_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("STICKYGEOM_THREADS", "two")
    assert main(["classify", "--config", fixture_path("spider3_thirds.json")]) == 2
    err = capsys.readouterr().err
    assert "STICKYGEOM_THREADS" in err and "'two'" in err


def test_threads_below_one_names_its_source(monkeypatch, capsys):
    config = fixture_path("spider3_thirds.json")
    monkeypatch.setenv("STICKYGEOM_THREADS", "0")
    assert main(["classify", "--config", config]) == 2
    assert "error: STICKYGEOM_THREADS must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("STICKYGEOM_THREADS", "2")
    assert main(["classify", "--config", config, "--threads", "0"]) == 2
    assert "error: --threads must be >= 1" in capsys.readouterr().err


def test_json_report_round_trip_stable(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["mean", "--config", fixture_path("kale_3pi_thirds.json"),
          "--out", str(out1)])
    main(["mean", "--config", fixture_path("kale_3pi_thirds.json"),
          "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # parse -> serialize is canonical (sorted keys, round-trip floats)
    rep = json.loads(out1.read_text())
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == out1.read_text()


def test_perturb_report(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["perturb", "--config", fixture_path("spider3_thirds.json"),
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["threshold"] == pytest.approx(1 / 7, abs=1e-12)
    # the bundled t grid brackets the threshold
    assert rep["labels"][0] == "sticky"
    assert rep["labels"][-1] == "nonsticky"


def test_divergence_closed_form_report(tmp_path):
    base = json.loads(read_fixture("spider3_thirds.json"))
    del base["measure2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base))
    out = tmp_path / "d.json"
    rc = main(["divergence", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["value"] == pytest.approx(rep["closed_form"], abs=1e-12)
    assert rep["value"] == pytest.approx(0.1, abs=1e-12)  # TV of a fresh atom is t


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STICKYGEOM_THREADS", "2")
    out = tmp_path / "s.csv"
    rc = main(["sample-sim", "--config", fixture_path("spider3_thirds.json"),
               "--out", str(out), "--format", "csv"])
    assert rc == 0
    monkeypatch.setenv("STICKYGEOM_THREADS", "1")
    out2 = tmp_path / "s2.csv"
    main(["sample-sim", "--config", fixture_path("spider3_thirds.json"),
          "--out", str(out2), "--format", "csv"])
    assert out.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# start-up cost: the CLI path imports no scipy
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCIPY_MODULES = ("import sys; print(sorted(k for k in sys.modules "
                 "if k == 'scipy' or k.startswith('scipy.')))")


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("STICKYGEOM_THREADS", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)


def test_cli_import_loads_no_scipy():
    proc = _fresh_python("-c", "import stickygeom.cli; " + SCIPY_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # the thread pool module loads only when a pool is made
    proc = _fresh_python("-c", "import stickygeom.cli, sys; "
                         "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_scipy_free_commands_load_no_scipy(tmp_path):
    runs = [(name, cmd) for name in FIXTURES
            for cmd in ("mean", "derivs", "classify", "perturb", "wasserstein",
                        "divergence", "sample-sim", "clt", "prismatic")
            if not (name.startswith("openbook") and cmd in BOOK_UNSUPPORTED)]
    runs += [("kale_3pi_thirds.json", "modulation"), ("spider3_thirds.json", "modulation")]
    code = (f"from stickygeom import cli\n"
            f"for name, cmd in {runs!r}:\n"
            f"    rc = cli.main([cmd, '--config', cli.fixture_path(name),\n"
            f"                   '--out', {str(tmp_path / 'r.json')!r}])\n"
            f"    assert rc == 0, (name, cmd, rc)\n" + SCIPY_MODULES)
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_c_kappa_epsilon_loads_no_scipy():
    proc = _fresh_python("-c", "from stickygeom import frechet\n"
                         "assert frechet.c_kappa_epsilon(1.0, 0.5) > 1.0\n" + SCIPY_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _wasserstein_call(atoms: int) -> str:
    """A `wasserstein` run between two spider measures of this many atoms,
    as a script that takes the config path as its argument."""
    support = [{"point": {"dir": k % 3, "r": 0.5 + k / atoms}, "weight": 1.0 / atoms}
               for k in range(atoms)]
    return ("import json, sys\n"
            "from stickygeom import cli\n"
            f"atoms = {support!r}\n"
            "cfg = {'space': {'kind': 'spider', 'K': 3},\n"
            "       'measure': {'atoms': atoms},\n"
            "       'measure2': {'atoms': atoms[1:] + atoms[:1]},\n"
            "       'parameters': {'q': 2}}\n"
            "json.dump(cfg, open(sys.argv[1], 'w'))\n"
            "assert cli.main(['wasserstein', '--config', sys.argv[1],\n"
            "                 '--out', sys.argv[1] + '.out']) == 0\n")


def test_exact_band_wasserstein_loads_no_scipy(tmp_path):
    """The transport LP is solved exactly at every size, without HiGHS: at
    128 atoms a side and past it, where HiGHS used to take over."""
    for atoms in (128, 129):
        proc = _fresh_python("-c", _wasserstein_call(atoms) + SCIPY_MODULES,
                             str(tmp_path / "cfg.json"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
