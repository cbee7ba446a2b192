import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import scipy.io

from lclab import (ConfigError, ConvergenceError, InconclusiveError, grids,
                   kernels, runner, torus)
from lclab.geometry import Domain1D, Domain2D
from lclab.grids import Grid1D, PolarGrid
from lclab.kernels import solve_tridiagonal
from lclab.torus import TorusGrid

ROOT = Path(__file__).resolve().parent.parent
SWEEP_RULE = "sweep must be >= 3 positive, finite, increasing points"


def _passes(config, art):
    return art.criterion("fake.pass", 1.0, True)


def _fails(config, art):
    return art.criterion("fake.fail", 0.0, False)


def _inconclusive(config, art):
    raise InconclusiveError("fit too noisy")


def _raises(config, art):
    raise ConvergenceError("solve diverged")


def _breaks(config, art):
    raise ValueError("not a lab error")


def _report_all(monkeypatch, tmp_path, fakes):
    # each fake run builds nothing, so its row has no parts
    monkeypatch.setattr(runner, "_TABLE", {
        exp: ((), run) for exp, run in fakes.items()})
    code = runner.main(["report-all", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == code
    return code, summary["experiments"]


def test_all_passing_exits_zero(monkeypatch, tmp_path):
    code, verdicts = _report_all(monkeypatch, tmp_path,
                                 {"a": _passes, "b": _passes})
    assert code == 0
    assert verdicts == {"a": "pass", "b": "pass"}


def test_inconclusive_exits_two_and_later_experiments_still_run(
        monkeypatch, tmp_path):
    code, verdicts = _report_all(monkeypatch, tmp_path,
                                 {"a": _inconclusive, "b": _passes})
    assert code == 2
    assert verdicts == {"a": "inconclusive", "b": "pass"}


@pytest.mark.parametrize("culprit, verdict", [
    (_fails, "fail"), (_raises, "error: solve diverged")])
def test_failure_or_error_exits_one_and_outranks_inconclusive(
        monkeypatch, tmp_path, culprit, verdict):
    code, verdicts = _report_all(
        monkeypatch, tmp_path,
        {"a": _inconclusive, "b": culprit, "c": _passes})
    assert code == 1
    assert verdicts == {"a": "inconclusive", "b": verdict, "c": "pass"}


def test_any_exception_is_an_error_verdict_and_later_experiments_run(
        monkeypatch, tmp_path, capsys):
    # a fault other than a LabError no longer aborts report-all: its
    # verdict names the type, and summary.json is still written
    code, verdicts = _report_all(monkeypatch, tmp_path,
                                 {"a": _breaks, "b": _passes})
    assert code == 1
    assert verdicts == {"a": "error: ValueError: not a lab error",
                        "b": "pass"}
    err = capsys.readouterr().err
    assert "[ERROR] a: ValueError: not a lab error" in err
    assert "Traceback" in err and "in _breaks" in err


def test_check_gates_on_inclusive_windows_and_bounds(tmp_path, capsys):
    art = runner._Artifacts(tmp_path, runner.default_config())
    assert art.check("edge.lo", -0.6, (-0.6, -0.4))
    assert art.check("edge.hi", -0.4, (-0.6, -0.4))
    assert not art.check("below", -0.61, (-0.6, -0.4))
    assert not art.check("above", -0.39, (-0.6, -0.4))
    assert art.check("bound.at", 1e-6, 1e-6)
    assert art.check("bound.under", -5.0, 1e-6)
    assert not art.check("bound.over", 2e-6, 1e-6)
    assert [(c["name"], c["window"], c["pass"]) for c in art.criteria] == [
        ("edge.lo", (-0.6, -0.4), True), ("edge.hi", (-0.6, -0.4), True),
        ("below", (-0.6, -0.4), False), ("above", (-0.6, -0.4), False),
        ("bound.at", 1e-6, True), ("bound.under", 1e-6, True),
        ("bound.over", 1e-6, False)]
    assert "[FAIL] bound.over: 1.9999999999999999e-06 window=1e-06" \
        in capsys.readouterr().out


def test_flat_rate_sweep_fails_rather_than_inconclusive(monkeypatch,
                                                        tmp_path):
    # norms that do not decay: r^2 is low, but the fit is flat, so it is
    # conclusive and its slope ~0 lies outside the rate window
    def flat(grid, lambdas):
        return runner.cp._rate_fit(lambdas, [1.0, 1.05, 1.0, 1.05, 1.0])

    monkeypatch.setattr(runner.cp, "convergence_rate_fit", flat)
    code, summary = runner.run_experiment(runner.default_config("rate2d"),
                                          out_dir=tmp_path)
    assert code == 1
    assert summary["experiments"] == {"rate2d": "fail"}
    assert summary["data"]["rate2d"]["r_squared"] < 0.95


def test_config_errors_exit_three_and_are_all_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[grid]\nangulr = 64\nradial_ext = many\n[sweeps]\n")
    code = runner.main(["weyl", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "did you mean angular?" in err
    assert "cannot parse 'many' as int" in err
    assert "did you mean [sweep]?" in err
    assert not (tmp_path / "out").exists()


def test_nbound_fit_across_both_regimes_is_inconclusive(tmp_path, capsys):
    # lambda = 0.01 ... 1e6 puts the s = 1 norm in both decay regimes, so
    # one straight line fits it badly
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[sweep]\nlambdas_torus = 0.01,1,100,10000,1000000\n")
    code = runner.main(["nbound", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert code == 2
    assert summary["experiments"] == {"nbound": "inconclusive"}
    assert "[INCONCLUSIVE] nbound: nbound fit s=1.0 inconclusive" \
        in capsys.readouterr().out


def test_compose_seed_57_passes(tmp_path):
    code = runner.main(["compose", "--seed", "57", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == 0
    assert summary["experiments"] == {"compose": "pass"}
    assert summary["data"]["compose"]["r_squared"] > 0.9999


def test_artifacts_are_byte_reproducible(tmp_path):
    # no experiment reads the seed: it changes only the config hash, in
    # the CSV header and summary.json, and summary.json's seed field
    runs = {}
    for run, seed in (("a", 1), ("b", 1), ("c", 57)):
        for exp in runner._TABLE:
            out = tmp_path / run / exp
            code, _ = runner.run_experiment(
                runner.default_config(exp, seed=seed), out_dir=out)
            assert code == 0
            runs[run, exp] = {p.name: p.read_bytes() for p in out.iterdir()}
    for exp in runner._TABLE:
        first, other = runs["a", exp], runs["c", exp]
        assert set(first) == {f"{exp}.csv", "summary.json"}
        assert runs["b", exp] == first
        summaries = [json.loads(r["summary.json"]) for r in (first, other)]
        assert [summary.pop("seed") for summary in summaries] == [1, 57]
        hashes = [summary.pop("config_hash") for summary in summaries]
        assert hashes[0] != hashes[1]
        assert summaries[0] == summaries[1]
        assert first[f"{exp}.csv"].replace(hashes[0].encode(), b"") == \
            other[f"{exp}.csv"].replace(hashes[1].encode(), b"")


@pytest.mark.parametrize("experiment", ["symbols", "bounds", "nbound"])
def test_symbol_calculus_criteria_show_their_windows(tmp_path, experiment):
    code, summary = runner.run_experiment(runner.default_config(experiment),
                                          out_dir=tmp_path)
    assert code == 0
    for crit in summary["criteria"]:
        window = crit["window"]
        if experiment == "symbols":  # the expected certificate outcome
            assert crit["value"] is window
        else:
            assert window[0] <= crit["value"] <= window[1]


def test_rate2d_dump_matrices_assembles_the_lazy_stiffness(tmp_path):
    code = runner.main(["rate2d", "--dump-matrices", "--out", str(tmp_path)])
    assert code == 0
    matrix = scipy.io.mmread(tmp_path / "exterior_matrix_2d.mtx")
    # exterior unknowns of the default 64 x 128 polar grid
    assert matrix.shape == (64 * 128, 64 * 128)


def test_power_tol_is_no_longer_a_config_key(tmp_path, capsys):
    # nor is solve_tol: no config sets a solve tolerance, so none can widen
    # the one gate of the band solves
    assert "tolerances" not in runner._SCHEMA
    for key in ("power_tol", "solve_tol"):
        cfg = tmp_path / f"{key}.ini"
        cfg.write_text(f"[tolerances]\n{key} = 1e-8\n")
        out = tmp_path / key
        assert runner.main(["rate1d", "--config", str(cfg),
                            "--out", str(out)]) == 3
        assert "unknown section [tolerances]" in capsys.readouterr().err
        assert not out.exists()


def test_keys_of_an_unknown_section_are_reported_once():
    # through the section line; a known section after it is read again
    with pytest.raises(ConfigError) as err:
        runner.parse_config("[tolerances]\nsolve_tol = 1e-10\npower_tol = 1\n"
                            "[sweep]\nlamm = 1e3\n")
    assert err.value.violations == [
        "line 1: unknown section [tolerances]",
        "line 5: unknown key sweep.lamm (did you mean lam?)"]
    # a key before any section header has no section line to report it
    with pytest.raises(ConfigError) as err:
        runner.parse_config("lam = 1e3\n[sweep]\nlam = 1e3\n")
    assert err.value.violations == ["line 1: key before any section"]


def test_domain2d_that_does_not_fit_is_a_config_error(tmp_path, capsys):
    # the inclusion must lie inside the outer circle: one collected
    # violation before any experiment runs, and no artifacts
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[domain2d]\nradius = 2.5\n")
    out = tmp_path / "out"
    assert runner.main(["weyl", "--config", str(cfg), "--out", str(out)]) == 3
    assert "config error: domain2d: need 0 < radius < outer_radius" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exp, text, message", [
    ("rate2d", "[domain2d]\nradius = 0.7\n",
     "grid.radial_ext, grid.angular: interface must be a grid ring"),
    ("weyl", "[grid]\nradial_ext = 1\n",
     "grid.radial_ext, grid.angular: one-sided stencils need two layers"),
    ("green", "[grid]\ncells_1d = 16\n",
     "grid.cells_1d: inclusion endpoints must land on grid nodes (8 cells)"),
    ("green", "[domain1d]\nlength = 0\n",
     "domain1d: need 0 < a1 < a2 < length"),
    ("bounds", "[grid]\ntorus_points = 100\n",
     "grid.torus_points: points must be a power of two >= 8"),
    ("compose", "[grid]\ncompose_points = 512\n",
     "grid.compose_points: composition experiment limited to 256 points"),
], ids=["disk-ring", "disk-layers", "green-coarse", "interval-length",
        "torus-points", "compose-cap"])
def test_grid_that_does_not_fit_is_a_config_error(tmp_path, capsys, exp,
                                                  text, message):
    # every grid an experiment builds, the doubled and halved ones too, is
    # checked before any experiment runs
    cfg = tmp_path / "grid.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert runner.main([exp, "--config", str(cfg), "--out", str(out)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exp, text, message", [
    ("rate1d", "[sweep]\nlambdas = 1e2, 1e3\n",
     f"sweep.lambdas: {SWEEP_RULE}"),
    ("rate2d", "[sweep]\nlambdas_2d = 1, 10, 100\n",
     "sweep.lambdas_2d: sweep must span at least three decades"),
    ("bounds", "[sweep]\nlambdas_torus = 1e2, 1e3\n",
     f"sweep.lambdas_torus: {SWEEP_RULE}"),
    ("nbound", "[sweep]\nlambdas_torus = -1, 1e2, 1e3\n",
     f"sweep.lambdas_torus: {SWEEP_RULE}"),
    # compose checks the torus sweep before it puts 1e5 in order
    ("compose", "[sweep]\nlambdas_torus = 1e3, 1e2, 1e4\n",
     f"sweep.lambdas_torus: {SWEEP_RULE}"),
], ids=["rate1d-two-points", "rate2d-two-decades", "bounds-two-points",
        "nbound-negative", "compose-unordered"])
def test_sweep_the_run_rejects_is_a_config_error(tmp_path, capsys, exp,
                                                 text, message):
    # each sweep meets, at parse time, the rule its experiment's run calls
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert runner.main([exp, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exp, text, message", [
    ("rate1d", "[sweep]\nlambdas = 1e2, 1e3, inf\n",
     f"sweep.lambdas: {SWEEP_RULE}"),
    ("report-all", "[sweep]\nlambdas = 1e2, 1e3, inf\n",
     f"sweep.lambdas: {SWEEP_RULE}"),
    ("rate1d", "[sweep]\nlambdas = nan, 1e3, 1e6\n",
     f"sweep.lambdas: {SWEEP_RULE}"),
    ("rate2d", "[sweep]\nlambdas_2d = 10, 1e3, inf\n",
     f"sweep.lambdas_2d: {SWEEP_RULE}"),
    ("bounds", "[sweep]\nlambdas_torus = 1e2, 1e3, nan\n",
     f"sweep.lambdas_torus: {SWEEP_RULE}"),
    ("nbound", "[sweep]\nlambdas_torus = 1e2, 1e3, inf\n",
     f"sweep.lambdas_torus: {SWEEP_RULE}"),
    ("green", "[sweep]\nlam = nan\n",
     "sweep.lam: single coupling needs 1 <= lam < inf"),
    ("report-all", "[sweep]\nlam = inf\n",
     "sweep.lam: single coupling needs 1 <= lam < inf"),
], ids=["rate1d-inf", "report-all-inf", "rate1d-nan", "rate2d-inf",
        "bounds-nan", "nbound-inf", "green-lam-nan", "report-all-lam-inf"])
def test_non_finite_coupling_is_a_config_error(tmp_path, capsys, exp, text,
                                               message):
    # a NaN or an infinite coupling is a config violation of its key, found
    # before any experiment runs, never an error inside one
    cfg = tmp_path / "couplings.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert runner.main([exp, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("exp, text, messages", [
    ("rate1d", "[grid]\ncells_1d = 3\n[sweep]\nlambdas = 1e2, 1e3\n",
     ["grid.cells_1d: inclusion endpoints must land on grid nodes (6 cells)",
      f"sweep.lambdas: {SWEEP_RULE}"]),
    ("rate2d", "[domain2d]\nradius = 0.7\n[sweep]\nlambdas_2d = 1, 10\n",
     ["grid.radial_ext, grid.angular: interface must be a grid ring",
      f"sweep.lambdas_2d: {SWEEP_RULE}"]),
    ("compose", "[grid]\ncompose_points = 100\n"
     "[sweep]\nlambdas_torus = 1e2, 1e3\n",
     ["grid.compose_points: points must be a power of two >= 8",
      f"sweep.lambdas_torus: {SWEEP_RULE}"]),
], ids=["rate1d", "rate2d", "compose"])
def test_grid_violation_does_not_hide_the_sweep_violation(
        tmp_path, capsys, exp, text, messages):
    # a row's grid and its sweep are checked independently
    cfg = tmp_path / "both.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert runner.main([exp, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(messages)
    for line, message in zip(err, messages):
        assert line.startswith(f"config error: {message}")
    assert not out.exists()


def test_sweep_is_checked_only_where_it_is_read(tmp_path):
    # threshold reads no sweep; nbound reads lambdas_torus without compose's
    # extra 1e5
    cfg = tmp_path / "sweeps.ini"
    cfg.write_text("[sweep]\nlambdas = 1e2, 1e3\nlambdas_2d = -1, 1, 2\n"
                   "lambdas_torus = 1e2, 1e3, 1e4, 1e5\n")
    for exp in ("threshold", "nbound"):
        assert runner.main([exp, "--config", str(cfg),
                            "--out", str(tmp_path / exp)]) == 0


def test_report_all_collects_every_violation_at_once(tmp_path, capsys):
    # the builds run after a scalar violation too, and each distinct
    # violation is reported once
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[grid]\ncells_1d = 16\n[domain2d]\nradius = 0.7\n"
                   "[sweep]\nmu_points = 0\n")
    out = tmp_path / "out"
    assert runner.main(["report-all", "--config", str(cfg),
                        "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    for prefix in ("grid.cells_1d: inclusion endpoints",
                   "grid.radial_ext, grid.angular: interface must be a grid",
                   "sweep.mu_points: birman needs >= 2 mu probes"):
        assert any(line.startswith(f"config error: {prefix}")
                   for line in err), prefix
    assert len(err) == len(set(err))
    assert not out.exists()


@pytest.mark.parametrize("points", [0, 1, -2])
def test_fewer_than_two_mu_probes_is_a_config_error(tmp_path, capsys,
                                                     points):
    # birman probes mu from top / 100 to top: no probe passes vacuously,
    # one spans nothing, and -2 would die in np.geomspace mid-run
    cfg = tmp_path / "mu.ini"
    cfg.write_text(f"[sweep]\nmu_points = {points}\n")
    out = tmp_path / "out"
    assert runner.main(["report-all", "--config", str(cfg),
                        "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "config error: sweep.mu_points: birman needs >= 2 mu probes"]
    assert not out.exists()


def test_compose_grid_cap_is_the_check_compose_runs(tmp_path, monkeypatch):
    # compose's part and composition_error_experiment call one check
    seen, check = [], torus.check_compose_grid
    monkeypatch.setattr(torus, "check_compose_grid",
                        lambda grid: seen.append(grid.m) or check(grid))
    config = runner.default_config("compose")
    assert seen == [128]
    assert runner.run_experiment(config, out_dir=tmp_path)[0] == 0
    # the run builds its parts again, and the experiment checks its grid
    assert seen == [128] * 3
    with pytest.raises(ConfigError, match="limited to 256 points"):
        runner.parse_config("[grid]\ncompose_points = 512\n",
                            {"experiment.name": "compose"})
    assert seen[-1] == 512


@pytest.mark.parametrize("sweep, measured", [
    ("1e2, 1e3, 1e6", [1e2, 1e3, 1e5, 1e6]),
    ("1e2, 1e3, 1e4, 1e5", [1e2, 1e3, 1e4, 1e5]),
], ids=["past-1e5", "ending-at-1e5"])
def test_compose_puts_1e5_into_the_torus_sweep(tmp_path, sweep, measured):
    # a torus sweep that bounds and nbound take is compose's too, with 1e5
    # in order and never twice
    text = f"[sweep]\nlambdas_torus = {sweep}\n"
    runner.parse_config(text, {"experiment.name": "report-all"})
    cfg = tmp_path / "torus.ini"
    cfg.write_text(text)
    assert runner.main(["compose", "--config", str(cfg),
                        "--out", str(tmp_path)]) != 3
    rows = (tmp_path / "compose.csv").read_text().splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == measured


def test_config_check_builds_only_the_run_s_experiments(tmp_path):
    # symbols builds no interval grid, so green's 8-cell grid is not its
    # concern
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[grid]\ncells_1d = 16\n")
    assert runner.main(["symbols", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("experiment", runner.EXPERIMENTS)
def test_config_check_builds_what_the_run_builds(tmp_path, monkeypatch,
                                                 experiment):
    built = []
    for cls in (Grid1D, PolarGrid, TorusGrid, Domain1D, Domain2D):
        def spy(self, *args, _cls=cls, _init=cls.__init__):
            built.append((_cls.__name__, args))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", spy)
    config = runner.default_config(experiment, seed=1)
    parsed = Counter(built)
    built.clear()
    code, _ = runner.run_experiment(config, out_dir=tmp_path)
    assert code == 0
    assert parsed == Counter(built)
    if experiment != "symbols":
        assert parsed


def test_config_is_hashed_once(tmp_path, monkeypatch):
    config = runner.default_config("threshold", seed=1)
    calls = []
    serialize = runner.ExperimentConfig.serialize

    def counted(self):
        calls.append(1)
        return serialize(self)

    monkeypatch.setattr(runner.ExperimentConfig, "serialize", counted)
    hashes = {runner.run_experiment(config, out_dir=tmp_path / run)[1]
              ["config_hash"] for run in "ab"}
    assert len(calls) == 1
    assert hashes == {config.config_hash}


def test_domain2d_rectangle_keys_are_gone(tmp_path, capsys):
    cfg = tmp_path / "old.ini"
    cfg.write_text("[domain2d]\nlx = 4.0\n")
    out = tmp_path / "out"
    assert runner.main(["weyl", "--config", str(cfg), "--out", str(out)]) == 3
    assert "unknown key domain2d.lx" in capsys.readouterr().err
    assert not out.exists()


def test_the_solve_gate_reaches_every_solve(tmp_path, monkeypatch):
    # no solve meets a backward error of 1e-30, so every experiment that
    # solves must report the error; the rest make no band solve
    monkeypatch.setattr(kernels, "DEFAULT_SOLVE_TOL", 1e-30)
    assert runner.main(["report-all", "--out", str(tmp_path / "out")]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    verdicts = summary["experiments"]
    solving = ("rate1d", "rate2d", "green", "weyl", "birman")
    solve_free = ("symbols", "bounds", "nbound", "compose", "threshold")
    assert sorted(verdicts) == sorted(solving + solve_free)
    assert [exp for exp in solving
            if not verdicts[exp].startswith("error:")] == []
    assert [verdicts[exp] for exp in solve_free] == ["pass"] * 5


# Run in a fresh interpreter, since this one loaded scipy long ago.  The
# traced module names come from bench/tracing.py, which finds every lclab
# module in sys.modules at install, so all must load with the runner.
_LAZY_SCIPY_PROBE = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
from tracing import TRACED_FUNCTIONS, TRACED_METHODS
import lclab.runner as runner
traced = {entry[0] for entry in TRACED_FUNCTIONS + TRACED_METHODS}
unloaded = sorted(traced - set(sys.modules))
codes = {}
for exp in sys.argv[3:]:
    with tempfile.TemporaryDirectory() as out:
        codes[exp], _ = runner.run_experiment(
            runner.default_config(exp, seed=1), out_dir=out)
subs = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
        "scipy.integrate", "scipy.io")
print(json.dumps({"unloaded": unloaded, "codes": codes,
                  "scipy": [name for name in subs if name in sys.modules]}))
"""


def test_experiments_load_no_scipy_submodule():
    experiments = runner.EXPERIMENTS  # all ten, green included
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_PROBE, str(ROOT / "src"),
         str(ROOT / "bench"), *experiments],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["unloaded"] == []
    assert report["codes"] == dict.fromkeys(experiments, 0)
    assert report["scipy"] == []


# The CLI's report-all at the default config, in a fresh interpreter: the
# package docstring says no experiment loads scipy, and no experiment
# draws a random number, so neither is loaded after the run.
_RUN_PATH_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from lclab import runner
with tempfile.TemporaryDirectory() as out:
    code = runner.main(["report-all", "--out", out])
print(json.dumps({"code": code, "loaded": sorted(
    name for name in sys.modules
    if name == "numpy.random" or name.split(".")[0] == "scipy")}))
"""


def test_report_all_loads_neither_scipy_nor_numpy_random():
    proc = subprocess.run([sys.executable, "-c", _RUN_PATH_PROBE,
                           str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0,
                                                         "loaded": []}


def test_green_solves_its_fine_grid_once(tmp_path, monkeypatch):
    # two band solves (coupled and exterior) per grid of the refinement
    # pair; the interface checks reuse the fine grid's coupled solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(grids, "solve_tridiagonal", counted)
    code, _ = runner.run_experiment(runner.default_config("green", seed=1),
                                    out_dir=tmp_path)
    assert code == 0
    assert len(calls) == 4


def test_traced_experiments_leave_no_binding_and_count_rank(tmp_path,
                                                            monkeypatch):
    # the benchmark's tracer wraps the traced functions at every binding
    # site; a traced site fed the wrong shape fails here, not only in a
    # traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for exp in ("rate1d", "rate2d", "weyl"):
            tracer.reset()
            code, _ = tracer.call(
                f"runner.{exp}", runner.run_experiment,
                runner.default_config(exp, seed=1), out_dir=tmp_path / exp)
            assert code == 0
            assert tracer.unwrapped_bindings() == []
        metrics = tracer.layer_metrics(wall=1.0)
    finally:
        tracer.uninstall()
    assert metrics["counting.eigen_spectrum.s"] > 0.0
    assert metrics["counting.rank_ratio"] == 1.0
