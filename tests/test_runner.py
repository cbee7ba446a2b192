import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.io

from lclab import ConvergenceError, InconclusiveError, grids, runner
from lclab.kernels import solve_tridiagonal

ROOT = Path(__file__).resolve().parent.parent


def _passes(config, art, dump=False):
    return art.criterion("fake.pass", 1.0, True)


def _fails(config, art, dump=False):
    return art.criterion("fake.fail", 0.0, False)


def _inconclusive(config, art, dump=False):
    raise InconclusiveError("fit too noisy")


def _raises(config, art, dump=False):
    raise ConvergenceError("solve diverged")


def _report_all(monkeypatch, tmp_path, fakes):
    monkeypatch.setattr(runner, "_RUNNERS", fakes)
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
    def flat(grid, lambdas, tol):
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
    # birman draws its random instances from the seed; the rest use none
    seedless = ("rate1d", "rate2d", "green", "symbols", "bounds", "nbound",
                "compose", "weyl", "threshold")
    every = seedless + ("birman",)
    runs = {}
    for run, seed, experiments in (("a", 1, every), ("b", 1, every),
                                   ("c", 57, seedless)):
        for exp in experiments:
            out = tmp_path / run / exp
            code, _ = runner.run_experiment(
                runner.default_config(exp, seed=seed), out_dir=out)
            assert code == 0
            runs[run, exp] = {p.name: p.read_bytes() for p in out.iterdir()}
    for exp in every:
        first = runs["a", exp]
        assert set(first) == {f"{exp}.csv", "summary.json"}
        assert runs["b", exp] == first
    for exp in seedless:
        # the CSV header names the config hash, which covers the seed;
        # every row below it is the same at any seed
        header, rows = runs["a", exp][f"{exp}.csv"].split(b"\n", 1)
        other_header, other_rows = runs["c", exp][f"{exp}.csv"].split(b"\n", 1)
        assert other_rows == rows
        assert header.split(b" config=")[0] == \
            other_header.split(b" config=")[0]


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
    cfg = tmp_path / "old.ini"
    cfg.write_text("[tolerances]\npower_tol = 1e-8\n")
    assert runner.main(["rate1d", "--config", str(cfg)]) == 3
    assert "unknown key tolerances.power_tol" in capsys.readouterr().err


def test_solve_tol_reaches_every_solve(tmp_path):
    # no solve meets a backward error of 1e-30, so every experiment that
    # solves must report the error; the rest never read the setting
    cfg = tmp_path / "strict.ini"
    cfg.write_text("[tolerances]\nsolve_tol = 1e-30\n")
    assert runner.main(["report-all", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 1
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
subs = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
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
