"""Experiment orchestration: config parsing, artifacts, pass/fail gates.

Config files use a small INI-like grammar: ``[section]`` headers,
``key = value`` pairs, ``#`` comments.  Every violation is collected and
reported at once; unknown keys get a closest-match suggestion.  Each
run writes CSV data plus ``summary.json`` carrying the schema version,
the config hash, the tolerances applied, and one verdict per criterion;
identical config + seed reproduce the artifacts byte for byte.  No
experiment reads the seed or draws a random number: the seed changes
only the config hash and the ``seed`` field of ``summary.json``.

A config error covers every grid and sweep the run uses, checked by the
run's own rules: each experiment is one row of ``_TABLE``, its parts and a
run.  A part maps the config to a tuple of the objects it builds (a
domain, grids or a sweep), or raises ConfigError naming the keys that set
them; the run takes the objects of every part, in order.  Each part is
checked apart, so no part's violation hides another's.

Exit codes: 0 pass, 1 fail or error, 2 inconclusive, 3 config error;
``report-all`` runs every experiment and exits with the worst verdict.
"""

import argparse
import difflib
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import counting as ct
from . import coupling as cp
from . import torus as tr
from .errors import ConfigError, InconclusiveError, LabError
from .geometry import Domain1D, Domain2D, flat_chart
from .grids import Grid1D, PolarGrid
from .interface import difference_norm_exact_1d, ntd_matrix_1d
from .kernels import check_sweep
from .symbols import (IDENTITY_SYMBOL, class_membership_estimate, eta_symbol,
                      flat_ntd_symbol, flat_transmission_symbol, make_symbol)

SCHEMA_VERSION = 1

# acceptance windows, pinned once and embedded in every artifact
TOLERANCES = {
    "rate1d_exact_slope": (-0.52, -0.48),
    "rate1d_discrete_slope": (-0.55, -0.45),
    "rate2d_slope": (-0.6, -0.4),
    "green_residual_max": 1e-6,
    "green_ratio_window": (3.5, 4.5),
    "ntd_consistency_rel": 1e-4,
    "nonlocal_discrepancy_rel": 1e-4,
    "bound_exponent_abs_err": 0.1,
    "nbound_exponent_abs_err": 0.07,
    "compose_exponent_max": -0.9,
    "weyl_circle_slope": (-1.05, -0.95),
    "weyl_disk_slope": (-1.25, -0.8),
    "birman_disk_slack": 2,
    "threshold_decade_factor": 1.5,
}
# the windows as summary.json lists them, and the hash each CSV header
# carries: taken once, since the windows never change
_TOLERANCES_JSON = {k: list(v) if isinstance(v, tuple) else v
                    for k, v in TOLERANCES.items()}
_TOLERANCES_TAG = hashlib.sha256(json.dumps(_TOLERANCES_JSON, sort_keys=True)
                                 .encode()).hexdigest()[:8]

_SCHEMA = {
    "experiment": {
        "name": ("str", "rate1d"),
        "seed": ("int", 7),
    },
    "domain1d": {
        "length": ("float", 1.0),
        "a1": ("float", 0.3125),
        "a2": ("float", 0.6875),
    },
    "domain2d": {
        "radius": ("float", 1.0),
        "outer_radius": ("float", 2.0),
    },
    "grid": {
        "cells_1d": ("int", 2048),
        "radial_ext": ("int", 32),
        "angular": ("int", 64),
        "torus_points": ("int", 1024),
        "compose_points": ("int", 128),
    },
    "sweep": {
        "lambdas": ("floats", (1e2, 1e3, 1e4, 1e5, 1e6)),
        "lambdas_2d": ("floats", tuple(10.0 ** e for e in
                                       (1.0, 1.75, 2.5, 3.25, 4.0))),
        "lambdas_torus": ("floats", tuple(10.0 ** e for e in
                                          (2.0, 2.5, 3.0, 3.5, 4.0, 4.5))),
        "lam": ("float", 1e3),
        "mu_points": ("int", 20),
    },
    "output": {
        "dir": ("str", "out"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    def __getitem__(self, key):
        section, name = key.split(".")
        return self.values[section][name]

    def serialize(self):
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                val = self.values[section][key]
                if isinstance(val, tuple):
                    val = ",".join(f"{v:.17g}" for v in val)
                elif isinstance(val, float):
                    val = f"{val:.17g}"
                lines.append(f"{key} = {val}")
            lines.append("")
        return "\n".join(lines)

    @cached_property
    def config_hash(self):
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def _coerce(raw, kind, where, violations):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return str(raw)
    except ValueError:
        violations.append(f"{where}: cannot parse {raw!r} as {kind}")
        return None


def parse_config(text, overrides=None):
    """Parse and validate config text; raise ConfigError with every
    violation found (not just the first).  Each part of each experiment
    the run executes is called, and what it builds thrown away."""
    violations = []
    values = {s: {k: default for k, (_, default) in keys.items()}
              for s, keys in _SCHEMA.items()}
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                hint = difflib.get_close_matches(section, _SCHEMA.keys(), 1)
                extra = f" (did you mean [{hint[0]}]?)" if hint else ""
                violations.append(f"line {lineno}: unknown section "
                                  f"[{section}]{extra}")
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected key = value")
            continue
        if section not in _SCHEMA:   # an unknown header is reported once
            if section is None:
                violations.append(f"line {lineno}: key before any section")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            hint = difflib.get_close_matches(key, _SCHEMA[section].keys(), 1)
            extra = f" (did you mean {hint[0]}?)" if hint else ""
            violations.append(f"line {lineno}: unknown key "
                              f"{section}.{key}{extra}")
            continue
        kind = _SCHEMA[section][key][0]
        val = _coerce(raw, kind, f"line {lineno}: {section}.{key}", violations)
        if val is not None:
            values[section][key] = val

    for skey, sval in (overrides or {}).items():
        section, key = skey.split(".")
        values[section][key] = sval

    _validate(values, violations)
    config = ExperimentConfig(values=values)
    for _, parts, _ in _rows(config["experiment.name"]):
        for part in parts:
            try:
                part(config)
            except ConfigError as err:
                violations += [v for v in err.violations
                               if v not in violations]
    if violations:
        raise ConfigError(violations)
    return config


def _validate(values, violations):
    exp = values["experiment"]
    if exp["name"] not in EXPERIMENTS:
        hint = difflib.get_close_matches(exp["name"], EXPERIMENTS, 1)
        extra = f" (did you mean {hint[0]}?)" if hint else ""
        violations.append(f"experiment.name: unknown experiment "
                          f"{exp['name']!r}{extra}")
    if not 0 <= exp["seed"] < 2 ** 64:
        violations.append("experiment.seed: must fit in a u64")
    if not 1 <= values["sweep"]["lam"] < np.inf:   # NaN fails both
        violations.append("sweep.lam: single-coupling experiments need "
                          "lam >= 1 and finite")
    if values["sweep"]["mu_points"] < 2:   # birman probes top / 100 .. top
        violations.append("sweep.mu_points: birman needs >= 2 mu probes")


def default_config(experiment="rate1d", seed=None):
    overrides = {"experiment.name": experiment}
    if seed is not None:
        overrides["experiment.seed"] = int(seed)
    return parse_config("", overrides=overrides)


# ---------------------------------------------------------------------------
# artifact helpers


class _Artifacts:
    def __init__(self, out_dir, config, dump=False):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.dump = dump   # export the assembled matrices beside the data
        self.criteria = []
        self.data = {}
        self.shared = {}   # results that experiments of this run share
        self.csv_header = (f"# schema={SCHEMA_VERSION} "
                           f"config={config.config_hash} "
                           f"tolerances={_TOLERANCES_TAG}\n")

    def criterion(self, name, value, ok, window=None):
        self.criteria.append({"name": name, "value": value,
                              "window": window, "pass": bool(ok)})
        verdict = "PASS" if ok else "FAIL"
        win = f" window={window}" if window is not None else ""
        print(f"[{verdict}] {name}: {_fmt(value)}{win}")
        return ok

    def check(self, name, value, window):
        """Gate on an inclusive (lo, hi) window or a scalar upper bound."""
        lo, hi = window if isinstance(window, tuple) else (-np.inf, window)
        return self.criterion(name, value, lo <= value <= hi, window)

    def write_csv(self, name, header, rows):
        path = self.out / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write(self.csv_header)
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    def finish(self, experiment, status, verdicts):
        summary = {
            "schema_version": SCHEMA_VERSION,
            "experiment": experiment,
            "experiments": verdicts,
            "config_hash": self.config.config_hash,
            "seed": self.config["experiment.seed"],
            "tolerances": _TOLERANCES_JSON,
            "criteria": self.criteria,
            "data": self.data,
            "status": status,
        }
        with open(self.out / "summary.json", "w") as fh:
            fh.write(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return summary


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _require_conclusive(message, *fits):
    """Raise InconclusiveError(message) unless every fit is conclusive."""
    if not all(fit.conclusive for fit in fits):
        raise InconclusiveError(message)


# ---------------------------------------------------------------------------
# experiments: parts, each config -> the objects it builds, and a run


def _built(keys, make, *args):
    """``make(*args)``, a LabError raised as the config violation of
    ``keys``, the config keys that set the object."""
    try:
        return make(*args)
    except LabError as err:
        raise ConfigError(f"{keys}: {err}") from None


def _interval(config, *cells):
    """The interval domain, then a ``Grid1D`` of each size in ``cells``."""
    domain = _built("domain1d", Domain1D, config["domain1d.length"],
                    config["domain1d.a1"], config["domain1d.a2"])
    return (domain,
            *(_built("grid.cells_1d", Grid1D, domain, n) for n in cells))


def _disk(config, scale=1):
    """The disk ``PolarGrid``, ``scale`` times as fine as configured."""
    domain = _built("domain2d", Domain2D, config["domain2d.radius"],
                    config["domain2d.outer_radius"])
    return (_built("grid.radial_ext, grid.angular", PolarGrid, domain,
                   scale * config["grid.radial_ext"],
                   scale * config["grid.angular"]),)


def _run_rate1d(config, art, domain, grid, lambdas):
    exact = cp.convergence_rate_fit_exact_1d(domain, lambdas)
    fit = cp.convergence_rate_fit(grid, lambdas)
    if art.dump:
        grid.assemble_coupled(lambdas[0]).export_matrix_market(
            art.out / "coupled_matrix.mtx")
        grid.assemble_exterior().export_matrix_market(
            art.out / "exterior_matrix.mtx")
    art.write_csv("rate1d", ["lambda", "norm_discrete", "norm_exact"],
                  list(zip(lambdas, fit.y, exact.y)))
    art.data["rate1d"] = {"slope_discrete": fit.slope,
                          "slope_exact": exact.slope,
                          "r_squared": fit.r_squared}
    _require_conclusive(f"rate fit r^2 below {cp.MIN_RATE_R_SQUARED}", fit,
                        exact)
    ok = art.check("rate1d.exact_slope", exact.slope,
                   TOLERANCES["rate1d_exact_slope"])
    ok &= art.check("rate1d.discrete_slope", fit.slope,
                    TOLERANCES["rate1d_discrete_slope"])
    return ok


def _run_rate2d(config, art, grid, lambdas):
    fit = cp.convergence_rate_fit(grid, lambdas)
    if art.dump:
        grid.assemble_exterior().export_matrix_market(
            art.out / "exterior_matrix_2d.mtx")
    art.write_csv("rate2d", ["lambda", "norm_discrete"],
                  list(zip(lambdas, fit.y)))
    art.data["rate2d"] = {"slope": fit.slope, "r_squared": fit.r_squared}
    _require_conclusive(f"2D rate fit r^2 below {cp.MIN_RATE_R_SQUARED}",
                        fit)
    return art.check("rate2d.slope", fit.slope, TOLERANCES["rate2d_slope"])


def _run_green(config, art, domain, coarse_grid, grid):
    lam = config["sweep.lam"]
    reports = {}
    for each in (coarse_grid, grid):
        f, g = cp.green_test_fields(each)
        reports[each.n] = cp.green_identity_check(each, lam, f, g)
    coarse, fine = reports.values()
    rows = [(cells, *rep.as_tuple()) for cells, rep in reports.items()]
    art.write_csv("green", ["cells", "res_i", "res_ii", "res_iii", "res_iv"],
                  rows)
    art.data["green"] = {"fine": fine.as_tuple(), "coarse": coarse.as_tuple()}
    worst = max(fine.as_tuple())
    ok = art.check("green.residual_max", worst,
                   TOLERANCES["green_residual_max"])
    for label, idx in (("i", 0), ("ii", 1)):
        ratio = coarse.as_tuple()[idx] / fine.as_tuple()[idx]
        ok &= art.check(f"green.refinement_ratio_{label}", ratio,
                        TOLERANCES["green_ratio_window"])

    # interface condition against the exact operator, on the fine grid's
    # coupled solve, the one its identities were measured on
    u = fine.coupled
    g0 = grid.trace_gamma0(u)
    g1 = grid.trace_gamma1(u, "exterior")
    n_mat = ntd_matrix_1d(lam, domain.inclusion_length)
    rel = float(np.abs(g0 - n_mat @ g1).max() / np.abs(g0).max())
    ok &= art.check("green.ntd_consistency", rel,
                    TOLERANCES["ntd_consistency_rel"])
    u_nl = cp.nonlocal_bc_solve(grid, lam, f)
    u_tr = grid.restrict(u)
    disc = float(np.linalg.norm(u_nl - u_tr) / np.linalg.norm(u_tr))
    ok &= art.check("green.nonlocal_discrepancy", disc,
                    TOLERANCES["nonlocal_discrepancy_rel"])
    return ok


def _run_symbols(config, art):
    flat = flat_chart()
    eta = make_symbol(lambda xp, xip, lam: eta_symbol(flat, xp, xip, lam),
                      1.0, kind="P", x_support_radius=0.0)
    cases = [
        ("ntd_in_P_minus_1", flat_ntd_symbol(), -1.0, 2, True),
        ("transmission_in_P0_1", flat_transmission_symbol(), 0.0, 1, True),
        ("root_in_P1", eta, 1.0, 2, True),
        ("root_declared_P0_fails", eta, 0.0, 1, False),
    ]
    rows, ok = [], True
    for name, sym, order, k, expect_pass in cases:
        report = class_membership_estimate(sym, order, k)
        rows.append((name, order, k, report.passed,
                     max(report.growth_slopes.values())))
        ok &= art.criterion(f"symbols.{name}", report.passed,
                            report.passed == expect_pass, expect_pass)
    art.write_csv("symbols",
                  ["case", "order", "k", "passed", "max_growth_slope"], rows)
    return ok


def _run_bounds(config, art, grid, lambdas):
    cases = [
        ("ntd_half_to_half", flat_ntd_symbol(), -1.0, 0.5, -0.5),
        ("identity_order0", IDENTITY_SYMBOL, 0.0, 0.5, 0.5),
        ("ntd_one_to_zero", flat_ntd_symbol(), -1.0, 1.0, 0.0),
    ]
    rows, ok = [], True
    for name, sym, m, r, s in cases:
        fit = tr.operator_bound_experiment(grid, sym, m, r, s, lambdas)
        rows.append((name, m, r, s, fit.slope, fit.expected, fit.r_squared))
        _require_conclusive(f"bound fit {name} inconclusive", fit)
        tol = TOLERANCES["bound_exponent_abs_err"]
        ok &= art.check(f"bounds.{name}", fit.slope,
                        (fit.expected - tol, fit.expected + tol))
    art.write_csv("bounds",
                  ["case", "m", "r", "s", "slope", "expected", "r_squared"],
                  rows)
    return ok


def _run_nbound(config, art, grid, lambdas):
    fits = tr.ntd_bound_experiment(grid, (0.0, 0.5, 1.0, 1.5), lambdas)
    rows, ok = [], True
    for s, fit in sorted(fits.items()):
        rows.append((s, fit.slope, fit.expected, fit.r_squared, fit.flat))
        _require_conclusive(f"nbound fit s={s} inconclusive", fit)
        tol = TOLERANCES["nbound_exponent_abs_err"]
        ok &= art.check(f"nbound.s_{s:g}", fit.slope,
                        (fit.expected - tol, fit.expected + tol))
    art.write_csv("nbound", ["s", "slope", "expected", "r_squared", "flat"],
                  rows)
    return ok


def _run_compose(config, art, grid, lambdas):
    a, b, da, dxb = tr.default_composition_symbols()
    rem, comp = tr.composition_error_experiment(
        grid, a, b, da, dxb, 1.0, -1.0, 0.5, lambdas)
    art.write_csv("compose", ["lambda", "remainder_ratio", "composition_ratio"],
                  list(zip(lambdas, rem.y, comp.y)))
    art.data["compose"] = {"remainder_slope": rem.slope,
                           "corollary_slope": comp.slope,
                           "r_squared": rem.r_squared}
    _require_conclusive("composition remainder fit inconclusive", rem)
    return art.check("compose.remainder_slope", rem.slope,
                     TOLERANCES["compose_exponent_max"])


def _disk_spectrum(config, art, grid):
    """The E_lam spectrum and ||S|| on the disk grid, which weyl and
    birman share: computed once per ``run_experiment`` call, whose
    ``_Artifacts`` holds them."""
    if "disk" not in art.shared:
        art.shared["disk"] = (ct.eigen_spectrum(grid, config["sweep.lam"]),
                              ct.trace_map_norm(grid))
    return art.shared["disk"]


def _run_weyl(config, art, grid):
    lam = config["sweep.lam"]
    radius = config["domain2d.radius"]
    model = ct.circle_model_exponent_fit(radius, lam)
    _require_conclusive("circle model count fit inconclusive", model)
    ok = art.check("weyl.circle_model_slope", model.slope,
                   TOLERANCES["weyl_circle_slope"])
    eigs, s_norm = _disk_spectrum(config, art, grid)
    # not gated: the top decade is a multiplicity-2 staircase (r^2 0.874)
    fit = ct.weyl_exponent_fit(eigs)
    ok &= art.check("weyl.disk_slope", fit.slope,
                    TOLERANCES["weyl_disk_slope"])
    rhs = ct.circle_count_prediction(radius, lam, fit.x / s_norm ** 2)
    art.write_csv("weyl", ["mu", "count_empirical", "weyl_rhs"],
                  zip(fit.x, fit.y, rhs))
    art.data["weyl"] = {"circle_slope": model.slope,
                        "disk_slope": fit.slope, "s_norm": s_norm}
    return ok


def _run_birman(config, art, grid):
    lam = config["sweep.lam"]
    eigs, s_norm = _disk_spectrum(config, art, grid)
    top = float(np.abs(eigs).max())
    mu_grid = np.geomspace(top / 100.0, top, config["sweep.mu_points"])[::-1]
    rows = ct.birman_disk_check(eigs, s_norm, config["domain2d.radius"], lam,
                                mu_grid, slack=TOLERANCES["birman_disk_slack"])
    art.write_csv("birman",
                  ["mu", "count_difference", "count_circle", "holds"],
                  [(r["mu"], r["count_difference"], r["count_circle"],
                    r["holds"]) for r in rows])
    holds = all(r["holds"] for r in rows)
    art.data["birman"] = {"s_norm": s_norm}
    return art.criterion("birman.disk_inequality", holds, holds)


def _run_threshold(config, art, domain):
    norm_fn = lambda lams: difference_norm_exact_1d(domain, lams)
    base = norm_fn(1.0)
    mus = [base * 1e-2, base * 1e-3, base * 1e-4]
    thresholds = cp.counting_zero_threshold(norm_fn, mus)
    art.write_csv("threshold", ["mu", "lambda0"],
                  list(zip(mus, thresholds)))
    factor = TOLERANCES["threshold_decade_factor"]
    ratios = [hi / lo for lo, hi in zip(thresholds, thresholds[1:])]
    ok = all([art.check("threshold.mu_decade_ratio", ratio,
                        (100.0 / factor, 100.0 * factor))
              for ratio in ratios])
    art.data["threshold"] = {"thresholds": thresholds, "ratios": ratios}
    return ok


# one row per experiment: (parts, run), run(config, art, *objects) with
# the objects of every part, in order
_TORUS = (lambda config: (_built("grid.torus_points", tr.TorusGrid,
                                 config["grid.torus_points"]),),
          lambda config: (_built("sweep.lambdas_torus", check_sweep,
                                 config["sweep.lambdas_torus"]),))
_TABLE = {
    "rate1d": ((lambda config: _interval(config, 2 * config["grid.cells_1d"]),
                lambda config: (_built("sweep.lambdas", cp._check_sweep,
                                       config["sweep.lambdas"]),)),
               _run_rate1d),
    "rate2d": ((lambda config: _disk(config, 2),
                lambda config: (_built("sweep.lambdas_2d", cp._check_sweep,
                                       config["sweep.lambdas_2d"]),)),
               _run_rate2d),
    "green": ((lambda config: _interval(config, config["grid.cells_1d"] // 2,
                                        config["grid.cells_1d"]),),
              _run_green),
    "symbols": ((), _run_symbols),
    "bounds": (_TORUS, _run_bounds),
    "nbound": (_TORUS, _run_nbound),
    # compose caps its grid, and adds 1e5 to the torus sweep if not in it
    "compose": ((lambda config: (_built(
                    "grid.compose_points",
                    lambda points: tr.check_compose_grid(tr.TorusGrid(points)),
                    config["grid.compose_points"]),),
                 lambda config: (np.array(sorted(
                     {*_TORUS[1](config)[0].tolist(), 1e5})),)),
                _run_compose),
    "weyl": ((_disk,), _run_weyl),
    "birman": ((_disk,), _run_birman),
    "threshold": ((_interval,), _run_threshold),
}
EXPERIMENTS = (*_TABLE, "report-all")


def _rows(name):
    """(experiment, parts, run) for each experiment that a run of ``name``
    executes, in order; none for an unknown name."""
    names = list(_TABLE) if name == "report-all" else [name]
    return [(exp, *_TABLE[exp]) for exp in names if exp in _TABLE]


def run_experiment(config, out_dir=None, dump_matrices=False):
    """Run one experiment (or the full battery) and write its artifacts.

    Every experiment runs whatever the others did; its verdict ("pass",
    "fail", "inconclusive" or "error: <message>") goes under
    ``experiments`` in ``summary.json``; an exception other than a
    LabError is recorded as "error: <type>: <message>".  Returns
    (exit_code, summary): 1 if any failed or raised, else 2 if any was
    inconclusive, else 0.
    """
    name = config["experiment.name"]
    out = Path(out_dir if out_dir is not None else config["output.dir"])
    art = _Artifacts(out, config, dump=dump_matrices)
    verdicts = {}
    for exp, parts, run in _rows(name):
        try:
            passed = run(config, art,
                         *(obj for part in parts for obj in part(config)))
            verdicts[exp] = "pass" if passed else "fail"
        except InconclusiveError as err:
            print(f"[INCONCLUSIVE] {exp}: {err}")
            verdicts[exp] = "inconclusive"
        except Exception as err:  # a fault in one run spares the others
            text = (str(err) if isinstance(err, LabError)
                    else f"{type(err).__name__}: {err}")
            print(f"[ERROR] {exp}: {text}", file=sys.stderr)
            if not isinstance(err, LabError):  # a program fault: show where
                import traceback
                traceback.print_exc()
            verdicts[exp] = f"error: {text}"
    outcomes = {v.split(":")[0] for v in verdicts.values()}
    status = 1 if outcomes & {"fail", "error"} \
        else 2 if "inconclusive" in outcomes else 0
    return status, art.finish(name, status, verdicts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lclab",
        description="Large-coupling laboratory experiment runner")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None,
                        help="config file ([section] / key = value / #)")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default: config output.dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.seed")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="export assembled matrices as Matrix Market "
                        "(.mtx) files")
    args = parser.parse_args(argv)

    overrides = {"experiment.name": args.experiment}
    if args.seed is not None:
        overrides["experiment.seed"] = args.seed
    try:
        text = args.config.read_text() if args.config else ""
        config = parse_config(text, overrides=overrides)
    except ConfigError as err:
        for line in err.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    status, _ = run_experiment(config, out_dir=args.out,
                               dump_matrices=args.dump_matrices)
    return status


if __name__ == "__main__":
    sys.exit(main())
