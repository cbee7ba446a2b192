"""Experiment orchestration: config parsing, artifacts, pass/fail gates.

Config files use a small INI-like grammar: ``[section]`` headers,
``key = value`` pairs, ``#`` comments.  Every violation is collected and
reported at once; unknown keys get a closest-match suggestion.  Each
run writes CSV data plus ``summary.json`` carrying the schema version,
the config hash, the tolerances applied, and one verdict per criterion;
identical config + seed reproduce the artifacts byte for byte.  Only
``birman`` reads the seed (``counting.birman_synthetic_check`` draws
its random instances from it); every other experiment computes its
numbers exactly and gives the same CSV data at any seed.

Exit codes: 0 pass, 1 fail or error, 2 inconclusive, 3 config error;
``report-all`` runs every experiment and exits with the worst verdict.
"""

import argparse
import difflib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import counting as ct
from . import coupling as cp
from . import torus as tr
from .errors import ConfigError, InconclusiveError, LabError
from .geometry import Domain1D, Domain2D, flat_chart
from .grids import Grid1D, PolarGrid
from .symbols import (IDENTITY_SYMBOL, class_membership_estimate, eta_symbol,
                      flat_ntd_symbol, flat_transmission_symbol, make_symbol)

SCHEMA_VERSION = 1

EXPERIMENTS = ("rate1d", "rate2d", "green", "symbols", "bounds", "nbound",
               "compose", "weyl", "birman", "threshold", "report-all")

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
    "birman_violations": 0,
    "birman_disk_slack": 2,
    "threshold_decade_factor": 1.5,
}

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
        "lx": ("float", 4.0),
        "ly": ("float", 4.0),
        "center_x": ("float", 2.0),
        "center_y": ("float", 2.0),
        "radius": ("float", 1.0),
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
    "tolerances": {
        "solve_tol": ("float", 1e-10),
    },
    "output": {
        "dir": ("str", "out"),
    },
}


@dataclass
class ExperimentConfig:
    values: dict
    text: str

    def __getitem__(self, key):
        section, name = key.split(".")
        return self.values[section][name]

    def seed(self):
        return self["experiment.seed"]

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
    violation found (not just the first)."""
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
                section = None
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected key = value")
            continue
        if section is None:
            violations.append(f"line {lineno}: key outside any known section")
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
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(values=values, text=text)


def _validate(values, violations):
    exp = values["experiment"]
    if exp["name"] not in EXPERIMENTS:
        hint = difflib.get_close_matches(exp["name"], EXPERIMENTS, 1)
        extra = f" (did you mean {hint[0]}?)" if hint else ""
        violations.append(f"experiment.name: unknown experiment "
                          f"{exp['name']!r}{extra}")
    if not 0 <= exp["seed"] < 2 ** 64:
        violations.append("experiment.seed: must fit in a u64")
    d1 = values["domain1d"]
    if not (0 < d1["a1"] < d1["a2"] < d1["length"]):
        violations.append("domain1d: need 0 < a1 < a2 < length")
    d2 = values["domain2d"]
    if d2["radius"] <= 0:
        violations.append("domain2d.radius: must be positive")
    for key in ("lambdas", "lambdas_2d", "lambdas_torus"):
        lams = values["sweep"][key]
        if any(l <= 0 for l in lams):
            violations.append(f"sweep.{key}: entries must be positive")
        elif any(b <= a for a, b in zip(lams, lams[1:])):
            violations.append(f"sweep.{key}: must be strictly increasing")
    if values["sweep"]["lam"] < 1:
        violations.append("sweep.lam: single-coupling experiments need lam >= 1")
    if not 0 < values["tolerances"]["solve_tol"] <= 1e-6:
        violations.append("tolerances.solve_tol: must lie in (0, 1e-6]")
    n = values["grid"]["cells_1d"]
    h_ratio1 = d1["a1"] / d1["length"] * n
    h_ratio2 = d1["a2"] / d1["length"] * n
    if abs(h_ratio1 - round(h_ratio1)) > 1e-9 or \
            abs(h_ratio2 - round(h_ratio2)) > 1e-9:
        violations.append("grid.cells_1d: inclusion endpoints must land on "
                          "grid nodes")
    for key in ("torus_points", "compose_points"):
        m = values["grid"][key]
        if m < 8 or m & (m - 1):
            violations.append(f"grid.{key}: must be a power of two >= 8")


def default_config(experiment="rate1d", seed=None):
    overrides = {"experiment.name": experiment}
    if seed is not None:
        overrides["experiment.seed"] = int(seed)
    return parse_config("", overrides=overrides)


# ---------------------------------------------------------------------------
# artifact helpers


class _Artifacts:
    def __init__(self, out_dir, config):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.criteria = []
        self.data = {}
        self.shared = {}   # results that experiments of this run share
        # one hash of the config and of the windows serves every file
        self.config_hash = config.config_hash()
        self.tolerances = {k: list(v) if isinstance(v, tuple) else v
                           for k, v in TOLERANCES.items()}
        tag = hashlib.sha256(json.dumps(self.tolerances, sort_keys=True)
                             .encode()).hexdigest()[:8]
        self.csv_header = (f"# schema={SCHEMA_VERSION}"
                           f" config={self.config_hash} tolerances={tag}\n")

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
            "config_hash": self.config_hash,
            "seed": self.config.seed(),
            "tolerances": self.tolerances,
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


def _domain1d(config):
    return Domain1D(config["domain1d.length"], config["domain1d.a1"],
                    config["domain1d.a2"])


def _domain2d(config):
    return Domain2D(config["domain2d.lx"], config["domain2d.ly"],
                    (config["domain2d.center_x"], config["domain2d.center_y"]),
                    config["domain2d.radius"])


# ---------------------------------------------------------------------------
# experiments


def _run_rate1d(config, art, dump=False):
    domain = _domain1d(config)
    grid = Grid1D(domain, config["grid.cells_1d"] * 2)
    lambdas = config["sweep.lambdas"]
    exact = cp.convergence_rate_fit_exact_1d(domain, lambdas)
    fit = cp.convergence_rate_fit(grid, lambdas,
                                  tol=config["tolerances.solve_tol"])
    if dump:
        grid.assemble_coupled(lambdas[0]).export_matrix_market(
            art.out / "coupled_matrix.mtx")
        grid.assemble_exterior().export_matrix_market(
            art.out / "exterior_matrix.mtx")
    art.write_csv("rate1d", ["lambda", "norm_discrete", "norm_exact"],
                  list(zip(lambdas, fit.y, exact.y)))
    art.data["rate1d"] = {"slope_discrete": fit.slope,
                          "slope_exact": exact.slope,
                          "r_squared": fit.r_squared}
    _require_conclusive("rate fit r^2 below 0.95", fit, exact)
    ok = art.check("rate1d.exact_slope", exact.slope,
                   TOLERANCES["rate1d_exact_slope"])
    ok &= art.check("rate1d.discrete_slope", fit.slope,
                    TOLERANCES["rate1d_discrete_slope"])
    return ok


def _run_rate2d(config, art, dump=False):
    grid = PolarGrid(_domain2d(config), config["grid.radial_ext"] * 2,
                     config["grid.angular"] * 2)
    lambdas = config["sweep.lambdas_2d"]
    fit = cp.convergence_rate_fit(grid, lambdas,
                                  tol=config["tolerances.solve_tol"])
    if dump:
        grid.assemble_exterior().export_matrix_market(
            art.out / "exterior_matrix_2d.mtx")
    art.write_csv("rate2d", ["lambda", "norm_discrete"],
                  list(zip(lambdas, fit.y)))
    art.data["rate2d"] = {"slope": fit.slope, "r_squared": fit.r_squared}
    _require_conclusive("2D rate fit r^2 below 0.95", fit)
    return art.check("rate2d.slope", fit.slope, TOLERANCES["rate2d_slope"])


def _run_green(config, art, dump=False):
    domain = _domain1d(config)
    lam, tol = config["sweep.lam"], config["tolerances.solve_tol"]
    n = config["grid.cells_1d"]
    reports = {}
    for cells in (n // 2, n):
        grid = Grid1D(domain, cells)
        f, g = cp.green_test_fields(grid)
        reports[cells] = cp.green_identity_check(grid, lam, f, g, tol=tol)
    coarse, fine = reports[n // 2], reports[n]
    rows = [(cells, *rep.as_tuple()) for cells, rep in sorted(reports.items())]
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
    n_mat = cp.ntd_matrix_1d(lam, domain.inclusion_length)
    rel = float(np.abs(g0 - n_mat @ g1).max() / np.abs(g0).max())
    ok &= art.check("green.ntd_consistency", rel,
                    TOLERANCES["ntd_consistency_rel"])
    u_nl = cp.nonlocal_bc_solve(grid, lam, f, tol=tol)
    u_tr = grid.restrict(u)
    disc = float(np.linalg.norm(u_nl - u_tr) / np.linalg.norm(u_tr))
    ok &= art.check("green.nonlocal_discrepancy", disc,
                    TOLERANCES["nonlocal_discrepancy_rel"])
    return ok


def _run_symbols(config, art, dump=False):
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


def _run_bounds(config, art, dump=False):
    grid = tr.TorusGrid(config["grid.torus_points"])
    lambdas = config["sweep.lambdas_torus"]
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


def _run_nbound(config, art, dump=False):
    grid = tr.TorusGrid(config["grid.torus_points"])
    lambdas = config["sweep.lambdas_torus"]
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


def _run_compose(config, art, dump=False):
    grid = tr.TorusGrid(config["grid.compose_points"])
    lambdas = tuple(list(config["sweep.lambdas_torus"]) + [1e5])
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


def _disk_spectrum(config, art):
    """The E_lam spectrum and ||S|| on the disk grid, which weyl and
    birman share: computed once per ``run_experiment`` call, whose
    ``_Artifacts`` holds them."""
    if "disk" not in art.shared:
        grid = PolarGrid(_domain2d(config), config["grid.radial_ext"],
                         config["grid.angular"])
        lam, tol = config["sweep.lam"], config["tolerances.solve_tol"]
        art.shared["disk"] = (ct.eigen_spectrum(grid, lam, tol=tol),
                              ct.trace_map_norm(grid, tol=tol))
    return art.shared["disk"]


def _run_weyl(config, art, dump=False):
    lam = config["sweep.lam"]
    radius = config["domain2d.radius"]
    model = ct.circle_model_exponent_fit(radius, lam)
    _require_conclusive("circle model count fit inconclusive", model)
    ok = art.check("weyl.circle_model_slope", model.slope,
                   TOLERANCES["weyl_circle_slope"])
    eigs, s_norm = _disk_spectrum(config, art)
    # not gated: the top decade is a multiplicity-2 staircase (r^2 0.874)
    fit = ct.weyl_exponent_fit(eigs)
    ok &= art.check("weyl.disk_slope", fit.slope,
                    TOLERANCES["weyl_disk_slope"])
    rows = [(mu, count, ct.circle_count_prediction(radius, lam,
                                                   mu / s_norm ** 2))
            for mu, count in zip(fit.x, fit.y)]
    art.write_csv("weyl", ["mu", "count_empirical", "weyl_rhs"], rows)
    art.data["weyl"] = {"circle_slope": model.slope,
                        "disk_slope": fit.slope, "s_norm": s_norm}
    return ok


def _run_birman(config, art, dump=False):
    violations = ct.birman_synthetic_check(100, seed=config.seed())
    ok = art.check("birman.synthetic_violations", violations,
                   TOLERANCES["birman_violations"])
    lam = config["sweep.lam"]
    eigs, s_norm = _disk_spectrum(config, art)
    top = float(np.abs(eigs).max())
    mu_grid = np.geomspace(top / 100.0, top, config["sweep.mu_points"])[::-1]
    rows = ct.birman_disk_check(eigs, s_norm, config["domain2d.radius"], lam,
                                mu_grid, slack=TOLERANCES["birman_disk_slack"])
    art.write_csv("birman",
                  ["mu", "count_difference", "count_circle", "holds"],
                  [(r["mu"], r["count_difference"], r["count_circle"],
                    r["holds"]) for r in rows])
    holds = all(r["holds"] for r in rows)
    ok &= art.criterion("birman.disk_inequality", holds, holds)
    art.data["birman"] = {"s_norm": s_norm, "violations": violations}
    return ok


def _run_threshold(config, art, dump=False):
    domain = _domain1d(config)
    norm_fn = lambda lams: cp.difference_norm_exact_1d(domain, lams)
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


_RUNNERS = {
    "rate1d": _run_rate1d,
    "rate2d": _run_rate2d,
    "green": _run_green,
    "symbols": _run_symbols,
    "bounds": _run_bounds,
    "nbound": _run_nbound,
    "compose": _run_compose,
    "weyl": _run_weyl,
    "birman": _run_birman,
    "threshold": _run_threshold,
}


def run_experiment(config, out_dir=None, dump_matrices=False):
    """Run one experiment (or the full battery) and write its artifacts.

    Every experiment runs whatever the others did; its verdict ("pass",
    "fail", "inconclusive" or "error: <message>") goes under
    ``experiments`` in ``summary.json``.  Returns (exit_code, summary):
    1 if any failed or raised a LabError, else 2 if any was
    inconclusive, else 0.
    """
    name = config["experiment.name"]
    out = Path(out_dir if out_dir is not None else config["output.dir"])
    art = _Artifacts(out, config)
    verdicts = {}
    for exp in (list(_RUNNERS) if name == "report-all" else [name]):
        try:
            passed = _RUNNERS[exp](config, art, dump=dump_matrices)
            verdicts[exp] = "pass" if passed else "fail"
        except InconclusiveError as err:
            print(f"[INCONCLUSIVE] {exp}: {err}")
            verdicts[exp] = "inconclusive"
        except LabError as err:
            print(f"[ERROR] {exp}: {err}", file=sys.stderr)
            verdicts[exp] = f"error: {err}"
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
