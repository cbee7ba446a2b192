"""Time-to-verdict benchmark of the ``lclab`` experiment battery.

Run from the repository root:

    python3 bench/run.py --workload disk-spectrum --seed 1 --seconds 30 \
        --trace 0

Each workload is a fixed group of ``report-all`` experiments, run
closed-loop and sequentially in this one process through the public
runner API (``default_config`` with the seed, then ``run_experiment``).
One warm-up iteration is followed by measured iterations until
``--seconds`` have passed.  ``wall_s`` is the fastest measured iteration:
the program is deterministic, and on a shared host whose speed changes
in phases lasting minutes the median of a run's few iterations follows
the phase (it spread 23% over ten disk-spectrum runs, the minimum 12%).
The median and, when enough iterations ran, a tail percentile are
printed and recorded beside it.  Every iteration's ``summary.json`` and CSV
files are hashed; a verdict other than PASS, or artifacts that differ
from the warm-up's or from an earlier run with the same seed and the
same source tree, counts as a failure.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
``tracing.Tracer``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# BLAS/OpenMP threads, pinned before numpy is first imported: with two
# OpenBLAS threads on a 2-core machine rate2d ran 1.5x slower and weyl
# was noisier than with one.
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

WORKLOADS = {
    # dense path: ~8.3k cached solves densify E_lam, then a 2048^2 eigh
    "disk-spectrum": ("weyl", "birman"),
    # many factorizations with few solves, power-iteration lambda sweeps
    "coupling-sweep": ("rate1d", "rate2d", "green", "threshold"),
    # scalar symbol calls and dense quadrature; no sparse solve at all
    "symbol-calculus": ("symbols", "bounds", "nbound", "compose"),
}

# criterion values below this size (a slope that should be 0, say) drift
# in absolute rather than relative terms
DRIFT_FLOOR = 1e-12

# fresh interpreters timed per run; set-up time is their median
SETUP_SPAWNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import lclab.runner as r; "
              "[r.default_config(e, seed=int(sys.argv[2])) "
              "for e in sys.argv[3:]]")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)


def _environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "pinned_threads": PINNED_THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_revision": revision}


def _source_key(env):
    """Identity of the program for the cross-run determinism check."""
    digest = hashlib.sha256(f"{env['numpy']} {env['scipy']}".encode())
    for path in sorted((SRC / "lclab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _measure_setup(seed, experiments):
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(seed),
                        *experiments], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _digest(out_dir):
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "summary.json" or path.suffix == ".csv":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _criteria(summary):
    """Criterion values of one experiment; repeated names get #2, #3..."""
    values = {}
    for crit in summary["criteria"]:
        key, n = crit["name"], 1
        while key in values:
            n += 1
            key = f"{crit['name']}#{n}"
        values[key] = float(crit["value"])
    return values


Iteration = collections.namedtuple(
    "Iteration", "wall exp_walls statuses digests criteria")


class Workload:
    """The experiments of one workload, with configs parsed once."""

    def __init__(self, name, seed, runner, lab_error):
        self.name = name
        self.experiments = WORKLOADS[name]
        self.runner = runner
        self.lab_error = lab_error
        self.configs = {exp: runner.default_config(exp, seed=seed)
                        for exp in self.experiments}
        self.work = WORK / name

    def iterate(self, tracer=None):
        """Run every experiment once.

        A status is the runner's exit code, or None when a LabError
        escaped it.
        """
        for exp in self.experiments:
            shutil.rmtree(self.work / exp, ignore_errors=True)
        statuses, summaries, exp_walls = {}, {}, {}
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for exp, config in self.configs.items():
                out = self.work / exp
                exp_start = time.perf_counter()
                try:
                    if tracer is None:
                        status, summary = self.runner.run_experiment(
                            config, out_dir=out)
                    else:
                        status, summary = tracer.call(
                            f"runner.{exp}", self.runner.run_experiment,
                            config, out_dir=out)
                except self.lab_error as err:
                    print(f"{exp}: {err}", file=sys.stderr)
                    status, summary = None, None
                statuses[exp], summaries[exp] = status, summary
                exp_walls[exp] = time.perf_counter() - exp_start
            wall = time.perf_counter() - start
        digests = {exp: _digest(self.work / exp) if summaries[exp] else None
                   for exp in self.experiments}
        criteria = {}
        for exp in self.experiments:
            if summaries[exp]:
                criteria.update(_criteria(summaries[exp]))
        return Iteration(wall, exp_walls, statuses, digests, criteria)


class Verdicts:
    """Failure count: verdicts other than PASS plus artifacts that differ
    from the reference digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.notes = []

    def record(self, it):
        for exp, status in it.statuses.items():
            self.attempted += 1
            if status != 0:
                self.failed += 1
                self.notes.append(f"{exp}: status {status}")
        if self.reference is None:
            self.reference = it.digests
            return
        self.compare(self.reference, it.digests, "within the run")

    def compare(self, reference, digests, where):
        for exp, digest in digests.items():
            if digest != reference.get(exp):
                self.failed += 1
                self.notes.append(f"{exp}: artifacts differ {where}")


def _check_across_runs(verdicts, workload, seed, source_key):
    """Compare the reference digests with those of an earlier run of the
    same workload, seed and source tree, or store them for a later run."""
    path = WORK / "digests" / f"{workload}-seed{seed}-{source_key}.json"
    if path.exists():
        verdicts.compare(json.loads(path.read_text()), verdicts.reference,
                         "from an earlier run with the same seed")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(verdicts.reference, sort_keys=True))
    os.replace(tmp, path)


def _value_drift(workload, seed, criteria):
    """Largest relative change of a criterion value against
    ``baseline.json``, and which of its entries was compared."""
    if not BASELINE.exists():
        return 0.0, "none"
    entry = json.loads(BASELINE.read_text())["workloads"].get(workload)
    if entry is None:
        return 0.0, "none"
    by_seed = entry["criteria"]["by_seed"]
    if str(seed) in by_seed:
        ref, which = by_seed[str(seed)], f"seed {seed}"
    else:
        ref, which = entry["criteria"]["seed_independent"], "seed-independent"
    drift = 0.0
    for name, base in ref.items():
        if name not in criteria:
            drift = max(drift, 1.0)
            continue
        drift = max(drift, abs(criteria[name] - base)
                    / max(abs(base), DRIFT_FLOOR))
    return drift, which


def _tail_percentile(walls):
    """The highest of p99, p95, p90, p75 with ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(walls) * (100 - pct) >= 1000:
            return pct, statistics.quantiles(walls, n=100)[pct - 1]
    return None


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "lclab" / "runner.py").is_file():
        print(f"no lclab source under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import lclab.runner as runner
    from lclab.errors import LabError
    from tracing import Tracer

    env = _environment()
    experiments = WORKLOADS[args.workload]
    workload = Workload(args.workload, args.seed, runner, LabError)
    verdicts = Verdicts()

    warm_up = workload.iterate()
    verdicts.record(warm_up)
    _check_across_runs(verdicts, args.workload, args.seed, _source_key(env))

    untraced, traced, layer_samples, leaks = [], [], [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    elapsed = round_s = 0.0
    # measure for --seconds, skipping a last round that would overrun them
    while not untraced or elapsed + round_s <= args.seconds:
        round_start = time.perf_counter()
        untraced.append(workload.iterate())
        verdicts.record(untraced[-1])
        if tracer is not None:
            tracer.install()
            try:
                leaks += tracer.unwrapped_bindings()
                traced.append(workload.iterate(tracer))
            finally:
                tracer.uninstall()
            verdicts.record(traced[-1])
            layer_samples.append(tracer.layer_metrics(traced[-1].wall))
            tracer.reset()
        round_s = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
    walls = [it.wall for it in untraced]
    traced_walls = [it.wall for it in traced]
    criteria = warm_up.criteria

    fail_ratio = verdicts.failed / verdicts.attempted
    drift, drift_base = _value_drift(args.workload, args.seed, criteria)
    if args.trace:
        metrics = {key: statistics.median([s[key] for s in layer_samples])
                   for key in layer_samples[0]}
        metrics["trace.overhead_s"] = min(traced_walls) - min(walls)
        metrics["check.max_value_drift_rel"] = drift
        metrics["check.fail_ratio"] = fail_ratio
    else:
        setup = _measure_setup(args.seed, experiments)
        metrics = {
            "wall_s": min(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for leak in leaks:
        print(f"traced function escaped the wrapper at {leak}",
              file=sys.stderr)
    correct = verdicts.failed == 0 and not leaks

    tail = _tail_percentile(walls)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "iterations": len(walls), "walls_s": walls,
        "experiment_walls_s": {exp: [it.exp_walls[exp] for it in untraced]
                               for exp in experiments},
        "wall_median_s": statistics.median(walls), "wall_s_tail": tail,
        "traced_walls_s": traced_walls,
        "setup_samples_s": [] if args.trace else setup,
        "fail_ratio": fail_ratio, "failure_notes": verdicts.notes,
        "criteria": criteria, "value_drift_baseline": drift_base,
        "metrics": metrics,
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} measured iterations after one warm-up, fastest "
          f"{min(walls):.6g} s, median {statistics.median(walls):.6g} s, " +
          (f"p{tail[0]} {tail[1]:.6g} s" if tail else
           "no percentile with ten samples beyond it"))
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"criteria: {json.dumps(criteria, sort_keys=True)}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {_unit(key)}")
    print(f"  fail_ratio = {fail_ratio:.6g} 1 "
          f"({verdicts.failed} of {verdicts.attempted} experiments)")
    print(f"  correct = {str(correct).lower()}")
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {key: {"value": value, "unit": _unit(key)}
                    for key, value in metrics.items()},
    }))
    return 0


def _unit(key):
    if key == "peak_rss_mb":
        return "MiB"
    if key.endswith((".s", "_s")):
        return "s"
    if key.endswith((".calls", ".actions", ".evals", ".max_dim")):
        return "count"
    return "1"


if __name__ == "__main__":
    sys.exit(main())
