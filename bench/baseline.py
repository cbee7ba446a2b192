"""Fold the run records of ``bench/run.py`` into ``bench/baseline.json``.

Run from the repository root after a series of ``bench/run.py`` runs:

    python3 bench/baseline.py

For each workload the baseline holds the median and quartiles of every
end-to-end metric over the untraced runs, the median of every per-layer
metric over the traced runs, and the criterion values per seed.  A
criterion whose value is the same on every recorded seed is also listed
as seed-independent, which is what ``run.py`` compares against on a seed
that has no entry of its own.  The seeds used while the benchmark or a
change was developed are listed, so a claim can be rechecked on a seed
outside them (``held_out_seeds`` were never run for the baseline).
"""

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_work" / "records"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

HELD_OUT_SEEDS = [9001, 9002, 9003, 9004, 9005]
# seeds run while the benchmark was tuned, outside the recorded series
# (0-59 and the large ones include a sweep of compose alone)
TUNING_SEEDS = list(range(60)) + [77, 99, 31337, 123456789, 2 ** 32, 10 ** 18,
                                  2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
SAME_VALUE_REL = 1e-9


def _summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values)}


def _seed_independent(by_seed):
    seeds = sorted(by_seed)
    if len(seeds) < 2:
        return {}
    first = by_seed[seeds[0]]
    out = {}
    for name, value in first.items():
        scale = max(abs(value), 1e-12)
        if all(name in by_seed[s] and
               abs(by_seed[s][name] - value) <= SAME_VALUE_REL * scale
               for s in seeds[1:]):
            out[name] = value
    return out


def build(records):
    workloads = {}
    for rec in records:
        entry = workloads.setdefault(rec["workload"], {
            "untraced": [], "traced": [], "criteria": {}})
        entry["untraced" if rec["trace"] == 0 else "traced"].append(rec)
        entry["criteria"][rec["seed"]] = rec["criteria"]
    out = {}
    for name, entry in sorted(workloads.items()):
        untraced, traced = entry["untraced"], entry["traced"]
        e2e = {}
        if untraced:
            for key in untraced[0]["metrics"]:
                e2e[key] = _summary([r["metrics"][key] for r in untraced])
            for key in ("wall_median_s", "fail_ratio"):
                e2e[key] = _summary([r[key] for r in untraced])
        layers = {}
        if traced:
            layers = {key: statistics.median(r["metrics"][key] for r in traced)
                      for key in traced[0]["metrics"]}
        by_seed = entry["criteria"]
        out[name] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "seconds": sorted({r["seconds"] for r in untraced + traced}),
            "criteria": {
                "by_seed": {str(s): by_seed[s] for s in sorted(by_seed)},
                "seed_independent": _seed_independent(by_seed),
            },
        }
    env = records[-1]["environment"]
    dev_seeds = sorted({r["seed"] for r in records} | set(TUNING_SEEDS))
    return {"environment": env, "dev_seeds": dev_seeds,
            "held_out_seeds": [s for s in HELD_OUT_SEEDS
                               if s not in dev_seeds],
            "workloads": out}


def main():
    records = [json.loads(p.read_text())
               for p in sorted(RECORDS.glob("*.json"))]
    if not records:
        raise SystemExit(f"no run records in {RECORDS}")
    BASELINE.write_text(json.dumps(build(records), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {BASELINE} from {len(records)} records")


if __name__ == "__main__":
    main()
