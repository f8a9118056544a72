"""Fold the result files of bench/out into one point of the trajectory.

    python3 bench/trajectory.py LABEL

Reads every bench/out/*/result.json of a full-size run and writes
bench/trajectory/LABEL.json: for each workload and metric, the median and
quartiles across runs (one value per run, usually one run per seed), with the
seeds, correctness and provenance of the runs it folded.
"""

import json
import statistics
import sys

import benchenv


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    label = sys.argv[1]
    runs = [json.loads(path.read_text()) for path in sorted(benchenv.OUT.glob("*/result.json"))]
    runs = [run for run in runs if not run["tiny"]]
    if not runs:
        print("no full-size results under bench/out", file=sys.stderr)
        return 1
    point = {"label": label, "provenance": runs[0]["provenance"], "workloads": {}}
    for run in runs:
        prov = run["provenance"]
        entry = point["workloads"].setdefault(run["workload"], {
            "config_sha256": prov["config_sha256"], "units_per_repeat": prov["units_per_repeat"],
            "seeds": [], "correct": True, "metrics": {}})
        entry["correct"] = entry["correct"] and run["correct"]
        if prov["seed"] not in entry["seeds"]:
            entry["seeds"].append(prov["seed"])
        for name, stats in run["metrics"].items():
            metric = entry["metrics"].setdefault(name, {"unit": stats["unit"], "values": []})
            metric["values"].append(stats["value"])
    for entry in point["workloads"].values():
        entry["seeds"].sort()
        for metric in entry["metrics"].values():
            values = metric["values"]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metric.update(median=median, q1=q1, q3=q3, n=len(values),
                          spread=(q3 - q1) / abs(median) if median else 0.0)
    for key in ("seed", "repeats", "config_sha256", "units_per_repeat"):
        point["provenance"].pop(key, None)
    out = benchenv.ROOT / "bench" / "trajectory" / f"{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(benchenv.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
