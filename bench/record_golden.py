"""Record the simulation workloads' reference outputs into golden.json.

    python3 bench/record_golden.py

Runs one repeat of each simulation workload for every seed in SEEDS and
stores its CSV SHA-256, per-label divergence counts and gate counts. Run it
only on a commit whose outputs are known good: the benchmark then holds every
later commit to exactly these bytes.
"""

import json
import sys

import benchenv

SEEDS = range(64)


def main() -> int:
    benchenv.prepare()
    import workloads

    golden = {}
    out_dir = benchenv.OUT / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name)
        if not isinstance(workload, workloads.Simulation):
            continue
        golden[name] = {}
        for seed in SEEDS:
            workload.prepare(seed, out_dir)
            record = workload.record(workload.repeat())
            failed, problems = workload.check(record, None)
            if failed:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            golden[name][str(seed)] = workload.outputs(record)
        print(f"{name}: {len(SEEDS)} seeds recorded")
    path = benchenv.ROOT / "bench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
