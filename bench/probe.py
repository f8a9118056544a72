"""Fresh-process probe: set-up time split, and peak memory of one repeat.

    python3 bench/probe.py WORKLOAD SEED [--tiny] [--repeat]

Prints one JSON line: `import_ms` (import diffnet) and `config_ms` (load and
validate the workload's config) and, with --repeat, `peak_rss_mb` after one
repeat of the workload. The parent times the whole process for `setup_s`.
"""

import argparse
import json
import resource
import sys
import time

import benchenv


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    benchenv.prepare()
    started = time.perf_counter()
    import diffnet  # noqa: F401
    imported = time.perf_counter()
    import workloads
    workload = workloads.make(args.workload, tiny=args.tiny)
    workload.load(args.seed)
    loaded = time.perf_counter()
    out = {"import_ms": (imported - started) * 1e3, "config_ms": (loaded - imported) * 1e3}
    if args.repeat:
        probe_dir = benchenv.OUT / "probe"
        probe_dir.mkdir(parents=True, exist_ok=True)
        workload.prepare(args.seed, probe_dir)
        workload.record(workload.repeat())
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
