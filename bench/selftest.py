"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Smoke-runs every workload at tiny size through run.py, untraced and
   traced, and requires exit status 0, `correct`, and printed metric names
   equal to the end_to_end / per_layer names in BENCHMARK.json.
2. Alters one byte of a simulation CSV, then one divergence count, and
   requires each to be caught and counted as failed units.
3. Runs run.py from a bare copy holding only BENCHMARK.json and bench/, and
   requires a non-zero exit without a result line.
"""

import json
import shutil
import subprocess
import sys

import benchenv

TINY_SECONDS = "0.5"
RUN_TIMEOUT_S = 170


def run_bench(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", TINY_SECONDS, "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_smoke_runs(workloads) -> list:
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(benchenv.ROOT, name, trace)
            if proc.returncode != 0:
                errors.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{name} trace {trace}: {result}")
            if set(result["metrics"]) != names[trace]:
                errors.append(f"{name} trace {trace}: metrics {sorted(result['metrics'])} "
                              f"!= BENCHMARK.json {sorted(names[trace])}")
    return errors


class Tampered:
    """A workload whose repeats are altered after the program produced them."""

    def __init__(self, inner, alter):
        self.inner = inner
        self.alter = alter

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def repeat(self):
        results = self.inner.repeat()
        self.alter(self.inner, results)
        return results


def flip_csv_byte(workload, results):
    data = bytearray(workload.csv_path.read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] = ord("1") if data[last_digit] == ord("0") else ord("0")
    workload.csv_path.write_bytes(bytes(data))


def bump_divergence_count(workload, results):
    label = results[0].labels[0]
    results[0].diverged[label] += 1


def check_tampering(workloads) -> list:
    import run

    errors = []
    out_dir = benchenv.OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make("protocol_snr30", tiny=True)
    workload.prepare(5, out_dir)
    reference = workload.record(workload.repeat())
    clean = run.Run(workload, reference)
    clean.repeat()
    if clean.failed or clean.problems:
        errors.append(f"untouched repeat failed: {clean.problems}")
    for alter in (flip_csv_byte, bump_divergence_count):
        tampered = run.Run(Tampered(workload, alter), reference)
        tampered.repeat()
        if tampered.failed != workload.units or not tampered.problems:
            errors.append(f"{alter.__name__} not caught: failed={tampered.failed}")
    return errors


def check_bare_copy() -> list:
    bare = benchenv.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(benchenv.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "protocol_snr30", 0)
    shutil.rmtree(bare)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    benchenv.prepare()
    import workloads

    errors = check_smoke_runs(workloads) + check_tampering(workloads) + check_bare_copy()
    for error in errors:
        print(f"selftest: FAILED {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
