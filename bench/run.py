"""diffnet benchmark: one workload per invocation, every output checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for why each is there): protocol_snr30,
tracking_impulsive, gate_sweep, theory_n16. Each is a closed loop from one
process with BLAS pinned to one thread: a warm-up repeat, then repeats back to
back for S seconds. The seed defaults to the config's base_seed.

--trace 0 reports the end-to-end metrics, each a median over its samples:
  units_per_s  units per second through the public pipeline, CSV export
               included; a unit is one realization on the simulation
               workloads and one theory eval on theory_n16
  setup_s      wall time of a fresh interpreter that imports diffnet and
               validates the workload's config, median of several processes
  peak_rss_mb  peak resident set of a fresh process running one repeat
--trace 1 alternates untraced and traced repeats and reports per-layer self
times per unit (medians over traced repeats), call counts per repeat, the
gate-open fraction, the set-up split and the tracing overhead. The layers are
diffnet's modules; `trace.replay` and `bench.self` hold the tracing's own cost
and the benchmark's glue, so the layers' self times sum to the traced wall.

Every time is scaled to one reference machine speed by the gauge in speed.py,
which runs a fixed kernel around each timed interval; the raw times and the
factors go to the result file.

Checks: simulation repeats must reproduce the CSV SHA-256, per-label
divergence counts and gate counts that golden.json holds for this seed (seeds
0-63, recorded by record_golden.py). For any other seed the values are
printed instead, for comparing commits on a held-out seed, and every repeat
must reproduce the first. Theory evals are checked internally (spectral radius
below 1, steady state against scipy's Lyapunov solver, transient end against
the steady state, positive step bounds) and their CSV bytes must repeat.

The last stdout line is one JSON object {correct, attempted, failed, metrics};
the full result with provenance goes to bench/out/, the spans of a traced run
beside it. Exit status: 0 all checks passed, 1 an output check failed, 2 the
checkout lacks src/diffnet or configs/. selftest.py tests this benchmark;
trajectory.py folds the results of a set of runs into bench/trajectory/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid

import benchenv
import tracing

END_TO_END = {"units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "network.drift", "noise.sample", "harness.datagen",
    "diffusion.dlms", "diffusion.dse_lms", "diffusion.dmcc", "diffusion.dlms_f", "diffusion.dllad",
    "npdlms.run", "harness.self", "harness.export",
    "theory.build_moments", "theory.step_bound", "theory.spectral_radius",
    "theory.steady_state", "theory.transient", "theory.export",
    "trace.replay", "bench.self",
)
LAYER_COUNTS = ("network.drift", "noise.sample", "harness.datagen", "diffusion.error_gain",
                "theory.spectral_radius")
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in LAYER_TIMES},
    **{f"{name}_calls": "count" for name in LAYER_COUNTS},
    "npdlms.gate_open_frac": "ratio",
    "setup.import_ms": "ms",
    "setup.config_ms": "ms",
    "trace.overhead_frac": "ratio",
}
SETUP_PROBES = 5
MIN_REPEATS = 3
PROBE_TIMEOUT_S = 60
COVERAGE_TOL_S = 1e-6


def summarize(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def probe(workload: str, seed: int, tiny: bool, repeat: bool = False):
    """(wall seconds, reported JSON) of one fresh probe process."""
    cmd = [sys.executable, str(benchenv.ROOT / "bench" / "probe.py"), workload, str(seed)]
    cmd += ["--tiny"] * tiny + ["--repeat"] * repeat
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd} exited {proc.returncode}:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def git_commit():
    if not (benchenv.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=benchenv.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(workload, seed: int, repeats: int) -> dict:
    import numpy
    import scipy
    import speed
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    config = workload.config_path
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(benchenv.BLAS_THREADS),
        "speed_reference_s": speed.REFERENCE_S,
        "config_sha256": {str(config.relative_to(benchenv.ROOT)):
                          hashlib.sha256(config.read_bytes()).hexdigest()},
        "seed": seed,
        "repeats": repeats,
        "units_per_repeat": workload.units,
    }


class Run:
    """Repeats of one workload: timings at reference speed, checks, traced layers."""

    def __init__(self, workload, expected, recorder=None):
        self.workload = workload
        self.expected = expected
        self.recorder = recorder
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.plain = []     # (raw seconds, speed factor) per untraced repeat
        self.traced = []    # (raw seconds, speed factor) per traced repeat
        self.layers = []    # {span name: raw self seconds} per traced repeat
        self.counts = []
        self.gate_open_frac = []

    def repeat(self, traced: bool = False, gauge=None) -> None:
        """One checked repeat; timed against `gauge` when one is given."""
        wl, rec = self.workload, self.recorder
        self.attempted += wl.units
        first_span = len(rec.spans) if traced else 0
        try:
            if traced:
                with tracing.instrumented(rec), rec.span(tracing.ROOT_SPAN) as root:
                    results = wl.repeat()
                seconds, factor = root[4] - root[3], gauge.factor()
            elif gauge is None:
                results = wl.repeat()
            else:
                # Gauge the speed after each part, so long repeats are scaled piecewise.
                results, seconds, scaled = [], 0.0, 0.0
                for part in wl.parts():
                    started = time.perf_counter()
                    results += part()
                    elapsed = time.perf_counter() - started
                    seconds += elapsed
                    scaled += elapsed * gauge.factor()
                factor = scaled / seconds
            record = wl.record(results)
        except Exception as exc:  # noqa: BLE001 - a raising repeat is a failed result
            self.failed += wl.units
            self.problems.append(f"repeat raised {exc!r}")
            if traced:
                rec.take_counts()
            return
        failed, problems = wl.check(record, self.expected or self.first)
        self.failed += failed
        self.problems += problems
        if self.first is None:
            self.first = record
        if gauge is None:
            return
        if traced:
            selfs = rec.self_times(first_span)
            if abs(sum(selfs.values()) - seconds) > COVERAGE_TOL_S:
                self.problems.append(f"layer self times sum to {sum(selfs.values())} s, "
                                     f"traced wall is {seconds} s")
            self.traced.append((seconds, factor))
            self.layers.append(selfs)
            self.counts.append(rec.take_counts())
            self.gate_open_frac.append(wl.gate_open_frac(record))
        else:
            self.plain.append((seconds, factor))

    def loop(self, seconds: float, trace: bool) -> None:
        import speed
        self.repeat()  # warm-up: checked, not timed
        gauge = speed.Gauge()
        deadline = time.perf_counter() + seconds
        turn = 0
        while True:
            self.repeat(traced=trace and turn % 2 == 1, gauge=gauge)
            turn += 1
            if time.perf_counter() >= deadline and turn >= MIN_REPEATS * (2 if trace else 1):
                break

    def end_to_end(self, setup, rss_mb) -> dict:
        units = self.workload.units
        return {
            "units_per_s": summarize(units / (s * f) for s, f in self.plain),
            "setup_s": summarize(s * f for s, f in setup),
            "peak_rss_mb": summarize([rss_mb]),
        }

    def per_layer(self, setup_reports) -> dict:
        units = self.workload.units
        out = {}
        for name in LAYER_TIMES:
            out[f"{name}_ms"] = summarize(layer.get(name, 0.0) * f * 1e3 / units
                                          for layer, (_, f) in zip(self.layers, self.traced))
        for name in LAYER_COUNTS:
            out[f"{name}_calls"] = summarize(counts.get(name, 0) for counts in self.counts)
        out["npdlms.gate_open_frac"] = summarize(self.gate_open_frac)
        out["setup.import_ms"] = summarize(r["import_ms"] * f for (_, f), r in setup_reports)
        out["setup.config_ms"] = summarize(r["config_ms"] * f for (_, f), r in setup_reports)
        traced = statistics.median(s * f for s, f in self.traced)
        plain = statistics.median(s * f for s, f in self.plain)
        out["trace.overhead_frac"] = summarize([traced / plain - 1.0])
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes for selftest.py; no golden values")
    args = parser.parse_args(argv)

    try:
        benchenv.prepare()
    except benchenv.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workload = workloads.make(args.workload, tiny=args.tiny)
    seed = workload.default_seed() if args.seed is None else args.seed

    gauge = speed.Gauge()
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        wall, report = probe(args.workload, seed, args.tiny)
        probes.append(((wall, gauge.factor()), report))
    rss_mb = None if args.trace else probe(args.workload, seed, args.tiny, repeat=True)[1]["peak_rss_mb"]

    expected = None
    if not args.tiny:
        golden = json.loads((benchenv.ROOT / "bench" / "golden.json").read_text())
        expected = golden.get(args.workload, {}).get(str(seed))
    run_id = f"{args.workload}-{seed}-{uuid.uuid4().hex[:12]}"
    out_dir = benchenv.OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, out_dir)
    recorder = tracing.Recorder(run_id) if args.trace else None
    run = Run(workload, expected, recorder)
    run.loop(args.seconds, bool(args.trace))

    if args.trace:
        metrics = run.per_layer(probes)
        recorder.dump(out_dir / "spans.jsonl")
    else:
        metrics = run.end_to_end([timing for timing, _ in probes], rss_mb)
    units = dict(END_TO_END, **PER_LAYER)
    correct = run.failed == 0 and not run.problems
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "checked_against": "golden.json" if expected else "first repeat",
        "outputs": workload.outputs(run.first) if run.first else None,
        "metrics": {name: dict(stats, unit=units[name]) for name, stats in metrics.items()},
        "raw_seconds_and_speed_factors": {
            "plain": run.plain, "traced": run.traced, "setup": [timing for timing, _ in probes]},
        "provenance": provenance(workload, seed, len(run.plain) + len(run.traced)),
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"bench: {args.workload} seed={seed} trace={args.trace} units/repeat={workload.units} "
          f"checked against {result['checked_against']}")
    if not expected and run.first:
        print(f"bench: outputs {json.dumps(result['outputs'])}")
    if run.traced:
        print(f"bench: layer self times sum to the traced wall time of each of "
              f"{len(run.traced)} traced repeats (tolerance {COVERAGE_TOL_S} s)")
    if run.plain:
        unscaled = statistics.median(workload.units / s for s, _ in run.plain)
        print(f"bench: unscaled units_per_s {unscaled:.6g}, median speed factor "
              f"{statistics.median(f for _, f in run.plain):.4g}")
    for problem in run.problems[:20]:
        print(f"bench: FAILED {problem}")
    for name, stats in metrics.items():
        print(f"  {name:28s} {stats['value']:.6g} {units[name]}  "
              f"(median; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}; n={stats['n']})")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": stats["value"], "unit": units[name]}
                    for name, stats in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
