"""The benchmark's workloads, driven through diffnet's public calls only.

A simulation unit is one realization: every configured algorithm on one
shared stream at one sweep value. A theory unit is one eval: moments,
per-node step bounds, steady state, transient and CSV export for one step
size. Each workload runs a fixed number of units per repeat; the runner times
repeats and checks every repeat's outputs with `check`.

Why these four: `protocol_snr30` is the paper's headline comparison, where
the baselines take most of the time; `tracking_impulsive` is the only one that
drives the ground-truth drift loop and the alpha-stable sampler, with twice
the horizon; `gate_sweep` runs the kernel-MAP update alone across the whole
range of gate-open fractions; `theory_n16` is all closed-form theory and no
simulation, with the spectral radius falling from 0.91 to 0.23 across its
step sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import scipy.linalg
import yaml

from benchenv import ROOT
from diffnet import harness, theory

SWEEP_ETA = (0, 100, 200, 300, 400, 600, 1000)
THEORY_STEPS = tuple(float(mu) for mu in np.linspace(0.02, 0.20, 10))
THEORY_N_MAX = 500
THEORY_ALGORITHM = {"kind": "npdlms", "step_size": THEORY_STEPS[0], "buffer": 3,
                    "sigma": 1.0, "h": 1.0, "delta": 0.5}
# Independent Stein solve vs the library's steady state, and the last
# transient point vs the steady state; both are relative to the steady MSD.
LYAPUNOV_RTOL = 1e-6
TRANSIENT_RTOL = 1e-6
TINY_ITERATIONS = 30
# The simulation outputs golden.json pins for each seed.
PINNED = ("csv_sha256", "diverged", "gate_opens")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Simulation:
    """A Monte-Carlo experiment run through `run_experiment` or `sweep`."""

    def __init__(self, name, config_path, realizations, sweep_values=None, tiny=False):
        self.name = name
        self.config_path = ROOT / config_path
        self.realizations = 1 if tiny else realizations
        self.sweep_values = sweep_values
        self.tiny = tiny
        self.config = None
        self.csv_path = None

    @property
    def units(self) -> int:
        return self.realizations * (len(self.sweep_values) if self.sweep_values else 1)

    def default_seed(self) -> int:
        return harness.load_config(self.config_path).base_seed

    def load(self, seed: int):
        """Set-up: the validated experiment config for this seed."""
        config = harness.load_config(self.config_path)
        overrides = {"realizations": self.realizations, "base_seed": seed}
        if self.tiny:
            overrides["iterations"] = TINY_ITERATIONS
        return replace(config, **overrides)

    def prepare(self, seed: int, out_dir) -> None:
        self.csv_path = out_dir / f"{self.name}.csv"
        config = self.load(seed)
        self.config = config if self.sweep_values else replace(config, output=str(self.csv_path))

    def parts(self) -> list:
        """The repeat as calls the runner may time apart; here only one."""
        return [self._run]

    def repeat(self) -> list:
        """One repeat, CSV export included; returns one RunResult per value."""
        return self._run()

    def _run(self) -> list:
        if not self.sweep_values:
            return [harness.run_experiment(self.config)]
        results = harness.sweep(self.config, "eta", self.sweep_values)
        harness.export_sweep_csv(self.sweep_values, results, self.csv_path)
        return results

    def record(self, results) -> dict:
        """What the repeat produced: CSV digest and shape, divergence and gate counts."""
        lines = self.csv_path.read_text().splitlines()
        gate_label = self.config.npdlms_spec().label
        return {
            "csv_sha256": _sha256(self.csv_path),
            "header": lines[0] if lines else "",
            "rows": len(lines) - 1,
            "diverged": {label: [r.diverged[label] for r in results] for label in results[0].labels},
            "gate_opens": [int(round(float(r.kappa[gate_label].sum()) * r.realizations))
                           for r in results],
        }

    def gate_open_frac(self, record) -> float:
        """Node-iterations whose gradient step was applied, over all attempted."""
        attempted = self.units * self.config.topology.node_count * self.config.iterations
        return sum(record["gate_opens"]) / attempted

    def check(self, record, expected) -> tuple:
        """(failed units, problems) of one repeat against `expected` (or None)."""
        problems = []
        labels = [spec.label for spec in self.config.algorithms]
        header = ",".join((["param_value"] if self.sweep_values else []) + ["iteration"]
                          + [f"{label}_msd_db" for label in labels])
        if record["header"] != header:
            problems.append(f"CSV header {record['header']!r} != {header!r}")
        rows = self.config.iterations * (len(self.sweep_values) if self.sweep_values else 1)
        if record["rows"] != rows:
            problems.append(f"CSV has {record['rows']} rows, expected {rows}")
        if sorted(record["diverged"]) != sorted(labels):
            problems.append(f"divergence labels {sorted(record['diverged'])} != {sorted(labels)}")
        if any(not 0 <= c <= self.realizations for counts in record["diverged"].values() for c in counts):
            problems.append(f"divergence counts out of range: {record['diverged']}")
        per_value = self.realizations * self.config.topology.node_count * self.config.iterations
        if any(not 0 <= g <= per_value for g in record["gate_opens"]):
            problems.append(f"gate counts out of range: {record['gate_opens']}")
        if expected is not None:
            for key in PINNED:
                if record[key] != expected[key]:
                    problems.append(f"{key} {record[key]} != expected {expected[key]}")
        return (self.units if problems else 0), problems

    def outputs(self, record) -> dict:
        """The pinned values of a record, as golden.json stores them."""
        return {key: record[key] for key in PINNED}


class Theory:
    """Closed-form predictions on the protocol network at delta = 0.5."""

    def __init__(self, name, config_path, tiny=False):
        self.name = name
        self.config_path = ROOT / config_path
        self.steps = THEORY_STEPS[-2:] if tiny else THEORY_STEPS
        self.n_max = 100 if tiny else THEORY_N_MAX
        self.inputs = None
        self.out_dir = None

    @property
    def units(self) -> int:
        return len(self.steps)

    def default_seed(self) -> int:
        return harness.load_config(self.config_path).base_seed

    def load(self, seed: int):
        """Set-up: validated theory inputs. The seed does not enter the theory."""
        raw = yaml.safe_load(self.config_path.read_text())
        raw["algorithms"] = [dict(THEORY_ALGORITHM)]
        return harness.theory_inputs_from_config(harness.config_from_dict(raw))

    def prepare(self, seed: int, out_dir) -> None:
        self.inputs = self.load(seed)
        self.out_dir = out_dir

    def parts(self) -> list:
        """One call per eval, so the runner can gauge machine speed between them."""
        return [partial(self._eval, i, mu) for i, mu in enumerate(self.steps)]

    def repeat(self) -> list:
        return [ev for part in self.parts() for ev in part()]

    def _eval(self, index: int, mu: float) -> list:
        n = self.inputs.topology.node_count
        inputs = replace(self.inputs, step_sizes=np.full(n, mu))
        moments = theory.build_moments(inputs)
        bounds = [theory.stepsize_upper_bound(inputs, k) for k in range(1, n + 1)]
        steady = theory.steady_state_metrics(moments)
        curves = theory.transient_curves(moments, n_max=self.n_max)
        path = self.out_dir / f"{self.name}-{index}.csv"
        harness.export_theory_csv(curves, steady, path)
        return [(mu, moments, bounds, steady, curves, path)]

    def record(self, evals) -> dict:
        out = []
        for mu, moments, bounds, steady, curves, path in evals:
            f = moments.mean_transition
            nd, d = f.shape[0], moments.dim
            xi = moments.xi_vec.reshape(nd, nd, order="F")
            y = scipy.linalg.solve_discrete_lyapunov(f, xi)
            lyapunov_msd = float(np.mean([np.trace(y[i:i + d, i:i + d]) for i in range(0, nd, d)]))
            out.append({
                "step_size": mu,
                "csv_sha256": _sha256(path),
                "csv_lines": len(path.read_text().splitlines()),
                "rho": float(np.max(np.abs(np.linalg.eigvals(f)))),
                "min_step_bound": float(min(bounds)),
                "msd": float(steady.steady_network_msd),
                "lyapunov_msd": lyapunov_msd,
                "transient_last": float(curves.network_msd[-1]),
            })
        return {"evals": out}

    def gate_open_frac(self, record) -> float:
        return 0.0

    def check(self, record, expected) -> tuple:
        """Internal checks per eval; `expected` (an earlier repeat) pins the bytes."""
        failed, problems = 0, []
        for i, ev in enumerate(record["evals"]):
            bad = []
            if not ev["rho"] < 1.0:
                bad.append(f"spectral radius {ev['rho']} >= 1")
            if not abs(ev["msd"] - ev["lyapunov_msd"]) <= LYAPUNOV_RTOL * abs(ev["lyapunov_msd"]):
                bad.append(f"steady MSD {ev['msd']} vs Lyapunov {ev['lyapunov_msd']}")
            if not abs(ev["transient_last"] - ev["msd"]) <= TRANSIENT_RTOL * abs(ev["msd"]):
                bad.append(f"transient end {ev['transient_last']} vs steady {ev['msd']}")
            if not ev["min_step_bound"] > 0.0:
                bad.append(f"per-node step bound {ev['min_step_bound']} is not positive")
            if ev["csv_lines"] != self.n_max + 3:
                bad.append(f"theory CSV has {ev['csv_lines']} lines, expected {self.n_max + 3}")
            if expected is not None and ev["csv_sha256"] != expected["evals"][i]["csv_sha256"]:
                bad.append("theory CSV bytes differ from the first repeat")
            failed += bool(bad)
            problems += [f"step {ev['step_size']:.3f}: {msg}" for msg in bad]
        return failed, problems

    def outputs(self, record) -> dict:
        """Per-eval CSV digests, printed for comparing commits."""
        return {"csv_sha256": [ev["csv_sha256"] for ev in record["evals"]]}


WORKLOADS = ("protocol_snr30", "tracking_impulsive", "gate_sweep", "theory_n16")


def make(name: str, tiny: bool = False):
    if name == "protocol_snr30":
        return Simulation(name, "configs/stationary_gaussian_snr30.yaml", 4, tiny=tiny)
    if name == "tracking_impulsive":
        return Simulation(name, "configs/nonstationary_alpha_stable.yaml", 2, tiny=tiny)
    if name == "gate_sweep":
        return Simulation(name, "configs/threshold_sweep.yaml", 1, SWEEP_ETA, tiny=tiny)
    if name == "theory_n16":
        return Theory(name, "configs/stationary_gaussian_snr30.yaml", tiny=tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
