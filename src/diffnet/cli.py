"""Command-line front end.

Subcommands: simulate, theory, compare, sweep, validate-noise.
Exit codes: 0 ok, 1 configuration error, 2 theory instability, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, noise, theory
from .errors import ConfigError, DiffnetError, InvalidParameters, UnstableSystem

CF_GRID = (0.1, 0.5, 1.0, 2.0)
THEORY_COLUMN = "theory_msd_db"
# validate-noise draws all its samples at once, about 50 bytes each at peak.
MAX_SAMPLES = 10**7


def _numbers(text: str, flag: str) -> list:
    """The comma-separated numbers given to `flag`."""
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _load(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    overrides = {"base_seed": args.seed, "realizations": args.realizations,
                 "iterations": args.iterations, "output": args.out}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    config = replace(config, **overrides) if overrides else config
    if not config.output:
        raise ConfigError(f"{args.command} needs an output path (--out or 'output' in the config)")
    if not Path(config.output).parent.is_dir():  # fail before the run, not at export time
        raise FileNotFoundError(f"no directory for the output path {config.output}")
    return config


def _cmd_simulate(args) -> int:
    config = _load(args)
    result = harness.run_experiment(config)
    for label in result.labels:
        note = f" ({result.diverged[label]}/{result.realizations} diverged)" if result.diverged[label] else ""
        print(f"{label}: steady-state MSD {result.steady_state_msd_db(label):.2f} dB{note}")
    print(f"wrote {config.output} in {result.wall_time_s:.1f}s")
    return 0


def _theory_curves(config: harness.ExperimentConfig):
    inputs = harness.theory_inputs_from_config(config)
    moments = theory.build_moments(inputs)
    steady = theory.steady_state_metrics(moments)
    curves = theory.transient_curves(moments, n_max=config.iterations)
    return curves, steady


def _cmd_theory(args) -> int:
    config = _load(args)
    curves, steady = _theory_curves(config)
    harness.export_theory_csv(curves, steady, config.output)
    print(f"steady-state MSD {theory.to_db(steady.steady_network_msd):.2f} dB, "
          f"EMSE {theory.to_db(steady.steady_network_emse):.2f} dB")
    print(f"wrote {config.output}")
    return 0


def _cmd_compare(args) -> int:
    config = _load(args)
    out_path = config.output
    # The columns and the theory come first, so either fails before the simulation runs.
    harness.csv_columns([spec.label for spec in config.algorithms], [THEORY_COLUMN])
    curves, steady = _theory_curves(config)
    print(f"theory steady-state MSD {theory.to_db(steady.steady_network_msd):.2f} dB")
    result = harness.run_experiment(replace(config, output=None))
    harness.export_csv(result, out_path, {THEORY_COLUMN: theory.to_db(curves.network_msd)[1:]})
    for label in result.labels:
        print(f"{label}: steady-state MSD {result.steady_state_msd_db(label):.2f} dB")
    print(f"wrote {out_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    values = _numbers(args.values, "--values")
    if not values:
        raise ConfigError("--values must list at least one number")
    results = harness.sweep(config, args.param, values)
    harness.export_sweep_csv(values, results, config.output)
    npdlms_label = config.npdlms_spec().label
    for value, result in zip(values, results):
        kappa = result.kappa_mean(npdlms_label)
        print(f"{args.param}={value:g}: kappa={kappa:.1f}, "
              f"steady-state MSD {result.steady_state_msd_db(npdlms_label):.2f} dB")
    print(f"wrote {config.output}")
    return 0


def _cmd_validate_noise(args) -> int:
    parts = _numbers(args.spec, "--spec")
    if len(parts) != 4:
        raise ConfigError("--spec must be 'alpha,beta,gamma,delta'")
    if not 1 <= args.samples <= MAX_SAMPLES or args.seed < 0:
        raise ConfigError(f"--samples must lie in [1, {MAX_SAMPLES}] and --seed be >= 0, "
                          f"got {args.samples} and {args.seed}")
    try:
        spec = noise.AlphaStable(*parts)
    except InvalidParameters as exc:
        raise ConfigError(f"--spec: {exc}") from exc
    samples = noise.sample(spec, np.random.default_rng(args.seed), args.samples)
    lines = ["t,re_emp,im_emp,re_theory,im_theory"]
    for t in CF_GRID:
        emp = noise.empirical_characteristic_function(samples, t)
        ref = noise.characteristic_function(spec, t)
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (t, emp.real, emp.imag, ref.real, ref.imag))
    if args.out:
        harness._write_lines(args.out, lines)
        print(f"wrote {args.out}")
    else:
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--out", help="output CSV path (overrides 'output' in the config)")
        p.add_argument("--seed", type=int, help="override base_seed")
        p.add_argument("--realizations", type=int, help="override realization count")
        p.add_argument("--iterations", type=int, help="override iteration count")

    p = sub.add_parser("simulate", help="run the configured algorithms, export MSD curves")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("theory", help="closed-form MSD/EMSE predictions")
    add_common(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("compare",
                       help="simulate plus the theory overlay; needs a config the theory models")
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="sweep one kernel-MAP parameter")
    add_common(p)
    p.add_argument("--param", required=True, choices=harness.SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate-noise", help="empirical vs closed-form characteristic function")
    p.add_argument("--spec", required=True, help="alpha,beta,gamma,delta")
    p.add_argument("--samples", type=int, default=10**6,
                   help=f"number of draws, 1 to {MAX_SAMPLES} (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_validate_noise)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnstableSystem as exc:
        print(f"theory instability: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except DiffnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
