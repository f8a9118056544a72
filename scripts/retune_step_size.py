#!/usr/bin/env python3
"""Bisect one algorithm's step size until its steady-state MSD matches a
target. This is the recipe for "similar steady state" comparisons: pick the
anchor algorithm's steady state as the target, retune every other algorithm
to it, then compare convergence rates only.

Steady-state MSD is monotone increasing in the step size over the stable
range, which is what makes plain bisection applicable.

Example:
    python scripts/retune_step_size.py --config configs/stationary_alpha_stable.yaml \
        --algorithm dse_lms --target-db -15 --lo 0.001 --hi 0.3
"""

import argparse
import sys
from dataclasses import replace

from diffnet import harness


def steady_state_for_step(config, label, step):
    """Steady-state MSD (dB) of `label` at `step`, run alone: families are
    isolated bit for bit, so the others would not change it."""
    spec = next(spec for spec in config.algorithms if spec.label == label)
    alone = replace(config, algorithms=[replace(spec, step_size=step)], output=None)
    return harness.run_experiment(alone).steady_state_msd_db(label)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True)
    parser.add_argument("--algorithm", required=True, help="label of the algorithm to retune")
    parser.add_argument("--target-db", type=float, required=True)
    parser.add_argument("--lo", type=float, required=True, help="lower step bracket")
    parser.add_argument("--hi", type=float, required=True, help="upper step bracket")
    parser.add_argument("--tol-db", type=float, default=0.25)
    parser.add_argument("--max-iters", type=int, default=20)
    parser.add_argument("--realizations", type=int, help="override realization count")
    args = parser.parse_args(argv)

    config = harness.load_config(args.config)
    if args.realizations is not None:
        config = replace(config, realizations=args.realizations)
    if args.algorithm not in [s.label for s in config.algorithms]:
        print(f"no algorithm labelled {args.algorithm!r} in the config", file=sys.stderr)
        return 1

    lo, hi = args.lo, args.hi
    db_lo = steady_state_for_step(config, args.algorithm, lo)
    db_hi = steady_state_for_step(config, args.algorithm, hi)
    print(f"bracket: {lo:g} -> {db_lo:.2f} dB, {hi:g} -> {db_hi:.2f} dB")
    if not db_lo <= args.target_db <= db_hi:
        print("target is outside the bracket; widen --lo/--hi", file=sys.stderr)
        return 1
    step, db = lo, db_lo
    for _ in range(args.max_iters):
        step = (lo + hi) / 2.0
        db = steady_state_for_step(config, args.algorithm, step)
        print(f"step {step:.6g}: steady-state {db:.2f} dB")
        if abs(db - args.target_db) <= args.tol_db:
            break
        if db < args.target_db:
            lo = step
        else:
            hi = step
    print(f"retuned {args.algorithm}: step_size = {step:.6g} ({db:.2f} dB, "
          f"target {args.target_db:.2f} dB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
