#!/usr/bin/env python3
"""Run the three comparison experiments plus the threshold sweep and drop
CSVs into results/. This is `diffnet simulate` on each comparison config in
configs/ and `diffnet sweep` over eta on the threshold-sweep config.

Full scale (200 realizations each) takes a few minutes; pass --quick for a
10-realization smoke version.
"""

import argparse
import sys
from pathlib import Path

from diffnet import cli

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = [
    "stationary_gaussian_snr30",
    "stationary_alpha_stable",
    "nonstationary_alpha_stable",
]
SWEEP_VALUES = "0,100,200,300,400,600,1000"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="10 realizations instead of 200")
    parser.add_argument("--out-dir", default=ROOT / "results", type=Path)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    runs = [["simulate", name] for name in EXPERIMENTS]
    runs.append(["sweep", "threshold_sweep", "--param", "eta", "--values", SWEEP_VALUES])
    for command, name, *extra in runs:
        print(f"{name}:")
        line = [command, "--config", str(ROOT / "configs" / f"{name}.yaml"),
                "--out", str(args.out_dir / f"{name}.csv"), *extra]
        status = cli.main(line + (["--realizations", "10"] if args.quick else []))
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
