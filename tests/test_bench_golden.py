"""The benchmark's simulation workloads reproduce bench/golden.json, and its
theory workload passes its internal checks.

Each simulation workload runs one repeat in-process at its config's
base_seed, through bench/workloads.py, and its CSV digest, divergence counts
and gate counts are checked against golden.json as bench/run.py checks every
repeat. None of the CLI digests in test_cli.py runs these shapes (R = 4,
R = 2, and seven eta values at R = 1). One `theory_n16` repeat goes through
the same checks as every benchmark repeat. This reads bench/ and changes
nothing there.

Like the CLI digests, the golden values hold for the numpy / scipy-openblas
build they were recorded on: with OPENBLAS_CORETYPE=Haswell this test fails
as those digests do.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())
SIMULATIONS = [name for name in workloads.WORKLOADS if name != "theory_n16"]


@pytest.mark.parametrize("name", SIMULATIONS)
def test_workload_reproduces_golden_outputs(name, tmp_path):
    workload = workloads.make(name)
    seed = workload.default_seed()
    workload.prepare(seed, tmp_path)
    record = workload.record(workload.repeat())
    assert workload.check(record, GOLDEN[name][str(seed)]) == (0, [])


def test_theory_workload_passes_its_checks(tmp_path):
    """One `theory_n16` repeat passes the benchmark's theory gate: spectral
    radius below 1, the steady MSD against scipy's Lyapunov solve, the
    transient's end against the steady state, positive step bounds and the
    CSV length."""
    workload = workloads.make("theory_n16")
    workload.prepare(workload.default_seed(), tmp_path)
    assert workload.check(workload.record(workload.repeat()), None) == (0, [])
