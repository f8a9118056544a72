"""Command-line interface: subcommands, outputs, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from diffnet import noise
from diffnet.cli import MAX_SAMPLES, main
from conftest import small_config_dict


def write_config(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_validate_noise_stdout(capsys):
    code = main(["validate-noise", "--spec", "1.2,0,1,0", "--samples", "20000"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,re_emp,im_emp,re_theory,im_theory"
    assert len(lines) == 5
    row = lines[3].split(",")
    assert float(row[0]) == 1.0
    assert abs(float(row[3]) - 0.36787944117144233) < 1e-12


def test_validate_noise_bad_spec():
    assert main(["validate-noise", "--spec", "1.2,0", "--samples", "10"]) == 1


def test_simulate_writes_csv_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_dict(iterations=10, realizations=2))
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "iteration,dlms_msd_db"


def test_simulate_without_output_is_config_error(tmp_path):
    cfg = write_config(tmp_path, small_config_dict())
    assert main(["simulate", "--config", cfg]) == 1


def test_negative_seed_is_config_error(tmp_path, capsys):
    # It used to spend the draws and exit 1 with "realizations failed".
    cfg = write_config(tmp_path, small_config_dict())
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "base_seed" in err
    assert not out.exists()


@pytest.mark.parametrize("output", [True, 2], ids=["boolean", "integer"])
def test_non_string_output_is_config_error(tmp_path, capsys, output):
    # `open` took these as file descriptors: stdout was written and closed, or
    # the CSV went to stderr.
    cfg = write_config(tmp_path, small_config_dict(output=output))
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and "output" in captured.err
    assert not captured.out


BAD_NUMBERS = {
    "spec-text": ["validate-noise", "--spec", "a,b,c,d"],
    "samples-negative": ["validate-noise", "--spec", "1.2,0,1,0", "--samples", "-1"],
    "samples-zero": ["validate-noise", "--spec", "1.2,0,1,0", "--samples", "0"],
    "seed-negative": ["validate-noise", "--spec", "1.2,0,1,0", "--samples", "10", "--seed", "-1"],
    "spec-alpha-out-of-range": ["validate-noise", "--spec", "3,0,1,0", "--samples", "10"],
    "spec-alpha-nan": ["validate-noise", "--spec", "nan,0,1,0", "--samples", "10"],
    "values-text": ["sweep", "--param", "eta", "--values", "1,abc"],
    "values-out-of-range": ["sweep", "--param", "eta", "--values", "-1"],
}


@pytest.mark.parametrize("case", BAD_NUMBERS, ids=list(BAD_NUMBERS))
def test_bad_numeric_argument_is_config_error(tmp_path, capsys, case):
    # Each used to end in a traceback, print NaN rows, or report a plain error.
    args = BAD_NUMBERS[case]
    if args[0] == "sweep":
        raw = small_config_dict(iterations=5, algorithms=[{"kind": "npdlms", "step_size": 0.05}])
        args = args + ["--config", write_config(tmp_path, raw), "--out", str(tmp_path / "s.csv")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert not captured.out


def test_validate_noise_samples_ceiling_is_checked_before_drawing(monkeypatch, capsys):
    # 10**11 samples used to end in a numpy out-of-memory traceback.
    def no_draw(*args, **kwargs):
        raise AssertionError("validate-noise drew samples past its ceiling")

    monkeypatch.setattr(noise, "sample", no_draw)
    for samples in (MAX_SAMPLES + 1, 10**11):
        assert main(["validate-noise", "--spec", "1.2,0,1,0", "--samples", str(samples)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and str(MAX_SAMPLES) in captured.err
        assert not captured.out
    with pytest.raises(SystemExit):
        main(["validate-noise", "--help"])
    assert str(MAX_SAMPLES) in capsys.readouterr().out


def test_bad_config_exit_code(tmp_path):
    # A section that is not a mapping, such as `algorithms: [dlms]`, used to end
    # in an AttributeError traceback. `gate`, `mode` and `slope` are unknown keys.
    for overrides in ({"algorithms": []}, {"algorithms": ["dlms"]}, {"noise": "gaussian"},
                      {"environment": "stationary"}, {"gate": {"eta": 0.0}},
                      {"algorithms": [{"kind": "npdlms", "step_size": 0.05, "mode": "hard"}]},
                      {"algorithms": [{"kind": "npdlms", "step_size": 0.05, "slope": 5.0}]}):
        cfg = write_config(tmp_path, small_config_dict(**overrides))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1, overrides


def test_theory_subcommand(tmp_path, capsys):
    raw = small_config_dict(iterations=40,
                            algorithms=[{"kind": "npdlms", "step_size": 0.02, "delta": 0.25}])
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "theory.csv"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,msd_theory_db,emse_theory_db"
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("steady_state,")
    assert len(lines) == 1 + 41 + 1  # header, n = 0..40, summary


def test_theory_unstable_exit_code(tmp_path):
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 5.0, "delta": 0.25}])
    cfg = write_config(tmp_path, raw)
    assert main(["theory", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 2


def test_io_error_exit_code(tmp_path, monkeypatch, capsys):
    """An output path without a directory exits 3 before any realization runs."""
    from diffnet import harness

    def no_run(*args, **kwargs):
        raise AssertionError("ran realizations for an output that cannot be written")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    monkeypatch.setattr(harness, "sweep", no_run)
    cfg = write_config(tmp_path, small_config_dict(iterations=5, algorithms=NPDLMS_ONLY))
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    for command in (["simulate"], ["compare"], ["sweep", "--param", "eta", "--values", "0,1"]):
        assert main(command + ["--config", cfg, "--out", str(missing_dir)]) == 3, command
        assert capsys.readouterr().err.startswith("i/o error:")
    assert not missing_dir.parent.exists()


def test_compare_with_theory_overlay(tmp_path, capsys):
    raw = small_config_dict(iterations=15, realizations=2, algorithms=[
        {"kind": "dlms", "step_size": 0.05},
        {"kind": "npdlms", "step_size": 0.02, "delta": 0.25},
    ])
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,dlms_msd_db,npdlms_msd_db,theory_msd_db"
    assert len(lines) == 16


def test_sweep_subcommand(tmp_path, capsys):
    raw = small_config_dict(iterations=8, realizations=1,
                            algorithms=[{"kind": "npdlms", "step_size": 0.05, "eta": 0.0}])
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--param", "eta", "--values", "0,5"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param_value,iteration,npdlms_msd_db"
    assert len(lines) == 1 + 2 * 8


def test_cli_override_flags(tmp_path):
    cfg = write_config(tmp_path, small_config_dict(iterations=30, realizations=3))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--iterations", "4", "--realizations", "1", "--seed", "9"]) == 0
    assert len(out.read_text().splitlines()) == 5


NPDLMS_ONLY = [{"kind": "npdlms", "step_size": 0.02, "delta": 0.25}]
# Configurations the moment theory does not model: it must refuse them rather
# than print the stationary, always-updating CTA prediction.
UNMODELLED = {
    "atc": {"strategy": "atc"},
    "random-walk": {"environment": {"kind": "random_walk", "q_variance": 1e-4}},
    "gate-eta-positive": {"algorithms": [{**NPDLMS_ONLY[0], "eta": 0.05}]},
    "alpha-stable-noise": {"noise": {"kind": "alpha_stable", "alpha": 1.2, "beta": 0.0, "gamma": 1.0}},
    "no-npdlms": {"algorithms": [{"kind": "dlms", "step_size": 0.05}]},
}


@pytest.mark.parametrize("case", UNMODELLED)
def test_theory_and_compare_refuse_unmodelled_config(tmp_path, case):
    raw = small_config_dict(**{"iterations": 10, "algorithms": NPDLMS_ONLY, **UNMODELLED[case]})
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "t.csv"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 1
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_config_without_gate_section_is_the_modelled_update(tmp_path):
    """An npdlms entry without `eta` is the gate at eta = 0: an update at every
    iteration, which the theory models, with the bits of `eta: 0.0`."""
    dlms = {"kind": "dlms", "step_size": 0.05}
    raw = small_config_dict(iterations=10, algorithms=[{**NPDLMS_ONLY[0], "eta": 0.0}, dlms])
    no_gate = small_config_dict(iterations=10, algorithms=NPDLMS_ONLY + [dlms])
    assert "eta" not in NPDLMS_ONLY[0]
    out = [tmp_path / name for name in ("with.csv", "without.csv", "theory.csv")]
    assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(out[0])]) == 0
    cfg = write_config(tmp_path, no_gate)
    assert main(["simulate", "--config", cfg, "--out", str(out[1])]) == 0
    assert out[0].read_bytes() == out[1].read_bytes()
    assert main(["theory", "--config", cfg, "--out", str(out[2])]) == 0


def test_compare_checks_theory_before_simulating(tmp_path, monkeypatch):
    from diffnet import harness

    def no_simulation(config):
        raise AssertionError("compare simulated before checking the theory")

    monkeypatch.setattr(harness, "run_experiment", no_simulation)
    out = tmp_path / "cmp.csv"
    unstable = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 5.0, "delta": 0.25}])
    assert main(["compare", "--config", write_config(tmp_path, unstable), "--out", str(out)]) == 2
    for overrides in UNMODELLED.values():
        raw = small_config_dict(**{"algorithms": NPDLMS_ONLY, **overrides})
        assert main(["compare", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


def test_compare_refuses_a_column_named_twice_before_simulating(tmp_path, monkeypatch, capsys):
    """A label `theory` would write the theory column twice: exit 1 before the
    theory or the simulation runs, naming the column, and no CSV."""
    from diffnet import harness

    def no_run(*args, **kwargs):
        raise AssertionError("compare ran before checking its columns")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    monkeypatch.setattr(harness, "theory_inputs_from_config", no_run)
    raw = small_config_dict(iterations=5, algorithms=[{**NPDLMS_ONLY[0], "label": "theory"}])
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert "'theory_msd_db' appears twice" in capsys.readouterr().err
    assert not out.exists()


# Golden SHA-256 digests of five small runs' CSV bytes. They pin the engine and
# the CSV writer together and hold for the numpy 2.4.6 / scipy-openblas build
# they were recorded on (the same caveat as bench/golden.json); another BLAS
# or CPU family may change the last bits of a curve. The theory and compare
# digests were re-recorded once when the transient began to hold its rows
# after the settle step (`theory.TRANSIENT_TOL`): only the rows after it moved,
# by at most 3.4e-13 dB. The theory digest was re-recorded once more when the
# steady state began to start from the settled transient: only its
# steady_state row moved, by 3.2e-11 dB. Both were re-recorded once more when
# the theory moved from Nd x Nd to N x N matrices (white regressors): 12
# transient rows between n = 2 and 59 moved by at most 7.1e-15 dB, and the
# steady_state row's EMSE, now r_k MSD_k, in its last digit. Both were
# re-recorded once more when `bounded_gain_moments` began to share one
# root = sqrt(2z) between its two closed forms: theory rows moved by at most
# 1.1e-14 dB, and the compare file's simulation column kept its bytes.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ALL_FAMILIES = [
    {"kind": "dlms", "step_size": 0.05},
    {"kind": "dse_lms", "step_size": 0.03},
    {"kind": "dmcc", "step_size": 0.05, "kernel_width": 1.3},
    {"kind": "dlms_f", "step_size": 0.04, "mix": 0.5},
    {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
    {"kind": "npdlms", "step_size": 0.05, "delta": 0.5},
]
SIMULATE_SHA256 = "7064432831ec3ca90a42e8f380da14a9e498a5995ea4133bb5cc684842b1bdb8"
COMPARE_SHA256 = "61a1f11960649cd4d752f1dea125e77989777b1bae455cbc2e5ce953df0eeea1"
THEORY_SHA256 = "2cfa46399086273a85911e1fa2d8f5d01f22192606641eea9e64d94fd620ecba"
SWEEP_SHA256 = "da6eca5abe0343764edd3ae5e281820850bd8bc12faedc01fff618d8a785950f"
TRACKING_SHA256 = "2fec90df67fb2a0188beeac92facec7f9021e9e9a13c2588fc17bbbd5c53b70d"


def test_simulate_golden_digest(tmp_path, capsys):
    """Six algorithms over 20 realizations, more than one chunk."""
    cfg = write_config(tmp_path, small_config_dict(realizations=20, algorithms=ALL_FAMILIES))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256


def test_compare_golden_digest(tmp_path, capsys):
    """Simulation columns plus the theory overlay column."""
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(CONFIGS / "theory_small.yaml"),
                 "--realizations", "4", "--iterations", "100", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "iteration,npdlms_msd_db,theory_msd_db"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPARE_SHA256


@pytest.mark.parametrize("sigma, buffer", [(1.0, 3), (0.2, 8), (1.0, 1)])
def test_theory_golden_digest(tmp_path, capsys, sigma, buffer):
    """Transient rows plus the steady_state summary row. The kernel prior's
    bandwidth and buffer length do not enter the theory, so every (sigma, B)
    prints the same bytes."""
    raw = yaml.safe_load((CONFIGS / "theory_small.yaml").read_text())
    raw["algorithms"][0].update(sigma=sigma, buffer=buffer)
    out = tmp_path / "theory.csv"
    assert main(["theory", "--config", write_config(tmp_path, raw),
                 "--iterations", "100", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("steady_state,")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == THEORY_SHA256


def test_sweep_golden_digest(tmp_path, capsys):
    """Three gate thresholds over three realizations, sharing one pass."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIGS / "threshold_sweep.yaml"), "--param", "eta",
                 "--values", "0,100,1000", "--realizations", "3", "--iterations", "100",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "param_value,iteration,npdlms_msd_db"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256


def test_tracking_golden_digest(tmp_path, capsys):
    """Six algorithms on the random walk under alpha-stable noise: the only
    digest that runs the drift recurrence and the alpha-stable sampler."""
    out = tmp_path / "tracking.csv"
    assert main(["simulate", "--config", str(CONFIGS / "nonstationary_alpha_stable.yaml"),
                 "--realizations", "3", "--iterations", "60", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACKING_SHA256


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda path: path.stem)
def test_shipped_config_simulates(path, tmp_path, capsys):
    """Every shipped config parses and runs, and no numpy warning escapes."""
    labels = [a.get("label", a["kind"]) for a in yaml.safe_load(path.read_text())["algorithms"]]
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--realizations", "1",
                     "--iterations", "20", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(["iteration"] + [f"{label}_msd_db" for label in labels])


@pytest.mark.parametrize("module", ["diffnet", "diffnet.cli"])
def test_module_entry_points_print_help_without_warnings(module):
    """Both `python -m` forms run the front end and write nothing to stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: diffnet")


# Runs the CLI steps given as JSON in a fresh interpreter and prints, as JSON,
# the scipy modules loaded after `import diffnet` and after each step.
_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import diffnet
report = [scipy_modules()]
from diffnet.cli import main
for argv in json.loads(sys.argv[1]):
    report.append([main(argv), scipy_modules()])
print(json.dumps(report))
"""


def _scipy_after(steps):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(steps)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_simulate_and_sweep_never_load_scipy(tmp_path):
    """Simulations and sweeps, with a gate threshold or without one, run on
    numpy and PyYAML alone; `scipy.special` comes in with the theory."""
    def config(name, **overrides):
        raw = small_config_dict(iterations=5, realizations=1, **overrides)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    gated = config("gated", algorithms=ALL_FAMILIES[:-1] + [{**ALL_FAMILIES[-1], "eta": 0.1}])
    no_gate = config("no-gate", algorithms=ALL_FAMILIES)
    theory = config("theory", algorithms=NPDLMS_ONLY)
    out = str(tmp_path / "out.csv")
    report = _scipy_after([
        ["simulate", "--config", gated, "--out", out],
        ["sweep", "--config", gated, "--out", out, "--param", "eta", "--values", "0,5"],
        ["simulate", "--config", no_gate, "--out", out],
        ["sweep", "--config", no_gate, "--out", out, "--param", "delta", "--values", "0.1,1"],
    ])
    assert report == [[], [0, []], [0, []], [0, []], [0, []]]
    (code, loaded), = _scipy_after([["theory", "--config", theory, "--out", out]])[1:]
    assert code == 0 and "scipy.special" in loaded
