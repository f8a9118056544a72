"""The scripts in scripts/: data generator, comparison suite, step retuning."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from diffnet.errors import ConfigError
from diffnet.harness import config_from_dict, load_config, run_experiment
from conftest import small_config_dict

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_committed_data(tmp_path, monkeypatch, capsys):
    generator = _script("generate_network_data")
    monkeypatch.setattr(generator, "DATA_DIR", tmp_path)
    generator.main()
    for name in ("topology16.txt", "regressor_variances16.txt"):
        assert (tmp_path / name).read_bytes() == (ROOT / "src" / "diffnet" / "data" / name).read_bytes()


def test_quick_comparison_suite_writes_cli_csvs(tmp_path, capsys):
    assert _script("run_comparison_suite").main(["--quick", "--out-dir", str(tmp_path)]) == 0
    sweep_values = 7
    for name in ("stationary_gaussian_snr30", "stationary_alpha_stable",
                 "nonstationary_alpha_stable", "threshold_sweep"):
        config = load_config(ROOT / "configs" / f"{name}.yaml")
        columns = ",".join(f"{spec.label}_msd_db" for spec in config.algorithms)
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        if name == "threshold_sweep":
            assert lines[0] == "param_value,iteration," + columns
            assert len(lines) == 1 + sweep_values * config.iterations
        else:
            assert lines[0] == "iteration," + columns
            assert len(lines) == 1 + config.iterations


def test_retune_validates_the_realization_override():
    # --realizations 0 used to be ignored, and a negative count ran on -inf dB.
    retune = _script("retune_step_size")
    argv = ["--config", str(ROOT / "configs" / "theory_small.yaml"), "--algorithm", "npdlms",
            "--target-db", "-20", "--lo", "0.01", "--hi", "0.05"]
    for count in ("0", "-5"):
        with pytest.raises(ConfigError):
            retune.main(argv + ["--realizations", count])


def test_retune_probe_runs_the_retuned_family_alone(monkeypatch):
    # A probe used to run every configured family to read one label; its
    # value must stay that of the all-family run, bit for bit.
    retune = _script("retune_step_size")
    config = config_from_dict(small_config_dict(algorithms=[
        {"kind": "dlms", "step_size": 0.05}, {"kind": "dse_lms", "step_size": 0.03},
        {"kind": "dmcc", "step_size": 0.05, "kernel_width": 1.3},
        {"kind": "dlms_f", "step_size": 0.04, "mix": 0.5},
        {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
        {"kind": "npdlms", "step_size": 0.08, "delta": 0.5}]))
    runs = []
    monkeypatch.setattr(retune.harness, "run_experiment", lambda cfg: runs.append(cfg) or run_experiment(cfg))
    for spec in config.algorithms:
        probe = retune.steady_state_for_step(config, spec.label, 0.02)
        assert [entry.label for entry in runs[-1].algorithms] == [spec.label]
        everyone = [replace(entry, step_size=0.02) if entry is spec else entry for entry in config.algorithms]
        assert probe == run_experiment(replace(config, algorithms=everyone)).steady_state_msd_db(spec.label)
