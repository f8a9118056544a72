"""The scripts in scripts/: data generator, comparison suite, step retuning."""

import importlib.util
from pathlib import Path

import pytest

from diffnet.errors import ConfigError
from diffnet.harness import load_config

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
