"""Experiment orchestration: determinism, pairing, CSV export, sweeps."""

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from diffnet.errors import ConfigError, InvalidParameters, PartialFailure
from diffnet.harness import (
    AlgorithmSpec,
    config_from_dict,
    export_csv,
    export_sweep_csv,
    generate_realization_data,
    load_config,
    realization_rng,
    run_experiment,
    sweep,
    theory_inputs_from_config,
)
from conftest import same_bits, small_config_dict
from oracles import replay_draws, run_chunk, run_realization


def test_zero_step_single_iteration_msd_is_initial_deviation():
    raw = small_config_dict(iterations=1, realizations=1,
                            algorithms=[{"kind": "dlms", "step_size": 1e-300}])
    cfg = config_from_dict(raw)
    result = run_experiment(cfg)
    # zero-initialized estimates barely move: MSD(1) = ||theta_o||^2
    assert result.network_msd("dlms")[0] == pytest.approx(float(cfg.theta_o @ cfg.theta_o), rel=1e-12)


def test_identical_config_and_seed_bit_identical_csv(tmp_path):
    raw = small_config_dict(algorithms=[
        {"kind": "dlms", "step_size": 0.05},
        {"kind": "npdlms", "step_size": 0.05},
    ])
    paths = []
    for name in ("a.csv", "b.csv"):
        cfg = config_from_dict(raw)
        result = run_experiment(cfg)
        path = tmp_path / name
        export_csv(result, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_zero_noise_dlms_msd_strictly_decreasing():
    raw = small_config_dict(
        noise={"kind": "gaussian", "variance": 0.0},
        iterations=50, realizations=1,
        algorithms=[{"kind": "dlms", "step_size": 0.1}],
    )
    curve = run_experiment(config_from_dict(raw)).network_msd("dlms")
    assert np.all(np.diff(curve) < 0)


def test_single_realization_equals_run_realization():
    raw = small_config_dict(realizations=1)
    cfg = config_from_dict(raw)
    direct = run_realization(cfg, 0)
    result = run_experiment(cfg)
    sq, _, _ = direct["dlms"]
    assert np.array_equal(result.node_msd["dlms"], sq)


def test_paired_streams_shared_across_algorithm_lists():
    base = small_config_dict(realizations=2)
    lone = config_from_dict(base)
    both = config_from_dict(small_config_dict(realizations=2, algorithms=[
        {"kind": "dlms", "step_size": 0.05},
        {"kind": "dse_lms", "step_size": 0.05},
    ]))
    r1 = run_experiment(lone)
    r2 = run_experiment(both)
    assert np.array_equal(r1.node_msd["dlms"], r2.node_msd["dlms"])


def test_realization_streams_independent():
    cfg = config_from_dict(small_config_dict())
    a = replay_draws(cfg, realization_rng(cfg.base_seed, 0))[2].ravel()
    b = replay_draws(cfg, realization_rng(cfg.base_seed, 1))[2].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02 or a.size < 1000
    big_cfg = config_from_dict(small_config_dict(iterations=2000))
    a = replay_draws(big_cfg, realization_rng(7, 0))[2].ravel()
    b = replay_draws(big_cfg, realization_rng(7, 1))[2].ravel()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_csv_format(tmp_path):
    raw = small_config_dict(iterations=2, realizations=1)
    result = run_experiment(config_from_dict(raw))
    path = tmp_path / "out.csv"
    export_csv(result, path)
    text = path.read_text()
    lines = text.splitlines()
    assert len(lines) == 3  # header + 2 iterations
    assert lines[0] == "iteration,dlms_msd_db"
    assert "\r" not in text
    # full-precision round trip
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    curve = result.network_msd_db("dlms")
    assert parsed == [curve[0], curve[1]]


def test_percent_format_writes_the_bytes_of_format():
    """The CSV rows are one %-string of %.17g fields; each field must be the
    text that format(x, ".17g") gives, on specials, edges and random bits."""
    edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 1e22, -1e22,
             np.finfo(float).max, np.finfo(float).tiny]
    bits = np.random.default_rng(19).integers(0, 2**64, size=10**4, dtype=np.uint64, endpoint=False)
    values = edges + bits.view(float).tolist()         # every exponent, subnormals and NaNs
    assert len({math.frexp(x)[1] for x in values if math.isfinite(x)}) > 1000
    for x in values:
        assert "%.17g" % x == format(x, ".17g"), x
    assert "%.17g,%d,%.17g" % (0.1, 7, -0.0) == "0.10000000000000001,7,-0"


def test_csv_extra_columns_follow_the_algorithms(tmp_path):
    result = run_experiment(config_from_dict(small_config_dict(iterations=3)))
    path = tmp_path / "x.csv"
    export_csv(result, path, {"theory_msd_db": np.array([-1.5, 0.1, 2.0 / 3.0])})
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,dlms_msd_db,theory_msd_db"
    assert [float(line.split(",")[2]) for line in lines[1:]] == [-1.5, 0.1, 2.0 / 3.0]


@pytest.mark.parametrize("column", [[-1.5, 0.1], [-1.5, 0.1, 0.2, 0.3]], ids=["short", "long"])
def test_csv_extra_column_of_another_length_is_config_error(tmp_path, column):
    # It used to end in the ValueError of zip(..., strict=True).
    result = run_experiment(config_from_dict(small_config_dict(iterations=3)))
    path = tmp_path / "x.csv"
    with pytest.raises(ConfigError, match=f"'theory_msd_db' has {len(column)} values for 3 iterations"):
        export_csv(result, path, {"theory_msd_db": np.array(column)})
    assert not path.exists()


def test_csv_column_named_twice_is_config_error(tmp_path):
    """An algorithm labelled `theory` repeats the overlay's column; the export
    names the column and writes nothing, where it used to write the header
    `iteration,theory_msd_db,theory_msd_db`."""
    raw = small_config_dict(iterations=3, algorithms=[{"kind": "dlms", "step_size": 0.05, "label": "theory"}])
    result = run_experiment(config_from_dict(raw))
    path = tmp_path / "x.csv"
    with pytest.raises(ConfigError, match="'theory_msd_db' appears twice"):
        export_csv(result, path, {"theory_msd_db": np.zeros(3)})
    assert not path.exists()


def test_empty_algorithm_list_is_config_error():
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(algorithms=[]))


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(algorithms=[
            {"kind": "dlms", "step_size": 0.1},
            {"kind": "dlms", "step_size": 0.2},
        ]))


@pytest.mark.parametrize("label", ["a,b", "x\ny", "x\ry", 5, None])
def test_label_that_would_break_the_csv_header_is_config_error(label):
    """A label is a CSV column name: a non-string, a comma or a line break is
    refused by name. `a,b` used to write a 4-field header over 3-field rows."""
    with pytest.raises(ConfigError, match="label") as info:
        config_from_dict(small_config_dict(algorithms=[{"kind": "dlms", "step_size": 0.1, "label": label}]))
    assert repr(label) in str(info.value)


def test_empty_label_means_the_kind():
    cfg = config_from_dict(small_config_dict(algorithms=[{"kind": "dlms", "step_size": 0.1, "label": ""}]))
    assert cfg.algorithms[0].label == "dlms"


def test_missing_step_size_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(algorithms=[{"kind": "dlms"}]))


def test_misspelt_algorithm_key_rejected():
    # A misspelt parameter used to run DMCC at the default kernel width.
    raw = small_config_dict(algorithms=[{"kind": "dmcc", "step_size": 0.1, "kernel_widht": 0.005}])
    with pytest.raises(ConfigError, match="kernel_widht"):
        config_from_dict(raw)


def test_misspelt_top_level_key_rejected():
    # A misspelt count used to run a single realization.
    raw = small_config_dict()
    raw["realisations"] = 200
    with pytest.raises(ConfigError, match="realisations"):
        config_from_dict(raw)


def test_negative_base_seed_is_config_error():
    # It used to load, and then every realization failed inside SeedSequence.
    with pytest.raises(ConfigError, match="base_seed"):
        config_from_dict(small_config_dict(base_seed=-3))
    with pytest.raises(ConfigError, match="base_seed"):
        replace(config_from_dict(small_config_dict()), base_seed=-1)


def _integer_key_config(key, value):
    """The small config with `value` under `key`; nodes makes it a one-node network."""
    if key == "buffer":
        return small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.02, "buffer": value}])
    if key == "nodes":
        return small_config_dict(topology={"nodes": value, "edges": []}, regressor_variances=1.0)
    return small_config_dict(**{key: value})


_INTEGER_KEYS = {
    "d": lambda cfg: cfg.dim,
    "iterations": lambda cfg: cfg.iterations,
    "realizations": lambda cfg: cfg.realizations,
    "base_seed": lambda cfg: cfg.base_seed,
    "buffer": lambda cfg: cfg.algorithms[0].kind.buffer,
    "nodes": lambda cfg: cfg.topology.node_count,
}


@pytest.mark.parametrize("key", _INTEGER_KEYS)
def test_integer_keys_refuse_fractions_and_booleans(key):
    # 1.5 used to be truncated to 1 and `true` read as 1.
    for value in (1.5, True):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(_integer_key_config(key, value))
    value = _INTEGER_KEYS[key](config_from_dict(_integer_key_config(key, 1.0)))
    assert value == 1 and type(value) is int


@pytest.mark.parametrize("text,expected", [("1e0", 1), ("1", 1), ("1.5e0", None), ("abc", None)],
                         ids=["exponent", "digits", "fraction", "not-a-number"])
@pytest.mark.parametrize("key", _INTEGER_KEYS)
def test_integer_keys_take_integral_numeric_strings(key, text, expected):
    """YAML 1.1 reads 1e3 as a string. An integral one loads; any other
    string used to end in int()'s or float()'s message, without the key."""
    if expected is None:
        with pytest.raises(ConfigError, match=f"{key} must be (an integer|a number), got '{text}'"):
            config_from_dict(_integer_key_config(key, text))
    else:
        value = _INTEGER_KEYS[key](config_from_dict(_integer_key_config(key, text)))
        assert value == expected and type(value) is int


_REAL_KEYS = {
    "step_size": lambda v: {"algorithms": [{"kind": "dlms", "step_size": v}]},
    "snr_db": lambda v: {"noise": {"kind": "gaussian", "snr_db": v}},
    "q_variance": lambda v: {"environment": {"kind": "random_walk", "q_variance": v}},
    "eta": lambda v: {"algorithms": [{"kind": "npdlms", "step_size": 0.05, "eta": v}]},
    "delta": lambda v: {"algorithms": [{"kind": "npdlms", "step_size": 0.05, "delta": v}]},
    "alpha": lambda v: {"noise": {"kind": "alpha_stable", "alpha": v}},
    "variance": lambda v: {"noise": {"kind": "gaussian", "variance": [v] * 5}},
}


@pytest.mark.parametrize("key", _REAL_KEYS)
def test_real_keys_take_numeric_strings_and_name_the_key_otherwise(key):
    config_from_dict(small_config_dict(**_REAL_KEYS[key]("5e-1")))
    with pytest.raises(ConfigError, match=f"{key} must be a number, got 'abc'"):
        config_from_dict(small_config_dict(**_REAL_KEYS[key]("abc")))


def test_readme_configuration_block_loads():
    """README's schema block is a config the parser takes as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Configuration schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(yaml.safe_load(block))
    assert [spec.label for spec in cfg.algorithms] == ["dlms", "npdlms"]
    assert cfg.npdlms_spec().kind.eta == 0.0


@pytest.mark.parametrize("edge", [[1, 2.7], [True, 5], [1, 2, 3], [1]],
                         ids=["fraction", "boolean", "triple", "single"])
def test_inline_edge_must_be_a_pair_of_integers(edge):
    # These used to load as the edges (1, 2), (1, 5) and (1, 2), and [1] ended
    # in an IndexError.
    topology = {"nodes": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], edge]}
    with pytest.raises(ConfigError, match=re.escape(repr(edge))):
        config_from_dict(small_config_dict(topology=topology))


@pytest.mark.parametrize("overrides,named", [
    ({"gate": {"eta": 0.0}}, "unknown key.*gate"),
    ({"gate": {"eta": 0.0}, "algorithms": [{"kind": "npdlms", "step_size": 0.05}]}, "unknown key.*gate"),
    ({"gate": "hard"}, "unknown key.*gate"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05, "eta": -1.0}]}, "eta"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05, "eta": float("nan")}]}, "eta"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05, "mode": "hard"}]}, "unknown key.*mode"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05, "slope": 5.0}]}, "unknown key.*slope"),
    ({"algorithms": [{"kind": "dlms", "step_size": 0.05, "eta": 0.0}]}, "unknown key.*eta"),
    ({"algorithms": [{"kind": "dlms", "step_size": 0.05, "buffer": 3}]}, "unknown key.*buffer"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05},
                     {"kind": "npdlms", "step_size": 0.08, "label": "second"}]}, "one npdlms"),
], ids=["gate-section", "gate-beside-npdlms", "gate-scalar", "eta-negative", "eta-nan", "mode-in-entry",
        "slope-in-entry", "eta-in-dlms", "kernel-key-in-dlms", "two-npdlms"])
def test_npdlms_entry_holds_its_whole_record(overrides, named):
    """The npdlms entry is the one place for its record, the gate's `eta`
    included; a top-level `gate`, beside an npdlms entry or not, mapping or
    not, is an unknown key, and the kernel keys belong to no other entry."""
    with pytest.raises(ConfigError, match=named):
        config_from_dict(small_config_dict(**overrides))


@pytest.mark.parametrize("variance", [0.0, -1.0])
@pytest.mark.parametrize("noise", [{"kind": "gaussian", "snr_db": 20},
                                   {"kind": "gaussian", "variance": 0.1}], ids=["snr", "variance"])
def test_nonpositive_regressor_variance_is_config_error(noise, variance):
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(noise=noise, regressor_variances=variance))


INF, NAN = float("inf"), float("nan")
VARIANCE_NOISE = {"kind": "gaussian", "variance": 0.01}


def _config(**overrides):
    return config_from_dict(small_config_dict(**overrides))


def _theory_inputs(**overrides):
    cfg = _config(algorithms=[{"kind": "npdlms", "step_size": 0.05}])
    return replace(theory_inputs_from_config(cfg), **overrides)


@pytest.mark.parametrize("build,named", [
    (lambda: _config(algorithms=[{"kind": "dlms", "step_size": INF}]), "step_size"),
    (lambda: _config(algorithms=[{"kind": "npdlms", "step_size": INF}]), "step_size"),
    (lambda: _config(environment={"kind": "random_walk", "q_variance": NAN}), "q_variance"),
    (lambda: _config(environment={"kind": "random_walk", "q_variance": INF}), "q_variance"),
    (lambda: _config(theta_o=[NAN, 1.0, 0.0], noise=VARIANCE_NOISE), "theta_o"),
    (lambda: _config(theta_o=[NAN, 1.0, 0.0]), "theta_o"),
    (lambda: replace(_config(), theta_o=[1.0, INF, 0.0]), "theta_o"),
    (lambda: _config(algorithms=[{"kind": "dmcc", "step_size": 0.05, "kernel_width": INF}]),
     "kernel_width"),
    (lambda: _config(algorithms=[{"kind": "dlms_f", "step_size": 0.05, "mix": INF}]), "mix"),
    (lambda: _config(algorithms=[{"kind": "dllad", "step_size": 0.05, "scale": INF}]), "scale"),
    (lambda: _theory_inputs(theta_o=np.array([NAN, 1.0, 0.0])), "theta_o"),
], ids=["dlms-step-inf", "npdlms-step-inf", "q-variance-nan", "q-variance-inf", "theta-nan-variance",
        "theta-nan-snr", "theta-inf-replace", "kernel-width-inf", "mix-inf", "scale-inf",
        "theory-theta-nan"])
def test_non_finite_parameters_are_rejected_by_name(build, named):
    """A non-finite parameter used to pass validation, and every run then
    diverged or never moved; the record that holds it now names it."""
    with pytest.raises((ConfigError, InvalidParameters), match=named):
        build()


_FLOAT_KEYS = {
    "step_size": (lambda v: small_config_dict(algorithms=[{"kind": "dlms", "step_size": v}]),
                  lambda cfg: cfg.algorithms[0].step_size),
    "sigma": (lambda v: small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.05, "sigma": v}]),
              lambda cfg: cfg.algorithms[0].kind.sigma),
    "delta": (lambda v: small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.05, "delta": v}]),
              lambda cfg: cfg.algorithms[0].kind.delta),
    "kernel_width": (lambda v: small_config_dict(algorithms=[{"kind": "dmcc", "step_size": 0.05,
                                                              "kernel_width": v}]),
                     lambda cfg: cfg.algorithms[0].kind.kernel_width),
    "snr_db": (lambda v: small_config_dict(noise={"kind": "gaussian", "snr_db": v}),
               lambda cfg: cfg.noise_specs[0].variance),
    "q_variance": (lambda v: small_config_dict(environment={"kind": "random_walk", "q_variance": v}),
                   lambda cfg: cfg.drift.q_variance),
}


@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_float_keys_refuse_booleans_and_read_numeric_strings(key):
    # `true` used to load as 1.0. PyYAML reads 5e-3, which has no dot, as a
    # string, and such a string must still load as its number.
    import yaml

    build, read = _FLOAT_KEYS[key]
    with pytest.raises(ConfigError, match=key):
        config_from_dict(build(True))
    text = yaml.safe_load(f"{key}: 5e-3")[key]
    assert text == "5e-3"
    assert read(config_from_dict(build(text))) == read(config_from_dict(build(5e-3)))


_ARRAY_KEYS = {
    "regressor_variances": (lambda v: small_config_dict(regressor_variances=v),
                            [1.0, 0.9, 1.1, 1.0, 0.95], lambda cfg: cfg.regressor_variances),
    "variance": (lambda v: small_config_dict(noise={"kind": "gaussian", "variance": v}),
                 [0.1, 0.2, 0.1, 0.3, 0.1], lambda cfg: [spec.variance for spec in cfg.noise_specs]),
    "theta_o": (lambda v: small_config_dict(theta_o=v), [0.5, 0, -1], lambda cfg: cfg.theta_o),
}


@pytest.mark.parametrize("key", _ARRAY_KEYS)
def test_array_keys_refuse_booleans_and_read_numbers(key):
    # `true`, alone or in a list, used to load as 1.0.
    build, numbers, read = _ARRAY_KEYS[key]
    with pytest.raises(ConfigError, match=key):
        config_from_dict(build([True] + numbers[1:]))
    if key != "theta_o":                       # a scalar is repeated per node
        with pytest.raises(ConfigError, match=key):
            config_from_dict(build(True))
        assert np.array_equal(read(config_from_dict(build(0.25))), [0.25] * 5)
    assert np.array_equal(read(config_from_dict(build(numbers))), numbers)


@pytest.mark.parametrize("d", [0, -1])
def test_dimension_below_one_is_rejected_by_name(d):
    # d: 0 used to load and report -inf dB; d: -1 failed with "negative
    # dimensions are not allowed".
    with pytest.raises(ConfigError, match="d must be >= 1"):
        config_from_dict(small_config_dict(d=d, noise=VARIANCE_NOISE))


@pytest.mark.parametrize("theta_o", [[], [[1.0, 0.0, 0.0]], 1.0], ids=["empty", "matrix", "scalar"])
def test_theta_o_must_be_a_non_empty_vector(theta_o):
    with pytest.raises(ConfigError, match="theta_o"):
        replace(config_from_dict(small_config_dict()), theta_o=theta_o)


def test_yaml_round_trip(tmp_path):
    import yaml

    raw = small_config_dict()
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    cfg = load_config(path)
    assert cfg.iterations == raw["iterations"]
    assert cfg.topology.node_count == 5
    result = run_experiment(cfg)
    reference = run_experiment(config_from_dict(raw))
    assert np.array_equal(result.node_msd["dlms"], reference.node_msd["dlms"])


def test_sweep_single_value_equals_run_experiment():
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.05, "eta": 0.0}])
    cfg = config_from_dict(raw)
    swept = sweep(cfg, "eta", [0.0])
    direct = run_experiment(cfg)
    assert np.array_equal(swept[0].node_msd["npdlms"], direct.node_msd["npdlms"])


def test_sweep_requires_npdlms():
    cfg = config_from_dict(small_config_dict())
    with pytest.raises(ConfigError):
        sweep(cfg, "eta", [0.0, 1.0])
    with pytest.raises(ConfigError):
        sweep(cfg, "mood", [1.0])


def test_sweep_kernel_parameter_changes_algorithm():
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.05}])
    cfg = config_from_dict(raw)
    results = sweep(cfg, "h", [1.0, 4.0])
    c1 = results[0].network_msd("npdlms")
    c2 = results[1].network_msd("npdlms")
    assert not np.array_equal(c1, c2)


def test_sweep_csv_has_param_column(tmp_path):
    raw = small_config_dict(iterations=3, algorithms=[{"kind": "npdlms", "step_size": 0.05}])
    cfg = config_from_dict(raw)
    values = [0.0, 2.0]
    results = sweep(cfg, "eta", values)
    path = tmp_path / "sweep.csv"
    export_sweep_csv(values, results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "param_value,iteration,npdlms_msd_db"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("0,1,")
    assert lines[4].startswith("2,1,")


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("lead", [(), (100.0,), (-0.0,), (5e-324,), (-np.inf, np.nan)],
                         ids=["none", "integral", "negative-zero", "subnormal", "inf-nan"])
def test_rows_block_has_the_bytes_of_the_per_line_format(lead, start):
    """`_rows` formats a block with one `%` over its repeated line template;
    its bytes are those of one `%` per line, joined by LF, for every number
    that can reach a CSV: -inf, -0.0, NaN, a subnormal, RECORD_CAP's 120 dB,
    an integral value (written without a point), in the lead and in the
    curves, and in a one-row block."""
    from diffnet.harness import RECORD_CAP, _rows
    from diffnet.theory import to_db

    cap_db = float(to_db(RECORD_CAP))
    assert cap_db == 120.0
    curves = [[-np.inf, -0.0, np.nan, 5e-324, cap_db, 100.0, -1.2345678901234567e-300],
              [0.1, 2.0, -3.5e200, 1e-310, np.inf, -100.0, 0.0]]
    for block in (curves, [curve[:1] for curve in curves], curves[:1]):
        line = ",".join(["%.17g"] * len(lead) + ["%d"] + ["%.17g"] * len(block))
        expected = "\n".join(line % (*lead, t, *row) for t, row in enumerate(zip(*block), start=start))
        assert _rows(lead, [np.array(curve) for curve in block], start=start) == expected


def test_sweep_csv_refuses_a_results_count_other_than_the_values(tmp_path):
    """A results list shorter or longer than the values would write a CSV
    that misses curves; the export names both lengths and writes nothing."""
    raw = small_config_dict(iterations=3, algorithms=[{"kind": "npdlms", "step_size": 0.05}])
    results = sweep(config_from_dict(raw), "eta", [0.0, 2.0])
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match="2 sweep results for 3 values"):
        export_sweep_csv([0.0, 2.0, 5.0], results, path)
    with pytest.raises(ConfigError, match="2 sweep results for 0 values"):
        export_sweep_csv([], results, path)
    assert not path.exists()


def test_diverging_npdlms_run_emits_no_numpy_warning():
    # Overflow and NaN warnings used to escape the kernel-MAP loop; under an
    # "error" filter they failed every realization.
    raw = small_config_dict(
        iterations=200, noise={"kind": "alpha_stable", "alpha": 0.6, "beta": 0, "gamma": 1},
        algorithms=[{"kind": "npdlms", "step_size": 50.0}])
    cfg = config_from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(cfg)
    assert result.diverged["npdlms"] == cfg.realizations


def test_divergence_flagged_not_raised():
    raw = small_config_dict(
        iterations=80, realizations=1,
        algorithms=[{"kind": "dlms", "step_size": 5.0}],  # way past the bound
    )
    result = run_experiment(config_from_dict(raw))
    assert result.diverged["dlms"] == 1
    assert np.all(np.isfinite(result.network_msd_db("dlms")))


def test_kappa_counts_bounded_and_at_max_for_zero_threshold():
    raw = small_config_dict(iterations=30, realizations=2,
                            algorithms=[{"kind": "npdlms", "step_size": 0.05, "eta": 0.0}])
    result = run_experiment(config_from_dict(raw))
    assert result.kappa_mean("npdlms") == 30.0
    raw["algorithms"][0]["eta"] = 1e12
    result = run_experiment(config_from_dict(raw))
    assert result.kappa_mean("npdlms") == 0.0


def test_theory_inputs_from_config():
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.02, "delta": 0.3}])
    cfg = config_from_dict(raw)
    inputs = theory_inputs_from_config(cfg)
    assert np.array_equal(inputs.regressor_variances, cfg.regressor_variances)
    assert inputs.dim == cfg.dim
    assert inputs.delta == 0.3
    assert inputs.step_sizes[0] == 0.02
    assert inputs.noise_variances.shape == (5,)


@pytest.mark.parametrize("sigma, buffer", [(1.0, 3), (0.2, 8), (5.0, 1)])
def test_theory_inputs_ignore_kernel_prior(sigma, buffer):
    # The prediction is that of the prior-free update, buffer: 1, whatever the
    # kernel prior's bandwidth and buffer length.
    def inputs(**kernel):
        raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.02, **kernel}])
        return theory_inputs_from_config(config_from_dict(raw))

    got, ref = inputs(sigma=sigma, buffer=buffer), inputs(buffer=1)
    assert np.array_equal(got.topology.adjacency_mask(), ref.topology.adjacency_mask())
    assert np.array_equal(got.combination.matrix, ref.combination.matrix)
    for name in ("regressor_variances", "noise_variances", "step_sizes", "theta_o", "h", "delta"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_theory_inputs_reject_alpha_stable():
    raw = small_config_dict(
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        algorithms=[{"kind": "npdlms", "step_size": 0.02}],
    )
    with pytest.raises(ConfigError):
        theory_inputs_from_config(config_from_dict(raw))


def test_delta_sweep_smaller_is_better_in_heavy_noise():
    # at SNR -20 dB a tighter pseudo-Huber corner clips more noise: steady-state
    # MSD is non-decreasing in delta
    raw = small_config_dict(
        noise={"kind": "gaussian", "snr_db": -20},
        iterations=300, realizations=40,
        algorithms=[{"kind": "npdlms", "step_size": 0.12, "delta": 0.25, "eta": 0.0}],
    )
    cfg = config_from_dict(raw)
    values = [0.1, 0.25, 0.5, 1.0, 2.0]
    steady = [r.steady_state_msd_db("npdlms") for r in sweep(cfg, "delta", values)]
    assert all(steady[i] <= steady[i + 1] + 0.2 for i in range(len(steady) - 1))


def test_doubling_realizations_no_systematic_shift():
    # realizations 0..R-1 are a prefix of 0..2R-1 under a fixed base seed, so
    # extending R must look like adding independent samples, not shifting them
    raw = small_config_dict(iterations=80, realizations=60)
    cfg = config_from_dict(raw)
    window = slice(-16, None)
    per_real = []
    for idx in range(cfg.realizations):
        sq, _, _ = run_realization(cfg, idx)["dlms"]
        per_real.append(sq[window].mean())
    first, second = np.array(per_real[:30]), np.array(per_real[30:])
    pooled_se = np.sqrt(first.var(ddof=1) / 30 + second.var(ddof=1) / 30)
    assert abs(first.mean() - second.mean()) <= 4.0 * pooled_se


def test_export_requires_algorithms(tmp_path):
    raw = small_config_dict(iterations=2, realizations=1)
    result = run_experiment(config_from_dict(raw))
    result.labels = []
    with pytest.raises(ConfigError):
        export_csv(result, tmp_path / "x.csv")


def test_partial_failure_reports_indices(monkeypatch):
    import diffnet.harness as harness_mod

    original = harness_mod.generate_realization_data

    def flaky(config, rng):
        flaky.calls += 1
        if flaky.calls == flaky.fail_on:
            raise RuntimeError("boom")
        return original(config, rng)

    flaky.calls, flaky.fail_on = 0, 2
    monkeypatch.setattr(harness_mod, "generate_realization_data", flaky)
    cfg = config_from_dict(small_config_dict(realizations=3))
    with pytest.raises(PartialFailure) as err:
        harness_mod.run_experiment(cfg)
    assert [idx for idx, _ in err.value.failures] == [1]

    # A failed draw in the middle of a chunk: the rest of the chunk still runs.
    engine = harness_mod._run_chunk
    rows = []

    def counting(config, baselines, variants, batch, *args, **kwargs):
        rows.append(batch.targets.shape[1])
        return engine(config, baselines, variants, batch, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "_run_chunk", counting)
    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 4)
    flaky.calls, flaky.fail_on = 0, 3
    cfg = config_from_dict(small_config_dict(realizations=6))
    with pytest.raises(PartialFailure) as err:
        harness_mod.run_experiment(cfg)
    assert [idx for idx, _ in err.value.failures] == [2]
    assert rows == [3, 2]


def test_failed_chunk_reruns_one_realization_at_a_time(monkeypatch):
    import diffnet.harness as harness_mod

    cfg = config_from_dict(small_config_dict(realizations=5, algorithms=[
        {"kind": "dlms", "step_size": 0.05},
        {"kind": "npdlms", "step_size": 0.05},
    ]))
    expected = run_experiment(cfg)
    bad = generate_realization_data(cfg, realization_rng(cfg.base_seed, 3)).targets
    engine = harness_mod._run_chunk

    def fragile(config, baselines, variants, batch, *args, **kwargs):
        # any batch of several rows fails, and so does realization 3 alone
        if batch.targets.shape[1] > 1 or np.array_equal(batch.targets[:, 0], bad):
            raise FloatingPointError("batch failed")
        return engine(config, baselines, variants, batch, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 2)
    monkeypatch.setattr(harness_mod, "_run_chunk", fragile)
    with pytest.raises(PartialFailure) as err:
        run_experiment(cfg)
    assert [idx for idx, _ in err.value.failures] == [3]

    bad = None  # realization 3 now runs alone; every chunk still fails as a batch
    result = run_experiment(cfg)
    for label in result.labels:
        assert np.array_equal(result.node_msd[label], expected.node_msd[label])
    assert np.array_equal(result.kappa["npdlms"], expected.kappa["npdlms"])


@pytest.mark.parametrize("strategy", ["cta", "atc"])
def test_chunked_experiment_equals_index_order_sum_of_realizations(monkeypatch, strategy):
    """Chunks change nothing: not the sums, not the counters, not one bit.

    dlms diverges under this alpha-stable noise in some realizations only, and
    an infinite target then turns one row's dlms run into NaN: neither may
    reach the other rows of its batch.
    """
    import diffnet.harness as harness_mod

    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 2)
    raw = small_config_dict(
        iterations=300, realizations=5, strategy=strategy,
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        algorithms=[
            {"kind": "dlms", "step_size": 0.4},
            {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
            {"kind": "npdlms", "step_size": 0.05},
        ],
    )
    cfg = config_from_dict(raw)
    result = run_experiment(cfg)
    sums = {label: np.zeros((cfg.iterations, 5)) for label in result.labels}
    kappa = np.zeros(5)
    diverged = {label: 0 for label in result.labels}
    for idx in range(cfg.realizations):
        for label, (sq, updates, flag) in run_realization(cfg, idx).items():
            sums[label] += sq
            diverged[label] += flag
            if updates is not None:
                kappa += updates
    assert 0 < diverged["dlms"] < cfg.realizations
    assert diverged["dllad"] == diverged["npdlms"] == 0
    assert result.diverged == diverged
    for label in result.labels:
        assert np.array_equal(result.node_msd[label], sums[label] / cfg.realizations)
    assert np.array_equal(result.kappa["npdlms"], kappa / cfg.realizations)

    batch, _, _ = harness_mod._draw(cfg, [0, 1])
    batch.targets[50:, 0, 2] = np.inf
    # npdlms is listed last, so each label's block is its position in the list.
    sq, updates, _ = run_chunk(cfg, cfg.algorithms[:2], [cfg.npdlms_spec().kind], batch)
    sq, flags = harness_mod._finish(sq)
    alone = run_realization(cfg, 1)
    assert flags[0, 0]
    assert np.isnan(run_chunk(cfg, cfg.algorithms[:1], [], batch)[0][0, 0]).any()
    for block, label in enumerate(result.labels):
        assert np.array_equal(sq[block, 1], alone[label][0])
        assert flags[block, 1] == alone[label][2]
    assert np.array_equal(updates[1], alone["npdlms"][1])


@pytest.mark.parametrize("strategy", ["cta", "atc"])
def test_families_stay_isolated_in_the_one_time_loop(strategy):
    """Every baseline family and every kernel-MAP variant share one time loop,
    yet each one's rows are, bit for bit, those of an engine run of it alone.

    dlms_f at step 2 overflows under this alpha-stable noise, and an infinite
    target turns the dlms run of realization 0 into NaN, while dllad's gain
    takes that error to zero: no NaN may reach the rows of another family,
    variant or realization.
    """
    import diffnet.harness as harness_mod

    algorithms = _five_families_and_npdlms()
    algorithms[3] = {"kind": "dlms_f", "step_size": 2.0, "mix": 0.5}
    cfg = config_from_dict(small_config_dict(
        iterations=120, realizations=3, strategy=strategy, algorithms=algorithms,
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0}))
    spec = cfg.npdlms_spec()
    baselines = cfg.algorithms[:-1]                # blocks 0-4: dlms, dse_lms, dmcc, dlms_f, dllad
    variants = [replace(spec.kind, eta=eta) for eta in (0.0, 0.3, 3.0)]
    batch, _, _ = harness_mod._draw(cfg, range(cfg.realizations))
    batch.targets[50:, 0, 2] = np.inf
    sq, updates, _ = run_chunk(cfg, baselines, variants, batch)
    sq, flags = harness_mod._finish(sq)
    assert flags[3, 1:].any() and not flags[0, 1:].any()
    assert flags[0, 0] and not flags[4, 0]

    def alone(entry, variant=None):
        single = replace(cfg, algorithms=[entry])
        sq, updates, _ = run_chunk(single, [] if variant else [entry], [variant] if variant else [], batch)
        return harness_mod._finish(sq) + (updates,)

    reals = cfg.realizations
    runs = [(i, None, entry) for i, entry in enumerate(baselines)]
    runs += [(len(baselines) + v, variant, spec) for v, variant in enumerate(variants)]
    for block, variant, entry in runs:
        alone_sq, alone_flags, alone_updates = alone(entry, variant)
        assert same_bits(sq[block], alone_sq[0]), (entry.label, variant)
        assert np.array_equal(flags[block], alone_flags[0]), (entry.label, variant)
        if variant is not None:
            v = block - len(baselines)
            assert same_bits(updates[v * reals : (v + 1) * reals], alone_updates)


@pytest.mark.parametrize("gate", [{"eta": 0.0}, {"eta": 0.1}], ids=["eta0", "eta0.1"])
@pytest.mark.parametrize("strategy", ["cta", "atc"])
def test_non_finite_values_spread_one_hop_per_step(strategy, gate):
    """Node 3's targets (index 2) are inf from t = 50 in realization 0 of an
    8-node ring.

    A non-finite value travels only along edges: each step's combine moves
    it one hop, and the adapt step reads the data of a node's own
    neighbourhood. So at step t >= 50 every non-finite estimate lies within
    t - 49 hops of node 3, and one hop further under ATC, whose first step
    combines after the adapt has read the inf. The gate energy sums the
    neighbourhood's errors only, so the gate at eta = 0 keeps firing at
    every node, and at eta = 0.1 it both opens and shuts.
    """
    import diffnet.harness as harness_mod

    source, onset, n = 2, 50, 8
    algorithms = _five_families_and_npdlms()
    algorithms[-1].update(gate)
    cfg = config_from_dict(small_config_dict(
        topology={"nodes": n, "edges": [[k, k % n + 1] for k in range(1, n + 1)]},
        regressor_variances=1.0, iterations=60, strategy=strategy, algorithms=algorithms))
    links = cfg.topology.adjacency_mask() > 0
    spec = cfg.npdlms_spec()
    baselines = [entry for entry in cfg.algorithms if entry is not spec]
    batch, _, _ = harness_mod._draw(cfg, range(cfg.realizations))
    batch.targets[onset:, 0, source] = np.inf
    sq, updates, _ = run_chunk(cfg, baselines, [spec.kind], batch)
    broken = ~np.isfinite(sq)                      # (family, realization, t, node)
    assert not broken[:, 1].any() and not broken[:, 0, :onset].any()
    assert broken[0, 0, onset, source]             # dlms takes the inf at once

    reach = np.zeros(n, dtype=bool)
    reach[source] = True
    for t in range(onset, cfg.iterations):
        for _ in range(2 if strategy == "atc" and t == onset else 1):
            reach = reach @ links
        assert not broken[:, 0, t, ~reach].any(), (t, broken[:, 0, t].any(axis=0), reach)
    if gate["eta"] == 0:
        assert (updates == cfg.iterations).all()
    else:
        assert 0 < updates.sum() < updates.size * cfg.iterations


def _window_cases():
    """(T, buffer, strategy) at and around the window's boundaries: a flush
    every RING steps, and the rewind of the newest `buffer` states to the
    top of the window at RING + buffer and 2 RING + buffer states."""
    ring = 16
    cases = []
    for buffer in (1, 2, 3, 20):                  # 20 > RING
        lengths = {1, ring - 1, ring, ring + 1}
        lengths |= {ring + buffer + dt for dt in (-1, 0, 1)} | {2 * ring + buffer + dt for dt in (-1, 0, 1)}
        cases += [(t_len, buffer, strategy) for t_len in sorted(lengths) for strategy in ("cta", "atc")]
    return cases


# Per sweep: (realizations, with the five baselines, the values' kernel-MAP parameters).
WINDOW_SWEEPS = {
    "mixed": (3, True, [{"eta": 0.0, "sigma": 1.0, "h": 1.0}, {"eta": 0.3, "sigma": 0.7, "h": 2.0},
                        {"eta": 3.0, "sigma": 2.0, "h": 0.5}]),
    "eta7": (1, False, [{"eta": eta} for eta in (0.0, 0.02, 0.05, 0.1, 0.3, 1.0, 3.0)]),
    "delta3": (2, True, [{"delta": delta} for delta in (0.1, 0.5, 2.0)]),
    "baselines": (3, True, []),
}
WINDOW_CASES = [(t_len, buffer, strategy, "mixed", False) for t_len, buffer, strategy in _window_cases()]
WINDOW_IDS = [f"T{t}-B{b}-{s}" for t, b, s, _, _ in WINDOW_CASES]
# Past the second rewind, at every buffer length and strategy.
SHAPE_CASES = [(2 * 16 + buffer + 1, buffer, strategy, name, False)
               for name in ("eta7", "delta3") for buffer in (1, 2, 3, 20) for strategy in ("cta", "atc")]
# Without kernel-MAP rows, around the first and second flush.
BASELINE_CASES = [(t_len, 1, strategy, "baselines", False)
                  for t_len in (1, 15, 16, 17, 33) for strategy in ("cta", "atc")]


@pytest.mark.parametrize("t_len,buffer,strategy,sweep_name,non_finite",
                         WINDOW_CASES + SHAPE_CASES + [(35, 3, "cta", "mixed", True)] + BASELINE_CASES,
                         ids=WINDOW_IDS + [f"T{t}-B{b}-{s}-{name}" for t, b, s, name, _ in SHAPE_CASES]
                         + ["T35-B3-cta-non-finite"] + [f"T{t}-{s}-baselines" for t, _, s, _, _ in BASELINE_CASES])
def test_window_matches_the_dense_steps_at_its_boundaries(t_len, buffer, strategy, sweep_name, non_finite):
    """The engine keeps its states in one window of RING + B slots, and the
    kernel-MAP blocks' states in a (V*R, N, d) and a flat (d, V*R*N) one
    beside it; it reduces its squared deviations once per RING iterations
    and at the last one, and rewinds the newest B states to the top of each
    window after each flush. At and around those boundaries every block
    equals the dense steps bit for bit, the gate at eta = 0 under CTA and at
    eta = 0.1 under ATC, in three sweeps: five baselines and 3 values whose
    eta, sigma and h are per-value arrays over 3 realizations; a 7-value eta
    sweep over one realization, the V*R = 7 rows of the benchmark's gate
    sweep, whose gate opens on 100 % down to 8 % of the node-iterations;
    five baselines and a 3-value delta sweep over 2 realizations; and five
    baselines alone over 3 realizations. The ground truth is a random walk,
    so a flush that pairs a state with another iteration's theta_path[t]
    shows. In the non-finite case node 3's targets are inf from t = 20 in
    realization 0. The kernel-MAP estimates are read back from the states
    the engine flushes, and the collecting flush (`oracles.run_chunk`)
    checks that the blocks arrive in order, RING iterations long but the
    last, and cover the run once."""
    import diffnet.harness as harness_mod
    from oracles import run_baselines_dense_reference, run_npdlms_dense_reference

    assert harness_mod.RING == 16
    realizations, with_baselines, params = WINDOW_SWEEPS[sweep_name]
    algorithms = _five_families_and_npdlms()
    algorithms[-1]["eta"] = 0.0 if strategy == "cta" else 0.1
    cfg = config_from_dict(small_config_dict(
        iterations=t_len, realizations=realizations, strategy=strategy,
        environment={"kind": "random_walk", "q_variance": 1e-3},
        algorithms=algorithms if with_baselines else algorithms[-1:]))
    spec = cfg.npdlms_spec()
    baselines = cfg.algorithms[:-1]
    variants = [replace(spec.kind, buffer=buffer, **value) for value in params]
    batch, _, _ = harness_mod._draw(cfg, range(cfg.realizations))
    assert (np.diff(batch.theta_path, axis=0) != 0).all()     # every iteration its own theta
    if non_finite:
        batch.targets[20:, 0, 2] = np.inf
    sq, updates, states = run_chunk(cfg, baselines, variants, batch)
    sq, flags = harness_mod._finish(sq)
    sq_base = run_baselines_dense_reference(cfg, baselines, batch)
    assert not non_finite or not np.isfinite(sq_base).all()
    reference = [sq_base]
    if variants:
        # The kernel-MAP estimates (T, V*R, N, d), from the flushed (T, A + V, R, d, N) states.
        trace = states[:, len(baselines):].reshape(t_len, -1, *states.shape[3:]).transpose(0, 1, 3, 2)
        trace_ref = np.empty(trace.shape)
        sq_kmap, updates_ref = run_npdlms_dense_reference(cfg, variants, batch, trace_out=trace_ref)
        reference.append(sq_kmap.reshape(len(variants), cfg.realizations, t_len, -1))
        assert same_bits(updates, updates_ref)
        assert same_bits(trace, trace_ref)
    reference, flags_ref = harness_mod._finish(np.concatenate(reference))
    assert same_bits(sq, reference)
    assert np.array_equal(flags, flags_ref)


@pytest.mark.parametrize("slots", [2, 3, 6])
@pytest.mark.parametrize("buffer", [2, 3, 8, 20])
def test_prior_contraction_einsum_is_the_product_and_reduce(buffer, slots):
    """The prior's contraction in `_run_chunk` is one einsum over the (b, slot)
    axes. numpy's unoptimized einsum keeps the innermost output axis
    innermost, starts at +0.0 and adds each product b-outer, slot-inner
    without fusing the multiply and add, so it has the bits of the explicit
    product reduced over the flattened (b, slot) axis: over (V*R, d, N)
    blocks, with the node axis innermost, and over the (d, V*R*N) matrices
    of `_run_chunk`'s flat window, with the flattened (row, node) axis
    innermost. The history is a strided view of a window of states, and its
    flat form a (B, d, V*R*N) slice of a wider window; the weights hold the
    +0.0 own slot, pads, -0.0 and NaN, and the history -0.0, +-inf and NaN."""
    rng = np.random.default_rng(buffer * 10 + slots)
    for rows in (1, 2, 7, 16, 112):
        for d in (1, 2, 5):
            for n in (4, 16):
                window = rng.standard_normal((buffer + 3, 2, rows, d, n))    # 1 baseline block before
                history = window[:, 1:].reshape(-1, rows, d, n)[2 : 2 + buffer]
                history[0, 0, 0, :3] = [-0.0, np.inf, -np.inf]
                history[-1, -1, -1, -1] = np.nan
                window_flat = rng.standard_normal((buffer + 3, d, rows * n))
                history_flat = window_flat[1 : 1 + buffer]
                history_flat.reshape(buffer, d, rows, n)[...] = history.transpose(0, 2, 1, 3)
                mu = rng.uniform(-1.0, 1.0, (buffer, slots, rows, n))
                mu[:, -1] = 0.0                                      # the own slot
                mu[:, slots // 2 :, :, ::3] = 0.0                    # pads after the last neighbour
                mu[0, 0, 0, 1] = -0.0
                mu[-1, 0, -1, 0] = np.nan
                prod = np.empty((buffer, slots, rows, d, n))
                prior = np.empty((rows, d, n))
                prior_flat = np.empty((d, rows * n))
                with np.errstate(invalid="ignore"):
                    np.multiply(history[:, None], mu[:, :, :, None], out=prod)
                    expected = np.add.reduce(prod.reshape(buffer * slots, rows, d, n), axis=0, initial=0.0)
                    np.einsum("bjrk,brdk->rdk", mu, history, out=prior)
                    np.einsum("bjm,bdm->dm", mu.reshape(buffer, slots, -1), history_flat, out=prior_flat)
                expected_flat = expected.transpose(1, 0, 2).reshape(d, rows * n)
                for form, got, want in (("blocks", prior, expected), ("flat", prior_flat, expected_flat)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                        f"numpy {np.__version__}: the {form} einsum's order differs from the"
                        " product-and-reduce"
                        f" at B={buffer}, S={slots}, rows={rows}, d={d}, N={n}")


# --- sweeps: one chunked pass over shared draws --------------------------------


def _five_families_and_npdlms():
    return [
        {"kind": "dlms", "step_size": 0.05},
        {"kind": "dse_lms", "step_size": 0.03},
        {"kind": "dmcc", "step_size": 0.05, "kernel_width": 1.3},
        {"kind": "dlms_f", "step_size": 0.04, "mix": 0.5},
        {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
        {"kind": "npdlms", "step_size": 0.08, "delta": 0.5},
    ]


def _assert_same_result(result, reference):
    assert result.labels == reference.labels
    for label in result.labels:
        assert np.array_equal(result.node_msd[label], reference.node_msd[label])
        kappa, expected = result.kappa[label], reference.kappa[label]
        assert (kappa is None and expected is None) or np.array_equal(kappa, expected)
        assert result.diverged[label] == reference.diverged[label]


SWEEP_CASES = {
    "eta-hard": ({"algorithms": [{"kind": "npdlms", "step_size": 0.08, "eta": 0.0}]}, "eta",
                 [0.0, 0.05, 0.3]),
    "delta-gated": ({"algorithms": [{"kind": "npdlms", "step_size": 0.08, "eta": 0.1}]}, "delta",
                    [0.1, 0.5, 2.0]),
    "sigma-atc": ({"strategy": "atc"}, "sigma", [0.3, 1.0, 3.0]),
    "h-baselines": ({"algorithms": _five_families_and_npdlms()}, "h", [0.5, 1.0, 2.0]),
}


@pytest.mark.parametrize("case", SWEEP_CASES, ids=list(SWEEP_CASES))
def test_sweep_equals_run_experiment_per_value(monkeypatch, case):
    """Every value of a sweep gives the bits of its own `run_experiment`, and
    the baselines, which read neither the gate nor the kernel, run once per
    chunk for all values."""
    import diffnet.harness as harness_mod

    overrides, parameter, values = SWEEP_CASES[case]
    raw = small_config_dict(iterations=50, realizations=5,
                            algorithms=[{"kind": "npdlms", "step_size": 0.08}])
    raw.update(overrides)
    cfg = config_from_dict(raw)
    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 2)
    engine = harness_mod._run_chunk
    calls = []

    def counting(config, baselines, variants, batch, *args, **kwargs):
        calls.append((len(variants), batch.targets.shape[1]))
        return engine(config, baselines, variants, batch, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "_run_chunk", counting)
    swept = sweep(cfg, parameter, values)
    assert calls == [(3, 2), (3, 2), (3, 1)]
    assert len(swept) == len(values)
    for value, result in zip(values, swept):
        algorithms = [replace(spec, kind=replace(spec.kind, **{parameter: value}))
                      if spec is cfg.npdlms_spec() else spec for spec in cfg.algorithms]
        direct = run_experiment(replace(cfg, algorithms=algorithms))
        _assert_same_result(result, direct)
    curves = [result.network_msd("npdlms") for result in swept]
    assert not np.array_equal(curves[0], curves[-1])


@pytest.mark.parametrize("order", [["npdlms", "dlms", "dllad"], ["dlms", "npdlms", "dllad"]],
                         ids=["npdlms-first", "npdlms-between"])
def test_each_label_reads_its_own_block(order):
    """The engine puts the baselines first and the kernel-MAP values after
    them, whatever the config's order. Each label's curves, gate counts and
    divergence count are, bit for bit, those of a config holding that
    algorithm alone: in `run_experiment` and at every value of a sweep, where
    the reference holds the kernel-MAP record at that value.

    dlms diverges in some realizations under this alpha-stable noise, so the
    divergence counts differ between labels.
    """
    entries = {"dlms": {"kind": "dlms", "step_size": 0.4},
               "dllad": {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
               "npdlms": {"kind": "npdlms", "step_size": 0.05, "eta": 0.0}}
    cfg = config_from_dict(small_config_dict(
        iterations=150, realizations=5,
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        algorithms=[entries[label] for label in order]))
    values = [0.0, 0.3, 3.0]
    mixed = [run_experiment(cfg)] + sweep(cfg, "eta", values)
    assert all(result.labels == order for result in mixed)
    assert 0 < mixed[0].diverged["dlms"] < cfg.realizations
    for spec in cfg.algorithms:
        label = spec.label
        kinds = [spec.kind] + [replace(spec.kind, eta=value) if label == "npdlms" else spec.kind
                               for value in values]
        expected = [run_experiment(replace(cfg, algorithms=[replace(spec, kind=kind)])) for kind in kinds]
        for result, reference in zip(mixed, expected, strict=True):
            assert same_bits(result.node_msd[label], reference.node_msd[label]), label
            kappa, counts = result.kappa[label], reference.kappa[label]
            assert (kappa is None) == (counts is None) == (label != "npdlms")
            assert kappa is None or same_bits(kappa, counts)
            assert result.diverged[label] == reference.diverged[label]
            assert type(result.diverged[label]) is int


def _fails_on(cfg, index):
    """A stand-in for `generate_realization_data` that raises on realization `index`."""
    import diffnet.harness as harness_mod

    generate = harness_mod.generate_realization_data
    marker = realization_rng(cfg.base_seed, index).bit_generator.state

    def flaky(config, rng):
        if rng.bit_generator.state == marker:
            raise RuntimeError(f"draw {index} failed")
        return generate(config, rng)

    return flaky


def test_sweep_reports_a_failed_draw_once_and_runs_the_rest_of_its_chunk(monkeypatch):
    import diffnet.harness as harness_mod

    cfg = config_from_dict(small_config_dict(realizations=6, algorithms=[
        {"kind": "dlms", "step_size": 0.05}, {"kind": "npdlms", "step_size": 0.05}]))
    engine = harness_mod._run_chunk
    calls = []

    def counting(config, baselines, variants, batch, *args, **kwargs):
        calls.append((len(variants), batch.targets.shape[1]))
        return engine(config, baselines, variants, batch, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 4)
    monkeypatch.setattr(harness_mod, "_run_chunk", counting)
    monkeypatch.setattr(harness_mod, "generate_realization_data", _fails_on(cfg, 2))
    with pytest.raises(PartialFailure) as err:
        sweep(cfg, "eta", [0.0, 0.5, 2.0])
    assert [idx for idx, _ in err.value.failures] == [2]
    assert calls == [(3, 3), (3, 2)]


def test_sweep_falls_back_per_realization(monkeypatch):
    """A chunk whose batched run raises is re-run one realization at a time,
    every value in each rerun, with the bits of the batched run."""
    import diffnet.harness as harness_mod

    cfg = config_from_dict(small_config_dict(realizations=5, algorithms=[
        {"kind": "dlms", "step_size": 0.05}, {"kind": "npdlms", "step_size": 0.05}]))
    values = [0.0, 0.5, 2.0]
    expected = sweep(cfg, "eta", values)
    bad = generate_realization_data(cfg, realization_rng(cfg.base_seed, 3)).targets
    engine = harness_mod._run_chunk
    reruns = []

    def fragile(config, baselines, variants, batch, *args, **kwargs):
        # any run of several rows fails, and so does realization 3 alone
        if batch.targets.shape[1] > 1:
            raise FloatingPointError("batch failed")
        reruns.append([variant.eta for variant in variants])
        if np.array_equal(batch.targets[:, 0], bad):
            raise FloatingPointError("realization failed")
        return engine(config, baselines, variants, batch, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 2)
    monkeypatch.setattr(harness_mod, "_run_chunk", fragile)
    with pytest.raises(PartialFailure) as err:
        sweep(cfg, "eta", values)
    assert [idx for idx, _ in err.value.failures] == [3]
    assert reruns == [values] * 5

    bad = None
    for result, reference in zip(sweep(cfg, "eta", values), expected):
        _assert_same_result(result, reference)


SNR30 = Path(__file__).resolve().parent.parent / "configs" / "stationary_gaussian_snr30.yaml"


def test_a_batched_chunk_that_fails_after_a_flush_leaves_no_partial_sums(monkeypatch):
    """The batched run adds each flushed block into the sums as it goes. When
    it raises after some blocks, the sums drop them before the chunk is re-run
    one realization at a time, so the result has the bits of a clean run."""
    from diffnet.diffusion import DLLAD

    cfg = replace(load_config(SNR30), iterations=60, realizations=5)
    expected = run_experiment(cfg)
    gain = DLLAD.gain
    calls = []

    def failing(self, e):
        calls.append(e.shape)
        # The 40th call is step t = 39 of the batched run, after its flushes
        # of iterations 0-15 and 16-31.
        if len(calls) == 40:
            raise FloatingPointError("gain failed")
        return gain(self, e)

    monkeypatch.setattr(DLLAD, "gain", failing)
    result = run_experiment(cfg)
    assert len(calls) == 40 + cfg.realizations * cfg.iterations   # then one rerun per realization
    assert calls[0] != calls[-1]                                  # a batch of 5, then of 1
    _assert_same_result(result, expected)


def test_a_chunk_holds_its_draws_and_the_sums_but_no_deviations_of_its_horizon():
    """The squared deviations are flushed into the sums every RING iterations,
    so a chunk's memory grows with the horizon T only by its stacked draws and
    the (A + V, T, N) sums (and their copy, which the bound's slack covers)."""
    import tracemalloc

    import diffnet.harness as harness_mod

    # Stated before measuring: the traced peak grows from T = 500 to T = 2000
    # by at most 1.2 times the growth of one chunk's draws plus the sums.
    slack = 1.2
    cfg = replace(load_config(SNR30), realizations=harness_mod.CHUNK_REALIZATIONS)
    n, d = cfg.topology.node_count, cfg.dim
    blocks = len(cfg.algorithms)

    def held(t_len):
        draws = t_len * cfg.realizations * (d + n * d + n)   # theta_path, regressors, targets
        return 8 * (draws + blocks * t_len * n)

    def peak(t_len):
        tracemalloc.start()
        try:
            run_experiment(replace(cfg, iterations=t_len))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(2000) - peak(500)
    assert growth <= slack * (held(2000) - held(500)), growth / 2**20


# --- configuration sections ------------------------------------------------------


@pytest.mark.parametrize("section,value,named", [
    ("algorithms", ["dlms"], "algorithm entry"),
    ("algorithms", "dlms", "algorithms"),
    ("noise", "gaussian", "noise"),
    ("environment", "stationary", "environment"),
    ("topology", [[1, 2]], "topology"),
    ("topology", {"nodes": 5, "edges": 5}, "edges"),
    ("topology", {"nodes": 5, "edges": None}, "edges"),
], ids=["algorithm-entry", "algorithm-list", "noise", "environment", "topology", "edges-number",
        "edges-null"])
def test_config_section_must_be_a_mapping(section, value, named):
    with pytest.raises(ConfigError, match=f"{named} must be a"):
        config_from_dict(small_config_dict(**{section: value}))


@pytest.mark.parametrize("section,value,named", [
    ("noise", {"kind": "gaussian", "snr_db": 20, "variance": 5.0}, "not both"),
    ("environment", {"kind": "stationary", "q_variance": 1e-3}, "q_variance"),
], ids=["noise", "environment"])
def test_conflicting_keys_rejected(section, value, named):
    # Each used to pass: the variance beside snr_db and a stationary q_variance
    # were silently ignored.
    with pytest.raises(ConfigError, match=named):
        config_from_dict(small_config_dict(**{section: value}))
