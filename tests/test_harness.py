"""Experiment orchestration: determinism, pairing, CSV export, sweeps."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

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
    run_realization,
    sweep,
    theory_inputs_from_config,
)
from conftest import same_bits, small_config_dict


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
    a = generate_realization_data(cfg, realization_rng(cfg.base_seed, 0)).noises.ravel()
    b = generate_realization_data(cfg, realization_rng(cfg.base_seed, 1)).noises.ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02 or a.size < 1000
    big_cfg = config_from_dict(small_config_dict(iterations=2000))
    a = generate_realization_data(big_cfg, realization_rng(7, 0)).noises.ravel()
    b = generate_realization_data(big_cfg, realization_rng(7, 1)).noises.ravel()
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


def test_csv_extra_columns_follow_the_algorithms(tmp_path):
    result = run_experiment(config_from_dict(small_config_dict(iterations=3)))
    path = tmp_path / "x.csv"
    export_csv(result, path, {"theory_msd_db": np.array([-1.5, 0.1, 2.0 / 3.0])})
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,dlms_msd_db,theory_msd_db"
    assert [float(line.split(",")[2]) for line in lines[1:]] == [-1.5, 0.1, 2.0 / 3.0]


def test_empty_algorithm_list_is_config_error():
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(algorithms=[]))


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(algorithms=[
            {"kind": "dlms", "step_size": 0.1},
            {"kind": "dlms", "step_size": 0.2},
        ]))


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


@pytest.mark.parametrize("edge", [[1, 2.7], [True, 5], [1, 2, 3], [1]],
                         ids=["fraction", "boolean", "triple", "single"])
def test_inline_edge_must_be_a_pair_of_integers(edge):
    # These used to load as the edges (1, 2), (1, 5) and (1, 2), and [1] ended
    # in an IndexError.
    topology = {"nodes": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], edge]}
    with pytest.raises(ConfigError, match=re.escape(repr(edge))):
        config_from_dict(small_config_dict(topology=topology))


@pytest.mark.parametrize("overrides,named", [
    ({"gate": {"eta": 0.0, "mood": "hard"}}, "mood"),
    ({"gate": {"eta": -1.0}}, "eta"),
    ({"gate": {"eta": float("nan"), "mode": "hard"}}, "eta"),
    ({"gate": {"slope": 0.0}, "algorithms": [{"kind": "npdlms", "step_size": 0.05}]}, "slope"),
    ({"gate": {"buffer": 2}, "algorithms": [{"kind": "npdlms", "step_size": 0.05}]}, "buffer"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05, "eta": 1.0}]}, "eta"),
    ({"algorithms": [{"kind": "npdlms", "step_size": 0.05},
                     {"kind": "npdlms", "step_size": 0.08, "label": "second"}]}, "one npdlms"),
], ids=["unknown-key", "eta-beside-dlms", "eta-nan", "slope-beside-npdlms", "kernel-key-in-gate",
        "gate-key-in-entry", "two-npdlms"])
def test_gate_section_is_checked_and_the_only_place_for_the_gate(overrides, named):
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
    (lambda: _config(gate={"eta": 0.1, "mode": "smooth", "slope": INF}), "slope"),
], ids=["dlms-step-inf", "npdlms-step-inf", "q-variance-nan", "q-variance-inf", "theta-nan-variance",
        "theta-nan-snr", "theta-inf-replace", "kernel-width-inf", "mix-inf", "scale-inf",
        "theory-theta-nan", "slope-inf"])
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
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.05}],
                            gate={"eta": 0.0, "mode": "hard"})
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
                            algorithms=[{"kind": "npdlms", "step_size": 0.05}],
                            gate={"eta": 0.0, "mode": "hard"})
    result = run_experiment(config_from_dict(raw))
    assert result.kappa_mean("npdlms") == 30.0
    raw["gate"] = {"eta": 1e12, "mode": "hard"}
    result = run_experiment(config_from_dict(raw))
    assert result.kappa_mean("npdlms") == 0.0


def test_theory_inputs_from_config():
    raw = small_config_dict(algorithms=[{"kind": "npdlms", "step_size": 0.02, "delta": 0.3}])
    cfg = config_from_dict(raw)
    inputs = theory_inputs_from_config(cfg)
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
    assert np.array_equal(got.regressor_covariances, ref.regressor_covariances)
    for name in ("noise_variances", "step_sizes", "theta_o", "h", "delta"):
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
        algorithms=[{"kind": "npdlms", "step_size": 0.12, "delta": 0.25}],
        gate={"eta": 0.0, "mode": "hard"},
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
    run_chunk = harness_mod._run_chunk
    rows = []

    def counting(config, baselines, variants, batch, trace_out=None):
        rows.append(batch.targets.shape[1])
        return run_chunk(config, baselines, variants, batch, trace_out)

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
    run_chunk = harness_mod._run_chunk

    def fragile(config, baselines, variants, batch, trace_out=None):
        # any batch of several rows fails, and so does realization 3 alone
        if batch.targets.shape[1] > 1 or np.array_equal(batch.targets[:, 0], bad):
            raise FloatingPointError("batch failed")
        return run_chunk(config, baselines, variants, batch, trace_out)

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
    sq, updates = harness_mod._run_chunk(cfg, cfg.algorithms[:2], [cfg.npdlms_spec().kind], batch)
    sq, flags = harness_mod._finish(sq)
    alone = run_realization(cfg, 1)
    assert flags[0, 0]
    assert np.isnan(harness_mod._run_chunk(cfg, cfg.algorithms[:1], [], batch)[0][0, 0]).any()
    for block, label in enumerate(result.labels):
        assert np.array_equal(sq[block, 1], alone[label][0])
        assert flags[block, 1] == alone[label][2]
    assert np.array_equal(updates[1], alone["npdlms"][1])


@pytest.mark.parametrize("gate", [{"eta": 0.0, "mode": "hard"}, {"eta": 0.2, "mode": "smooth"}],
                         ids=["hard", "smooth"])
@pytest.mark.parametrize("strategy", ["cta", "atc"])
def test_families_stay_isolated_in_the_one_time_loop(strategy, gate):
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
        iterations=120, realizations=3, strategy=strategy, gate=gate, algorithms=algorithms,
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0}))
    spec = cfg.npdlms_spec()
    baselines = cfg.algorithms[:-1]                # blocks 0-4: dlms, dse_lms, dmcc, dlms_f, dllad
    variants = [replace(spec.kind, eta=eta) for eta in (0.0, 0.3, 3.0)]
    batch, _, _ = harness_mod._draw(cfg, range(cfg.realizations))
    batch.targets[50:, 0, 2] = np.inf
    sq, updates = harness_mod._run_chunk(cfg, baselines, variants, batch)
    sq, flags = harness_mod._finish(sq)
    assert flags[3, 1:].any() and not flags[0, 1:].any()
    assert flags[0, 0] and not flags[4, 0]

    def alone(entry, variant=None):
        single = replace(cfg, algorithms=[entry])
        sq, updates = harness_mod._run_chunk(single, [] if variant else [entry],
                                             [variant] if variant else [], batch)
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


@pytest.mark.parametrize("gate", [{"eta": 0.0, "mode": "hard"},
                                  {"eta": 0.1, "mode": "smooth", "slope": 3.0}], ids=["hard", "smooth"])
@pytest.mark.parametrize("strategy", ["cta", "atc"])
def test_non_finite_values_spread_one_hop_per_step(strategy, gate):
    """Node 3's targets (index 2) are inf from t = 50 in realization 0 of an
    8-node ring.

    A non-finite value travels only along edges: each step's combine moves
    it one hop, and the adapt step reads the data of a node's own
    neighbourhood. So at step t >= 50 every non-finite estimate lies within
    t - 49 hops of node 3, and one hop further under ATC, whose first step
    combines after the adapt has read the inf. The gate energy sums the
    neighbourhood's errors only, so the hard gate at eta = 0 keeps firing at
    every node, and the smooth gate stays finite outside the reach.
    """
    import diffnet.harness as harness_mod

    source, onset, n = 2, 50, 8
    cfg = config_from_dict(small_config_dict(
        topology={"nodes": n, "edges": [[k, k % n + 1] for k in range(1, n + 1)]},
        regressor_variances=1.0, iterations=60, strategy=strategy, gate=gate,
        algorithms=_five_families_and_npdlms()))
    links = cfg.topology.adjacency_mask() > 0
    spec = cfg.npdlms_spec()
    baselines = [entry for entry in cfg.algorithms if entry is not spec]
    batch, _, _ = harness_mod._draw(cfg, range(cfg.realizations))
    batch.targets[onset:, 0, source] = np.inf
    sq, updates = harness_mod._run_chunk(cfg, baselines, [spec.kind], batch)
    broken = ~np.isfinite(sq)                      # (family, realization, t, node)
    assert not broken[:, 1].any() and not broken[:, 0, :onset].any()
    assert broken[0, 0, onset, source]             # dlms takes the inf at once

    reach = np.zeros(n, dtype=bool)
    reach[source] = True
    for t in range(onset, cfg.iterations):
        for _ in range(2 if strategy == "atc" and t == onset else 1):
            reach = reach @ links
        assert not broken[:, 0, t, ~reach].any(), (t, broken[:, 0, t].any(axis=0), reach)
    if gate["mode"] == "hard":
        assert (updates == cfg.iterations).all()


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
    "eta-hard": ({"gate": {"eta": 0.0, "mode": "hard"}}, "eta", [0.0, 0.05, 0.3]),
    "delta-smooth": ({"gate": {"eta": 0.1, "mode": "smooth", "slope": 3.0}}, "delta",
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
    run_chunk = harness_mod._run_chunk
    calls = []

    def counting(config, baselines, variants, batch, trace_out=None):
        calls.append((len(variants), batch.targets.shape[1]))
        return run_chunk(config, baselines, variants, batch, trace_out)

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
               "npdlms": {"kind": "npdlms", "step_size": 0.05}}
    cfg = config_from_dict(small_config_dict(
        iterations=150, realizations=5, gate={"eta": 0.0, "mode": "hard"},
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
    run_chunk = harness_mod._run_chunk
    calls = []

    def counting(config, baselines, variants, batch, trace_out=None):
        calls.append((len(variants), batch.targets.shape[1]))
        return run_chunk(config, baselines, variants, batch, trace_out)

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
    run_chunk = harness_mod._run_chunk
    reruns = []

    def fragile(config, baselines, variants, batch, trace_out=None):
        # any run of several rows fails, and so does realization 3 alone
        if batch.targets.shape[1] > 1:
            raise FloatingPointError("batch failed")
        reruns.append([variant.eta for variant in variants])
        if np.array_equal(batch.targets[:, 0], bad):
            raise FloatingPointError("realization failed")
        return run_chunk(config, baselines, variants, batch, trace_out)

    monkeypatch.setattr(harness_mod, "CHUNK_REALIZATIONS", 2)
    monkeypatch.setattr(harness_mod, "_run_chunk", fragile)
    with pytest.raises(PartialFailure) as err:
        sweep(cfg, "eta", values)
    assert [idx for idx, _ in err.value.failures] == [3]
    assert reruns == [values] * 5

    bad = None
    for result, reference in zip(sweep(cfg, "eta", values), expected):
        _assert_same_result(result, reference)


# --- configuration sections ------------------------------------------------------


@pytest.mark.parametrize("section,value,named", [
    ("algorithms", ["dlms"], "algorithm entry"),
    ("algorithms", "dlms", "algorithms"),
    ("noise", "gaussian", "noise"),
    ("environment", "stationary", "environment"),
    ("gate", "hard", "gate"),
    ("topology", [[1, 2]], "topology"),
], ids=["algorithm-entry", "algorithm-list", "noise", "environment", "gate", "topology"])
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
