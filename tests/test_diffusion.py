"""Baseline update families and the ATC/CTA strategy contract."""

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graphs, same_bits, small_config_dict
import diffnet
from diffnet import harness
from diffnet.diffusion import DLLAD, DLMS, DLMSF, DMCC, DSELMS, FAMILIES, NPDLMS
from diffnet.errors import ConfigError, InvalidParameters
from diffnet.harness import RealizationData, config_from_dict, run_experiment
from oracles import error_gain, run_baseline_reference, run_baselines_dense_reference, run_chunk

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ALL_KINDS = [DLMS(), DSELMS(), DMCC(kernel_width=1.0), DLMSF(mix=1.0), DLLAD(scale=1.0)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
def test_zero_error_gives_zero_direction(kind):
    u = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(error_gain(kind, 0.0) * u, np.zeros(3))
    assert np.array_equal(error_gain(kind, np.zeros(4)), np.zeros(4))


def test_sign_error_clips():
    assert np.array_equal(error_gain(DSELMS(), np.array([-3.7, 0.2, 0.0])), [-1.0, 1.0, 0.0])


def test_correntropy_weight_value():
    assert error_gain(DMCC(kernel_width=1.0), 1.0) == pytest.approx(np.exp(-0.5))
    assert error_gain(DMCC(kernel_width=2.0), -2.0) == pytest.approx(-2.0 * np.exp(-0.5))


def test_lmsf_and_llad_gains():
    assert error_gain(DLMSF(mix=1.0), 2.0) == pytest.approx(8.0 / 5.0)
    assert error_gain(DLLAD(scale=2.0), -0.5) == pytest.approx(-0.5)
    # huge errors stay finite in both families
    assert np.isfinite(error_gain(DLMSF(mix=1.0), 1e200))
    assert error_gain(DLLAD(scale=1.0), np.inf) == 0.0


def test_hyperparameters_strictly_positive():
    for bad in (DMCC, DLMSF, DLLAD):
        with pytest.raises(InvalidParameters):
            bad(0.0)


def test_families_table_builds_every_config_kind():
    """`FAMILIES` names each of the six records by its `kind`, and a config
    entry of that kind builds an instance of that record; other kinds are refused."""
    records = (DLMS, DSELMS, DMCC, DLMSF, DLLAD, NPDLMS)
    assert FAMILIES == {cls.kind: cls for cls in records}
    assert len(FAMILIES) == len(records)
    assert diffnet.NPDLMS is NPDLMS
    specs = [{"kind": kind, "step_size": 0.05} for kind in FAMILIES]
    cfg = config_from_dict(small_config_dict(algorithms=specs))
    assert [type(spec.kind) for spec in cfg.algorithms] == list(records)
    for kind in ("lms", ["dlms"], 5):  # a list used to end in "unhashable type: 'list'"
        with pytest.raises(ConfigError, match=re.escape(f"unknown algorithm kind {kind!r}")):
            config_from_dict(small_config_dict(algorithms=[{"kind": kind, "step_size": 0.05}]))


def _config(nodes, edges, algorithms, iterations, strategy="cta"):
    return config_from_dict({
        "topology": {"nodes": nodes, "edges": edges}, "d": 2, "regressor_variances": 1.0,
        "noise": {"kind": "gaussian", "variance": 0.01}, "algorithms": algorithms,
        "iterations": iterations, "strategy": strategy,
    })


def _batch(regressors, targets, theta_path):
    """A one-realization batch from (T, N, d) regressors, (T, N) targets and (T, d) truth."""
    return RealizationData(theta_path=theta_path[:, None], regressors=regressors[:, None],
                           targets=targets[:, None])


def _row(batch):
    """The draws of a one-realization batch without the realization axis."""
    return RealizationData(*(getattr(batch, f.name)[:, 0] for f in fields(RealizationData)))


def _kind_specs(step):
    return [{"kind": kind.kind, "step_size": step} for kind in ALL_KINDS]


COMPLETE4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def _zero_step_is_pure_combination(strategy):
    rng = np.random.default_rng(31)
    cfg = config_from_dict(small_config_dict(
        iterations=1, strategy=strategy, algorithms=[{"kind": "dlms", "step_size": 1e-300}]))
    data = harness.generate_realization_data(cfg, harness.realization_rng(cfg.base_seed, 0))
    theta0 = rng.standard_normal((5, 3))
    trace = run_baseline_reference(cfg, cfg.algorithms[0], data, theta0)
    a = cfg.combination.matrix
    hoods = [[l - 1 for l in cfg.topology.neighbors(k)] for k in range(1, 6)]
    combined = np.array([theta0[idx].T @ a[idx, k] for k, idx in enumerate(hoods)])
    assert np.allclose(trace[0], combined, rtol=0.0, atol=1e-290)


def test_cta_zero_step_is_pure_combination():
    _zero_step_is_pure_combination("cta")


def test_atc_zero_step_averages_previous():
    _zero_step_is_pure_combination("atc")


def test_single_node_cta_matches_standalone_lms(rng):
    t_len, alpha = 50, 0.1
    theta_o = np.array([1.0, -0.5])
    u = rng.standard_normal((t_len, 1, 2))
    d = u @ theta_o + 0.1 * rng.standard_normal((t_len, 1))
    cfg = _config(1, [], [{"kind": "dlms", "step_size": alpha}], t_len)
    sq = run_chunk(cfg, cfg.algorithms, [], _batch(u, d, np.tile(theta_o, (t_len, 1))))[0]
    theta_ref = np.zeros(2)
    expected = []
    for t in range(t_len):
        theta_ref = theta_ref + alpha * (d[t, 0] - u[t, 0] @ theta_ref) * u[t, 0]
        expected.append((theta_ref - theta_o) @ (theta_ref - theta_o))
    assert np.allclose(sq[0, 0, :, 0], expected, rtol=1e-10, atol=1e-14)


def test_single_node_atc_equals_cta(rng):
    t_len = 30
    u = rng.standard_normal((t_len, 1, 2))
    d = 0.7 + 0.5 * rng.standard_normal((t_len, 1))
    batch = _batch(u, d, np.tile([0.3, -0.2], (t_len, 1)))
    sq = {}
    for strategy in ("cta", "atc"):
        cfg = _config(1, [], _kind_specs(0.2), t_len, strategy)
        sq[strategy] = run_chunk(cfg, cfg.algorithms, [], batch)[0]
    assert np.allclose(sq["cta"], sq["atc"], rtol=0.0, atol=1e-15)


def test_zero_noise_truth_is_fixed_point(rng):
    # Dyadic data and weights 1/4 keep every product and sum exact, so the
    # errors at the truth are exactly zero and the truth must not move.
    t_len = 10
    theta_o = np.array([0.5, -1.25])
    u = rng.integers(-3, 4, size=(t_len, 4, 2)).astype(float)
    d = u @ theta_o
    data = _row(_batch(u, d, np.tile(theta_o, (t_len, 1))))
    for strategy in ("cta", "atc"):
        cfg = _config(4, COMPLETE4, _kind_specs(0.3), t_len, strategy)
        for spec in cfg.algorithms:
            trace = run_baseline_reference(cfg, spec, data, np.tile(theta_o, (4, 1)))
            assert np.array_equal(trace, np.broadcast_to(theta_o, trace.shape)), spec.label
        # The engine starts at zero; with a zero truth and zero noise it never moves.
        zero = _batch(u, np.zeros((t_len, 4)), np.zeros((t_len, 2)))
        assert not run_chunk(cfg, cfg.algorithms, [], zero)[0].any()


def test_identical_data_keeps_nodes_identical():
    # Fully connected 3-node network, identical rows everywhere: symmetry must persist.
    rng = np.random.default_rng(5)
    t_len = 30
    theta_o = np.array([1.0, -1.0])
    u = np.repeat(rng.standard_normal((t_len, 1, 2)), 3, axis=1)
    d = np.repeat(u[:, :1] @ theta_o + 0.1 * rng.standard_normal((t_len, 1)), 3, axis=1)
    batch = _batch(u, d, np.tile(theta_o, (t_len, 1)))
    cfg = _config(3, [(1, 2), (2, 3), (1, 3)], [{"kind": "dlms", "step_size": 0.05}], t_len)
    sq = run_chunk(cfg, cfg.algorithms, [], batch)[0][0, 0]
    assert np.allclose(sq[:, 0], sq[:, 1], atol=1e-14)
    assert np.allclose(sq[:, 0], sq[:, 2], atol=1e-14)
    trace = run_baseline_reference(cfg, cfg.algorithms[0], _row(batch))
    assert np.allclose(trace[:, 0], trace[:, 1], atol=1e-14)
    assert np.allclose(trace[:, 0], trace[:, 2], atol=1e-14)


def test_dlms_converges_in_mean_below_remark_bound():
    # alpha < 2 / lambda_max(sum_l R_l) keeps the mean recursion contracting.
    from diffnet.harness import generate_realization_data, realization_rng

    raw = small_config_dict(realizations=60, iterations=40,
                            algorithms=[{"kind": "dlms", "step_size": 0.12}])
    cfg = config_from_dict(raw)
    lam_max = max(
        sum(cfg.regressor_variances[l - 1] for l in cfg.topology.neighbors(k))
        for k in range(1, 6)
    )
    assert 0.12 < 2.0 / lam_max
    mask = cfg.topology.adjacency_mask()
    a = cfg.combination.matrix
    acc = np.zeros((cfg.iterations, 3, 5))
    for idx in range(60):
        data = generate_realization_data(cfg, realization_rng(cfg.base_seed, idx))
        theta = np.zeros((3, 5))
        for t in range(cfg.iterations):
            u_t, d_t = data.regressors[t], data.targets[t]
            phi = theta @ a
            err = d_t[:, None] - u_t @ phi
            theta = phi + 0.12 * (u_t.T @ (error_gain(DLMS(), err) * mask))
            acc[t] += data.theta_path[t][:, None] - theta
    mean_err_norm = np.linalg.norm(acc / 60, axis=(1, 2))
    # strict decay while the mean error is above the Monte-Carlo floor
    assert mean_err_norm[10] < 0.5 * mean_err_norm[3]
    assert mean_err_norm[20] < 0.5 * mean_err_norm[3]


def test_vectorized_baselines_match_per_node_ops():
    """Every family in the fused engine runs the recursion of the per-node oracle."""
    raw = small_config_dict(
        iterations=40,
        realizations=2,
        algorithms=[
            {"kind": "dlms", "step_size": 0.05},
            {"kind": "dse_lms", "step_size": 0.03},
            {"kind": "dmcc", "step_size": 0.05, "kernel_width": 1.3},
            {"kind": "dlms_f", "step_size": 0.04, "mix": 0.5},
            {"kind": "dllad", "step_size": 0.05, "scale": 2.0},
        ],
    )
    for strategy in ("cta", "atc"):
        raw["strategy"] = strategy
        cfg = config_from_dict(raw)
        batch, drawn, _ = harness._draw(cfg, range(cfg.realizations))
        sq_fast = run_chunk(cfg, cfg.algorithms, [], batch)[0]
        assert sq_fast.shape == (5, 2, cfg.iterations, 5)
        for r in drawn:
            data = harness.generate_realization_data(cfg, harness.realization_rng(cfg.base_seed, r))
            for i, spec in enumerate(cfg.algorithms):
                dev = run_baseline_reference(cfg, spec, data) - data.theta_path[:, None]
                sq_ref = np.einsum("tnd,tnd->tn", dev, dev)
                assert np.allclose(sq_fast[i, r], sq_ref, rtol=1e-10, atol=1e-14)


def test_determinism_bit_identical_curves():
    raw = small_config_dict()
    first = run_experiment(config_from_dict(raw))
    second = run_experiment(config_from_dict(raw))
    assert np.array_equal(first.node_msd["dlms"], second.node_msd["dlms"])


SIGNED = (DSELMS, DLLAD)      # g(e) takes the sign of e; the rest take e's value class


def test_sparse_gains_times_zero_equal_error_times_zero():
    """Each family's gain is its base, sign(e) for the `SIGNED` families and
    e for the rest, up to a finite positive factor: g(e) * 0 equals the base
    times 0 bit for bit, signed zeros and NaNs included, for every e from
    +-0 to +-inf and NaN; DLMS and DSE-LMS are their base to the bit.
    """
    kinds = ALL_KINDS + [DMCC(kernel_width=0.005), DLMSF(mix=1e-3), DLLAD(scale=10.0)]
    e = np.array([0.0, 5e-324, 1e-200, 1e-5, 0.7, 3.0, 1e99, 1e100, 1e150, 1e200,
                  np.finfo(float).max, np.inf, np.nan])
    e = np.concatenate([e, -e])
    for kind in kinds:
        base = np.sign(e) if isinstance(kind, SIGNED) else e
        with np.errstate(invalid="ignore"):
            lhs = error_gain(kind, e) * 0.0
            rhs = base * 0.0
        assert np.array_equal(np.isnan(lhs), np.isnan(rhs)), kind
        finite = ~np.isnan(rhs)
        assert np.array_equal(lhs[finite], rhs[finite]), kind
        assert np.array_equal(np.signbit(lhs[finite]), np.signbit(rhs[finite])), kind
        if isinstance(kind, (DLMS, DSELMS)):
            assert same_bits(error_gain(kind, e), base), kind
    # The signed families differ from e * 0 at +-inf and at -0.0.
    with np.errstate(invalid="ignore"):
        assert not same_bits(error_gain(DLLAD(), e) * 0.0, e * 0.0)


ALPHA_STABLE ={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0}
# dlms_f at step 2 overflows under alpha-stable noise; the other two stay finite.
SPARSE_OVERFLOW = [{"kind": "dlms_f", "step_size": 2.0},
                   {"kind": "dmcc", "step_size": 0.5, "kernel_width": 0.5},
                   {"kind": "dlms_f", "step_size": 0.05, "label": "dlms_f_slow"}]


def test_sparse_gain_evaluation_is_bit_identical_to_dense(monkeypatch):
    """Evaluating dmcc and dlms_f on neighbour pairs only changes no bit, even past overflow."""
    raw = small_config_dict(iterations=300, realizations=3, noise=ALPHA_STABLE,
                            algorithms=SPARSE_OVERFLOW)
    for strategy in ("cta", "atc"):
        raw["strategy"] = strategy
        cfg = config_from_dict(raw)
        batch, _, _ = harness._draw(cfg, range(cfg.realizations))
        sparse = run_chunk(cfg, cfg.algorithms, [], batch)[0]
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_SPARSE_GAINS", ())
            dense = run_baselines_dense_reference(cfg, cfg.algorithms, batch)
        assert not np.isfinite(sparse[0]).all()
        assert np.array_equal(sparse, dense, equal_nan=True)


# --- fused engine against the dense step, bit for bit ----------------------


def _assert_matches_dense_step(cfg):
    """The engine reproduces every bit of the dense step; returns the deviations."""
    specs = [spec for spec in cfg.algorithms if not isinstance(spec.kind, NPDLMS)]
    batch, drawn, _ = harness._draw(cfg, range(cfg.realizations))
    assert drawn == list(range(cfg.realizations))
    sq = run_chunk(cfg, specs, [], batch)[0]
    assert same_bits(sq, run_baselines_dense_reference(cfg, specs, batch))
    return sq


FIVE = [{"kind": "dlms", "step_size": 0.05}, {"kind": "dse_lms", "step_size": 0.03},
        {"kind": "dmcc", "step_size": 0.05, "kernel_width": 1.3},
        {"kind": "dlms_f", "step_size": 0.04, "mix": 0.5},
        {"kind": "dllad", "step_size": 0.05, "scale": 2.0}]
# Steps that overflow every family under alpha-stable noise: the bounded gains
# need a step near the largest float before u' theta overflows to +-inf.
OVERFLOWING = [{"kind": "dlms", "step_size": 2.0}, {"kind": "dse_lms", "step_size": 1e306},
               {"kind": "dmcc", "step_size": 1e306, "kernel_width": 0.5},
               {"kind": "dlms_f", "step_size": 2.0}, {"kind": "dllad", "step_size": 1e306}]
# With regressors of variance 1e100, u' theta overflows while theta is still
# finite, so off-neighbour errors reach +-inf, which must not reach the gains.
WIDE = [{"kind": "dse_lms", "step_size": 1e306}, {"kind": "dllad", "step_size": 1e306}]


def _families(strategy, algorithms=FIVE, **raw):
    return config_from_dict(small_config_dict(**{"iterations": 200, "realizations": 3, **raw},
                                              strategy=strategy, algorithms=algorithms))


def _shipped_baselines(name, seed, realizations):
    return replace(harness.load_config(CONFIGS / f"{name}.yaml"), base_seed=seed,
                   realizations=realizations)


BASELINE_CASES = {
    **{f"families-{s}": (lambda s=s: _families(s)) for s in ("cta", "atc")},
    **{f"overflow-{s}": (lambda s=s: _families(s, OVERFLOWING, iterations=300, noise=ALPHA_STABLE))
       for s in ("cta", "atc")},
    **{f"overflow-sparse-{s}": (lambda s=s: _families(s, SPARSE_OVERFLOW, iterations=300,
                                                      noise=ALPHA_STABLE))
       for s in ("cta", "atc")},
    **{f"overflow-wide-{s}": (lambda s=s: _families(s, WIDE, iterations=100, noise=ALPHA_STABLE,
                                                    regressor_variances=1e100))
       for s in ("cta", "atc")},
    **{f"{name}-seed{seed}-R{reals}":
       (lambda name=name, seed=seed, reals=reals: _shipped_baselines(name, seed, reals))
       for name in ("stationary_gaussian_snr30", "stationary_alpha_stable",
                    "nonstationary_alpha_stable")
       for seed in (11, 0, 42) for reals in (1, 2, 4, 16)},
}


@pytest.mark.parametrize("case", BASELINE_CASES, ids=list(BASELINE_CASES))
def test_baseline_engine_matches_dense_step_bit_for_bit(case):
    sq = _assert_matches_dense_step(BASELINE_CASES[case]())
    # Every family of the overflow cases leaves the floats but "overflow-sparse"'s
    # last two; the other cases stay finite.
    finite = [not case.startswith("overflow")] * len(sq)
    if case.startswith("overflow-sparse"):
        finite = [False, True, True]
    assert np.isfinite(sq).all(axis=(1, 2, 3)).tolist() == finite


@given(graph=graphs(), strategy=st.sampled_from(["cta", "atc"]), seed=st.integers(0, 10**6),
       algorithms=st.sampled_from([FIVE, OVERFLOWING]), variance=st.sampled_from([1.0, 1e100]))
@settings(max_examples=40, deadline=None)
def test_baseline_engine_matches_dense_step_on_random_graphs(graph, strategy, seed, algorithms,
                                                             variance):
    nodes, edges = graph
    _assert_matches_dense_step(config_from_dict(small_config_dict(
        topology={"nodes": nodes, "edges": edges}, d=2, regressor_variances=variance,
        theta_o=[0.6, -0.8], iterations=60, realizations=2, base_seed=seed, strategy=strategy,
        noise=ALPHA_STABLE, algorithms=algorithms)))
