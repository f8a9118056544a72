"""Baseline update families and the ATC/CTA strategy contract."""

import numpy as np
import pytest

from diffnet.diffusion import (
    DLLAD,
    DLMS,
    DLMSF,
    DMCC,
    DSELMS,
    NodeState,
    SharedData,
    atc_step,
    baseline_update_direction,
    cta_step,
    error_gain,
)
from diffnet.errors import InvalidParameters
from diffnet.harness import config_from_dict, run_experiment
from tests.conftest import small_config_dict

ALL_KINDS = [DLMS(), DSELMS(), DMCC(kernel_width=1.0), DLMSF(mix=1.0), DLLAD(scale=1.0)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
def test_zero_error_gives_zero_direction(kind):
    u = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(baseline_update_direction(kind, 0.0, u), np.zeros(3))


def test_sign_error_clips():
    direction = baseline_update_direction(DSELMS(), -3.7, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(direction, np.array([-1.0, 0.0, 0.0]))


def test_correntropy_weight_value():
    direction = baseline_update_direction(DMCC(kernel_width=1.0), 1.0, np.array([1.0, 0.0]))
    assert direction[0] == pytest.approx(np.exp(-0.5))
    assert direction[1] == 0.0


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


def _shared_single_node(u, d, theta):
    return SharedData(node=1, neighbors=(1,), u=np.atleast_2d(u),
                      d=np.atleast_1d(d), theta_prev=np.atleast_2d(theta))


def test_cta_zero_step_is_pure_combination(rng):
    theta_prev = rng.standard_normal((3, 2))
    shared = SharedData(node=2, neighbors=(1, 2, 3), u=rng.standard_normal((3, 2)),
                        d=rng.standard_normal(3), theta_prev=theta_prev)
    weights = np.array([0.25, 0.5, 0.25])
    state = cta_step(NodeState(theta=np.zeros(2)), shared, weights, DLMS(), step_size=1e-300)
    assert np.allclose(state.theta, theta_prev.T @ weights, atol=1e-290)


def test_single_node_cta_matches_standalone_lms(rng):
    theta = np.zeros(2)
    theta_ref = np.zeros(2)
    alpha = 0.1
    for _ in range(50):
        u = rng.standard_normal(2)
        d = u @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal()
        state = cta_step(NodeState(theta=theta.copy()),
                         _shared_single_node(u, d, theta), np.array([1.0]), DLMS(), alpha)
        theta = state.theta
        theta_ref = theta_ref + alpha * (d - u @ theta_ref) * u
        assert np.allclose(theta, theta_ref, atol=1e-12)


def test_single_node_atc_equals_cta(rng):
    u = rng.standard_normal(2)
    d = 0.7
    theta = rng.standard_normal(2)
    for kind in ALL_KINDS:
        s_cta = cta_step(NodeState(theta=theta.copy()), _shared_single_node(u, d, theta),
                         np.array([1.0]), kind, 0.2)
        s_atc = atc_step(NodeState(theta=theta.copy()), _shared_single_node(u, d, theta),
                         np.array([1.0]), kind, 0.2)
        assert np.allclose(s_cta.theta, s_atc.theta, atol=1e-15)


def test_zero_noise_truth_is_fixed_point(rng):
    theta_o = np.array([0.4, -1.2])
    u = rng.standard_normal((3, 2))
    d = u @ theta_o
    shared = SharedData(node=1, neighbors=(1, 2, 3), u=u, d=d,
                        theta_prev=np.tile(theta_o, (3, 1)))
    for kind in ALL_KINDS:
        state = cta_step(NodeState(theta=theta_o.copy()), shared, np.full(3, 1 / 3), kind, 0.3)
        assert np.allclose(state.theta, theta_o, atol=1e-14)


def test_atc_zero_step_averages_previous(rng):
    theta_prev = rng.standard_normal((2, 3))
    phi = theta_prev.copy()  # zero step: intermediates equal previous estimates
    shared = SharedData(node=1, neighbors=(1, 2), u=rng.standard_normal((2, 3)),
                        d=rng.standard_normal(2), theta_prev=theta_prev, phi=phi)
    state = atc_step(NodeState(theta=theta_prev[0].copy()), shared,
                     np.array([0.5, 0.5]), DLMS(), step_size=1e-300)
    assert np.allclose(state.theta, theta_prev.mean(axis=0), atol=1e-290)


def test_identical_data_keeps_nodes_identical():
    # Fully connected 3-node network, identical rows everywhere: symmetry must persist.
    rng = np.random.default_rng(5)
    theta_o = np.array([1.0, -1.0])
    nodes = (1, 2, 3)
    thetas = [np.zeros(2) for _ in nodes]
    for _ in range(30):
        u = rng.standard_normal(2)
        d = float(u @ theta_o + 0.1 * rng.standard_normal())
        prev = np.stack(thetas)
        new = []
        for k in nodes:
            shared = SharedData(node=k, neighbors=nodes, u=np.tile(u, (3, 1)),
                                d=np.full(3, d), theta_prev=prev)
            new.append(cta_step(NodeState(theta=prev[k - 1].copy()), shared,
                                np.full(3, 1 / 3), DLMS(), 0.05).theta)
        thetas = new
        assert np.allclose(thetas[0], thetas[1], atol=1e-14)
        assert np.allclose(thetas[0], thetas[2], atol=1e-14)


def test_dlms_converges_in_mean_below_remark_bound():
    # alpha < 2 / lambda_max(sum_l R_l) keeps the mean recursion contracting.
    from diffnet.harness import generate_realization_data, realization_rng

    raw = small_config_dict(realizations=60, iterations=40,
                            algorithms=[{"kind": "dlms", "step_size": 0.12}])
    cfg = config_from_dict(raw)
    lam_max = max(
        sum(cfg.covariances[l - 1][0, 0] for l in cfg.topology.neighbors(k))
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
    """Every family in the fused engine runs the recursion of the single-node ops."""
    from diffnet import harness

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
        sq_fast = harness._run_baselines(cfg, cfg.algorithms, batch)
        assert sq_fast.shape == (5, 2, cfg.iterations, 5)
        for r in drawn:
            data = harness.generate_realization_data(cfg, harness.realization_rng(cfg.base_seed, r))
            for i, spec in enumerate(cfg.algorithms):
                sq_ref = _reference_baseline(cfg, spec, data, strategy)
                assert np.allclose(sq_fast[i, r], sq_ref, rtol=1e-10, atol=1e-14)


def _reference_baseline(cfg, spec, data, strategy):
    topo = cfg.topology
    n, d = topo.node_count, cfg.dim
    a = cfg.combination.matrix
    thetas = np.zeros((n, d))
    sq = np.empty((cfg.iterations, n))
    for t in range(cfg.iterations):
        prev = thetas.copy()
        u_t, d_t = data.regressors[t], data.targets[t]
        staged = np.empty_like(prev)
        phi_all = None
        if strategy == "atc":
            phi_all = np.empty_like(prev)
            for k in range(1, n + 1):
                idx = [l - 1 for l in topo.neighbors(k)]
                shared = SharedData(node=k, neighbors=topo.neighbors(k), u=u_t[idx],
                                    d=d_t[idx], theta_prev=prev[idx])
                e = shared.d - shared.u @ prev[k - 1]
                phi_all[k - 1] = prev[k - 1] + spec.step_size * (shared.u.T @ error_gain(spec.kind, e))
        for k in range(1, n + 1):
            ids = topo.neighbors(k)
            idx = [l - 1 for l in ids]
            weights = a[idx, k - 1]
            shared = SharedData(node=k, neighbors=ids, u=u_t[idx], d=d_t[idx],
                                theta_prev=prev[idx],
                                phi=None if phi_all is None else phi_all[idx])
            state = NodeState(theta=prev[k - 1].copy())
            if strategy == "cta":
                staged[k - 1] = cta_step(state, shared, weights, spec.kind, spec.step_size).theta
            else:
                staged[k - 1] = atc_step(state, shared, weights, spec.kind, spec.step_size).theta
        thetas = staged
        dev = thetas - data.theta_path[t]
        sq[t] = np.einsum("nd,nd->n", dev, dev)
    return sq


def test_determinism_bit_identical_curves():
    raw = small_config_dict()
    first = run_experiment(config_from_dict(raw))
    second = run_experiment(config_from_dict(raw))
    assert np.array_equal(first.node_msd["dlms"], second.node_msd["dlms"])


def test_sparse_gains_times_zero_equal_error_times_zero():
    """The fused engine writes e * 0 off the neighbourhoods for its sparse gains.

    That is exact only if g(e) * 0 and e * 0 agree bit for bit, signed zeros
    and NaNs included, for every e.
    """
    from diffnet import harness

    kinds = ALL_KINDS + [DMCC(kernel_width=0.005), DLMSF(mix=1e-3), DLLAD(scale=10.0)]
    sparse = [kind for kind in kinds if isinstance(kind, harness._SPARSE_GAINS)]
    assert sparse
    e = np.array([0.0, 5e-324, 1e-200, 1e-5, 0.7, 3.0, 1e99, 1e100, 1e150, 1e200,
                  np.finfo(float).max, np.inf, np.nan])
    e = np.concatenate([e, -e])
    for kind in sparse:
        with np.errstate(invalid="ignore"):
            lhs = error_gain(kind, e) * 0.0
            rhs = e * 0.0
        assert np.array_equal(np.isnan(lhs), np.isnan(rhs)), kind
        finite = ~np.isnan(rhs)
        assert np.array_equal(lhs[finite], rhs[finite]), kind
        assert np.array_equal(np.signbit(lhs[finite]), np.signbit(rhs[finite])), kind


def test_sparse_gain_evaluation_is_bit_identical_to_dense(monkeypatch):
    """Evaluating dmcc and dlms_f on neighbour pairs only changes no bit, even past overflow."""
    from diffnet import harness

    raw = small_config_dict(
        iterations=300, realizations=3,
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        algorithms=[
            {"kind": "dlms_f", "step_size": 2.0},
            {"kind": "dmcc", "step_size": 0.5, "kernel_width": 0.5},
            {"kind": "dlms_f", "step_size": 0.05, "label": "dlms_f_slow"},
        ],
    )
    for strategy in ("cta", "atc"):
        raw["strategy"] = strategy
        cfg = config_from_dict(raw)
        batch, _, _ = harness._draw(cfg, range(cfg.realizations))
        sparse = harness._run_baselines(cfg, cfg.algorithms, batch)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_SPARSE_GAINS", ())
            dense = harness._run_baselines(cfg, cfg.algorithms, batch)
        assert not np.isfinite(sparse[0]).all()
        assert np.array_equal(sparse, dense, equal_nan=True)
