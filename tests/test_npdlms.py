"""Kernel-MAP update: kernels, mu weights, gradient oracle, gate, buffers."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, same_bits, small_config_dict
from diffnet import harness
from diffnet.diffusion import NPDLMS, bounded_error_gain
from diffnet.errors import DimensionMismatch, InvalidParameters
from diffnet.network import build_topology
from oracles import (
    DegenerateDenominator,
    EmptyBuffer,
    EstimateBuffer,
    NonPositiveBandwidth,
    SharedData,
    conditional_kde,
    dense_prior_term,
    gaussian_kernel,
    kde_prior,
    log_local_objective,
    mu_weights,
    neighbor_error,
    npdlms_adapt,
    npdlms_gradient,
    pseudo_huber,
    run_chunk,
    run_npdlms_dense_reference,
    run_npdlms_reference,
    threshold_gate,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- kernels and losses ----------------------------------------------------


def test_gaussian_kernel_examples():
    x = np.array([1.0, 2.0])
    assert gaussian_kernel(1.0, x, x) == 1.0
    assert gaussian_kernel(2.0, x, x) == 0.5
    y = x + np.array([1.0, 1.0])  # squared distance 2
    assert gaussian_kernel(1.0, x, y) == pytest.approx(np.exp(-1.0))


def test_gaussian_kernel_errors():
    with pytest.raises(NonPositiveBandwidth):
        gaussian_kernel(0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        gaussian_kernel(1.0, np.zeros(2), np.zeros(3))


def test_pseudo_huber_examples():
    assert pseudo_huber(1.0, 0.0) == (0.0, 0.0)
    loss, dloss = pseudo_huber(1.0, 1.0)
    assert loss == pytest.approx(np.sqrt(2.0) - 1.0)
    assert dloss == pytest.approx(1.0 / np.sqrt(2.0))


def test_pseudo_huber_asymptote():
    delta, a = 0.25, 100.0
    loss, _ = pseudo_huber(delta, a)
    approx = delta * a - delta * delta
    assert abs(loss - approx) / loss < 1e-4  # within 0.01 percent


@given(st.floats(-1e12, 1e12), st.floats(1e-6, 1e3))
@settings(max_examples=300, deadline=None)
def test_bounded_gain_never_exceeds_delta(a, delta):
    assert abs(bounded_error_gain(delta, a)) <= delta


def test_bounded_gain_odd_and_saturating():
    e = np.array([-np.inf, -1e300, -1.0, 0.0, 1.0, 1e300, np.inf])
    g = bounded_error_gain(0.25, e)
    assert np.array_equal(g, -g[::-1])
    assert g[-1] == g[-2] == 0.25 and g[0] == g[1] == -0.25


# --- kernel density over buffers -------------------------------------------


def test_kde_prior_all_equal():
    buf = np.tile(np.array([0.5, -1.0]), (4, 1))
    assert kde_prior(buf, np.array([0.5, -1.0]), sigma=2.0) == pytest.approx(0.5)


def test_kde_prior_single_entry():
    buf = np.array([[1.0, 0.0]])
    theta = np.array([0.0, 0.0])
    assert kde_prior(buf, theta, 1.0) == pytest.approx(gaussian_kernel(1.0, theta, buf[0]))


def test_kde_prior_matches_resummation_oracle(rng):
    buf = rng.standard_normal((3, 4))
    theta = rng.standard_normal(4)
    sigma = 0.7
    oracle = sum(gaussian_kernel(sigma, theta, row) for row in buf) / 3
    assert kde_prior(buf, theta, sigma) == pytest.approx(oracle, rel=1e-14)


def test_kde_prior_empty_buffer():
    with pytest.raises(EmptyBuffer):
        kde_prior(np.empty((0, 2)), np.zeros(2), 1.0)


def test_conditional_kde_reductions(rng):
    theta_k = rng.standard_normal(3)
    theta_l = rng.standard_normal(3)
    buf_k = rng.standard_normal((4, 3))
    # all neighbour entries at theta_l: ratio collapses to the plain prior
    buf_l = np.tile(theta_l, (4, 1))
    value = conditional_kde(buf_k, buf_l, theta_k, theta_l, 0.9, 1.4)
    assert value == pytest.approx(kde_prior(buf_k, theta_k, 0.9), rel=1e-14)
    # all own entries at theta_k: maximal kernel 1/sigma_k
    value = conditional_kde(np.tile(theta_k, (4, 1)), rng.standard_normal((4, 3)),
                            theta_k, theta_l, 0.9, 1.4)
    assert value == pytest.approx(1.0 / 0.9, rel=1e-14)


def test_conditional_kde_single_entry(rng):
    buf_k = rng.standard_normal((1, 2))
    buf_l = rng.standard_normal((1, 2))
    theta_k, theta_l = rng.standard_normal(2), rng.standard_normal(2)
    assert conditional_kde(buf_k, buf_l, theta_k, theta_l, 1.1, 0.8) == pytest.approx(
        gaussian_kernel(1.1, theta_k, buf_k[0]), rel=1e-14
    )


def test_conditional_kde_matches_resummation_oracle(rng):
    buf_k = rng.standard_normal((5, 2))
    buf_l = rng.standard_normal((5, 2))
    theta_k, theta_l = rng.standard_normal(2), rng.standard_normal(2)
    sk, sl = 0.8, 1.3
    num = sum(gaussian_kernel(sk, theta_k, bk) * gaussian_kernel(sl, theta_l, bl)
              for bk, bl in zip(buf_k, buf_l))
    den = sum(gaussian_kernel(sl, theta_l, bl) for bl in buf_l)
    assert conditional_kde(buf_k, buf_l, theta_k, theta_l, sk, sl) == pytest.approx(
        num / den, rel=1e-13
    )


def test_degenerate_denominator_raises():
    buf_l = np.full((3, 2), np.inf)
    with pytest.raises(DegenerateDenominator):
        conditional_kde(np.zeros((3, 2)), buf_l, np.zeros(2), np.zeros(2), 1.0, 1.0)
    with pytest.raises(DegenerateDenominator):
        mu_weights(np.full((3, 2), np.inf), np.zeros((3, 2)), np.zeros(2), np.zeros(2), 1.0, 1.0)


# --- mu weights -------------------------------------------------------------


def test_mu_weights_full_symmetry():
    buf_k = np.tile(np.array([1.0, 1.0]), (5, 1))
    buf_l = np.tile(np.array([-2.0, 0.5]), (5, 1))
    mw = mu_weights(buf_k, buf_l, np.array([0.0, 0.0]), np.array([-2.0, 0.5]), 1.0, 1.0)
    assert np.allclose(mw.mu_ki, 0.2, atol=1e-15)
    assert np.allclose(mw.mu_kli, 0.2, atol=1e-15)


def test_mu_weights_idealized_neighbor_buffer():
    # r_l matching entries at theta_l, the rest far away: mu_kli = 1/r_l there.
    theta_l = np.array([0.3, -0.7])
    far = theta_l + 30.0
    buf_l = np.stack([theta_l, theta_l, far, far])
    buf_k = np.tile(np.array([1.0, 1.0]), (4, 1))
    mw = mu_weights(buf_k, buf_l, np.array([1.0, 1.0]), theta_l, 1.0, 1.0)
    assert mw.mu_kli[0] == pytest.approx(0.5, abs=1e-12)
    assert mw.mu_kli[1] == pytest.approx(0.5, abs=1e-12)
    assert mw.mu_kli[2] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(mw.mu_ki, 0.25, atol=1e-12)


def test_mu_weights_single_entry(rng):
    mw = mu_weights(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)),
                    rng.standard_normal(3), rng.standard_normal(3), 1.0, 1.0)
    assert mw.mu_kli[0] == 1.0 and mw.mu_ki[0] == 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_mu_weights_sum_to_one(seed):
    r = np.random.default_rng(seed)
    b = int(r.integers(1, 7))
    d = int(r.integers(1, 5))
    scale = 10.0 ** r.integers(-2, 3)
    mw = mu_weights(scale * r.standard_normal((b, d)), scale * r.standard_normal((b, d)),
                    scale * r.standard_normal(d), scale * r.standard_normal(d),
                    float(r.uniform(0.1, 3.0)), float(r.uniform(0.1, 3.0)))
    assert abs(mw.mu_kli.sum() - 1.0) <= 1e-12
    assert abs(mw.mu_ki.sum() - 1.0) <= 1e-12
    assert np.all(mw.mu_kli >= 0) and np.all(mw.mu_ki >= 0)


# --- neighbourhood error and gate something --------------------------------


def test_neighbor_error_examples(rng):
    shared = SharedData(node=1, neighbors=(1,), u=np.array([[1.0, 0.0]]),
                        d=np.array([2.0]), theta_prev=np.zeros((1, 2)))
    assert neighbor_error(np.zeros(2), shared) == 4.0
    u = rng.standard_normal((3, 2))
    theta = rng.standard_normal(2)
    shared = SharedData(node=1, neighbors=(1, 2, 3), u=u, d=(u @ theta),
                        theta_prev=np.zeros((3, 2)))
    assert neighbor_error(theta, shared) == pytest.approx(0.0, abs=1e-25)
    d_vals = rng.standard_normal(3)
    shared = SharedData(node=1, neighbors=(1, 2, 3), u=u, d=d_vals, theta_prev=np.zeros((3, 2)))
    oracle = sum((d_vals[i] - u[i] @ theta) ** 2 for i in range(3))
    assert neighbor_error(theta, shared) == pytest.approx(oracle, rel=1e-14)


def test_threshold_gate_examples():
    assert threshold_gate(0.5, NPDLMS(eta=0.0)) == 1.0
    assert threshold_gate(0.0, NPDLMS(eta=0.0)) == 0.0
    assert threshold_gate(3.0, NPDLMS(eta=3.0)) == 0.0
    assert threshold_gate(3.5, NPDLMS(eta=3.0)) == 1.0


def test_threshold_params_validation():
    with pytest.raises(InvalidParameters):
        NPDLMS(eta=-1.0)
    for buffer in (2.5, True):
        with pytest.raises(InvalidParameters, match="buffer"):
            NPDLMS(buffer=buffer)


# --- estimate buffers -------------------------------------------------------


def test_buffer_ring_keeps_last_b_newest_first():
    buf = EstimateBuffer(3, [7])
    for n in range(6):
        buf.push(7, np.array([float(n)]))
    hist = buf.history(7)
    assert hist.shape == (3, 1)
    assert [float(h[0]) for h in hist] == [5.0, 4.0, 3.0]


def test_buffer_depth_and_errors():
    buf = EstimateBuffer(2, [1, 2])
    assert buf.depth(1) == 0
    with pytest.raises(EmptyBuffer):
        buf.history(1)
    buf.push(1, np.zeros(2))
    assert buf.depth(1) == 1
    with pytest.raises(InvalidParameters):
        EstimateBuffer(0, [1])


def test_buffer_stores_copies():
    buf = EstimateBuffer(2, [1])
    v = np.array([1.0, 2.0])
    buf.push(1, v)
    v[0] = 99.0
    assert buf.history(1)[0, 0] == 1.0


# --- gradient oracle --------------------------------------------------------


def _random_instance(r, max_dim=4, max_buf=5, max_nbrs=3):
    d = int(r.integers(1, max_dim + 1))
    m = int(r.integers(1, max_nbrs + 1))
    b = int(r.integers(2, max_buf + 1))
    neighbors = tuple(range(1, m + 1))
    buffers = EstimateBuffer(b, neighbors)
    for _ in range(b):
        for l in neighbors:
            buffers.push(l, r.normal(0, 1, d))
    shared = SharedData(node=1, neighbors=neighbors, u=r.normal(0, 1, (m, d)),
                        d=r.normal(0, 1, m), theta_prev=r.normal(0, 1, (m, d)))
    params = NPDLMS(sigma=float(r.uniform(0.5, 2.0)), h=float(r.uniform(0.5, 2.0)),
                    delta=float(r.uniform(0.1, 1.0)))
    return shared, buffers, params, r.normal(0, 1, d)


def _fd_gradient(theta, shared, buffers, params, step=1e-5):
    fd = np.zeros_like(theta)
    for j in range(theta.size):
        e_j = np.zeros_like(theta)
        e_j[j] = step
        fd[j] = (log_local_objective(theta + e_j, shared, buffers, params)
                 - log_local_objective(theta - e_j, shared, buffers, params)) / (2 * step)
    return fd


def test_gradient_matches_finite_differences():
    r = np.random.default_rng(12)
    for _ in range(100):
        shared, buffers, params, theta = _random_instance(r)
        grad = npdlms_gradient(theta, shared, buffers, params)
        fd = _fd_gradient(theta, shared, buffers, params)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        assert rel <= 1e-6


def test_gradient_zero_at_stationary_point(rng):
    # zero errors, uniform buffers: both terms vanish
    d = 3
    theta = rng.standard_normal(d)
    u = rng.standard_normal((2, d))
    shared = SharedData(node=1, neighbors=(1, 2), u=u, d=u @ theta,
                        theta_prev=np.stack([theta, theta]))
    buffers = EstimateBuffer(3, (1, 2))
    for _ in range(3):
        buffers.push(1, theta)
        buffers.push(2, theta)
    grad = npdlms_gradient(theta, shared, buffers, NPDLMS())
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_gradient_reduces_to_scaled_lms_for_small_errors(rng):
    # single node, huge delta: direction is (1/h) e u'
    d = 4
    theta = rng.standard_normal(d)
    u = rng.standard_normal((1, d))
    d_val = np.array([u[0] @ theta + 0.01])
    shared = SharedData(node=1, neighbors=(1,), u=u, d=d_val, theta_prev=theta[None])
    buffers = EstimateBuffer(2, (1,))
    buffers.push(1, theta)
    params = NPDLMS(h=1.7, delta=1e9)
    grad = npdlms_gradient(theta, shared, buffers, params)
    err = d_val[0] - u[0] @ theta
    assert np.allclose(grad, err * u[0] / 1.7, rtol=1e-9)


def test_objective_likelihood_scales_with_h(rng):
    shared, buffers, params, theta = _random_instance(np.random.default_rng(3))
    # doubling h halves the likelihood block at fixed errors; verify on the
    # pure-likelihood part by cancelling the prior blocks
    p1 = NPDLMS(sigma=params.sigma, h=1.0, delta=params.delta)
    p2 = NPDLMS(sigma=params.sigma, h=2.0, delta=params.delta)
    like1 = log_local_objective(theta, shared, buffers, p1)
    like2 = log_local_objective(theta, shared, buffers, p2)
    prior_only = _prior_block(theta, shared, buffers, params.sigma)
    assert (like1 - prior_only) == pytest.approx(2.0 * (like2 - prior_only), rel=1e-10)


def _prior_block(theta, shared, buffers, sigma):
    total = 0.0
    for i, l in enumerate(shared.neighbors):
        total += np.log(kde_prior(buffers.history(l), shared.theta_prev[i], sigma))
    for i, l in enumerate(shared.neighbors):
        if l == shared.node:
            continue
        total += np.log(conditional_kde(buffers.history(shared.node), buffers.history(l),
                                        theta, shared.theta_prev[i], sigma, sigma))
        total -= np.log(kde_prior(buffers.history(shared.node), theta, sigma))
    return total


# --- one adapt step, and 1-node runs of the engine -------------------------


def _single_node_config(strategy="cta", **algorithm):
    return harness.config_from_dict({
        "topology": {"nodes": 1, "edges": []}, "d": 3, "regressor_variances": 1.0,
        "theta_o": [0.6, -1.1, 0.3], "noise": {"kind": "gaussian", "variance": 0.0025},
        "algorithms": [{"kind": "npdlms", "eta": 0.0, **algorithm}], "iterations": 100,
        "strategy": strategy,
    })


def _run_variants(cfg, variants, batch):
    """The engine on kernel-MAP rows alone: squared deviations (V*R, T, N),
    update counts and the estimates (T, V*R, N, d), read from the flushed states."""
    sq, updates, states = run_chunk(cfg, [], variants, batch)
    t_len, _, _, d, n = states.shape
    return sq.reshape(-1, *sq.shape[2:]), updates, states.reshape(t_len, -1, d, n).transpose(0, 1, 3, 2)


def _run_engine(cfg):
    batch, _, _ = harness._draw(cfg, range(cfg.realizations))
    return batch, *_run_variants(cfg, [cfg.npdlms_spec().kind], batch)[:2]


def test_step_with_infinite_threshold_is_pure_combination(rng):
    d = 3
    prev = rng.standard_normal((3, d))
    u = rng.standard_normal((3, d))
    shared = SharedData(node=2, neighbors=(1, 2, 3), u=u, d=rng.standard_normal(3),
                        theta_prev=prev)
    buffers = EstimateBuffer(3, (1, 2, 3))
    combined = prev.T @ np.array([0.3, 0.4, 0.3])
    adapted, updated = npdlms_adapt(shared, buffers, NPDLMS(),
                                    NPDLMS(eta=np.inf), 0.5, combined)
    assert not updated
    assert np.array_equal(adapted, combined)
    # In the engine a gate that never opens leaves every node at its zero start.
    cfg = harness.config_from_dict(small_config_dict(
        iterations=30, algorithms=[{"kind": "npdlms", "step_size": 0.5, "eta": float("inf")}]))
    batch, sq, updates = _run_engine(cfg)
    truth = np.einsum("trd,trd->rt", batch.theta_path, batch.theta_path)
    assert not updates.any()
    assert np.array_equal(sq, np.repeat(truth[:, :, None], 5, axis=2))


def test_step_single_node_b1_matches_lms_trajectory():
    # B=1, no neighbours, huge delta, eta=0: exactly LMS with step alpha/h
    alpha, h = 0.08, 1.6
    cfg = _single_node_config(step_size=alpha, buffer=1, h=h, delta=1e12)
    batch, sq, updates = _run_engine(cfg)
    theta_o = cfg.theta_o
    theta_ref = np.zeros(3)
    expected = []
    for t in range(cfg.iterations):
        u, d_val = batch.regressors[t, 0, 0], batch.targets[t, 0, 0]
        theta_ref = theta_ref + (alpha / h) * (d_val - u @ theta_ref) * u
        expected.append((theta_ref - theta_o) @ (theta_ref - theta_o))
    assert np.array_equal(updates, [[cfg.iterations]])
    assert np.allclose(sq[0, :, 0], expected, rtol=1e-9, atol=1e-20)


@pytest.mark.parametrize("sigma", [0.01, 0.3, 10.0])
def test_buffer_one_run_ignores_sigma(sigma):
    # With one buffered estimate the kernel prior never enters the step, so a
    # networked run at B = 1 is the prior-free update that `theory` predicts,
    # the same bits at every sigma. At B = 3 the prior does move the run.
    def run(s, buffer):
        cfg = harness.config_from_dict(small_config_dict(
            algorithms=[{"kind": "npdlms", "step_size": 0.05, "buffer": buffer, "sigma": s}]))
        return _run_engine(cfg)[1:]

    sq, updates = run(sigma, 1)
    ref_sq, ref_updates = run(1.0, 1)
    assert np.isfinite(sq).all()
    assert np.array_equal(sq, ref_sq) and np.array_equal(updates, ref_updates)
    assert not np.array_equal(run(sigma, 3)[0], run(1.0, 3)[0])


def test_step_zero_noise_fixed_point(rng):
    d = 2
    theta_o = rng.standard_normal(d)
    u = rng.standard_normal((2, d))
    shared = SharedData(node=1, neighbors=(1, 2), u=u, d=u @ theta_o,
                        theta_prev=np.stack([theta_o, theta_o]))
    buffers = EstimateBuffer(3, (1, 2))
    combined = shared.theta_prev.T @ np.array([0.5, 0.5])
    adapted, updated = npdlms_adapt(shared, buffers, NPDLMS(),
                                    NPDLMS(eta=1e-6), 0.3, combined)
    assert np.allclose(adapted, theta_o, atol=1e-14)
    assert not updated  # zero error cannot clear a positive threshold


def test_step_atc_single_node_equals_cta():
    _, sq_cta, updates_cta = _run_engine(_single_node_config("cta", step_size=0.1, buffer=2))
    _, sq_atc, updates_atc = _run_engine(_single_node_config("atc", step_size=0.1, buffer=2))
    assert np.allclose(sq_cta, sq_atc, rtol=0.0, atol=1e-15)
    assert np.array_equal(updates_cta, updates_atc)


def test_step_pushes_received_estimates():
    prev = np.array([[1.0, 0.0], [0.0, 1.0]])
    shared = SharedData(node=1, neighbors=(1, 2), u=np.zeros((2, 2)),
                        d=np.zeros(2), theta_prev=prev)
    buffers = EstimateBuffer(3, (1, 2))
    npdlms_adapt(shared, buffers, NPDLMS(), NPDLMS(eta=0.0),
                 0.1, prev.T @ np.array([0.5, 0.5]))
    assert buffers.depth(1) == 1 and buffers.depth(2) == 1
    assert np.array_equal(buffers.history(1)[0], prev[0])
    assert np.array_equal(buffers.history(2)[0], prev[1])


# --- batched engine against the per-node oracle ----------------------------


@pytest.mark.parametrize("strategy,gate", [
    ("cta", {"eta": 0.0}),
    ("atc", {"eta": 0.3}),
])
def test_batched_npdlms_matches_per_node_oracle(strategy, gate):
    """Each row of a batched kernel-MAP run is the per-node recursion on its own draws."""
    raw = small_config_dict(iterations=40, realizations=3, strategy=strategy,
                            algorithms=[{"kind": "npdlms", "step_size": 0.08, "buffer": 3,
                                         "sigma": 0.5, **gate}])
    cfg = harness.config_from_dict(raw)
    spec = cfg.npdlms_spec()
    batch, drawn, failures = harness._draw(cfg, range(cfg.realizations))
    assert drawn == [0, 1, 2] and not failures
    sq, updates, _ = _run_variants(cfg, [spec.kind], batch)
    assert sq.shape == (3, cfg.iterations, 5) and updates.shape == (3, 5)
    for r in drawn:
        data = harness.generate_realization_data(cfg, harness.realization_rng(cfg.base_seed, r))
        sq_ref, updates_ref = run_npdlms_reference(cfg, spec, data)
        assert np.allclose(sq[r], sq_ref, rtol=1e-10, atol=0.0)
        assert np.array_equal(updates[r], updates_ref)
    if gate["eta"] > 0:                            # the gate both opens and shuts
        assert 0 < updates.sum() < updates.size * cfg.iterations


# --- neighbour-slot engine against the dense step, bit for bit --------------


def _assert_matches_dense_step(cfg, variants):
    """The engine reproduces every bit of the dense step; returns (sq, trace)."""
    batch, drawn, _ = harness._draw(cfg, range(cfg.realizations))
    assert drawn == list(range(cfg.realizations))
    sq, updates, trace = _run_variants(cfg, variants, batch)
    assert trace.shape == (cfg.iterations, len(variants) * cfg.realizations, cfg.topology.node_count, cfg.dim)
    trace_ref = np.empty(trace.shape)
    sq_ref, updates_ref = run_npdlms_dense_reference(cfg, variants, batch, trace_out=trace_ref)
    assert same_bits(sq, sq_ref)
    assert same_bits(updates, updates_ref)
    assert same_bits(trace, trace_ref)
    return sq_ref, trace_ref


def _shipped(name, seed=None, realizations=2, step_size=None, strategy=None, **kernel):
    """A shipped config at `seed`, with its kernel-MAP record changed by `kernel`."""
    cfg = harness.load_config(CONFIGS / f"{name}.yaml")
    spec = cfg.npdlms_spec()
    cfg = replace(cfg, realizations=realizations,
                  base_seed=cfg.base_seed if seed is None else seed,
                  strategy=strategy or cfg.strategy,
                  algorithms=[replace(spec, step_size=step_size or spec.step_size)])
    return cfg, [replace(spec.kind, **kernel)]


def _swept(parameter, values):
    cfg, (kind,) = _shipped("threshold_sweep")
    return cfg, [replace(kind, **{parameter: value}) for value in values]


SHIPPED = sorted(path.stem for path in CONFIGS.glob("*.yaml"))
SLOT_CASES = {
    **{f"{name}-seed{seed}": (lambda name=name, seed=seed: _shipped(name, seed))
       for name in SHIPPED for seed in (11, 0, 42)},
    "eta-sweep": lambda: _swept("eta", (0, 100, 200, 300, 400, 600, 1000)),
    "delta-sweep": lambda: _swept("delta", (0.1, 0.5, 2.0)),
    "sigma-sweep": lambda: _swept("sigma", (0.01, 0.1, 1.0, 10.0)),
    "buffer-1": lambda: _shipped("threshold_sweep", buffer=1),
    "buffer-8": lambda: _shipped("threshold_sweep", realizations=8, buffer=8, sigma=0.1),
    "buffer-past-ring": lambda: _shipped("threshold_sweep", buffer=harness.RING + 1, sigma=0.1),
    "eta-150": lambda: _shipped("threshold_sweep", eta=150.0),
    "atc": lambda: _shipped("stationary_alpha_stable", strategy="atc"),
    "step-50": lambda: _shipped("threshold_sweep", step_size=50.0),
    "overflow": lambda: _shipped("threshold_sweep", h=1e-300, step_size=1e10),
}
DIVERGING = ("sigma-sweep", "step-50", "overflow")


@pytest.mark.parametrize("case", SLOT_CASES, ids=list(SLOT_CASES))
def test_slot_engine_matches_dense_step_bit_for_bit(case):
    sq, trace = _assert_matches_dense_step(*SLOT_CASES[case]())
    # Diverging cases overflow the squared distances, so the prior's log-weights
    # go non-finite; "overflow" also feeds inf and NaN estimates into its sums.
    assert np.isfinite(sq).all() != (case in DIVERGING)
    assert np.isnan(trace).any() == (case == "overflow")


def _graph_config(nodes, edges, strategy="cta", seed=5, **algorithm):
    raw = small_config_dict(
        topology={"nodes": nodes, "edges": edges}, d=2, regressor_variances=1.0,
        theta_o=[0.6, -0.8], iterations=40, realizations=2, base_seed=seed, strategy=strategy,
        algorithms=[{"kind": "npdlms", "step_size": 0.1, "sigma": 0.5, **algorithm}])
    cfg = harness.config_from_dict(raw)
    return cfg, [cfg.npdlms_spec().kind]


def test_slot_engine_matches_dense_step_on_star_and_single_node():
    star = [[1, k] for k in range(2, 9)]                 # hub degree N - 1
    for strategy in ("cta", "atc"):
        _assert_matches_dense_step(*_graph_config(8, star, strategy, buffer=4))
        _assert_matches_dense_step(*_graph_config(1, [], strategy, buffer=3))


@pytest.mark.parametrize("t_len", [5, 2 * harness.RING + 3], ids=["T5", "rewind"])
def test_buffer_past_the_horizon_is_the_buffer_of_the_horizon(t_len):
    """At most T states are ever buffered, so a buffer of 10**12 runs the bits
    of a buffer of T and allocates no more; T = 2 RING + 3 takes the window's
    rewind twice."""
    def run(buffer):
        raw = small_config_dict(iterations=t_len, algorithms=[
            {"kind": "dlms", "step_size": 0.05},
            {"kind": "npdlms", "step_size": 0.05, "sigma": 0.5, "buffer": buffer}])
        return harness.run_experiment(harness.config_from_dict(raw))

    huge, exact = run(10**12), run(t_len)
    for label in exact.labels:
        assert same_bits(huge.node_msd[label], exact.node_msd[label])
    assert same_bits(huge.kappa["npdlms"], exact.kappa["npdlms"])
    assert huge.diverged == exact.diverged


@given(graph=graphs(), strategy=st.sampled_from(["cta", "atc"]), buffer=st.integers(1, 5),
       sigma=st.sampled_from([0.01, 0.3, 2.0]), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_slot_engine_matches_dense_step_on_random_graphs(graph, strategy, buffer, sigma, seed):
    nodes, edges = graph
    _assert_matches_dense_step(*_graph_config(nodes, edges, strategy, seed, buffer=buffer,
                                              sigma=sigma))


# --- the kernel prior alone against the dense prior term, bit for bit ------


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 1e160, -1e160])


@given(graph=graphs(), buffer=st.integers(2, 8), reals=st.integers(1, 3), d=st.integers(1, 4),
       sigmas=st.lists(st.sampled_from([0.01, 0.3, 1.0, 2.0]), min_size=1, max_size=3),
       cta=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_prior_matches_dense_prior_term_bit_for_bit(graph, buffer, reals, d, sigmas, cta, seed):
    """`_KernelPrior.add` adds the dense step's prior term to the bit, NaN
    positions and signs of zero included, over a partly and then a fully
    filled buffer, with one sigma (a scalar) or a sweep of them (per row), and
    with NaN, +-inf, -0.0 and +-1e160 in the history, the states and the
    gradient."""
    nodes, edges = graph
    mask = build_topology(nodes, edges).adjacency_mask()
    cross = mask.copy()
    np.fill_diagonal(cross, 0.0)
    rows = len(sigmas) * reals
    rng = np.random.default_rng(seed)
    # Slot 0 holds the evaluation points, slots 1.. the history, newest first,
    # as the engine's (V*R, N, d) window does.
    window = rng.standard_normal((buffer + 1, rows, nodes, d)) * rng.choice([0.1, 1.0, 10.0])
    grad_k = rng.standard_normal((rows, d, nodes))
    for x in (window, grad_k):
        hit = rng.random(x.shape) < rng.choice([0.0, 0.02, 0.2])
        x[hit] = rng.choice(SPECIALS, hit.sum())
    if not cta:
        window[0] = window[1]                      # ATC evaluates at the current states
    operand = np.ascontiguousarray(window[1:].transpose(0, 3, 1, 2)).reshape(buffer, d, rows * nodes)
    sigma = np.repeat(np.array(sigmas), reals)
    prior = harness._KernelPrior([NPDLMS(sigma=value, buffer=buffer) for value in sigmas],
                                 mask, rows, nodes, d, buffer)
    for filled in (int(rng.integers(2, buffer + 1)), buffer):
        got = grad_k.copy()
        with np.errstate(all="ignore"):
            expected = grad_k + dense_prior_term(window[1 : filled + 1], window[0], window[1], cross,
                                                 -2.0 * sigma[:, None], sigma[:, None, None])
            prior.add(got, window[:2], window[1:, None], operand, filled)
        assert same_bits(got, expected)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_kernel_prior_bits_do_not_depend_on_the_blas_kernel(coretype):
    """The test above, rerun with OpenBLAS on another CPU kernel: the prior
    calls no BLAS, so its bits are the same on every kernel."""
    root = Path(__file__).resolve().parent.parent
    test = f"{Path(__file__).name}::test_kernel_prior_matches_dense_prior_term_bit_for_bit"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"tests/{test}"],
                          capture_output=True, text=True, cwd=root, timeout=600,
                          env={**os.environ, "OPENBLAS_CORETYPE": coretype})
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
