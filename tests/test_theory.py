"""Moment construction, stability bound, steady-state and transient theory."""

import math
from dataclasses import FrozenInstanceError, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml
from scipy.integrate import quad
from scipy.optimize import brentq

from diffnet import diffusion, harness, theory
from diffnet.diffusion import bounded_error_gain, bounded_gain_moments
from diffnet.errors import DimensionMismatch, IndexOutOfRange, InvalidParameters, UnstableSystem
from diffnet.network import build_topology, combination_weights
import oracles
from oracles import (
    gain_statistics_reference,
    node_metrics_reference,
    steady_fixed_point_reference,
    transient_curves_reference,
)
from diffnet.theory import (
    TheoryInputs,
    build_moments,
    spectral_radius,
    steady_state_metrics,
    stepsize_upper_bound,
    to_db,
    transient_curves,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def single_node_inputs(r=1.0, sv2=1.0, alpha=0.01, delta=0.25, h=1.0, d=3):
    topo = build_topology(1, [])
    return TheoryInputs(
        topology=topo, combination=combination_weights(topo),
        regressor_covariances=[r * np.eye(d)], noise_variances=sv2, step_sizes=alpha,
        theta_o=np.ones(d) / np.sqrt(d), delta=delta, h=h,
    )


def random_inputs(seed, n_max=4, d_max=3, delta=0.25):
    r = np.random.default_rng(seed)
    n = int(r.integers(2, n_max + 1))
    d = int(r.integers(1, d_max + 1))
    edges = [(int(r.integers(1, k)), k) for k in range(2, n + 1)]
    for _ in range(int(r.integers(0, n))):
        i, j = r.integers(1, n + 1, 2)
        if i != j:
            edges.append((int(i), int(j)))
    topo = build_topology(n, edges)
    covs = []
    for _ in range(n):
        m = r.standard_normal((d, d))
        covs.append(np.trace(m @ m.T + 0.3 * np.eye(d)) / d * np.eye(d))   # white: r_l I
    return TheoryInputs(
        topology=topo, combination=combination_weights(topo, str(r.choice(["uniform", "metropolis"]))),
        regressor_covariances=covs, noise_variances=r.uniform(0.01, 1.0, n),
        step_sizes=np.ones(n), theta_o=r.standard_normal(d), delta=delta,
    )


def quad_gain_moments(variance, delta):
    """E[g'(e)] and E[g(e)^2] for e ~ N(0, variance), by adaptive quadrature.

    Independent of the closed forms in the theory module: g is the
    simulator's own gain, and the slope comes from Stein's identity
    E[g'(e)] = E[e g(e)] / variance.
    """
    sd = math.sqrt(variance)
    corner = delta / sd

    def expect(fn):
        def integrand(z):
            return fn(sd * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        points = [-corner, 0.0, corner] if corner < 12.0 else [0.0]
        return quad(integrand, -12.0, 12.0, points=points, epsabs=0.0, epsrel=1e-12,
                    limit=400)[0]

    def gain(e):
        return float(bounded_error_gain(delta, e))

    return expect(lambda e: e * gain(e)) / variance, expect(lambda e: gain(e) ** 2)


def scalar_fixed_point(alpha, sv2, r, d, delta, h=1.0):
    """Steady state of one node with R = r I_d, solved independently.

    P = p I_d, and the error e = u theta_tilde + v has variance
    sv2 + r d p. With slope s and second moment m2 at that variance,
    F = 1 - alpha s r / h and the Stein equation p = F^2 p + alpha^2 m2 r / h^2
    give p = alpha m2 / (h s (2 - alpha s r / h)). Returns (p, s, m2).
    """
    def moments_at(p):
        return quad_gain_moments(sv2 + r * d * p, delta)

    def residual(p):
        s, m2 = moments_at(p)
        return p - alpha * m2 / (h * s * (2.0 - alpha * s * r / h))

    p = brentq(residual, 0.0, 1.0, xtol=1e-16, rtol=1e-14)
    return (p, *moments_at(p))


# --- gain statistics ----------------------------------------------------------


@pytest.mark.parametrize("ratio", [0.0, 1e-5, 1e-3, 0.014, 0.1, 0.4, 1.0, 4.0, 16.0, 100.0])
def test_gain_moments_match_quadrature(ratio):
    delta = 0.25
    variance = (ratio * delta) ** 2
    slope, second = bounded_gain_moments(variance, delta)
    if ratio == 0.0:
        assert slope == 1.0 and second == 0.0
        return
    expected_slope, expected_second = quad_gain_moments(variance, delta)
    assert slope == pytest.approx(expected_slope, rel=1e-10)
    assert second == pytest.approx(expected_second, rel=1e-10)


def test_gain_moments_match_mpmath():
    """Both moments against their closed forms at 40 digits, on 321 c =
    variance / delta^2 log-spaced over [1e-8, 1e8]. Relative error at most
    1e-12 (slope) and 2e-12 (second moment) everywhere, and 5e-14 outside
    [2e-4, 1e-2): just above the series switch the closed forms lose digits
    to cancellation (3.9e-13 and 8.0e-13 measured); elsewhere both are within
    a few ulps (8e-15 and 2.2e-14 measured). The theory and its reference in
    `oracles` share this function, so this test vouches for its rounding."""
    mpmath = pytest.importorskip("mpmath")
    c = np.logspace(-8, 8, 321)
    delta = 0.5     # c * delta^2 and back are exact
    expected = np.empty((2, c.size))
    with mpmath.workdps(40):
        for i, ci in enumerate(c.tolist()):
            c_mp = mpmath.mpf(ci)
            z = 1 / (4 * c_mp)
            expected[0, i] = (2 * z * (mpmath.besselk(1, z) - mpmath.besselk(0, z)) * mpmath.exp(z)
                              / mpmath.sqrt(2 * mpmath.pi * c_mp))
            expected[1, i] = delta * delta * (1 - mpmath.sqrt(mpmath.pi / (2 * c_mp)) * mpmath.exp(2 * z)
                                              * mpmath.erfc(1 / mpmath.sqrt(2 * c_mp)))
    error = np.abs(np.stack(bounded_gain_moments(c * delta * delta, delta)) / expected - 1.0)
    outside = (c < 2e-4) | (c >= 1e-2)
    assert error[0].max() <= 1e-12 and error[1].max() <= 2e-12
    assert error[:, outside].max() <= 5e-14


# --- moment construction ----------------------------------------------------


def test_single_node_maclaurin_block():
    """Single node, R = I: the coefficient block is -s I, so F = (1 - alpha s) I.

    s is the Gaussian-expected slope at the steady-state error variance. The
    Maclaurin constant (2 delta^2 - 1) / (2 delta^2 h) = -7 that this test
    pinned before overstated it several times over at delta = 0.25.
    """
    alpha, sv2, d = 0.01, 1.0, 3
    inputs = single_node_inputs(alpha=alpha, sv2=sv2, delta=0.25, h=1.0, d=d)
    moments = build_moments(inputs)
    _, s, _ = scalar_fixed_point(alpha, sv2, r=1.0, d=d, delta=0.25)
    assert np.allclose(moments.mean_transition, (1 - alpha * s) * np.eye(d), rtol=0.0, atol=1e-11)


def test_zero_step_transition_is_combination_extension():
    inputs = random_inputs(2)
    inputs = replace(inputs, step_sizes=np.full(inputs.topology.node_count, 1e-300))
    moments = build_moments(inputs)
    a_ext = np.kron(inputs.combination.matrix.T, np.eye(inputs.dim))
    assert np.allclose(moments.mean_transition, a_ext, atol=1e-290)
    assert spectral_radius(a_ext) == pytest.approx(1.0, abs=1e-9)


def test_delta_outside_contraction_range_rejected():
    # The expected slope is positive for every delta > 0, so the theory builds
    # at and above 1/sqrt(2); only a non-positive or non-finite delta is rejected.
    for delta in (0.8, 1.0 / np.sqrt(2.0)):
        steady = steady_state_metrics(build_moments(single_node_inputs(delta=delta, alpha=0.05)))
        assert np.isfinite(steady.steady_network_msd) and steady.steady_network_msd > 0.0
    for delta in (0.0, -0.25, np.inf, np.nan):
        with pytest.raises(InvalidParameters):
            single_node_inputs(delta=delta)


@pytest.mark.parametrize("seed", [3, 4, 8, 9])
def test_transition_matches_dense_block_product(seed):
    """F = diag(b) A' (x) I_d equals the dense B A_ext with A_ext = A' (x) I_d
    and B_k = b_k I_d.

    Checked on the small-error b and on a random b.
    """
    inputs = random_inputs(seed)
    recursion = theory._Recursion(inputs)
    n, d = inputs.topology.node_count, inputs.dim
    a_ext = np.kron(inputs.combination.matrix.T, np.eye(d))
    recursion.linearize(np.zeros((2, n, n)))
    for b in (recursion.b.copy(), np.random.default_rng(seed).standard_normal(n)):
        recursion.b = b
        expected = scipy.linalg.block_diag(*(b_k * np.eye(d) for b_k in b)) @ a_ext
        assert np.array_equal(np.kron(recursion.transition(), np.eye(d)), expected)


# --- step-size bound ---------------------------------------------------------


def test_bound_single_node_value():
    # 2 / (s r) with s = E[g'(v)], v ~ N(0, 1), at delta = 0.25, r = h = 1
    inputs = single_node_inputs(sv2=1.0, delta=0.25, h=1.0)
    s, _ = quad_gain_moments(1.0, 0.25)
    assert stepsize_upper_bound(inputs, 1) == pytest.approx(2.0 / s, rel=1e-9)


def test_bound_reduces_to_dlms_bound_at_unit_coefficient():
    # as sigma_v -> 0 the small-error slope tends to 1, so with h = 1 the bound
    # is the DLMS bound 2 / lambda_max(sum_l R_l)
    inputs = random_inputs(5, delta=0.5)
    topo = inputs.topology
    for sv2 in (0.0, 1e-12):
        inputs = replace(inputs, noise_variances=np.full(topo.node_count, sv2))
        for k in range(1, topo.node_count + 1):
            direct = 2.0 / np.linalg.eigvalsh(
                sum(inputs.regressor_covariances[l - 1] for l in topo.neighbors(k))
            )[-1]
            assert stepsize_upper_bound(inputs, k) == pytest.approx(direct, rel=1e-9)


def test_bound_scales_linearly_with_h():
    inputs1 = single_node_inputs(h=1.0)
    inputs2 = single_node_inputs(h=2.0)
    assert stepsize_upper_bound(inputs2, 1) == pytest.approx(
        2.0 * stepsize_upper_bound(inputs1, 1), rel=1e-12
    )


def test_bound_is_infinite_without_neighbour_covariance():
    """Zero covariances in N_1 leave the step unbounded there; the bound is
    finite only at the node whose neighbourhood reaches a nonzero one."""
    topo = build_topology(3, [(1, 2), (2, 3)])
    inputs = TheoryInputs(
        topology=topo, combination=combination_weights(topo),
        regressor_covariances=[np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)],
        noise_variances=0.1, step_sizes=0.01, theta_o=np.ones(2),
    )
    assert stepsize_upper_bound(inputs, 1) == math.inf
    assert math.isfinite(stepsize_upper_bound(inputs, 2))


@pytest.mark.parametrize("k", [0, -1, 5, True, 1.5, "1"])
def test_bound_rejects_node_outside_network(k):
    # theory_small has 4 nodes; k <= 0 must not wrap round to another node's
    # bound, True must not read as node 1, and a float or string id is refused
    with pytest.raises(IndexOutOfRange):
        stepsize_upper_bound(small_inputs(), k)


def test_bound_and_spectral_radius_bidirectional():
    for seed in range(20):
        inputs = random_inputs(seed)
        n = inputs.topology.node_count
        bounds = np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)])
        low, high = (build_moments(replace(inputs, step_sizes=c * bounds)) for c in (0.9, 1.5))
        rho_low = max(abs(np.linalg.eigvals(low.mean_transition)))
        rho_high = max(abs(np.linalg.eigvals(high.mean_transition)))
        assert rho_low < 1.0 < rho_high


# --- spectral radius ---------------------------------------------------------


def test_spectral_radius_examples():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-10)
    assert spectral_radius(np.array([[3.0]])) == 3.0


def test_spectral_radius_matches_dense_oracle():
    r = np.random.default_rng(0)
    a = r.standard_normal((80, 80))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))
    oracle = max(abs(np.linalg.eigvals(a)))
    assert abs(spectral_radius(a) - oracle) <= 1e-8


def test_spectral_radius_complex_dominant_pair():
    rot = np.array([[0.0, -0.8], [0.8, 0.0]])  # eigenvalues +-0.8i
    block = np.zeros((4, 4))
    block[:2, :2] = rot
    block[2:, 2:] = np.diag([0.3, -0.1])
    assert spectral_radius(block) == pytest.approx(0.8, abs=1e-9)


def test_spectral_radius_rejects_nonfinite():
    with pytest.raises(InvalidParameters):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- steady state ------------------------------------------------------------


def test_zero_noise_zero_prior_gives_zero_steady_state():
    inputs = single_node_inputs(sv2=0.0, alpha=0.05)
    steady = steady_state_metrics(build_moments(inputs))
    assert steady.steady_network_msd == pytest.approx(0.0, abs=1e-30)


def test_scalar_closed_form_steady_state():
    # one scalar node: MSD = alpha m2 / (s (2 - alpha s r)), with s and m2 taken
    # at the steady-state error variance sigma_v^2 + r MSD
    r_val, sv2, alpha = 1.3, 0.2, 0.15
    inputs = single_node_inputs(r=r_val, sv2=sv2, alpha=alpha, delta=0.5, d=1)
    steady = steady_state_metrics(build_moments(inputs))
    expected, _, _ = scalar_fixed_point(alpha, sv2, r=r_val, d=1, delta=0.5)
    assert steady.steady_network_msd == pytest.approx(expected, rel=1e-8)
    # EMSE weights the same solve by R_u
    assert steady.steady_network_emse == pytest.approx(r_val * expected, rel=1e-8)


@pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
def test_steady_state_matches_independent_lyapunov(seed, monkeypatch):
    """Per-node MSD and EMSE against scipy's dense Lyapunov solve of F and Xi.

    The metrics read the fixed point's last Stein solve; they solve nothing.
    """
    inputs = random_inputs(seed)
    n, d = inputs.topology.node_count, inputs.dim
    inputs = replace(inputs, step_sizes=0.5 * np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)]))
    moments = build_moments(inputs)
    solves = []
    solve = theory._solve_stein

    def counting_solve(f, q):
        solves.append(f)
        return solve(f, q)

    monkeypatch.setattr(theory, "_solve_stein", counting_solve)
    steady = steady_state_metrics(moments)
    assert not solves
    xi = moments.xi_vec.reshape(n * d, n * d, order="F")
    y = scipy.linalg.solve_discrete_lyapunov(moments.mean_transition, xi)
    blocks = [y[k * d:(k + 1) * d, k * d:(k + 1) * d] for k in range(n)]
    expected_msd = [np.trace(b) for b in blocks]
    expected_emse = [np.trace(b @ r) for b, r in zip(blocks, inputs.regressor_covariances)]
    assert np.allclose(steady.steady_node_msd, expected_msd, rtol=1e-6, atol=0.0)
    assert np.allclose(steady.steady_node_emse, expected_emse, rtol=1e-6, atol=0.0)


def test_symmetric_two_node_network_is_symmetric():
    topo = build_topology(2, [(1, 2)])
    inputs = TheoryInputs(
        topology=topo, combination=combination_weights(topo),
        regressor_covariances=[np.eye(2), np.eye(2)], noise_variances=0.3,
        step_sizes=0.02, theta_o=np.ones(2) / np.sqrt(2), delta=0.25,
    )
    steady = steady_state_metrics(build_moments(inputs))
    assert steady.steady_node_msd[0] == pytest.approx(steady.steady_node_msd[1], rel=1e-10)


def test_unstable_system_raises():
    inputs = single_node_inputs()
    inputs = replace(inputs, step_sizes=np.array([1.5 * stepsize_upper_bound(inputs, 1)]))
    with pytest.raises(UnstableSystem):
        steady_state_metrics(build_moments(inputs))
    with pytest.raises(UnstableSystem):
        transient_curves(build_moments(inputs), n_max=10)


@pytest.mark.parametrize("f", [np.eye(2), np.diag([1.5, 0.2])])
def test_stein_solve_rejects_non_contracting_transition(f):
    """With rho(F) >= 1 the Smith series never settles, so no iterate may be
    returned: at F = I it doubles each squaring, and at F = diag(1.5, 0.2) its
    Frobenius norm overflows while every entry is still finite."""
    with pytest.raises(UnstableSystem, match="spectral radius"):
        theory._solve_stein(f, np.eye(2))


def test_fixed_point_iterate_with_unstable_transition_raises():
    """An iterate whose F has rho >= 1 ends the fixed point; there is no
    steady state to report. A contracting start F and a tiny Q pass the first
    solve; at three times the step bound the next linearization's F has
    rho near 5."""
    inputs = single_node_inputs(d=1)
    inputs = replace(inputs, step_sizes=np.array([3.0 * stepsize_upper_bound(inputs, 1)]))
    moments = build_moments(inputs)
    assert moments.small_error_radius > 4.0 and moments.steady_covariance is None
    f, q = 0.5 * np.eye(1), np.full((1, 1), 1e-6)
    with pytest.raises(UnstableSystem, match="spectral radius"):
        theory._steady_fixed_point(theory._Recursion(inputs), f, q)


def test_network_average_identity_bit_exact():
    inputs = random_inputs(7)
    inputs = replace(inputs, step_sizes=0.3 * np.array(
        [stepsize_upper_bound(inputs, k) for k in range(1, inputs.topology.node_count + 1)]
    ))
    moments = build_moments(inputs)
    steady = steady_state_metrics(moments)
    assert steady.steady_network_msd == np.mean(steady.steady_node_msd)
    curves = transient_curves(moments, n_max=50)
    assert np.array_equal(curves.network_msd, curves.node_msd.mean(axis=1))


# --- transient ---------------------------------------------------------------


def test_transient_starts_at_initial_deviation():
    inputs = single_node_inputs(alpha=0.05, d=5)
    curves = transient_curves(build_moments(inputs), n_max=10)
    assert curves.network_msd[0] == pytest.approx(1.0)  # unit-norm theta_o
    assert to_db(curves.network_msd[0]) == pytest.approx(0.0, abs=1e-12)


def test_transient_pure_contraction_decays_to_zero():
    inputs = single_node_inputs(sv2=0.0, alpha=0.05)
    curves = transient_curves(build_moments(inputs), n_max=300)
    msd = curves.network_msd
    assert np.all(np.diff(msd) <= 1e-16)
    assert msd[-1] < 1e-8


def test_transient_limit_matches_steady_state():
    inputs = random_inputs(11)
    n = inputs.topology.node_count
    inputs = replace(inputs, step_sizes=0.6 * np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)]))
    moments = build_moments(inputs)
    rho = max(spectral_radius(moments.mean_transition), 1e-3)
    n_needed = int(np.ceil(np.log(1e-6) / np.log(rho))) + 1
    curves = transient_curves(moments, n_max=n_needed)
    steady = steady_state_metrics(moments)
    gap_msd = abs(to_db(curves.network_msd[-1]) - to_db(steady.steady_network_msd))
    gap_emse = abs(to_db(curves.network_emse[-1]) - to_db(steady.steady_network_emse))
    assert gap_msd <= 0.1 and gap_emse <= 0.1


@pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, True, "3", None])
def test_transient_rejects_bad_step_count(n_max):
    moments = build_moments(single_node_inputs(alpha=0.05))
    with pytest.raises(InvalidParameters, match="n_max"):
        transient_curves(moments, n_max=n_max)


def test_transient_zero_steps_is_initial_row():
    inputs = random_inputs(12)
    n = inputs.topology.node_count
    inputs = replace(inputs, step_sizes=0.3 * np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)]))
    moments = build_moments(inputs)
    curves = transient_curves(moments, n_max=np.int64(0))
    longer = transient_curves(moments, n_max=3)
    assert curves.node_msd.shape == (1, n)
    assert np.array_equal(curves.node_msd, longer.node_msd[:1])
    assert np.array_equal(curves.node_emse, longer.node_emse[:1])


# --- the N x N recursion against the Nd x Nd reference ------------------------

N16_STEPS = tuple(float(mu) for mu in np.linspace(0.02, 0.20, 10))

# The N x N recursion agrees with the Nd x Nd reference in tests/oracles.py to
# this share of the reference's largest entry: per row for the per-node
# curves, over the whole array for F, Xi and the steady covariance, entry by
# entry for the slopes. Measured: 4e-14 on the protocol network, 1.3e-13 on
# the zero-noise rows at step 1000.
REF_RTOL = 1e-12


def assert_close(got, want, axis=None, rtol=REF_RTOL):
    """|got - want| <= rtol max |want|, the max taken along `axis` (all by default)."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want).max(axis=axis, keepdims=True))


def raw_config(name):
    return yaml.safe_load((CONFIGS / name).read_text())


def n16_inputs(step_size):
    """The 16-node protocol network with the kernel-MAP theory algorithm."""
    algo = {"kind": "npdlms", "step_size": step_size, "buffer": 3, "sigma": 1.0, "h": 1.0,
            "delta": 0.5}
    raw = {**raw_config("stationary_gaussian_snr30.yaml"), "algorithms": [algo]}
    return harness.theory_inputs_from_config(harness.config_from_dict(raw))


def small_inputs(**changes):
    config = harness.config_from_dict(raw_config("theory_small.yaml"))
    return replace(harness.theory_inputs_from_config(config), **changes)


def assert_step_matches_reference(inputs, n_max=500, rows_rtol=REF_RTOL):
    """The settle step equals the Nd x Nd reference's in tests/oracles.py, and
    the slopes, F, Xi, the steady covariance and metrics agree with it within
    REF_RTOL, the transient curves within `rows_rtol`."""
    moments = build_moments(inputs)
    slopes, f, xi_vec, steady_cov = steady_fixed_point_reference(inputs)
    np.testing.assert_allclose(moments.slopes, slopes, rtol=REF_RTOL, atol=0.0)
    assert_close(moments.mean_transition, f)
    assert_close(moments.xi_vec, xi_vec)
    assert_close(moments.steady_covariance, steady_cov)
    curves = transient_curves(moments, n_max=n_max)
    node_msd, node_emse, settle_step = transient_curves_reference(inputs, n_max)
    assert curves.settle_step == settle_step
    assert_close(curves.node_msd, node_msd, axis=-1, rtol=rows_rtol)
    assert_close(curves.node_emse, node_emse, axis=-1, rtol=rows_rtol)
    steady = steady_state_metrics(moments)
    steady_msd, steady_emse = node_metrics_reference(steady_cov, inputs.regressor_covariances)
    assert_close(steady.steady_node_msd, steady_msd, axis=-1)
    assert_close(steady.steady_node_emse, steady_emse, axis=-1)
    return moments


# Short transients: none, one step, and lengths around 64 and 128 steps.
SHORT_STEPS = (0, 1, 63, 64, 65, 128)


def _with_short_steps(values, extended):
    """(value, n_max) cases: every value at n_max = 500, the `extended` ones
    also at each of SHORT_STEPS; ids keep the plain value for n_max = 500."""
    cases = [(value, 500) for value in values] + [(value, n) for value in extended for n in SHORT_STEPS]
    return {"argvalues": cases, "ids": [str(v) if n == 500 else f"{v}-n_max{n}" for v, n in cases]}


@pytest.mark.parametrize("step_size,n_max", **_with_short_steps(N16_STEPS, (N16_STEPS[0], N16_STEPS[-1])))
def test_step_matches_reference_on_16_node_network(step_size, n_max):
    assert_step_matches_reference(n16_inputs(step_size), n_max)


def test_step_matches_reference_on_small_config():
    assert_step_matches_reference(small_inputs())


def test_step_matches_reference_on_series_branch():
    """At noise 1e-9 the error variance ends far below the closed forms' range."""
    inputs = small_inputs(noise_variances=np.full(4, 1e-9))
    moments = assert_step_matches_reference(inputs)
    phi = oracles._combine(inputs, moments.steady_covariance)
    variance = gain_statistics_reference(inputs, phi)[2]
    assert variance.max() / inputs.delta ** 2 < diffusion._SERIES_BELOW


def test_step_matches_reference_at_zero_noise():
    assert_step_matches_reference(small_inputs(noise_variances=np.zeros(4)))


def random_network_inputs(seed, fraction=0.4, **changes):
    """A random white-regressor network of 2 to 6 nodes and d of 1 to 3 at
    `fraction` of its step bounds once `changes` are applied."""
    inputs = replace(random_inputs(seed, n_max=6), **changes)
    n = inputs.topology.node_count
    bounds = np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)])
    return replace(inputs, step_sizes=fraction * bounds)


RANDOM_SEEDS = tuple(range(12)) + (21,)   # seeds 0-11 draw no 3-node network; 21 does

# At zero noise the random networks' rows are ill-conditioned: scaling the
# step sizes by 1 + 2^-52 moves the reference's own rows by up to 1.06e-12 of
# the row (seeds 3, 8 and 21, within 100 steps), and the N x N rows differ
# from them by up to 1.3e-12, above REF_RTOL. Those rows are held to the
# larger of REF_RTOL and ULP_MOVES times that move, measured on each case;
# the gaps measured are at most 1.4 times the move (seed 3). Everywhere else
# both stay below 4e-14.
ULP_MOVES = 4


def one_ulp_move(inputs, n_max):
    """The largest change, as a share of its row's largest entry, that scaling
    the step sizes by 1 + 2^-52 makes in the reference's MSD and EMSE rows."""
    base = transient_curves_reference(inputs, n_max)[:2]
    nudged = replace(inputs, step_sizes=inputs.step_sizes * (1.0 + 2.0 ** -52))
    moved = transient_curves_reference(nudged, n_max)[:2]
    return max(float(np.max(np.abs(m - b) / np.abs(b).max(axis=-1, keepdims=True)))
               for m, b in zip(moved, base))


def test_random_networks_span_the_shapes():
    shapes = {(inputs.topology.node_count, inputs.dim)
              for inputs in (random_inputs(seed, n_max=6) for seed in RANDOM_SEEDS)}
    assert {n for n, _ in shapes} == {2, 3, 4, 5, 6} and {d for _, d in shapes} == {1, 2, 3}


@pytest.mark.parametrize("seed,n_max", **_with_short_steps(RANDOM_SEEDS, (0,)))
def test_step_matches_reference_on_random_networks(seed, n_max):
    """As drawn, with theta_o = 0, and at zero noise."""
    inputs = random_network_inputs(seed)
    n, d = inputs.topology.node_count, inputs.dim
    assert_step_matches_reference(inputs, n_max)
    assert_step_matches_reference(random_network_inputs(seed, theta_o=np.zeros(d)), n_max)
    silent = random_network_inputs(seed, noise_variances=np.zeros(n))
    assert_step_matches_reference(silent, n_max,
                                  rows_rtol=max(REF_RTOL, ULP_MOVES * one_ulp_move(silent, n_max)))


KERNEL_WIDTHS = [(2.0, 5.0), (1.7, 0.3)]


@pytest.mark.parametrize("h, delta", KERNEL_WIDTHS)
def test_step_matches_reference_at_other_kernel_widths(h, delta):
    assert_step_matches_reference(small_inputs(h=h, delta=delta))


def criterion_10_inputs():
    """The 3-node network of acceptance criterion 10."""
    topo = build_topology(3, [(1, 2), (2, 3), (1, 3)])
    return TheoryInputs(topology=topo, combination=combination_weights(topo),
                        regressor_covariances=[np.eye(2), 1.2 * np.eye(2), 0.9 * np.eye(2)],
                        noise_variances=np.array([0.02, 0.03, 0.025]),
                        step_sizes=0.02, theta_o=np.ones(2) / np.sqrt(2), delta=0.25)


ACCEPTANCE_CASES = [pytest.param(partial(small_inputs, delta=0.25, step_sizes=np.full(4, 0.03)),
                                 id="criterion_3"),
                    pytest.param(criterion_10_inputs, id="criterion_10")]


@pytest.mark.parametrize("build", ACCEPTANCE_CASES)
def test_step_matches_reference_on_acceptance_configs(build):
    assert_step_matches_reference(build())


# Held rows against the full recursion: the rows after the settle step
# repeat it, where the full recursion still wanders by rounding.
HELD_RTOL = 1e-12


def _settle_cases():
    """Every transient case above, as (inputs builder, n_max) params."""
    def params(prefix, build, values, extended):
        cases = _with_short_steps(values, extended)
        return [pytest.param(partial(build, value), n_max, id=f"{prefix}-{ident}")
                for (value, n_max), ident in zip(cases["argvalues"], cases["ids"])]

    return (params("n16", n16_inputs, N16_STEPS, (N16_STEPS[0], N16_STEPS[-1]))
            + params("random", random_network_inputs, RANDOM_SEEDS, (0,))
            + [pytest.param(small_inputs, 500, id="theory_small"),
               pytest.param(partial(small_inputs, noise_variances=np.full(4, 1e-9)), 500, id="series"),
               pytest.param(partial(small_inputs, noise_variances=np.zeros(4)), 500, id="zero_noise")]
            + [pytest.param(partial(small_inputs, h=h, delta=delta), 500, id=f"h{h}-delta{delta}")
               for h, delta in KERNEL_WIDTHS]
            + [pytest.param(case.values[0], 500, id=case.id) for case in ACCEPTANCE_CASES])


@pytest.mark.parametrize("build,n_max", _settle_cases())
def test_held_rows_track_the_full_recursion(build, n_max):
    """Up to the settle step the curves are the full Nd x Nd recursion's
    within REF_RTOL, after it within HELD_RTOL of it; cut one step short of
    the settle step, they are the full recursion's within REF_RTOL and record
    no settle step."""
    inputs = build()
    moments = build_moments(inputs)
    curves = transient_curves(moments, n_max=n_max)
    full_msd, full_emse, full_settle = transient_curves_reference(inputs, n_max, settle=False)
    assert full_settle is None
    s = n_max if curves.settle_step is None else curves.settle_step
    for held, full in ((curves.node_msd, full_msd), (curves.node_emse, full_emse)):
        assert_close(held[: s + 1], full[: s + 1], axis=-1)
        assert_close(held[s + 1 :], full[s + 1 :], axis=-1, rtol=HELD_RTOL)
    if curves.settle_step is not None:
        assert 0 < s <= n_max
        cut = transient_curves(moments, n_max=s - 1)
        assert cut.settle_step is None
        assert_close(cut.node_msd, full_msd[:s], axis=-1)
        assert_close(cut.node_emse, full_emse[:s], axis=-1)


def test_every_protocol_step_size_settles():
    """The benchmark's ten step sizes all settle within 500 steps, and a
    recursion decaying to zero (no noise) never does."""
    steps = [transient_curves(build_moments(n16_inputs(mu))).settle_step for mu in N16_STEPS]
    assert all(step is not None and step < 500 for step in steps)
    assert transient_curves(build_moments(small_inputs(noise_variances=np.zeros(4)))).settle_step is None


def test_state_norm_identity():
    """||P||_F^2 = (1 - 1/d) ||T||_F^2 + ||S||_F^2 / d for
    P = H (x) theta_o theta_o' + G (x) I_d, T = ||theta_o||^2 H and
    S = T + d G: the settle test measures the P that the (T, S) stack
    stands for, and decides as the dense norms do."""
    r = np.random.default_rng(5)
    for d in (1, 2, 5):
        recursion = theory._Recursion(single_node_inputs(d=d))
        theta = r.standard_normal(d)
        h, g = r.standard_normal((2, 2, 4, 4))
        p = [np.kron(h_i, np.outer(theta, theta)) + np.kron(g_i, np.eye(d)) for h_i, g_i in zip(h, g)]
        t = (theta @ theta) * h
        x = np.stack([t, t + d * g], axis=1)
        for p_i, x_i in zip(p, x):
            assert np.linalg.norm(x_i * recursion.norm_weights) == pytest.approx(np.linalg.norm(p_i), rel=1e-13)
        ratio = np.linalg.norm(p[0]) / np.linalg.norm(p[1])
        for tol in (ratio * (1 - 1e-9), ratio * (1 + 1e-9)):
            assert recursion.moved_at_most(x[0], x[1], tol) == (tol > ratio)


# --- the theory CSV ------------------------------------------------------------


def _plain_theory_csv(curves, steady, path, db):
    """The reference bytes of `harness.export_theory_csv`, with `db` in place
    of `to_db`: every row through `_rows`."""
    rows = harness._rows((), [db(curves.network_msd), db(curves.network_emse)], start=0)
    steady_db = (float(db(steady.steady_network_msd)), float(db(steady.steady_network_emse)))
    harness._write_lines(path, ["n,msd_theory_db,emse_theory_db", rows, "steady_state,%.17g,%.17g" % steady_db])


def test_theory_csv_matches_plain_rows(tmp_path, monkeypatch):
    """`export_theory_csv` formats the rows that repeat the last row's bits
    once; its bytes are those of every row through `_rows`, whatever the
    settle step, and whatever -0.0, NaN or inf the tail holds. `to_db` never
    yields -0.0, so the hand-made columns go in as the dB values themselves."""
    protocol = build_moments(n16_inputs(N16_STEPS[0]))
    zero_noise = build_moments(small_inputs(noise_variances=np.zeros(4)))
    settle = protocol.settle_step
    cases = [("mid-curve", transient_curves(protocol), protocol, settle),
             ("at-n_max", transient_curves(protocol, n_max=settle), protocol, settle),
             ("n_max-below", transient_curves(protocol, n_max=settle - 9), protocol, None),
             ("one-row", transient_curves(protocol, n_max=0), protocol, None),
             ("never", transient_curves(zero_noise), zero_noise, None)]
    to_zero = transient_curves(zero_noise, n_max=1500)     # settles once P rounds to 0: -inf dB
    assert to_zero.settle_step is not None and to_zero.network_msd[-1] == 0.0
    cases.append(("to-zero", to_zero, zero_noise, to_zero.settle_step))
    for name, curves, moments, settle_step in cases:
        assert curves.settle_step == settle_step, name
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-plain.csv"
        harness.export_theory_csv(curves, steady_state_metrics(moments), got)
        _plain_theory_csv(curves, steady_state_metrics(moments), want, to_db)
        assert got.read_bytes() == want.read_bytes(), name
    monkeypatch.setattr(harness, "to_db", np.asarray)
    steady = theory.PerformanceCurves(steady_network_msd=-30.0, steady_network_emse=-0.0)
    nan = np.nan
    hand = [("constant", [0.5] * 6, [0.25] * 6),
            ("signed-zero", [2.0, 1.0, 0.0, -0.0, 0.0, 0.0], [1.0, -0.0, -0.0, 0.0, -0.0, -0.0]),
            ("nan", [3.0, 2.0, nan, nan, nan], [1.0] * 5),
            ("signed-nan", [3.0, -nan, nan, -nan, nan], [nan] * 5),
            ("inf", [1.0, -np.inf, -np.inf], [np.inf] * 3)]
    for name, msd, emse in hand:
        curves = theory.PerformanceCurves(network_msd=np.array(msd), network_emse=np.array(emse))
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-plain.csv"
        harness.export_theory_csv(curves, steady, got)
        _plain_theory_csv(curves, steady, want, np.asarray)
        assert got.read_bytes() == want.read_bytes(), name


# --- scale: both tolerances are relative ---------------------------------------


def scaled_small_inputs(k, **changes):
    """`theory_small` scaled by c = 2^k: theta_o and delta by c, the noise
    variances, h and the step sizes by c^2. Every error scales by c and
    every second moment by c^2, and a power of two commutes with rounding."""
    c = 2.0 ** k
    base = small_inputs(**changes)
    return replace(base, theta_o=c * base.theta_o, delta=c * base.delta,
                   noise_variances=c * c * base.noise_variances, h=c * c * base.h,
                   step_sizes=c * c * base.step_sizes)


# Scale exponents k of c = 2^k. Before the fixes that make them exact, the
# settle test underflowed at -250 ('settled' at step 48); the Stein norms
# underflowed from -262, where a truncated solve passed (24.6 % off at -265);
# and (mu mu') / h^2 left the float range at +-300, which raised
# UnstableSystem; -20 took an absolute Stein tolerance 25 % off.
SCALE_EXPONENTS = [-300, -265, -250, -20, 260, 300]


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_settle_step_is_scale_free(k):
    """At c = 2^k every transient row is exactly c^2 times the unscaled one,
    and P settles at the unscaled step, 68: the settle test scales its
    norms by a power of two, so their squares neither underflow (from
    P ~ 1e-151 at k = -250) nor overflow. The reference agrees on the step
    while its own products stay in range, to |k| = 250."""
    c2 = 2.0 ** (2 * k)
    base = transient_curves(build_moments(scaled_small_inputs(0)))
    scaled = transient_curves(build_moments(scaled_small_inputs(k)))
    assert base.settle_step == scaled.settle_step == 68
    if abs(k) <= 250:
        assert transient_curves_reference(scaled_small_inputs(k), 500)[2] == 68
    assert np.array_equal(scaled.node_msd, c2 * base.node_msd)
    assert np.array_equal(scaled.node_emse, c2 * base.node_emse)


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_steady_state_is_scale_free(k):
    """At c = 2^k the steady MSD is exactly c^2 times the unscaled one: the
    Stein solve's tolerance is relative and its norms are scaled by a power
    of two, and the recursion's source weight d (mu/h)(mu/h)' stays in range."""
    base = steady_state_metrics(build_moments(scaled_small_inputs(0)))
    scaled = steady_state_metrics(build_moments(scaled_small_inputs(k)))
    assert np.array_equal(scaled.steady_node_msd, 2.0 ** (2 * k) * base.steady_node_msd)
    assert np.array_equal(scaled.steady_node_emse, 2.0 ** (2 * k) * base.steady_node_emse)


def test_steady_state_matches_lyapunov_at_high_snr():
    """On the SNR-30 protocol network at 100 dB, kernel-MAP alone, the steady
    MSD is scipy's dense Lyapunov solve of the moments' F and Xi; an absolute
    Stein tolerance left it 5.9 % off."""
    raw = raw_config("stationary_gaussian_snr30.yaml")
    raw = {**raw, "noise": {**raw["noise"], "snr_db": 100},
           "algorithms": [a for a in raw["algorithms"] if a["kind"] == "npdlms"]}
    moments = build_moments(harness.theory_inputs_from_config(harness.config_from_dict(raw)))
    nd, d = moments.mean_transition.shape[0], moments.dim
    y = scipy.linalg.solve_discrete_lyapunov(moments.mean_transition,
                                             moments.xi_vec.reshape(nd, nd, order="F"))
    expected = np.mean([np.trace(y[i:i + d, i:i + d]) for i in range(0, nd, d)])
    assert steady_state_metrics(moments).steady_network_msd == pytest.approx(expected, rel=1e-9)


# --- the transient's settled covariance as the fixed point's start ------------


def _counting(monkeypatch, owner, name):
    """Count the calls of `owner.name` from here on; returns the running list."""
    calls = []
    wrapped = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


SEEDED_CASES = ([pytest.param(partial(n16_inputs, mu), id=f"n16-{mu:.2f}") for mu in N16_STEPS]
                + [pytest.param(small_inputs, id="theory_small")])


@pytest.mark.parametrize("build", SEEDED_CASES)
def test_steady_covariance_is_a_fixed_point_of_the_step(build):
    """One step of the Nd x Nd reference recursion from the steady covariance
    moves it by at most 1e-13 of its norm."""
    inputs = build()
    p = build_moments(inputs).steady_covariance
    assert np.linalg.norm(oracles.step_reference(inputs, p) - p) <= 1e-13 * np.linalg.norm(p)


@pytest.mark.parametrize("build", SEEDED_CASES)
def test_settled_start_needs_at_most_two_solves(build, monkeypatch):
    """From where the transient settles, the first Stein solve confirms the
    fixed point: 8 to 45 solves from zero error on the protocol network."""
    solves = _counting(monkeypatch, theory, "_solve_stein")
    moments = build_moments(build())
    assert moments.settle_step is not None
    assert 1 <= len(solves) <= 2


@pytest.mark.parametrize("build", SEEDED_CASES)
def test_transient_reads_the_settled_rows(build, monkeypatch):
    """`transient_curves` takes the rows `build_moments` ran: no step again."""
    moments = build_moments(build())
    steps = _counting(monkeypatch, theory._Recursion, "linearize")
    for n_max in (0, moments.settle_step - 1, theory.TRANSIENT_STEPS, 2 * theory.TRANSIENT_STEPS):
        transient_curves(moments, n_max=n_max)
    assert not steps
    assert moments.last_state is None


def test_transient_continues_past_the_stored_steps(monkeypatch):
    """At a tenth of `theory_small`'s step the recursion settles at step 697,
    past the steps `build_moments` runs: the steady state starts from zero
    error, and a longer transient carries on from the last stored state to
    the reference's rows, within REF_RTOL, and its settle step."""
    inputs = small_inputs(step_sizes=np.full(4, 0.01))
    moments = build_moments(inputs)
    assert moments.settle_step is None and moments.transient_msd.shape[0] == theory.TRANSIENT_STEPS + 1
    assert_close(moments.steady_covariance, steady_fixed_point_reference(inputs)[3])
    steps = _counting(monkeypatch, theory._Recursion, "linearize")
    curves = transient_curves(moments, n_max=1000)
    node_msd, node_emse, settle_step = transient_curves_reference(inputs, 1000)
    assert curves.settle_step == settle_step == 697
    assert len(steps) == settle_step - theory.TRANSIENT_STEPS
    assert_close(curves.node_msd, node_msd, axis=-1)
    assert_close(curves.node_emse, node_emse, axis=-1)


def test_zero_noise_continues_past_the_stored_steps():
    """Zero noise decays towards 0 by a constant factor per step and never
    settles: its steady state is zero, and the transient's rows past the
    stored steps are the reference's. Both used to take step 608 for settled,
    where the unscaled norms of a P near 1e-162 underflowed to 0."""
    inputs = small_inputs(noise_variances=np.zeros(4))
    moments = build_moments(inputs)
    assert moments.settle_step is None
    assert steady_state_metrics(moments).steady_network_msd == 0.0
    curves = transient_curves(moments, n_max=700)
    node_msd, node_emse, settle_step = transient_curves_reference(inputs, 700)
    assert curves.settle_step is None and settle_step is None
    assert_close(curves.node_msd, node_msd, axis=-1)
    assert_close(curves.node_emse, node_emse, axis=-1)


def test_zero_noise_runs_through_subnormal_states():
    """Past step ~1160 the zero-noise P is subnormal, and by step ~1210 it is
    exactly 0, the steady state. The settle test runs on without overflow and
    settles there, as the reference does; the rows agree within REF_RTOL
    while they are normal numbers. The subnormal rows keep few significant
    bits, so the two round to 0 a few steps apart."""
    inputs = small_inputs(noise_variances=np.zeros(4))
    curves = transient_curves(build_moments(inputs), n_max=1500)
    node_msd, node_emse, settle_step = transient_curves_reference(inputs, 1500)
    normal = node_msd.max(axis=1) >= np.finfo(float).tiny
    assert normal[1100] and not normal[1200]
    assert_close(curves.node_msd[normal], node_msd[normal], axis=-1)
    assert_close(curves.node_emse[normal], node_emse[normal], axis=-1)
    for rows, step in ((curves.node_msd, curves.settle_step), (node_msd, settle_step)):
        assert step is not None and step < 1300
        assert rows[step - 1].any() and not rows[step:].any()


STRESS_SEEDS = range(100)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_settled_start_on_random_networks(fraction, monkeypatch):
    """Random 2- to 6-node networks at a fraction of their step bounds. Where
    the transient settles, at most two Stein solves, and the steady covariance
    within 1e-8 of the alternation from zero error; elsewhere, that
    alternation itself."""
    solves = _counting(monkeypatch, theory, "_solve_stein")
    settled = 0
    for seed in STRESS_SEEDS:
        inputs = random_network_inputs(seed, fraction)
        n, d = inputs.topology.node_count, inputs.dim
        solves.clear()
        moments = build_moments(inputs)
        count = len(solves)
        recursion = theory._Recursion(inputs)
        recursion.linearize(np.zeros((2, n, n)))
        s = theory._steady_fixed_point(recursion, recursion.transition(), recursion.q)[0]
        zero_start = np.kron(s / d, np.eye(d))
        if moments.settle_step is None:
            assert np.array_equal(moments.steady_covariance, zero_start)
            continue
        settled += 1
        assert count <= 2
        gap = np.linalg.norm(moments.steady_covariance - zero_start)
        assert gap <= 1e-8 * np.linalg.norm(zero_start)
    assert settled >= len(STRESS_SEEDS) // 2


def test_monte_carlo_linearized_recursion_consistency():
    """Simulate the statistically linearized error recursion directly and compare.

    Independent oracle for the moment algebra: fresh regressor and noise draws
    drive the error recursion with each gain g(e_lk) replaced by its Bussgang
    decomposition s_lk e_lk + eta_lk, where eta_lk is drawn independently with
    variance E[g(e_lk)^2] - s_lk^2 E[e_lk^2]. The slopes and moments are the
    model's own (the reference step's `gain_statistics_reference`, which the
    N x N step matches to rounding), taken at the ensemble second
    moment of the error at the evaluation point, so they change along the run
    as they do in the closed form. The ensemble weighted norm must track the
    closed-form recursion within 0.5 dB over the whole curve. The closed form
    drops part of the coefficient-fluctuation (fourth-moment) term, so the step
    must sit deep in the small-step regime; 800 realizations keep the
    Monte-Carlo sup-norm noise floor below the tolerance.
    """
    alpha, t_len, reals, d, n = 0.001, 1000, 800, 4, 2
    topo = build_topology(2, [(1, 2)])
    covs = [np.eye(d), 1.2 * np.eye(d)]
    sv2 = np.array([0.3, 0.39])
    theta_o = np.ones(d) / np.sqrt(d)
    inputs = TheoryInputs(
        topology=topo, combination=combination_weights(topo),
        regressor_covariances=covs, noise_variances=sv2, step_sizes=alpha,
        theta_o=theta_o, delta=0.25, h=1.0,
    )
    moments = build_moments(inputs)
    a_ext = np.kron(inputs.combination.matrix.T, np.eye(d))
    rng = np.random.default_rng(123)
    scale = np.stack([np.ones(d), np.sqrt(1.2) * np.ones(d)])  # diagonal covariances
    tilde = np.tile(np.tile(theta_o, n), (reals, 1))
    mc = np.empty((t_len, n))
    for t in range(t_len):
        ta = tilde @ a_ext.T                       # error at the evaluation point
        slope, second, variance, _ = gain_statistics_reference(inputs, ta.T @ ta / reals)
        residual_sd = np.sqrt(np.maximum(second - slope ** 2 * variance, 0.0))
        us = rng.standard_normal((reals, n, d)) * scale[None]
        v = rng.standard_normal((reals, n)) * np.sqrt(sv2)[None]
        ta3 = ta.reshape(reals, n, d)
        err = np.einsum("rld,rkd->rlk", us, ta3) + v[:, :, None]   # e_lk = u_l ta_k + v_l
        gain = slope[None] * err + rng.standard_normal((reals, n, n)) * residual_sd[None]
        sq = ta3 - alpha * np.einsum("rld,rlk->rkd", us, gain)
        tilde = sq.reshape(reals, n * d)
        mc[t] = np.einsum("rnd,rnd->rn", sq, sq).mean(axis=0)
    curves = transient_curves(moments, n_max=t_len)
    gap = np.abs(to_db(mc.mean(axis=1)) - to_db(curves.network_msd[1:]))
    assert gap.max() <= 0.5


# --- input validation -------------------------------------------------------


def test_theory_inputs_validation():
    topo = build_topology(2, [(1, 2)])
    with pytest.raises(DimensionMismatch):
        TheoryInputs(topology=topo, combination=combination_weights(topo),
                     regressor_covariances=[np.eye(2)], noise_variances=1.0,
                     step_sizes=0.1, theta_o=np.ones(2), delta=0.25)
    # Scalar and 0 x 0 covariances are refused by shape; both used to raise a
    # raw IndexError.
    for covs, theta_o in (([1.0, 1.0], np.ones(1)), ([np.zeros((0, 0))] * 2, np.zeros(0))):
        with pytest.raises(DimensionMismatch, match="regressor covariances"):
            TheoryInputs(topology=topo, combination=combination_weights(topo),
                         regressor_covariances=covs, noise_variances=1.0, step_sizes=0.1, theta_o=theta_o)
    # h and delta must be positive finite numbers; a bool is refused, as the
    # config parser refuses it, rather than kept as h = True.
    for name in ("h", "delta"):
        for bad in (0.0, -1.0, np.inf, np.nan, True, np.bool_(True), "1.0", None):
            with pytest.raises(InvalidParameters, match=name):
                TheoryInputs(topology=topo, combination=combination_weights(topo),
                             regressor_covariances=[np.eye(2), np.eye(2)], noise_variances=1.0,
                             step_sizes=0.1, theta_o=np.ones(2), **{name: bad})
    # Non-finite step sizes and noise variances are rejected by name, not left
    # to fail inside `build_moments` on a matrix the caller never passed.
    valid = {"step_sizes": 0.1, "noise_variances": 1.0}
    for name in valid:
        for bad in (np.nan, np.inf, [0.1, np.nan], [np.inf, 0.1]):
            with pytest.raises(InvalidParameters, match=name):
                TheoryInputs(topology=topo, combination=combination_weights(topo),
                             regressor_covariances=[np.eye(2), np.eye(2)], theta_o=np.ones(2),
                             **{**valid, name: bad})
    # A boolean in an array field is refused by name, as in h and delta, rather
    # than read as 1.0 or 0.0: step_sizes=[True, 0.1] used to build as [1.0, 0.1].
    fields = {"regressor_covariances": [np.eye(2), np.eye(2)], "noise_variances": 1.0,
              "step_sizes": 0.1, "theta_o": np.ones(2)}
    bools = {"regressor_covariances": ([np.eye(2), np.eye(2, dtype=bool)], [np.eye(2), [[True, 0.0], [0.0, 1.0]]]),
             "noise_variances": (True, [np.bool_(True), 1.0]),
             "step_sizes": ([True, 0.1], np.array([True, True])),
             "theta_o": ([True, False], [1.0, np.bool_(False)])}
    for name, values in bools.items():
        for bad in values:
            with pytest.raises(InvalidParameters, match=name):
                TheoryInputs(topology=topo, combination=combination_weights(topo), **{**fields, name: bad})
    # The covariances as one (N, d, d) ndarray, as `dataclasses.replace` passes
    # them on: a bool stack, or an object stack holding a np.bool_, is refused
    # by name too.
    object_stack = np.empty((2, 2, 2), dtype=object)
    object_stack[...] = np.eye(2)
    object_stack[1, 0, 0] = np.bool_(True)
    for bad in (np.stack([np.eye(2, dtype=bool)] * 2), object_stack):
        with pytest.raises(InvalidParameters, match="regressor_covariances"):
            TheoryInputs(topology=topo, combination=combination_weights(topo),
                         **{**fields, "regressor_covariances": bad})
    # Covariances must be r I with r finite and >= 0: a non-symmetric matrix
    # used to yield a steady MSD, and -I was reported as an unstable system
    # rather than as invalid input. The N x N recursion models white
    # regressors only, the only ones a simulation draws, so a diagonal or
    # correlated R_l is refused too.
    for bad in (np.array([[1.0, 0.9], [0.0, 1.0]]), -np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]]),
                np.diag([1.0, 2.0]), np.array([[1.0, 0.1], [0.1, 1.0]]), np.diag([1.0, 1.0 + 1e-15])):
        for covs in ([np.eye(2), bad], np.stack([np.eye(2), bad])):
            with pytest.raises(InvalidParameters, match="regressor covariances"):
                TheoryInputs(topology=topo, combination=combination_weights(topo),
                             regressor_covariances=covs, noise_variances=1.0,
                             step_sizes=0.1, theta_o=np.ones(2))


def test_theory_inputs_hold_read_only_copies():
    """Frozen fields and read-only copies of the caller's arrays: no rebinding,
    write or later change to those arrays makes a MomentSet describe other
    inputs than those it holds. The arrays used to be the caller's own."""
    topo = build_topology(2, [(1, 2)])
    covs, noise, steps, theta = [np.eye(2), np.eye(2)], np.full(2, 0.1), np.full(2, 0.02), np.ones(2)
    combination = combination_weights(topo)
    inputs = TheoryInputs(topology=topo, combination=combination, regressor_covariances=covs,
                          noise_variances=noise, step_sizes=steps, theta_o=theta)
    moments = build_moments(inputs)
    for array in covs + [noise, steps, theta, combination.matrix]:
        array[...] = 7.0
    assert moments.inputs is inputs
    assert np.array_equal(inputs.combination.matrix, np.full((2, 2), 0.5))
    assert np.array_equal(inputs.regressor_covariances, np.stack([np.eye(2), np.eye(2)]))
    assert np.array_equal(inputs.noise_variances, [0.1, 0.1])
    assert np.array_equal(inputs.step_sizes, [0.02, 0.02])
    assert np.array_equal(inputs.theta_o, [1.0, 1.0])
    with pytest.raises(FrozenInstanceError):
        inputs.step_sizes = 1.5 * inputs.step_sizes
    with pytest.raises(FrozenInstanceError):
        moments.inputs.combination.matrix = np.eye(2)
    for array in (inputs.regressor_covariances, inputs.noise_variances, inputs.step_sizes, inputs.theta_o,
                  inputs.combination.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
