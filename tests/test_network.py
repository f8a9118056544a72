"""Topology, combination weights, SNR conversion, measurements, and drift."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.errors import (
    ConfigError,
    DisconnectedGraph,
    IndexOutOfRange,
    InvalidParameters,
    NonPositiveSignalPower,
)
from diffnet.network import (
    CombinationMatrix,
    GroundTruth,
    WALK_DECAY,
    RandomWalk,
    Stationary,
    build_topology,
    combination_weights,
    default_topology,
    default_variance_profile,
    load_topology,
    noise_variance_from_snr,
    save_topology,
)
from diffnet.harness import config_from_dict, generate_realization_data
from conftest import small_config_dict
from oracles import replay_draws

THETA5 = np.ones(5) / np.sqrt(5)


def test_two_node_neighborhoods():
    topo = build_topology(2, [(1, 2)])
    assert topo.neighbors(1) == (1, 2)
    assert topo.neighbors(2) == (1, 2)


def test_single_node_self_loop_only():
    topo = build_topology(1, [])
    assert topo.neighbors(1) == (1,)


def test_adjacency_mask_marks_neighborhoods():
    topo = build_topology(3, [(1, 2), (2, 3)])
    expected = np.array([[1.0, 1.0, 0.0],
                         [1.0, 1.0, 1.0],
                         [0.0, 1.0, 1.0]])
    assert np.array_equal(topo.adjacency_mask(), expected)


def test_duplicate_and_self_edges_coalesce():
    topo = build_topology(3, [(1, 2), (2, 1), (2, 2), (2, 3)])
    assert topo.edges == frozenset({(1, 2), (2, 3)})


def test_disconnected_raises():
    with pytest.raises(DisconnectedGraph):
        build_topology(4, [(1, 2), (3, 4)])


def test_bad_index_raises():
    with pytest.raises(IndexOutOfRange):
        build_topology(3, [(1, 5)])


@pytest.mark.parametrize("k", [0, -1, 4, True, False, np.bool_(True), 1.5, 2.0, "1", None])
def test_node_lookup_outside_network_raises(k):
    # k <= 0 must not wrap round to another node through negative indexing;
    # True is not node 1, and a float or string id is refused by name
    topo = build_topology(3, [(1, 2), (2, 3)])
    with pytest.raises(IndexOutOfRange):
        topo.neighbors(k)
    with pytest.raises(IndexOutOfRange):
        topo.degree(k)


def test_node_lookup_takes_numpy_integers():
    topo = build_topology(3, [(1, 2), (2, 3)])
    assert topo.neighbors(np.int64(2)) == (1, 2, 3)
    assert topo.degree(np.int32(3)) == 2


def test_default_topology_every_node_has_a_neighbor():
    topo = default_topology()
    assert topo.node_count == 16
    assert all(topo.degree(k) >= 2 for k in range(1, 17))
    assert default_variance_profile().shape == (16,)
    assert np.all((default_variance_profile() >= 0.8) & (default_variance_profile() <= 1.2))


def test_topology_file_round_trip(tmp_path):
    topo = default_topology()
    path = tmp_path / "topo.txt"
    save_topology(topo, path)
    again = load_topology(path)
    assert again.edges == topo.edges
    assert again.node_count == topo.node_count


TOPOLOGY_FILE_ERRORS = {
    "empty": ("# nothing here\n\n", InvalidParameters, "empty topology file"),
    "three-token-edge": ("3\n1 2\n2 3 1\n", InvalidParameters, "bad edge line '2 3 1' in .*, line 3"),
    "node-count": ("three\n1 2\n", InvalidParameters, "node count 'three' in .*, line 1, is not an integer"),
    "node-id": ("3\n1 2\n2 x\n", InvalidParameters, "node id 'x' in .*, line 3, is not an integer"),
    "node-out-of-range": ("3\n1 5\n", IndexOutOfRange, "node id 5 in .*, line 2, is outside 1..3"),
    "disconnected": ("3\n1 2\n", DisconnectedGraph, r"nodes \[3\] unreachable from node 1 in "),
    "no-nodes": ("0\n1 2\n", IndexOutOfRange, "node count 0 in .*, line 1, is not >= 1"),
}


@pytest.mark.parametrize("text, error, message", TOPOLOGY_FILE_ERRORS.values(), ids=list(TOPOLOGY_FILE_ERRORS))
def test_topology_file_errors_name_the_file_and_line(tmp_path, text, error, message):
    """A bad topology file raises its error naming the file, and the line
    where one line is at fault, through `load_topology` and through a config
    that points at it; a non-integer used to raise the bare ValueError of
    int(), and an out-of-range node, a disconnected graph or no nodes named
    neither the file nor the line."""
    path = tmp_path / "topo.txt"
    path.write_text(text)
    with pytest.raises(error, match=message) as caught:
        load_topology(path)
    assert str(path) in str(caught.value)
    with pytest.raises(ConfigError, match=message) as caught:
        config_from_dict(small_config_dict(topology=str(path), regressor_variances=1.0))
    assert str(path) in str(caught.value)


def test_uniform_weights_equal_split():
    topo = build_topology(4, [(1, 2), (1, 3), (1, 4)])
    a = combination_weights(topo, "uniform")
    assert np.allclose(a.matrix[:, 0], [0.25, 0.25, 0.25, 0.25])


def test_single_node_combination_matrix():
    topo = build_topology(1, [])
    assert combination_weights(topo).matrix == pytest.approx(np.ones((1, 1)))


def test_metropolis_chain_column_sums():
    topo = build_topology(3, [(1, 2), (2, 3)])
    a = combination_weights(topo, "metropolis")
    assert np.max(np.abs(a.matrix.sum(axis=0) - 1.0)) <= 1e-12


def test_combination_matrix_validation():
    with pytest.raises(InvalidParameters):
        CombinationMatrix(np.array([[0.5, 0.0], [0.4, 1.0]]))  # bad column sum
    with pytest.raises(InvalidParameters):
        CombinationMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))  # negative weight
    with pytest.raises(InvalidParameters, match="finite"):
        CombinationMatrix(np.array([[np.nan, 0.5], [np.nan, 0.5]]))  # passed both checks above


@st.composite
def topologies(draw):
    n = draw(st.integers(2, 8))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))
    edges = [(k, k + 1) for k in range(1, n)] + extra  # path keeps it connected
    return build_topology(n, edges)


@given(topo=topologies(), rule=st.sampled_from(["uniform", "metropolis"]))
@settings(max_examples=80, deadline=None)
def test_weights_left_stochastic_and_sparse(topo, rule):
    a = combination_weights(topo, rule)
    assert np.max(np.abs(a.matrix.sum(axis=0) - 1.0)) <= 1e-12
    for k in range(1, topo.node_count + 1):
        in_nbrs = set(topo.neighbors(k))
        for l in range(1, topo.node_count + 1):
            if l not in in_nbrs:
                assert a.matrix[l - 1, k - 1] == 0.0


def _loop_weights(topo, rule):
    """Reference: both rules written out neighbourhood by neighbourhood."""
    n = topo.node_count
    a = np.zeros((n, n))
    max_degree = max(topo.degree(k) for k in range(1, n + 1))
    for k in range(1, n + 1):
        nbrs = topo.neighbors(k)
        for l in nbrs:
            if rule == "uniform":
                a[l - 1, k - 1] = 1.0 / len(nbrs)
            elif l != k:
                a[l - 1, k - 1] = 1.0 / max_degree
        if rule == "metropolis":
            a[k - 1, k - 1] = 1.0 - (len(nbrs) - 1) / max_degree
    return a


@given(topo=topologies(), rule=st.sampled_from(["uniform", "metropolis"]))
@settings(max_examples=80, deadline=None)
def test_mask_weights_match_loop_reference(topo, rule):
    """The mask-built weights equal the per-neighbourhood loop bit for bit."""
    a = combination_weights(topo, rule).matrix
    ref = _loop_weights(topo, rule)
    assert np.array_equal(a, ref)
    assert np.array_equal(np.signbit(a), np.signbit(ref))


def test_snr_conversion_examples():
    assert noise_variance_from_snr(0.0, np.eye(5), THETA5) == pytest.approx(1.0)
    assert noise_variance_from_snr(30.0, np.eye(5), THETA5) == pytest.approx(1e-3)
    assert noise_variance_from_snr(-20.0, np.eye(5), THETA5) == pytest.approx(100.0)


def test_snr_requires_signal_power():
    with pytest.raises(NonPositiveSignalPower):
        noise_variance_from_snr(10.0, np.eye(3), np.zeros(3))


def _measurement_config(**overrides):
    raw = small_config_dict(environment={"kind": "random_walk", "q_variance": 1e-3},
                            noise={"kind": "gaussian", "variance": 0.5})
    raw.update(overrides)
    return config_from_dict(raw)


def test_measurement_construction_identity():
    """targets = u' theta + noise bit for bit, the draws replayed from the stream."""
    cfg = _measurement_config()
    data = generate_realization_data(cfg, np.random.default_rng(2024))
    theta_path, regressors, noise = replay_draws(cfg, np.random.default_rng(2024))
    assert np.array_equal(data.theta_path, theta_path) and np.array_equal(data.regressors, regressors)
    expected = np.einsum("tnd,td->tn", data.regressors, data.theta_path) + noise
    assert np.array_equal(data.targets, expected)  # bit-exact by construction
    assert np.all(noise != 0.0)


def test_measurement_zero_noise_zero_theta(rng):
    cfg = _measurement_config(theta_o=[0.0, 0.0, 0.0], environment={"kind": "stationary"},
                              noise={"kind": "gaussian", "variance": 0.0})
    data = generate_realization_data(cfg, rng)
    assert not data.targets.any()


def test_profile_validation():
    cfg = _measurement_config()
    for bad in (-np.ones(5), np.zeros(5), [1.0, 1.0, np.nan, 1.0, 1.0], [np.inf] * 5, np.ones(4)):
        with pytest.raises(ConfigError):
            replace(cfg, regressor_variances=bad)
    with pytest.raises(ConfigError):
        _measurement_config(noise={"kind": "gaussian", "variance": -1.0})
    with pytest.raises(ConfigError):
        _measurement_config(algorithms=[{"kind": "dlms", "step_size": 0.0}])


NODE_VARIANCES = [0.8, 1.2]


def _regressor_draws(rng, samples):
    """(samples, N, 3) regressors of a 2-node config with variances NODE_VARIANCES."""
    cfg = config_from_dict(small_config_dict(
        topology={"nodes": 2, "edges": [[1, 2]]}, regressor_variances=NODE_VARIANCES,
        noise={"kind": "gaussian", "variance": 0.0}, iterations=samples))
    return generate_realization_data(cfg, rng).regressors


@pytest.mark.slow
def test_regressor_sample_covariance(rng):
    draws = _regressor_draws(rng, 10**5)
    for k in range(2):
        sample_cov = draws[:, k].T @ draws[:, k] / draws.shape[0]
        expected = NODE_VARIANCES[k] * np.eye(3)
        rel = np.linalg.norm(sample_cov - expected, "fro") / np.linalg.norm(expected, "fro")
        assert rel < 0.05


@pytest.mark.slow
def test_cross_node_regressor_independence(rng):
    draws = _regressor_draws(rng, 10**5)
    corr = np.corrcoef(draws[:, 0].T, draws[:, 1].T)[:3, 3:]
    assert np.max(np.abs(corr)) < 0.02


def test_stationary_ground_truth(rng):
    gt = GroundTruth(THETA5, Stationary())
    for _ in range(5):
        assert np.array_equal(gt.path(rng, 1)[0], THETA5)


def test_zero_variance_walk_is_frozen(rng):
    gt = GroundTruth(THETA5, RandomWalk(q_variance=0.0))
    for _ in range(5):
        assert np.array_equal(gt.path(rng, 1)[0], THETA5)


@pytest.mark.slow
def test_random_walk_stationary_variance(rng):
    # AR(1) with decay a and drive q has stationary variance q / (1 - a^2).
    q_var = 1e-4
    gt = GroundTruth(np.zeros(1), RandomWalk(q_variance=q_var))
    steps = np.array([gt.path(rng, 1)[0, 0] for _ in range(10**5)])
    expected = q_var / (1.0 - 0.99**2)
    assert abs(steps[1000:].var() - expected) / expected < 0.10


@pytest.mark.parametrize("drift", [RandomWalk(q_variance=1e-4), Stationary()], ids=["walk", "fixed"])
def test_drift_path_matches_stepwise_recursion(drift):
    """One draw plus the decay recurrence gives the per-step process bit for bit."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        gt = GroundTruth(THETA5, drift)
        parts = [gt.path(rng, 400), gt.path(rng, 1), gt.path(rng, 99)]
        # The targets' einsum over d gives other bits on a Fortran-ordered path.
        assert all(part.flags.c_contiguous for part in parts)
        path = np.concatenate(parts)
        omega = np.zeros(5)
        expected = []
        for _ in range(500):
            if isinstance(drift, RandomWalk):
                q = rng_ref.standard_normal(5) * np.sqrt(drift.q_variance)
                omega = WALK_DECAY * omega + q
            expected.append(THETA5 + omega)
        assert np.array_equal(path, np.array(expected))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("drift", [RandomWalk(q_variance=1e-4), Stationary()], ids=["walk", "fixed"])
def test_zero_step_path_is_empty_and_keeps_the_state(drift):
    """`path(rng, 0)` is (0, d) for both drifts and moves neither the walk's
    state nor the generator; the walk's used to fail at omega[0]."""
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    gt, ref = GroundTruth(THETA5, drift), GroundTruth(THETA5, drift)
    assert np.array_equal(gt.path(rng, 3), ref.path(rng_ref, 3))
    assert gt.path(rng, 0).shape == (0, 5)
    assert np.array_equal(gt.path(rng, 4), ref.path(rng_ref, 4))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_negative_walk_variance_rejected():
    with pytest.raises(InvalidParameters):
        RandomWalk(q_variance=-1e-3)
