import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def ring_topology_dict(n, extra=()):
    edges = [[k, k % n + 1] for k in range(1, n + 1)]
    edges += [list(e) for e in extra]
    return {"nodes": n, "edges": edges}


def small_config_dict(**overrides):
    """A fast 5-node Gaussian experiment used across harness tests."""
    raw = {
        "topology": ring_topology_dict(5, extra=[(1, 3)]),
        "d": 3,
        "regressor_variances": [1.0, 0.9, 1.1, 1.0, 0.95],
        "noise": {"kind": "gaussian", "snr_db": 20},
        "algorithms": [{"kind": "dlms", "step_size": 0.05}],
        "iterations": 60,
        "realizations": 2,
        "base_seed": 77,
    }
    raw.update(overrides)
    return raw


def same_bits(a, b) -> bool:
    """Equal values, NaN positions and signs, the signs of zeros included."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def graphs(draw):
    """Connected graphs: a random tree plus extra edges, or a star."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return n, [[1, k] for k in range(2, n + 1)]
    parents = [draw(st.integers(1, k - 1)) for k in range(2, n + 1)]
    extra = draw(st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2), max_size=10))
    return n, [[p, k] for k, p in zip(range(2, n + 1), parents)] + extra
