"""Sensor-network model: topology, combination weights, the SNR-to-noise
conversion, and ground-truth processes.

Node ids are 1-based everywhere; every node has an implicit self-loop, so the
neighbourhood N_k always contains k itself.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, fields
from importlib import resources
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    IndexOutOfRange,
    InvalidParameters,
    NonPositiveSignalPower,
)

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected connected graph over nodes 1..N with implicit self-loops."""

    node_count: int
    edges: frozenset
    neighborhoods: tuple

    def neighbors(self, k: int) -> tuple:
        """N_k as a sorted tuple of 1-based ids, k included. `k` must be an
        integer id; a bool, float or string is refused, not read as one."""
        return self.neighborhoods[_node_id(k, self.node_count) - 1]

    def degree(self, k: int) -> int:
        return len(self.neighbors(k))

    def adjacency_mask(self) -> np.ndarray:
        """(N, N) array with mask[l, k] = 1 iff l is in N_k (0-based indices)."""
        mask = np.zeros((self.node_count, self.node_count))
        for k, hood in enumerate(self.neighborhoods):
            mask[[l - 1 for l in hood], k] = 1.0
        return mask


def _node_id(k, node_count, what: str = "node index") -> int:
    """`k` as an int, which must be an integer in 1..node_count; a bool,
    float or string is refused with IndexOutOfRange, not read as one."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= node_count:
        raise IndexOutOfRange(f"{what} {k!r} is not an integer in 1..{node_count}")
    return int(k)


def build_topology(node_count: int, edges) -> NetworkTopology:
    """Validate and freeze a topology from an edge list.

    `node_count` and the node ids must be integers, not bools, floats or
    strings. Duplicate edges and explicit self-loops are coalesced away; the
    graph must come out connected.
    """
    node_count = _node_id(node_count, math.inf, "node_count")
    normalized = set()
    for edge in edges:
        l, k = _node_id(edge[0], node_count), _node_id(edge[1], node_count)
        if l == k:
            continue  # self-loops are implicit
        normalized.add((min(l, k), max(l, k)))

    adjacency = {k: {k} for k in range(1, node_count + 1)}
    for l, k in normalized:
        adjacency[l].add(k)
        adjacency[k].add(l)

    seen = {1}
    queue = deque([1])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    if len(seen) != node_count:
        missing = sorted(set(range(1, node_count + 1)) - seen)
        raise DisconnectedGraph(f"nodes {missing} unreachable from node 1")

    neighborhoods = tuple(tuple(sorted(adjacency[k])) for k in range(1, node_count + 1))
    return NetworkTopology(node_count=node_count, edges=frozenset(normalized), neighborhoods=neighborhoods)


@dataclass(frozen=True)
class CombinationMatrix:
    """Left-stochastic neighbour weights; matrix[l-1, k-1] is a_{l,k}."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"combination matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a) & (a >= 0)):
            raise InvalidParameters("combination weights must be finite and nonnegative")
        col_sums = a.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > COLUMN_SUM_TOL:
            raise InvalidParameters(f"columns must sum to 1 within {COLUMN_SUM_TOL}")
        object.__setattr__(self, "matrix", a)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def combination_weights(topology: NetworkTopology, rule: str = "uniform") -> CombinationMatrix:
    """Build a left-stochastic combination matrix respecting the topology.

    `uniform` takes a_{l,k} = 1/|N_k| for l in N_k.  `metropolis` assigns the
    network-wide max-degree reciprocal off-diagonal and lets the diagonal
    absorb the remainder.
    """
    mask = topology.adjacency_mask()
    sizes = mask.sum(axis=0)                      # |N_k|
    if rule == "uniform":
        a = mask / sizes
    elif rule == "metropolis":
        max_degree = sizes.max()
        a = (mask - np.eye(topology.node_count)) / max_degree
        np.fill_diagonal(a, 1.0 - (sizes - 1) / max_degree)
    else:
        raise InvalidParameters(f"unknown combination rule {rule!r}")
    return CombinationMatrix(a)


def per_node(value, n: int, name: str) -> np.ndarray:
    """A length-n float array from a scalar (repeated) or a length-n sequence."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise DimensionMismatch(f"{name} must be scalar or length-{n}, got shape {arr.shape}")
    return arr


def refuse_bools(record) -> None:
    """A bool in a dataclass field is refused, not read as 0 or 1, as the
    config parser refuses it."""
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, (bool, np.bool_)):
            raise InvalidParameters(f"{field.name} must be a number, got {value!r}")


def noise_variance_from_snr(snr_db: float, r_u: np.ndarray, theta_o: np.ndarray) -> float:
    """Model-noise variance for a target SNR, with sigma_d^2 = theta_o' R_u theta_o."""
    theta_o = np.asarray(theta_o, dtype=float)
    r_u = np.asarray(r_u, dtype=float)
    signal_power = float(theta_o @ r_u @ theta_o)
    if signal_power <= 0.0:
        raise NonPositiveSignalPower(f"theta_o' R_u theta_o = {signal_power} <= 0")
    return signal_power * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class Stationary:
    """Fixed ground truth."""


# Per-step decay of the random walk's offset from theta_o.
WALK_DECAY = 0.99


@dataclass(frozen=True)
class RandomWalk:
    """First-order Gauss-Markov drift around theta_o, decaying by WALK_DECAY."""

    q_variance: float

    def __post_init__(self):
        refuse_bools(self)
        if not (math.isfinite(self.q_variance) and self.q_variance >= 0.0):
            raise InvalidParameters(f"q_variance must be finite and >= 0, got {self.q_variance}")


class GroundTruth:
    """Ground-truth parameter process theta_{o,n}, stationary or drifting."""

    def __init__(self, theta_o, drift=Stationary()):
        self.theta_o = np.asarray(theta_o, dtype=float).copy()
        self.drift = drift
        self._omega = np.zeros_like(self.theta_o)

    def path(self, rng, steps: int) -> np.ndarray:
        """(steps, d) array of the next `steps` values of theta_{o,n}.

        The random walk takes all its increments in one draw, which leaves the
        generator where `steps` calls of `path(rng, 1)` would, then runs the
        decay recurrence down each column on Python floats: the same products
        and sums as a row-by-row array update, without a numpy call per row.
        The path is C-contiguous, the layout whose bits the targets' einsum
        over d was recorded with. Zero steps leave the state as it is.
        """
        if not isinstance(self.drift, RandomWalk) or steps == 0:
            return np.tile(self.theta_o, (steps, 1))
        q_scale = math.sqrt(self.drift.q_variance)
        omega = rng.standard_normal((steps,) + self.theta_o.shape) * q_scale
        omega[0] += WALK_DECAY * self._omega
        omega = np.stack([np.fromiter(accumulate(column.tolist(), lambda prev, q: q + WALK_DECAY * prev),
                                      float, steps) for column in omega.T], axis=1)
        self._omega = omega[-1].copy()
        return self.theta_o + omega


def save_topology(topology: NetworkTopology, path) -> None:
    """Plain-text export: first line N, then one `l k` pair per edge, 1-based."""
    lines = [str(topology.node_count)]
    lines += [f"{l} {k}" for l, k in sorted(topology.edges)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_topology(path) -> NetworkTopology:
    """Parse the plain-text topology format written by `save_topology`."""
    return _parse_topology(Path(path).read_text(), path)


def _parse_topology(text: str, source) -> NetworkTopology:
    """Topology from the text of a `save_topology` file; errors name `source` and the line."""
    rows = [(number, line.strip()) for number, line in enumerate(text.split("\n"), 1)]
    rows = [(number, row) for number, row in rows if row and not row.startswith("#")]
    if not rows:
        raise InvalidParameters(f"empty topology file {source}")

    def integer(token, number, what):
        try:
            return int(token)
        except ValueError:
            raise InvalidParameters(f"{what} {token!r} in {source}, line {number}, is not an integer") from None

    number, first = rows[0]
    node_count = integer(first, number, "node count")
    if node_count < 1:
        raise IndexOutOfRange(f"node count {node_count} in {source}, line {number}, is not >= 1")
    edges = []
    for number, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParameters(f"bad edge line {line!r} in {source}, line {number}")
        edges.append(tuple(integer(part, number, "node id") for part in parts))
        for idx in edges[-1]:
            if not 1 <= idx <= node_count:
                raise IndexOutOfRange(f"node id {idx} in {source}, line {number}, is outside 1..{node_count}")
    try:
        return build_topology(node_count, edges)
    except DisconnectedGraph as exc:
        raise DisconnectedGraph(f"{exc} in {source}") from None


def _data_text(name: str) -> str:
    return resources.files("diffnet").joinpath("data", name).read_text()


def default_topology() -> NetworkTopology:
    """The canonical committed 16-node connected topology."""
    return _parse_topology(_data_text("topology16.txt"), "topology16.txt")


def default_variance_profile() -> np.ndarray:
    """Committed per-node regressor variances, drawn once from [0.8, 1.2]."""
    rows = [line.strip() for line in _data_text("regressor_variances16.txt").split("\n") if line.strip()]
    return np.array([float(x) for x in rows])
