"""Experiment orchestration: configuration, seeded Monte-Carlo runs, MSD
measurement, parameter sweeps, and CSV export.

Determinism contract: (config, base_seed) fixes every output byte. Each
realization derives its generator from SeedSequence([base_seed, index]), all
measurement and noise draws are made up front in a fixed order, and every
configured algorithm runs on the same draws, so comparisons are paired.
Realizations are statistically independent and reduced in index order.

One engine runs them, in one time loop (`_run_chunk`). Realizations go
through in memory-bounded chunks of CHUNK_REALIZATIONS, and every family runs
on one state of blocks: one per baseline family and one per value of the
kernel-MAP record. So a sweep is one pass over shared draws, and the
baselines run once per chunk for all its values. Each product works on one
realization's matrices, so a row gives the same bits in any chunk and beside
any other family as it does alone; the dense steps in the tests are the
reference for every bit.

Three layout conditions keep those bits, and the code must keep them:
- einsum adds a sum over a contiguous axis in another order than the same
  sum over a strided one, so the kernel-MAP's squared deviations and prior
  log-weights reduce over a contiguous d, through a (V*R, N, d) window of
  its blocks' states kept beside the state's own, while the baselines
  reduce over the state's strided d; the deviations of up to RING
  iterations are reduced in one einsum per layout, whose leading time axis
  it only loops over;
- the prior's contraction (`_KernelPrior.add`) is one einsum at numpy's
  default optimize=False, over a third, flat window of the kernel-MAP blocks'
  states: (d, V*R*N) matrices whose (row, node) axis, rows in the state's
  order and nodes within a row, is innermost and contiguous in the weights,
  the history and the output alike. It adds each product from +0.0, b outer
  and slot inner, unfused. optimize=True (BLAS), an einsum built with fused
  multiply-add or a layout that makes a reduction axis innermost would add
  in another order;
- the drift path is C-contiguous: the targets' einsum over d adds in
  another order on a Fortran-ordered path.
The combine and the error and gradient products give the same bits in
either layout and on strided views.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import noise as noise_models
from .diffusion import FAMILIES, NPDLMS, bounded_error_gain
from .errors import ConfigError, DiffnetError, InvalidParameters, PartialFailure
from .network import (
    CombinationMatrix,
    GroundTruth,
    NetworkTopology,
    RandomWalk,
    Stationary,
    build_topology,
    combination_weights,
    default_topology,
    default_variance_profile,
    load_topology,
    noise_variance_from_snr,
    per_node,
)
from .theory import TheoryInputs, to_db

DIVERGENCE_MSD = 1e6
RECORD_CAP = 1e12

@dataclass(frozen=True)
class AlgorithmSpec:
    """One configured algorithm: update family, step size, CSV label."""

    kind: object
    step_size: float
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size}")
        # The label names a CSV column: a comma or line break would split the header.
        if not isinstance(self.label, str) or any(c in self.label for c in ",\r\n"):
            raise ConfigError(f"label must be a string without ',', CR or LF, got {self.label!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind.kind)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    topology: NetworkTopology
    combination: CombinationMatrix
    theta_o: np.ndarray
    drift: Stationary | RandomWalk
    regressor_variances: np.ndarray  # (N,); node k's regressors have R_u,k = v_k I
    noise_specs: list
    algorithms: list
    iterations: int
    realizations: int
    base_seed: int
    strategy: str = "cta"
    output: str | None = None

    def __post_init__(self):
        n = self.topology.node_count
        self.theta_o = np.asarray(self.theta_o, dtype=float)
        if self.theta_o.ndim != 1 or not self.theta_o.size or not np.all(np.isfinite(self.theta_o)):
            raise ConfigError(f"theta_o must be a non-empty vector of finite numbers, got {self.theta_o}")
        if self.iterations < 1 or self.realizations < 1:
            raise ConfigError("iterations and realizations must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        self.regressor_variances = np.asarray(self.regressor_variances, dtype=float)
        if self.regressor_variances.shape != (n,) or len(self.noise_specs) != n:
            raise ConfigError(f"need per-node regressor variances and noise specs for {n} nodes")
        if not np.all(np.isfinite(self.regressor_variances) & (self.regressor_variances > 0)):
            raise ConfigError(f"regressor variances must be finite and > 0, got {self.regressor_variances}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm must be configured")
        labels = [spec.label for spec in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"algorithm labels must be unique, got {labels}")
        if sum(isinstance(spec.kind, NPDLMS) for spec in self.algorithms) > 1:
            raise ConfigError("at most one npdlms algorithm may be configured")
        if self.strategy not in ("cta", "atc"):
            raise ConfigError(f"strategy must be 'cta' or 'atc', got {self.strategy!r}")
        if self.combination.node_count != n:
            raise ConfigError("combination matrix size does not match topology")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a path string, got {self.output!r}")

    @property
    def dim(self) -> int:
        return self.theta_o.shape[0]

    def npdlms_spec(self) -> AlgorithmSpec | None:
        for spec in self.algorithms:
            if isinstance(spec.kind, NPDLMS):
                return spec
        return None


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_theta(raw, dim):
    if raw is None or raw == "normalized_ones":
        return np.ones(dim) / math.sqrt(dim)
    theta = _reals(raw, "theta_o")
    if theta.shape != (dim,) or not np.all(np.isfinite(theta)):
        raise ConfigError(f"theta_o must be {dim} finite numbers, got {raw!r}")
    return theta


_TOP_KEYS = ("topology", "d", "theta_o", "regressor_variances", "environment", "noise",
             "algorithms", "combination", "iterations", "realizations", "base_seed",
             "strategy", "output")


def _integer(value, key: str) -> int:
    """`value` as an int; integral numbers and numeric strings pass (YAML 1.1 reads 1e3 as one)."""
    if type(value) is int:
        return value
    number = _real(value, key)
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _real(value, key: str) -> float:
    """`value` as a float; numeric strings pass (YAML 1.1 reads 5e-3 as one), booleans do not."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _reals(value, key: str) -> np.ndarray:
    """`value`, a number or a list of numbers, as a float array of `_real`s."""
    items = np.asarray(value, dtype=object)
    return np.array([_real(x, key) for x in items.flat]).reshape(items.shape)


# The parameter modules postpone annotation evaluation, so field types are names.
_CASTS = {"float": _real, "int": _integer}


def _mapping(raw, where: str) -> dict:
    """`raw` itself, which must be a mapping: the section named `where`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    return raw


def _section(raw: dict, key: str) -> dict:
    """The mapping under `key`, or {} where the config leaves it out or empty."""
    value = raw.get(key)
    return {} if value is None else _mapping(value, key)


def _check_keys(raw: dict, known, where: str) -> None:
    """A key the parser does not read is an error, so a misspelling cannot pass."""
    unread = set(_mapping(raw, where)) - set(known)
    if unread:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unread)))}")


def _build(cls, raw: dict, where: str, read=(), **defaults):
    """Dataclass `cls` from the entries of `raw` named after its fields, cast
    to the field types, with `defaults` for fields that `raw` leaves out.
    `raw` may hold no other keys than those and `read`."""
    _check_keys(raw, [f.name for f in fields(cls)] + list(read), where)
    given = {f.name: _CASTS[f.type](raw[f.name], f.name) for f in fields(cls) if f.name in raw}
    return cls(**{**defaults, **given})


def _edge(edge) -> tuple:
    """An inline topology edge: a pair of integer node indices."""
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise ConfigError(f"topology edge {edge!r} must be a pair of node indices")
    return tuple(_integer(k, f"node index in topology edge {edge!r}") for k in edge)


def _parse_topology(raw):
    if raw is None or raw == "builtin:16":
        return default_topology()
    if isinstance(raw, str):
        return load_topology(raw)
    _check_keys(raw, ("nodes", "edges"), "topology")
    edges = raw.get("edges", [])
    if not isinstance(edges, list):
        raise ConfigError(f"topology edges must be a list of node pairs, got {edges!r}")
    try:
        return build_topology(_integer(raw["nodes"], "nodes"), [_edge(e) for e in edges])
    except KeyError as exc:
        raise ConfigError(f"inline topology needs 'nodes': {exc}") from exc


def _parse_variances(raw, n):
    if raw is None or raw == "builtin:16":
        profile = default_variance_profile()
        if n != profile.shape[0]:
            raise ConfigError(f"builtin variance profile is for 16 nodes, topology has {n}")
        return profile
    return per_node(_reals(raw, "regressor_variances"), n, "regressor_variances")


def _parse_noise(raw, variances, theta_o):
    n = len(variances)
    if raw is None:
        raise ConfigError("a 'noise' section is required")
    kind = _mapping(raw, "noise").get("kind")
    if kind == "gaussian":
        _check_keys(raw, ("kind", "snr_db", "variance"), "noise")
        if "snr_db" in raw and "variance" in raw:
            raise ConfigError("gaussian noise takes 'snr_db' or 'variance', not both")
        if "snr_db" in raw:
            snr = _real(raw["snr_db"], "snr_db")
            return [
                noise_models.Gaussian(noise_variance_from_snr(snr, v * np.eye(len(theta_o)), theta_o))
                for v in variances
            ]
        if "variance" in raw:
            return [noise_models.Gaussian(float(v))
                    for v in per_node(_reals(raw["variance"], "variance"), n, "gaussian variance")]
        raise ConfigError("gaussian noise needs 'snr_db' or 'variance'")
    if kind == "alpha_stable":
        return [_build(noise_models.AlphaStable, raw, "noise", ("kind",), beta=0.0, gamma=1.0)] * n
    raise ConfigError(f"unknown noise kind {kind!r}")


def _parse_algorithm(raw) -> AlgorithmSpec:
    """One algorithm entry: kind, step size, label and its family's fields (npdlms: eta too)."""
    kind_name = _mapping(raw, "each algorithm entry").get("kind")
    step = raw.get("step_size")
    if step is None:
        raise ConfigError(f"algorithm {kind_name!r} is missing step_size")
    if not isinstance(kind_name, str) or kind_name not in FAMILIES:
        raise ConfigError(f"unknown algorithm kind {kind_name!r}")
    where, cls = f"algorithm {kind_name!r}", FAMILIES[kind_name]
    kind = _build(cls, raw, where, ("kind", "step_size", "label"))
    return AlgorithmSpec(kind=kind, step_size=_real(step, "step_size"), label=raw.get("label", ""))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from plain nested dictionaries."""
    _check_keys(raw, _TOP_KEYS, "the configuration")
    try:
        topology = _parse_topology(raw.get("topology"))
        n = topology.node_count
        dim = _integer(raw.get("d", 5), "d")
        if dim < 1:
            raise ConfigError(f"d must be >= 1, got {dim}")
        theta_o = _parse_theta(raw.get("theta_o"), dim)
        variances = _parse_variances(raw.get("regressor_variances"), n)

        env = _section(raw, "environment")
        if env.get("kind", "stationary") == "stationary":
            _check_keys(env, ("kind",), "stationary environment")
            drift = Stationary()
        elif env.get("kind") == "random_walk":
            _check_keys(env, ("kind", "q_variance"), "environment")
            drift = RandomWalk(q_variance=_real(env.get("q_variance", 1e-4), "q_variance"))
        else:
            raise ConfigError(f"unknown environment kind {env.get('kind')!r}")

        noise_specs = _parse_noise(raw.get("noise"), variances, theta_o)
        algorithms = raw.get("algorithms", [])
        if not isinstance(algorithms, list):
            raise ConfigError(f"algorithms must be a list of mappings, got {algorithms!r}")
        algorithms = [_parse_algorithm(a) for a in algorithms]

        rule = raw.get("combination", "uniform")
        return ExperimentConfig(
            topology=topology,
            combination=combination_weights(topology, rule),
            theta_o=theta_o,
            drift=drift,
            regressor_variances=variances,
            noise_specs=noise_specs,
            algorithms=algorithms,
            iterations=_integer(raw.get("iterations", 500), "iterations"),
            realizations=_integer(raw.get("realizations", 1), "realizations"),
            base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
            **{key: raw[key] for key in ("strategy", "output") if key in raw},
        )
    except ConfigError:
        raise
    except DiffnetError as exc:
        raise ConfigError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# simulation core

# Realizations simulated together. A chunk holds its draws stacked, about
# 0.9 MB per realization at T = 1000, N = 16, d = 5, plus buffers of RING
# iterations: besides the draws, none of its arrays spans both the horizon
# and the realizations.
CHUNK_REALIZATIONS = 16

# Iterations whose states `_run_chunk` holds in its window before it
# reduces their deviations to squared deviations in one einsum and flushes them.
RING = 16


def realization_rng(base_seed: int, index: int):
    """Independent, reproducible stream for one realization."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(base_seed), int(index)]))


@dataclass
class RealizationData:
    """Pre-generated draws shared by every algorithm within one realization.

    A batch of realizations uses the same fields with a realization axis
    after the time axis: (T, R, d), (T, R, N, d), (T, R, N).
    """

    theta_path: np.ndarray  # (T, d)
    regressors: np.ndarray  # (T, N, d)
    targets: np.ndarray     # (T, N)


def generate_realization_data(config: ExperimentConfig, rng) -> RealizationData:
    t_len, n, d = config.iterations, config.topology.node_count, config.dim
    theta_path = GroundTruth(config.theta_o, config.drift).path(rng, t_len)
    z = rng.standard_normal((t_len, n, d))
    regressors = np.sqrt(config.regressor_variances)[None, :, None] * z
    noise = np.empty((t_len, n))
    for k in range(n):
        noise[:, k] = noise_models.sample(config.noise_specs[k], rng, t_len)
    targets = np.einsum("tnd,td->tn", regressors, theta_path) + noise
    return RealizationData(theta_path=theta_path, regressors=regressors, targets=targets)


def _draw(config: ExperimentConfig, indices):
    """Draw the given realizations, each from its own stream, into one batch.

    Returns (batch, indices drawn, [(index, exception)] for draws that raised).
    Rows are copied in as they are drawn, so only one realization's draws are
    held beside the batch.
    """
    batch, drawn, failures = None, [], []
    for index in indices:
        try:
            data = generate_realization_data(config, realization_rng(config.base_seed, index))
        except Exception as exc:  # noqa: BLE001 - reported via PartialFailure
            failures.append((index, exc))
            continue
        parts = [getattr(data, f.name) for f in fields(RealizationData)]
        if batch is None:
            batch = [np.empty((x.shape[0], len(indices)) + x.shape[1:]) for x in parts]
        for stacked, x in zip(batch, parts):
            stacked[:, len(drawn)] = x
        drawn.append(index)
    if batch is not None:
        batch = RealizationData(*(stacked[:, : len(drawn)] for stacked in batch))
    return batch, drawn, failures


def _per_value(variants: list, name: str, ndim: int, repeat: int):
    """The variants' parameter `name`, `repeat` rows per value over `ndim` unit axes;
    a parameter all variants share stays a scalar, which numpy applies faster."""
    params = [getattr(variant, name) for variant in variants]
    if len(set(params)) == 1:
        return params[0]
    return np.repeat(np.array(params, dtype=float), repeat).reshape((-1,) + (1,) * ndim)


class _KernelPrior:
    """The kernel prior's term of the gradient of V kernel-MAP variants' V*R rows.

    Every node's rings hold the same global history, the last B states, newest
    first. The prior couples node k only with its cross neighbours, so its
    (B, S, V*R, N) softmax lives on a slot table index (S, N): slot j < S - 1
    of node k holds k's j-th cross neighbour l in N_k \\ {k}, in ascending l;
    S - 1 is the largest cross degree plus one. Index N points at a column of
    -0.0 beside the N log-weights; the pads after a node's last neighbour and
    the last, "own", slot point there, so their joint log-weight is the node's
    own one and their softmax is mu_own.

    The contraction, one einsum over the flat window of past states (see the
    module docstring), reads the weights as (B, S, V*R*N) and writes a
    (d, V*R*N) prior, which is divided by sigma and added into the gradient
    through its (V*R, d, N) view. It adds history * (mu_joint - mu_own) over
    (b, slot) from +0.0, b outer and the own slot last: a dense contraction
    over every pair (l, k) in the same order, minus products history * (+-0)
    that leave a sum begun at +0.0 unchanged; the own slot's zero weight still
    turns a non-finite history entry into that product's NaN.

    Every buffer is allocated once and used through its first `filled`
    entries. The log-weights and the deviations reduce over a contiguous d
    axis: einsum adds a strided d in another order (see the module docstring).
    """

    def __init__(self, variants: list, mask: np.ndarray, rows: int, n: int, d: int, buffer: int):
        cross = mask.copy()
        np.fill_diagonal(cross, 0.0)                  # N_k \ {k}
        nbr, node = np.nonzero(cross)                 # ascending l within each node
        rank = (np.cumsum(cross, axis=0) - 1.0)[nbr, node].astype(int)
        index = np.full((int(cross.sum(axis=0).max()) + 1, n), n)
        index[rank, node] = nbr
        reals = rows // len(variants)
        self.sigma = _per_value(variants, "sigma", 2, reals)
        self.lw_scale = -2.0 * _per_value(variants, "sigma", 1, reals)
        self.diff = np.empty((buffer, 2, rows, n, d))
        self.lw = np.full((buffer, 2, rows, n + 1), -0.0)   # column n stays -0.0
        self.gather = np.arange(rows)[:, None] * (n + 1) + index[:, None, :]   # (S, V*R, N) into lw[b, 1]
        self.mu = np.empty((buffer, len(index), rows, n))
        self.mu_own = np.empty((buffer, 1, rows, n))
        self.nan = np.empty(self.mu.shape, dtype=bool)
        self.peak = np.empty(self.mu.shape[1:])
        self.total = np.empty(self.mu.shape[1:])
        self.prior = np.empty((d, rows * n))
        self.prior_rdn = self.prior.reshape(d, rows, n).transpose(1, 0, 2)   # the gradient's layout

    def add(self, grad_k, evals, history, operand, filled):
        """grad_k (V*R, d, N) += the prior of the newest `filled` >= 2 states, `history`
        (B, 1, V*R, N, d) and `operand` (B, d, V*R*N), newest first; evals (2, V*R, N, d)
        holds the evaluation points, then the newest states."""
        dv = np.subtract(history[:filled], evals, out=self.diff[:filled])
        lw_b = self.lw[:filled]
        np.einsum("bsrnd,bsrnd->bsrn", dv, dv, out=lw_b[..., :-1])
        np.divide(lw_b[..., :-1], self.lw_scale, out=lw_b[..., :-1])
        # joint[b, j, r, k] = lw_own[b, r, k] + lw_nbr[b, r, index[j, k]]
        mu_b = lw_b[:, 1].reshape(filled, -1).take(self.gather, axis=1, out=self.mu[:filled], mode="clip")
        np.add(lw_b[:, :1, :, :-1], mu_b, out=mu_b)
        np.maximum.reduce(mu_b, axis=0, out=self.peak)
        np.subtract(mu_b, self.peak, out=mu_b)
        np.exp(mu_b, out=mu_b)
        np.add.reduce(mu_b, axis=0, out=self.total)
        np.divide(mu_b, self.total, out=mu_b)
        # Pads and the own slot gather the same -0.0 column, so their
        # weight is mu_own's to the bit and their difference +0.0 or NaN.
        np.copyto(self.mu_own[:filled], mu_b[:, -1:])
        np.subtract(mu_b, self.mu_own[:filled], out=mu_b)
        # The max is subtracted, so a pair's largest weight is exactly 1 and
        # the weights, in [0, 1], cannot all underflow. NaN, their only
        # non-finite value, marks pairs whose log-weights are all -inf or
        # hold a NaN (|dtheta| >~ 1e154); they carry no prior signal.
        np.copyto(mu_b, 0.0, where=np.isnan(mu_b, out=self.nan[:filled]))
        np.einsum("bjm,bdm->dm", mu_b.reshape(filled, len(self.peak), -1), operand[:filled], out=self.prior)
        np.add(grad_k, np.divide(self.prior_rdn, self.sigma, out=self.prior_rdn), out=grad_k)


def _combine(state: np.ndarray, a: np.ndarray, links: np.ndarray, finite: np.ndarray, out):
    """out = state @ a, each node taking non-finite values from its neighbours only.

    A product a_lk * inf with a_lk = 0 is NaN, so the plain product would hand
    one node's inf to every node. In the (d, N) matrices of the state that
    hold one, the nodes none of whose neighbours (links[l, k] = a_lk != 0) is
    non-finite take the product of the matrix with those entries zeroed: the
    same bits a finite neighbourhood gives. `finite` is a bool buffer of the
    state's shape.
    """
    np.matmul(state, a, out=out)
    if not np.isfinite(state, out=finite).all():
        rows = ~finite.all(axis=(-2, -1))         # the matrices that hold one
        ok = finite[rows]
        reached = np.matmul(~ok.all(axis=-2), links)[..., None, :]
        out[rows] = np.where(reached, out[rows], np.where(ok, state[rows], 0.0) @ a)


def _run_chunk(config: ExperimentConfig, baselines: list, variants: list, batch: RealizationData, flush):
    """Every family on one chunk of draws, in one synchronous time loop.

    `baselines` lists the A baseline specs and `variants` V kernel-MAP
    records, possibly none, one per value; the variants share the first's
    buffer length. The state is (A + V, R, d, N): a block of R realizations
    per family and per variant, each holding the (d, N) matrices whose
    column k is node k's estimate. The combine, the error and gradient
    products, the neighbour-pair take and put and the adapt step run once
    per step over all blocks; the kernel-MAP extras (history, gate energy,
    prior, gate factor) run on (V*R, ...) views of its blocks. Every buffer
    is allocated once per call; per step, every baseline gain but DLMS's,
    the pseudo-Huber gain, the gate energy and `_combine`'s repair of a
    non-finite neighbourhood allocate.

    Every family's gain, every variant's pseudo-Huber gain among them, is
    evaluated on the neighbour pairs of the errors err[., ., l, k] only, and
    put into a gain matrix that holds +0.0 off the neighbourhoods for the
    whole run. The gate energy adds the squared errors of node k's
    neighbour pairs only, from +0.0 in ascending l, with the bits of a
    masked sum over l, and the combine (`_combine`) keeps a non-finite
    estimate out of the nodes it does not reach, so a non-finite value
    travels one hop per combine, as the network would pass it.

    Every node's rings hold the same global history, the last B states,
    newest first, so they are B slots of the window below. With B > 1, a
    `_KernelPrior` adds the kernel prior into the kernel-MAP gradient.

    The states live in one window of the last RING + B, newest first (B = 1
    without a kernel-MAP record, and B at most T, since no run buffers more
    states): step t reads the state at slot s, and the adapt (CTA) or the
    combine (ATC) writes the next one straight into slot s - 1. The
    kernel-MAP blocks keep a (V*R, N, d) window beside it, whose slot s - 1
    holds the evaluation point until the next state replaces it, so the
    prior's evaluation points are its slots s - 1 and s and its history the
    slots from s on. With B > 1 they keep a third, flat (d, V*R*N) window,
    whose slots from s on are the contraction's history; B = 1 runs no
    contraction and keeps none. Each step copies the next state into both
    from slot s - 1 of the state window. Once per RING iterations and at the
    last, one subtract per layout forms those iterations' deviations from
    theta_path, and one einsum per layout with a leading time axis reduces
    them over d, in the order of a per-iteration einsum of that layout, into
    a block sq[: t - t0 + 1] of a (RING, A + V, R, N) buffer. The block
    leaves the loop only through `flush(t0, block, states)`, with `states`
    the (t - t0 + 1, A + V, R, d, N) window slots of those iterations'
    states, oldest first. Both are views that the next block writes over,
    so a flush copies what it keeps; it may change the block's values but
    not the states, which the run reads on. The `fired` flags of those
    iterations are added into the update counts, and the newest B states of
    every window are copied back to the top.

    Returns the kernel-MAP update counts (V*R, N), row v*R + r for value v.
    """
    a = config.combination.matrix
    links = a != 0
    mask = config.topology.adjacency_mask()       # mask[l, k] = 1 iff l in N_k
    t_len, reals, n, d = batch.regressors.shape
    fams, values = len(baselines), len(variants)
    blocks = fams + values
    rows = values * reals
    cta = config.strategy == "cta"
    buffer = min(variants[0].buffer, t_len) if values else 1
    u_tr = batch.regressors.transpose(0, 1, 3, 2)         # (T, R, d, N)
    # The window of past states, newest first: step t reads the state at slot
    # s and writes the next one to slot s - 1. RING steps from the top slot, s
    # reaches 0, and the newest `buffer` states are copied back to the top.
    top = RING
    window = np.empty((RING + buffer, blocks, reals, d, n))
    window[top] = 0.0
    point = np.empty(window.shape[1:]) if cta else None   # CTA combines, then adapts
    adapted = None if cta else np.empty(window.shape[1:])  # ATC adapts, then combines
    err = np.empty((blocks, reals, n, n))                 # err[., ., l, k] = u_l theta_k
    gains = np.zeros(err.shape)                           # written on the neighbour pairs only
    grad = np.empty(window.shape[1:])
    finite = np.empty(window.shape[1:], dtype=bool)
    sq = np.empty((RING, blocks, reals, n))
    # Flat (block, row, l, k) indices of the neighbour pairs, one line per
    # block, and the (row, l) indices of their targets; every index is in
    # range, so take and put run with mode="clip", which skips their bounds
    # checks.
    kinds = [spec.kind for spec in baselines]
    flat = np.flatnonzero(mask)
    pairs = (np.arange(blocks * reals)[:, None] * n * n + flat).reshape(blocks, reals * len(flat))
    at_l = (np.arange(reals)[:, None] * n + flat // n).ravel()
    pair_err = np.empty(pairs.shape)
    pair_gain = np.empty(pairs.shape)
    pair_target = np.empty(at_l.shape)

    if fams:
        steps = np.array([spec.step_size for spec in baselines]).reshape(-1, 1, 1, 1)
        theta_path = batch.theta_path[:, None, :, :, None]
        grad_b, sq_b = grad[:fams], sq[:, :fams]
        dev_b = np.empty((RING, fams, reals, d, n))

    updates = np.zeros((rows, n))
    kmap_windows = []
    if values:
        step = config.npdlms_spec().step_size
        eta = _per_value(variants, "eta", 1, reals)
        h = _per_value(variants, "h", 2, reals)
        delta = _per_value(variants, "delta", 1, 1)
        prior = _KernelPrior(variants, mask, rows, n, d, buffer) if buffer > 1 else None
        states = window[:, fams:].reshape(-1, rows, d, n)  # (RING + buffer, V*R, d, N) view
        # The kernel-MAP blocks' states again, as (V*R, N, d) matrices: slot s - 1
        # holds the evaluation point until the step writes the next state there.
        window_nd = np.empty((RING + buffer, rows, n, d))
        # And a third time, as (d, V*R*N) matrices: the history of the prior's
        # contraction, which a buffer of one never runs.
        window_flat = np.empty((RING + buffer, d, rows * n)) if buffer > 1 else None
        kmap_windows = [w for w in (window_nd, window_flat) if w is not None]
        for w in kmap_windows:
            w[top] = 0.0
        point_nd = point[fams:].reshape(rows, d, n).transpose(0, 2, 1) if cta else None
        theta_path_nd = batch.theta_path[:, None, :, None, :]
        dev_k = np.empty((RING, values, reals, n, d))
        pair_err_k = pair_err[fams:]                      # (V, R*P): row r's pairs at r*P
        grad_k = grad[fams:].reshape(rows, d, n)
        pair_sq = pair_gain[fams:]                     # the squared errors, then the gains
        node_of_pair = (np.arange(rows)[:, None] * n + flat % n).ravel()   # (row, k) bins
        fired = np.empty((RING, rows, n), dtype=bool)
        open_gate = np.empty((rows, n))
        gate_dn = open_gate[:, None, :]

    s = top
    with np.errstate(all="ignore"):  # divergence is flagged by _finish
        for t in range(t_len):
            theta, new = window[s], window[s - 1]
            if cta:
                _combine(theta, a, links, finite, point)
            else:
                point = theta
            np.matmul(batch.regressors[t], point, out=err)
            err.take(pairs, out=pair_err, mode="clip")
            batch.targets[t].take(at_l, out=pair_target, mode="clip")
            np.subtract(pair_target, pair_err, out=pair_err)
            for i, kind in enumerate(kinds):
                pair_gain[i] = kind.gain(pair_err[i])
            if values:
                # The pairs run in ascending l for each (row, k), so the bins add
                # the neighbourhood's squares as a masked sum over l would: a
                # square is never -0.0, so the masked sum's +0.0 terms drop out.
                np.multiply(pair_err_k, pair_err_k, out=pair_sq)
                eps = np.bincount(node_of_pair, pair_sq.ravel(), rows * n).reshape(rows, n)
                pair_gain[fams:] = bounded_error_gain(delta, pair_err_k)
            gains.put(pairs, pair_gain, mode="clip")
            np.matmul(u_tr[t], gains, out=grad)
            if fams:
                np.multiply(steps, grad_b, out=grad_b)

            slot = t % RING
            if values:
                np.divide(grad_k, h, out=grad_k)
                if prior is not None and t:             # two or more states buffered
                    evals = window_nd[s - 1 : s + 1]    # (own, neighbours') evaluation points
                    np.copyto(evals[0], point_nd if cta else evals[1])
                    prior.add(grad_k, evals, window_nd[s : s + buffer, None], window_flat[s : s + buffer],
                              min(t + 1, buffer))
                np.greater(eps, eta, out=fired[slot])
                np.multiply(step, fired[slot], out=open_gate)
                np.multiply(gate_dn, grad_k, out=grad_k)

            if cta:
                np.add(point, grad, out=new)
            else:
                np.add(point, grad, out=adapted)
                _combine(adapted, a, links, finite, new)
            s -= 1
            if values:
                np.copyto(window_nd[s], states[s].transpose(0, 2, 1))
                if window_flat is not None:
                    np.copyto(window_flat[s].reshape(d, rows, n), states[s].transpose(1, 0, 2))
            if slot == RING - 1 or t == t_len - 1:
                # The states of steps t0..t sit at slots s + slot..s, newest first.
                done, t0 = slot + 1, t - slot
                past = window[s : s + done][::-1]
                if fams:
                    np.subtract(past[:, :fams], theta_path[t0 : t + 1], out=dev_b[:done])
                    np.einsum("t...dk,t...dk->t...k", dev_b[:done], dev_b[:done], out=sq_b[:done])
                if values:
                    recent = window_nd[s : s + done][::-1].reshape(done, values, reals, n, d)
                    np.subtract(recent, theta_path_nd[t0 : t + 1], out=dev_k[:done])
                    np.einsum("tvrkd,tvrkd->tvrk", dev_k[:done], dev_k[:done], out=sq[:done, fams:])
                    np.add(updates, np.add.reduce(fired[:done], axis=0), out=updates)
                flush(t0, sq[:done], past)
                if s == 0:
                    window[top : top + buffer] = window[:buffer]
                    for w in kmap_windows:
                        w[top : top + buffer] = w[:buffer]
                    s = top
    return updates


def _finish(sq: np.ndarray) -> tuple:
    """(sq, diverged flags (A + V, R)) of squared deviations sq (A + V, R, T, N),
    or of a flushed block through its (A + V, R, t, N) view, capped at
    RECORD_CAP in place. A realization diverged if a value is not finite or
    the nodes' mean exceeds DIVERGENCE_MSD at one of the iterations, so a
    realization's flags ORed over its blocks are its flags over the run."""
    with np.errstate(over="ignore", invalid="ignore"):
        # Squares are >= 0, +inf or NaN, so a mean is NaN or +inf exactly
        # where a value is not finite or the sum overflows.
        calm = np.add.reduce(sq, axis=-1) / sq.shape[-1] <= DIVERGENCE_MSD
    np.fmin(sq, RECORD_CAP, out=sq)                 # NaN and +inf become RECORD_CAP
    return sq, ~calm.all(axis=-1)


def _blocks(config: ExperimentConfig, value: int = 0) -> tuple:
    """The config's families as `_run_chunk` takes them, (baseline specs, [the
    kernel-MAP record] or []), and {label: block of its state} at kernel-MAP
    value `value`: baseline i is block i, the kernel-MAP label block A + value."""
    baselines = [spec for spec in config.algorithms if not isinstance(spec.kind, NPDLMS)]
    block = {spec.label: i for i, spec in enumerate(baselines)}
    return (baselines, [spec.kind for spec in config.algorithms if isinstance(spec.kind, NPDLMS)],
            {spec.label: block.get(spec.label, len(baselines) + value) for spec in config.algorithms})


@dataclass
class RunResult:
    """Ensemble-averaged curves and counters for one experiment."""

    labels: list
    iterations: int
    realizations: int
    node_msd: dict               # label -> (T, N) linear ensemble means
    kappa: dict                  # label -> (N,) mean gate update counts, or None
    diverged: dict               # label -> number of diverged realizations
    wall_time_s: float = 0.0

    def network_msd(self, label: str) -> np.ndarray:
        return self.node_msd[label].mean(axis=1)

    def network_msd_db(self, label: str) -> np.ndarray:
        return to_db(self.network_msd(label))

    def steady_window(self) -> int:
        return max(1, round(0.2 * self.iterations))

    def steady_state_msd_db(self, label: str) -> float:
        curve = self.network_msd(label)
        return float(to_db(curve[-self.steady_window():].mean()))

    def kappa_mean(self, label: str) -> float:
        counts = self.kappa[label]
        if counts is None:
            raise ConfigError(f"{label} has no gate counter")
        return float(counts.mean())


def _run_values(config: ExperimentConfig, variants: list) -> list:
    """One RunResult per kernel-MAP variant, or one where there is none, from
    one chunked pass.

    Each chunk is one `_run_chunk` call. As it flushes each block of
    iterations, the block's rows are capped and added, one realization at a
    time in index order, into one sum per block, so the baselines are summed
    once for all variants and the sums get the bits of adding whole runs. A
    realization whose draw raises is reported by index in `PartialFailure`
    while the rest of its chunk runs on; if the batched run of a chunk
    raises, what it flushed is dropped and the chunk is re-run one
    realization at a time with every variant.
    """
    started = time.perf_counter()
    t_len, n = config.iterations, config.topology.node_count
    baselines = _blocks(config)[0]
    # (T, A + V, N), as a block's rows: the sums of the runs that completed,
    # and those plus the rows of the run under way, which replace them once
    # it completes, so a run that raises adds nothing.
    sums = np.zeros((t_len, len(baselines) + len(variants), n))
    trial = np.empty_like(sums)
    counts = np.zeros((len(variants), n))
    diverged = np.zeros(sums.shape[1], dtype=int)
    failures = {}

    def run(batch):
        """(update counts, divergence flags) of `_run_chunk` on `batch`, whose
        blocks are added to `sums` into `trial` as they are flushed."""
        nonlocal sums, trial
        flags = np.zeros((sums.shape[1], batch.targets.shape[1]), dtype=bool)

        def flush(t0, block, _states):
            np.logical_or(flags, _finish(block.transpose(1, 2, 0, 3))[1], out=flags)
            rows = np.add(sums[t0 : t0 + len(block)], block[:, :, 0], out=trial[t0 : t0 + len(block)])
            for row in range(1, block.shape[2]):
                rows += block[:, :, row]

        updates = _run_chunk(config, baselines, variants, batch, flush)
        sums, trial = trial, sums
        return updates, flags

    for start in range(0, config.realizations, CHUNK_REALIZATIONS):
        indices = range(start, min(start + CHUNK_REALIZATIONS, config.realizations))
        batch, drawn, failed = _draw(config, indices)
        failures.update(failed)
        if not drawn:
            continue
        try:
            runs = [run(batch)]
        except Exception:  # noqa: BLE001 - retried one realization at a time
            runs = []
            for index in drawn:
                try:
                    runs.append(run(_draw(config, [index])[0]))
                except Exception as exc:  # noqa: BLE001 - reported via PartialFailure
                    failures.setdefault(index, exc)
        for updates, flags in runs:
            diverged += flags.sum(axis=1)
            for row in range(flags.shape[1]):
                counts += updates[row :: flags.shape[1]]   # row `row` of every value
    if failures:
        raise PartialFailure(sorted(failures.items(), key=lambda failure: failure[0]))
    wall_time = time.perf_counter() - started
    sums /= config.realizations
    counts /= config.realizations
    results = []
    for v in range(max(len(variants), 1)):
        blocks = _blocks(config, v)[2]
        results.append(RunResult(
            labels=list(blocks), iterations=t_len, realizations=config.realizations,
            node_msd={label: sums[:, b] for label, b in blocks.items()},
            kappa={label: counts[v] if b >= len(baselines) else None for label, b in blocks.items()},
            diverged={label: int(diverged[b]) for label, b in blocks.items()},
            wall_time_s=wall_time))
    return results


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Average squared errors over realizations (before the dB transform).

    The one-value case of a sweep: see `_run_values` for the chunking and
    for how failed realizations are reported.
    """
    result = _run_values(config, _blocks(config)[1])[0]
    if config.output:
        export_csv(result, config.output)
    return result


# ---------------------------------------------------------------------------
# export and sweeps


def _write_lines(path, lines) -> None:
    """Write `lines` to `path`, each ended by LF on every platform; an entry
    may be a block of lines joined by LF, such as `_rows` returns."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _rows(lead: tuple, curves: list, start: int = 1) -> str:
    """One CSV line per iteration, joined by LF: the numbers `lead`, the
    iteration counted from `start`, each curve's value; every number as %.17g,
    which round-trips a double. The lead is formatted once, and the block with
    one `%` over the line template repeated once per row."""
    prefix = "".join("%.17g," % x for x in lead).replace("%", "%%")
    line = prefix + ",".join(["%d"] + ["%.17g"] * len(curves))
    columns = [np.asarray(curve, dtype=float).tolist() for curve in curves]
    t_len = len(columns[0])
    cells = itertools.chain.from_iterable(zip(range(start, start + t_len), *columns, strict=True))
    return "\n".join([line] * t_len) % tuple(cells)


def csv_columns(labels, extra=()) -> list:
    """The columns `<label>_msd_db` of `labels`, then the names `extra`; a
    name that appears twice is a ConfigError."""
    names = [f"{label}_msd_db" for label in labels] + list(extra)
    twice = [name for name in names if names.count(name) > 1]
    if twice:
        raise ConfigError(f"CSV column {twice[0]!r} appears twice; rename an algorithm's label")
    return names


def export_csv(result: RunResult, path, extra_columns=None) -> None:
    """`iteration,<label>_msd_db,...` with one row per iteration, LF endings.

    `extra_columns` maps further column names to per-iteration values, which
    follow the algorithms' columns.
    """
    if not result.labels:
        raise ConfigError("no algorithms to export")
    extra = extra_columns or {}
    for name, column in extra.items():
        if len(column) != result.iterations:
            raise ConfigError(f"column {name!r} has {len(column)} values for {result.iterations} iterations")
    names = csv_columns(result.labels, extra)
    curves = [result.network_msd_db(label) for label in result.labels] + list(extra.values())
    _write_lines(path, ["iteration," + ",".join(names), _rows((), curves)])


SWEEPABLE = ("eta", "h", "delta", "sigma")


def sweep(config: ExperimentConfig, parameter: str, values) -> list:
    """One RunResult per value, each equal to `run_experiment` at that value.

    Every value sees the same draws (paired comparison), and one chunked
    pass serves them all: per chunk the draws are made and the baselines run
    once, and the kernel-MAP update runs once on the rows of every value.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}")
    spec = config.npdlms_spec()
    if spec is None:
        raise ConfigError("sweeps apply to the npdlms algorithm; none configured")
    try:
        variants = [replace(spec.kind, **{parameter: float(v)}) for v in values]
    except InvalidParameters as exc:  # a value out of the record's range
        raise ConfigError(str(exc)) from exc
    return _run_values(config, variants) if variants else []


def export_sweep_csv(values, results, path) -> None:
    """Concatenated per-value curves with a leading param_value column."""
    values = list(values)
    if not results:
        raise ConfigError("no sweep results to export")
    if len(values) != len(results):
        raise ConfigError(f"cannot export {len(results)} sweep results for {len(values)} values")
    labels = results[0].labels
    header = "param_value,iteration," + ",".join(csv_columns(labels))
    _write_lines(path, [header] + [_rows((float(value),), [result.network_msd_db(label) for label in labels])
                                   for value, result in zip(values, results)])


def theory_inputs_from_config(config: ExperimentConfig) -> TheoryInputs:
    """Theory-side inputs for the configured kernel-MAP algorithm.

    Requires Gaussian noise (the moment matrices need finite variances), the
    CTA strategy, a stationary environment and the gate at eta = 0 (an
    update at every iteration), the only case the moment recursion models.
    The prediction ignores the kernel prior (sigma, B): it is that of the
    prior-free update, `buffer: 1`.
    """
    spec = config.npdlms_spec()
    if spec is None:
        raise ConfigError("theory predictions need an npdlms algorithm in the config")
    if config.strategy != "cta":
        raise ConfigError(f"theory predictions model the cta strategy only, got {config.strategy!r}")
    if not isinstance(config.drift, Stationary):
        raise ConfigError("theory predictions model a stationary environment only, "
                          f"got a random walk with q_variance = {config.drift.q_variance:g}")
    algo: NPDLMS = spec.kind
    if algo.eta != 0:
        raise ConfigError(f"theory predictions model the gate at eta = 0 only, got eta = {algo.eta:g}")
    if not all(isinstance(ns, noise_models.Gaussian) for ns in config.noise_specs):
        raise ConfigError("theory predictions require gaussian noise")
    return TheoryInputs(
        topology=config.topology,
        combination=config.combination,
        regressor_variances=config.regressor_variances,
        noise_variances=np.array([ns.variance for ns in config.noise_specs]),
        step_sizes=np.full(config.topology.node_count, spec.step_size),
        theta_o=config.theta_o,
        h=algo.h,
        delta=algo.delta,
    )


def export_theory_csv(curves, steady, path) -> None:
    """`n,msd_theory_db,emse_theory_db` rows plus a steady_state summary row.

    The rows whose dB values repeat the last row's bit for bit, the held tail
    of a settled transient, print the same numbers: they are formatted once.
    The rows before them, and so a -0.0 or NaN that differs from the last
    row's bits, go through `_rows`.
    """
    db = np.stack([to_db(curves.network_msd), to_db(curves.network_emse)])
    bits = db.view(np.int64)
    moved = np.flatnonzero((bits != bits[:, -1:]).any(axis=0))
    held = moved[-1] + 1 if moved.size else 0
    lines = ["n,msd_theory_db,emse_theory_db"]
    if held:
        lines.append(_rows((), list(db[:, :held]), start=0))
    tail = ",%.17g,%.17g" % tuple(db[:, -1].tolist())
    lines.append((tail + "\n").join(map(str, range(held, db.shape[1]))) + tail)
    steady_db = (float(to_db(steady.steady_network_msd)), float(to_db(steady.steady_network_emse)))
    _write_lines(path, lines + ["steady_state,%.17g,%.17g" % steady_db])
