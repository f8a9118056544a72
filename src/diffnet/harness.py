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

Two layout conditions keep those bits, and the code must keep them:
- einsum adds a sum over a contiguous axis in another order than the same
  sum over a strided one, so the kernel-MAP's squared deviations and prior
  log-weights reduce over a contiguous d, through (..., N, d) copies of its
  blocks, while the baselines reduce over the state's strided d;
- the prior's contraction must stay an elementwise reduce over its leading
  (b, slot) axis, whose order no layout of the other axes changes; it runs
  on (d, V*R, N) copies, where the product with the weights has the
  longest inner runs.
The combine and the error and gradient products give the same bits in
either layout and on strided views.
"""

from __future__ import annotations

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

_GATE = ("eta", "slope", "mode")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One configured algorithm: update family, step size, CSV label."""

    kind: object
    step_size: float
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size}")
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
    theta = np.asarray(raw, dtype=float)
    if theta.shape != (dim,) or not np.all(np.isfinite(theta)):
        raise ConfigError(f"theta_o must be {dim} finite numbers, got {raw!r}")
    return theta


_TOP_KEYS = ("topology", "d", "theta_o", "regressor_variances", "environment", "noise",
             "algorithms", "gate", "combination", "iterations", "realizations", "base_seed",
             "strategy", "output")


def _integer(value, key: str) -> int:
    """`value` as an int; integral floats pass, fractions and booleans do not."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """`value` as a float; numeric strings pass (YAML reads 5e-3 as one), booleans do not."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


# The parameter modules postpone annotation evaluation, so field types are names.
_CASTS = {"float": _real, "int": _integer, "str": lambda value, key: str(value)}


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
    try:
        return build_topology(_integer(raw["nodes"], "nodes"), [_edge(e) for e in raw.get("edges", [])])
    except KeyError as exc:
        raise ConfigError(f"inline topology needs 'nodes': {exc}") from exc


def _parse_variances(raw, n):
    if raw is None or raw == "builtin:16":
        profile = default_variance_profile()
        if n != profile.shape[0]:
            raise ConfigError(f"builtin variance profile is for 16 nodes, topology has {n}")
        return profile
    return per_node(raw, n, "regressor_variances")


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
                    for v in per_node(raw["variance"], n, "gaussian variance")]
        raise ConfigError("gaussian noise needs 'snr_db' or 'variance'")
    if kind == "alpha_stable":
        return [_build(noise_models.AlphaStable, raw, "noise", ("kind",), beta=0.0, gamma=1.0)] * n
    raise ConfigError(f"unknown noise kind {kind!r}")


def _parse_algorithm(raw, gate: NPDLMS) -> AlgorithmSpec:
    """One algorithm entry; an npdlms entry takes the gate section's `gate`."""
    kind_name = _mapping(raw, "each algorithm entry").get("kind")
    step = raw.get("step_size")
    if step is None:
        raise ConfigError(f"algorithm {kind_name!r} is missing step_size")
    if kind_name not in FAMILIES:
        raise ConfigError(f"unknown algorithm kind {kind_name!r}")
    where, cls = f"algorithm {kind_name!r}", FAMILIES[kind_name]
    _check_keys(raw, set(raw) - set(_GATE), where)  # the gate has one place to be set
    kind = _build(cls, raw, where, ("kind", "step_size", "label"), **(vars(gate) if cls is NPDLMS else {}))
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
        gate = _section(raw, "gate")
        _check_keys(gate, _GATE, "gate")
        gate = _build(NPDLMS, gate, "gate")  # checked even where no npdlms entry reads it
        algorithms = raw.get("algorithms", [])
        if not isinstance(algorithms, list):
            raise ConfigError(f"algorithms must be a list of mappings, got {algorithms!r}")
        algorithms = [_parse_algorithm(a, gate) for a in algorithms]

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
# 0.9 MB per realization at T = 1000, N = 16, d = 5, plus the squared
# deviations of every algorithm.
CHUNK_REALIZATIONS = 16


def realization_rng(base_seed: int, index: int):
    """Independent, reproducible stream for one realization."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(base_seed), int(index)]))


@dataclass
class RealizationData:
    """Pre-generated draws shared by every algorithm within one realization.

    A batch of realizations uses the same fields with a realization axis
    after the time axis: (T, R, d), (T, R, N, d), (T, R, N), (T, R, N).
    """

    theta_path: np.ndarray  # (T, d)
    regressors: np.ndarray  # (T, N, d)
    targets: np.ndarray     # (T, N)
    noises: np.ndarray      # (T, N)


def generate_realization_data(config: ExperimentConfig, rng) -> RealizationData:
    t_len, n, d = config.iterations, config.topology.node_count, config.dim
    theta_path = GroundTruth(config.theta_o, config.drift).path(rng, t_len)
    z = rng.standard_normal((t_len, n, d))
    regressors = np.sqrt(config.regressor_variances)[None, :, None] * z
    noises = np.empty((t_len, n))
    for k in range(n):
        noises[:, k] = noise_models.sample(config.noise_specs[k], rng, t_len)
    targets = np.einsum("tnd,td->tn", regressors, theta_path) + noises
    return RealizationData(theta_path=theta_path, regressors=regressors,
                           targets=targets, noises=noises)


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


def _neighbour_slots(mask: np.ndarray) -> np.ndarray:
    """Per-node slot table of the kernel prior: index (S, N).

    Slot j < S - 1 of node k holds k's j-th cross neighbour l in N_k \\ {k},
    in ascending l; S - 1 is the largest cross degree plus one. Index N points
    at a column of -0.0 beside the N log-weights; the pads after a node's
    last neighbour and the last, "own", slot point there, so their joint
    log-weight is the node's own one and their softmax is mu_own.
    """
    cross = mask.copy()
    np.fill_diagonal(cross, 0.0)                  # N_k \ {k}
    n = mask.shape[0]
    nbr, node = np.nonzero(cross)                 # ascending l within each node
    rank = (np.cumsum(cross, axis=0) - 1.0)[nbr, node].astype(int)
    slots = int(cross.sum(axis=0).max()) + 1
    index = np.full((slots, n), n)
    index[rank, node] = nbr
    return index


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


def _run_chunk(config: ExperimentConfig, baselines: list, variants: list, batch: RealizationData,
               trace_out=None):
    """Every family on one chunk of draws, in one synchronous time loop.

    `baselines` lists the A baseline specs and `variants` V kernel-MAP
    records, possibly none, one per value; the variants share the first's
    buffer length and gate mode and slope. The state is (A + V, R, d, N): a
    block of R realizations per family and per variant, each holding the
    (d, N) matrices whose column k is node k's estimate. The combine, the
    error and gradient products, the neighbour-pair take and put and the
    adapt step run once per step over all blocks; the kernel-MAP extras
    (history, gate energy, prior, gate factor) run on (V*R, ...) views of
    its blocks. Every buffer is allocated once per call; only the
    pseudo-Huber gain and `_combine`'s repair of the matrices that hold a
    non-finite value allocate per step.

    Every family's gain, every variant's pseudo-Huber gain among them, is
    evaluated on the neighbour pairs of the errors err[., ., l, k] only, and
    put into a gain matrix that holds +0.0 off the neighbourhoods for the
    whole run. The gate energy sums a node's own neighbourhood, and the
    combine (`_combine`) keeps a non-finite estimate out of the nodes it
    does not reach, so a non-finite value travels one hop per combine, as
    the network would pass it.

    Every node's rings hold the same global history, so they collapse into
    one (B, V*R, N, d) array, newest first. The prior couples node k only
    with its cross neighbours, so its (B, S, V*R, N) softmax lives on the
    slot table of `_neighbour_slots`. Its contraction adds history *
    (mu_joint - mu_own) over the flattened (b, slot) axis from +0.0, b outer
    and the own slot last: a dense contraction over every pair (l, k) in the
    same order, minus products history * (+-0) that leave a sum begun at
    +0.0 unchanged; the own slot's zero weight still turns a non-finite
    history entry into the NaN such a product gives.

    Returns squared deviations (A + V, R, T, N) and the kernel-MAP update
    counts (V*R, N), row v*R + r for value v; `trace_out`, if given,
    receives the kernel-MAP estimates (T, V*R, N, d).
    """
    a = config.combination.matrix
    links = a != 0
    mask = config.topology.adjacency_mask()       # mask[l, k] = 1 iff l in N_k
    t_len, reals, n, d = batch.regressors.shape
    fams, values = len(baselines), len(variants)
    blocks = fams + values
    cta = config.strategy == "cta"
    u_tr = batch.regressors.transpose(0, 1, 3, 2)         # (T, R, d, N)
    targets = batch.targets[:, :, :, None]
    theta = np.zeros((blocks, reals, d, n))
    point = np.empty(theta.shape) if cta else theta     # CTA combines, then adapts
    adapted = theta if cta else np.empty(theta.shape)   # ATC adapts, then combines
    err = np.empty((blocks, reals, n, n))                 # err[., ., l, k]
    gains = np.zeros(err.shape)                           # written on the neighbour pairs only
    grad = np.empty(theta.shape)
    finite = np.empty(theta.shape, dtype=bool)
    sq = np.empty((t_len, blocks, reals, n))
    # Flat (block, row, l, k) indices of the neighbour pairs, one line per
    # block; every index is in range, so take and put run with mode="clip",
    # which skips their bounds checks.
    kinds = [spec.kind for spec in baselines]
    flat = np.flatnonzero(mask)
    pairs = (np.arange(blocks * reals)[:, None] * n * n + flat).reshape(blocks, reals * len(flat))
    pair_err = np.empty(pairs.shape)
    pair_gain = np.empty(pairs.shape)

    if fams:
        steps = np.array([spec.step_size for spec in baselines]).reshape(-1, 1, 1, 1)
        theta_path = batch.theta_path[:, :, :, None]
        theta_b, grad_b, sq_b = theta[:fams], grad[:fams], sq[:, :fams]
        dev_b = np.empty(theta_b.shape)

    rows = values * reals
    updates = np.zeros((rows, n))
    if values:
        algo: NPDLMS = variants[0]
        step = config.npdlms_spec().step_size

        def per_value(name, ndim, repeat=reals):
            # A parameter all variants share stays a scalar, which numpy applies faster.
            params = [getattr(variant, name) for variant in variants]
            if len(set(params)) == 1:
                return params[0]
            return np.repeat(np.array(params, dtype=float), repeat).reshape((-1,) + (1,) * ndim)

        eta = per_value("eta", 1)
        sigma = per_value("sigma", 1)
        lw_scale = -2.0 * sigma
        h = per_value("h", 2)
        delta = per_value("delta", 1, repeat=1)
        if algo.mode == "smooth":
            from scipy.special import expit
        index = _neighbour_slots(mask)
        slots = index.shape[0]
        # (V*R, ...) views of the kernel-MAP blocks; the _nd views are (V*R, N, d).
        theta_nd = theta[fams:].reshape(rows, d, n).transpose(0, 2, 1)
        theta_dr = theta[fams:].reshape(rows, d, n).transpose(1, 0, 2)   # (d, V*R, N)
        point_nd = point[fams:].reshape(rows, d, n).transpose(0, 2, 1)
        pair_err_k = pair_err[fams:]                      # (V, R*P): row r's pairs at r*P
        grad_k = grad[fams:].reshape(rows, d, n)
        theta_path_nd = batch.theta_path[:, :, None, :]
        thetas_nd = theta[fams:].transpose(0, 1, 3, 2)    # (V, R, N, d) against the draws
        dev_k = np.empty((values, reals, n, d))
        gains_k = gains[fams:].reshape(rows, n, n)
        pair_sq = pair_gain[fams:]                     # the squared errors, then the gains
        eps = np.empty((rows, n))
        fired = np.empty((rows, n), dtype=bool)
        open_gate = np.empty((rows, n))
        gate_dn = open_gate[:, None, :]

        # Buffers of the prior term, each used through its first `filled` entries.
        # The log-weights and the deviations reduce over a contiguous d axis:
        # einsum adds a strided d in another order (see the module docstring).
        buffer = algo.buffer
        history = np.empty((buffer, rows, n, d))  # newest first
        columns = np.empty((buffer, d, rows, n))  # the same, laid out for the contraction
        evals = np.empty((2, rows, n, d))         # own evaluation point, neighbour estimates
        diff = np.empty((buffer, 2, rows, n, d))
        lw = np.full((buffer, 2, rows, n + 1), -0.0)  # column n stays -0.0 (see _neighbour_slots)
        gather = np.arange(rows)[:, None] * (n + 1) + index[:, None, :]   # (S, V*R, N) into lw[b, 1]
        mu = np.empty((buffer, slots, rows, n))
        mu_own = np.empty((buffer, 1, rows, n))
        nan = np.empty(mu.shape, dtype=bool)
        peak = np.empty((slots, rows, n))
        total = np.empty((slots, rows, n))
        prod = np.empty((buffer, slots, d, rows, n))
        prior = np.empty((d, rows, n))
        filled = 0

    with np.errstate(all="ignore"):  # divergence is flagged by _finish
        for t in range(t_len):
            if values:
                kept = min(filled, buffer - 1)
                history[1 : kept + 1] = history[:kept]
                history[0] = theta_nd
                columns[1 : kept + 1] = columns[:kept]
                columns[0] = theta_dr
                filled = kept + 1
            if cta:
                _combine(theta, a, links, finite, point)
            np.matmul(batch.regressors[t], point, out=err)
            np.subtract(targets[t], err, out=err)
            np.take(err, pairs, out=pair_err, mode="clip")
            for i, kind in enumerate(kinds):
                pair_gain[i] = kind.gain(pair_err[i])
            if values:
                # Off the neighbourhoods the gains hold +0.0, so the masked sum
                # of the squared errors never forms inf * 0.
                np.put(gains, pairs[fams:], np.multiply(pair_err_k, pair_err_k, out=pair_sq), mode="clip")
                np.einsum("rlk,lk->rk", gains_k, mask, out=eps)
                pair_gain[fams:] = bounded_error_gain(delta, pair_err_k)
            np.put(gains, pairs, pair_gain, mode="clip")
            np.matmul(u_tr[t], gains, out=grad)
            if fams:
                np.multiply(steps, grad_b, out=grad_b)

            if values:
                np.divide(grad_k, h, out=grad_k)
                if filled >= 2:
                    evals[0] = point_nd
                    evals[1] = history[0]
                    dv = np.subtract(history[:filled, None], evals, out=diff[:filled])
                    lw_b = lw[:filled]
                    np.einsum("bsrnd,bsrnd->bsrn", dv, dv, out=lw_b[..., :n])
                    np.divide(lw_b[..., :n], lw_scale, out=lw_b[..., :n])
                    # joint[b, j, r, k] = lw_own[b, r, k] + lw_nbr[b, r, index[j, k]]
                    mu_b = np.take(lw_b[:, 1].reshape(filled, -1), gather, axis=1,
                                   out=mu[:filled], mode="clip")
                    np.add(lw_b[:, :1, :, :n], mu_b, out=mu_b)
                    np.maximum.reduce(mu_b, axis=0, out=peak)
                    np.subtract(mu_b, peak, out=mu_b)
                    np.exp(mu_b, out=mu_b)
                    np.add.reduce(mu_b, axis=0, out=total)
                    np.divide(mu_b, total, out=mu_b)
                    # Pads and the own slot gather the same -0.0 column, so their
                    # weight is mu_own's to the bit and their difference +0.0 or NaN.
                    np.copyto(mu_own[:filled], mu_b[:, -1:])
                    np.subtract(mu_b, mu_own[:filled], out=mu_b)
                    # The max is subtracted, so a pair's largest weight is exactly 1 and
                    # the weights, in [0, 1], cannot all underflow. NaN, their only
                    # non-finite value, marks pairs whose log-weights are all -inf or
                    # hold a NaN (|dtheta| >~ 1e154); they carry no prior signal.
                    np.copyto(mu_b, 0.0, where=np.isnan(mu_b, out=nan[:filled]))
                    terms = np.multiply(columns[:filled, None], mu_b[:, :, None], out=prod[:filled])
                    np.add.reduce(terms.reshape(filled * slots, d, rows, n), axis=0,
                                  initial=0.0, out=prior)
                    np.add(grad_k, np.divide(prior, sigma, out=prior).transpose(1, 0, 2), out=grad_k)
                np.greater(eps, eta, out=fired)
                np.add(updates, fired, out=updates)
                if algo.mode == "hard":
                    np.multiply(step, fired, out=open_gate)
                else:
                    np.multiply(2.0 * algo.slope, np.subtract(eps, eta, out=open_gate), out=open_gate)
                    np.multiply(step, expit(open_gate, out=open_gate), out=open_gate)
                np.multiply(gate_dn, grad_k, out=grad_k)

            np.add(point, grad, out=adapted)
            if not cta:
                _combine(adapted, a, links, finite, theta)
            if fams:
                np.subtract(theta_b, theta_path[t], out=dev_b)
                np.einsum("...dk,...dk->...k", dev_b, dev_b, out=sq_b[t])
            if values:
                np.subtract(thetas_nd, theta_path_nd[t], out=dev_k)
                np.einsum("vrkd,vrkd->vrk", dev_k, dev_k, out=sq[t, fams:])
                if trace_out is not None:
                    trace_out[t] = theta_nd
    return sq.transpose(1, 2, 0, 3), updates


def _finish(sq: np.ndarray) -> tuple:
    """(sq, diverged flags (A + V, R)) of a chunk, the deviations capped at RECORD_CAP."""
    broken = ~np.isfinite(sq)
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = broken.any(axis=(-2, -1)) | (sq.mean(axis=-1) > DIVERGENCE_MSD).any(axis=-1)
    np.copyto(sq, RECORD_CAP, where=broken)
    np.minimum(sq, RECORD_CAP, out=sq)
    return sq, diverged


def _blocks(config: ExperimentConfig, value: int = 0) -> tuple:
    """The config's families as `_run_chunk` takes them, (baseline specs, [the
    kernel-MAP record] or []), and {label: block of its state} at kernel-MAP
    value `value`: baseline i is block i, the kernel-MAP label block A + value."""
    baselines = [spec for spec in config.algorithms if not isinstance(spec.kind, NPDLMS)]
    block = {spec.label: i for i, spec in enumerate(baselines)}
    return (baselines, [spec.kind for spec in config.algorithms if isinstance(spec.kind, NPDLMS)],
            {spec.label: block.get(spec.label, len(baselines) + value) for spec in config.algorithms})


def run_realization(config: ExperimentConfig, index: int):
    """All configured algorithms on one shared measurement stream.

    A batch of one through the same engine as `run_experiment`. Returns
    {label: (per-node squared deviations (T, N), update counts or None,
    diverged flag)}, deviations capped at RECORD_CAP.
    """
    batch, _, failures = _draw(config, [index])
    if failures:
        raise failures[0][1]
    baselines, variants, blocks = _blocks(config)
    sq, updates = _run_chunk(config, baselines, variants, batch)
    sq, diverged = _finish(sq)
    return {label: (sq[b, 0], updates[0] if b >= len(baselines) else None, bool(diverged[b, 0]))
            for label, b in blocks.items()}


@dataclass
class RunResult:
    """Ensemble-averaged curves and counters for one experiment."""

    labels: list
    iterations: int
    realizations: int
    node_msd: dict               # label -> (T, N) linear ensemble means
    kappa: dict                  # label -> (N,) mean hard-gate update counts, or None
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

    Each chunk is one `_run_chunk` call, whose realization rows are added in
    index order into one sum per block, so the baselines are summed once for
    all variants. A realization whose draw raises is reported by index in
    `PartialFailure` while the rest of its chunk runs on; if the batched run
    of a chunk raises, the chunk is re-run one realization at a time with
    every variant.
    """
    started = time.perf_counter()
    t_len, n = config.iterations, config.topology.node_count
    baselines = _blocks(config)[0]
    sums = np.zeros((len(baselines) + len(variants), t_len, n))
    counts = np.zeros((len(variants), n))
    diverged = np.zeros(sums.shape[0], dtype=int)
    failures = {}
    for start in range(0, config.realizations, CHUNK_REALIZATIONS):
        indices = range(start, min(start + CHUNK_REALIZATIONS, config.realizations))
        batch, drawn, failed = _draw(config, indices)
        failures.update(failed)
        if not drawn:
            continue
        try:
            runs = [_run_chunk(config, baselines, variants, batch)]
        except Exception:  # noqa: BLE001 - retried one realization at a time
            runs = []
            for index in drawn:
                try:
                    runs.append(_run_chunk(config, baselines, variants, _draw(config, [index])[0]))
                except Exception as exc:  # noqa: BLE001 - reported via PartialFailure
                    failures.setdefault(index, exc)
        for sq, updates in runs:
            sq, flags = _finish(sq)
            diverged += flags.sum(axis=1)
            for row in range(sq.shape[1]):
                sums += sq[:, row]
                counts += updates[row :: sq.shape[1]]      # row `row` of every value
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
            node_msd={label: sums[b] for label, b in blocks.items()},
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path, lines) -> None:
    """Write `lines` to `path`, each ended by LF on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _rows(prefix: list, curves: list) -> list:
    """One CSV line per iteration: `prefix`, the 1-based iteration, each curve's value."""
    return [",".join(prefix + [str(t)] + [_fmt(x) for x in row])
            for t, row in enumerate(zip(*curves, strict=True), start=1)]


def export_csv(result: RunResult, path, extra_columns=None) -> None:
    """`iteration,<label>_msd_db,...` with one row per iteration, LF endings.

    `extra_columns` maps further column names to per-iteration values, which
    follow the algorithms' columns.
    """
    if not result.labels:
        raise ConfigError("no algorithms to export")
    extra = extra_columns or {}
    names = [f"{label}_msd_db" for label in result.labels] + list(extra)
    curves = [result.network_msd_db(label) for label in result.labels] + list(extra.values())
    _write_lines(path, ["iteration," + ",".join(names)] + _rows([], curves))


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
    if not results:
        raise ConfigError("no sweep results to export")
    labels = results[0].labels
    header = "param_value,iteration," + ",".join(f"{label}_msd_db" for label in labels)
    lines = [header]
    for value, result in zip(values, results):
        lines += _rows([_fmt(value)], [result.network_msd_db(label) for label in labels])
    _write_lines(path, lines)


def theory_inputs_from_config(config: ExperimentConfig) -> TheoryInputs:
    """Theory-side inputs for the configured kernel-MAP algorithm.

    Requires Gaussian noise (the moment matrices need finite variances), the
    CTA strategy, a stationary environment and a hard gate at eta = 0 (an
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
    if algo.mode != "hard" or algo.eta != 0:
        raise ConfigError("theory predictions model the hard gate at eta = 0 only, got "
                          f"mode {algo.mode!r} with eta = {algo.eta:g}")
    if not all(isinstance(ns, noise_models.Gaussian) for ns in config.noise_specs):
        raise ConfigError("theory predictions require gaussian noise")
    return TheoryInputs(
        topology=config.topology,
        combination=config.combination,
        regressor_covariances=[v * np.eye(config.dim) for v in config.regressor_variances],
        noise_variances=np.array([ns.variance for ns in config.noise_specs]),
        step_sizes=np.full(config.topology.node_count, spec.step_size),
        theta_o=config.theta_o,
        h=algo.h,
        delta=algo.delta,
    )


def export_theory_csv(curves, steady, path) -> None:
    """`n,msd_theory_db,emse_theory_db` rows plus a steady_state summary row."""
    msd_db = to_db(curves.network_msd)
    emse_db = to_db(curves.network_emse)
    lines = ["n,msd_theory_db,emse_theory_db"]
    for n in range(msd_db.shape[0]):
        lines.append(f"{n},{_fmt(msd_db[n])},{_fmt(emse_db[n])}")
    lines.append(
        "steady_state," + _fmt(to_db(steady.steady_network_msd)) + "," + _fmt(to_db(steady.steady_network_emse))
    )
    _write_lines(path, lines)
