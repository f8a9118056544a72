"""Slow reference implementations that the batched simulation engine and the
N x N theory recursion are checked against.

The baseline runner and the kernel-MAP chain below work one node at a time,
the way the algorithms are written down, and share nothing with the batched
engine in `diffnet.harness` but the family records and their scalar gains
(each baseline's `gain`, through `error_gain` below, and `bounded_error_gain`).

Kernel-MAP chain: each node keeps short ring buffers of recent parameter
estimates, its own and one ring per neighbour, aligned index-wise so the i-th
entries of every ring come from the same past iteration. A Gaussian-kernel
mixture over the buffers acts as the prior; the data likelihood is a
pseudo-Huber penalty on the neighbourhood prediction errors, so each
likelihood term contributes at most `delta` in magnitude regardless of how
wild the error is. The update ascends the resulting log-posterior, optionally
gated by a threshold on the neighbourhood squared error so that quiet
iterations skip the adapt step but still combine.

`run_npdlms_dense_reference` and `run_baselines_dense_reference` are the
batched engine's kernel-MAP and baseline steps in their earlier forms, over
every node pair; the engine must reproduce their bits. `dense_prior_term`
is the dense kernel-MAP step's prior alone, which `harness._KernelPrior` must
reproduce bit for bit.

`run_chunk` collects the blocks that `harness._run_chunk` flushes, the
squared deviations and the states of a whole run, and checks the order the
blocks arrive in; `run_realization` runs every configured algorithm on one
realization through it.

`transient_curves_reference` and `steady_fixed_point_reference` drive the
closed-form theory's covariance recursion on the full Nd x Nd covariance,
allocating every intermediate and forming the full (N, N, N) pair tensor,
for any regressor covariances; `diffnet.theory`'s N x N recursion for white
regressors must agree with them to rounding. The transient reference stops
by the same scale-free rule as `theory.transient_curves`, once the
covariance is stationary, or runs the full recursion that the held rows are
checked against. The fixed-point reference starts where the transient
settles, as `theory.build_moments` does.

Sign convention: `npdlms_gradient` returns the ascent direction of
`log_local_objective`, and the update is always theta <- theta_eval +
step * gate * gradient. The two agree with central finite differences to
machine-level accuracy; that check is part of the test suite.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import logsumexp

from diffnet import harness
from diffnet import noise as noise_models
from diffnet import theory
from diffnet.diffusion import DLMSF, DMCC, NPDLMS, bounded_error_gain, bounded_gain_moments
from diffnet.errors import DiffnetError, DimensionMismatch, InvalidParameters
from diffnet.network import GroundTruth


class NonPositiveBandwidth(DiffnetError):
    """Kernel bandwidth must be strictly positive."""


class EmptyBuffer(DiffnetError):
    """A kernel density was requested over an empty estimate buffer."""


class DegenerateDenominator(DiffnetError):
    """Kernel normalisation fully underflowed; the prior term carries no signal."""


# --- measurement draws ------------------------------------------------------


def replay_draws(config, rng):
    """One realization's draws replayed from its stream `rng` in the
    documented order: the truth's path, the regressors' (T, N, d) standard
    normals, then each node's noise in node order. Returns (theta_path (T, d),
    regressors (T, N, d), noise (T, N))."""
    t_len = config.iterations
    theta_path = GroundTruth(config.theta_o, config.drift).path(rng, t_len)
    z = rng.standard_normal((t_len, config.topology.node_count, config.dim))
    regressors = np.sqrt(config.regressor_variances)[None, :, None] * z
    noise = np.stack([noise_models.sample(spec, rng, t_len) for spec in config.noise_specs], axis=1)
    return theta_path, regressors, noise


# --- the engine, through its flush ------------------------------------------


def run_chunk(config, baselines, variants, batch):
    """`harness._run_chunk` with its flushed blocks collected: (squared
    deviations (A + V, R, T, N), update counts (V*R, N), states
    (T, A + V, R, d, N)).

    Checks the flush contract: the blocks arrive in order, each starts where
    the last one ended, every one but the last is RING iterations long, and
    together they cover 0..T-1 once.
    """
    t_len, reals, n, d = batch.regressors.shape
    sq = np.empty((t_len, len(baselines) + len(variants), reals, n))
    states = np.empty(sq.shape[:3] + (d, n))
    ends = [0]

    def flush(t0, block, past):
        assert t0 == ends[-1] and block.shape[1:] == sq.shape[1:] and past.shape[1:] == states.shape[1:]
        assert 0 < len(block) == len(past)
        sq[t0 : t0 + len(block)] = block
        states[t0 : t0 + len(block)] = past
        ends.append(t0 + len(block))

    updates = harness._run_chunk(config, baselines, variants, batch, flush)
    lengths = np.diff(ends)
    assert ends[-1] == t_len and (lengths[:-1] == harness.RING).all() and lengths[-1] <= harness.RING
    return sq.transpose(1, 2, 0, 3), updates, states


def run_realization(config, index):
    """All configured algorithms on realization `index` alone, through the
    engine: {label: (per-node squared deviations (T, N), update counts or
    None, diverged flag)}, deviations capped at RECORD_CAP."""
    batch, _, failures = harness._draw(config, [index])
    if failures:
        raise failures[0][1]
    baselines, variants, blocks = harness._blocks(config)
    sq, updates, _ = run_chunk(config, baselines, variants, batch)
    sq, diverged = harness._finish(sq)
    return {label: (sq[b, 0], updates[0] if b >= len(baselines) else None, bool(diverged[b, 0]))
            for label, b in blocks.items()}


# --- baseline families ------------------------------------------------------


def error_gain(kind, e):
    """The scalar ascent gain g(e) of a baseline family, vectorized over e,
    with floating-point warnings silenced as in the engine."""
    with np.errstate(all="ignore"):
        return kind.gain(np.asarray(e, dtype=float))


def run_baseline_reference(config, spec, data, theta0=None):
    """Per-node run of one baseline family in the configured ordering.

    `data` holds one realization's draws; the run starts from `theta0`
    ((N, d), zeros by default). Node k combines with its column a[idx, k] and
    adapts with its neighbourhood's data as phi + step * u' g(d - u phi); CTA
    combines the previous estimates and adapts there, ATC adapts every own
    estimate and combines the results. Returns the (T, N, d) estimates.
    """
    topo = config.topology
    a = config.combination.matrix
    t_len, n, d = config.iterations, topo.node_count, config.dim
    hoods = [np.array([l - 1 for l in topo.neighbors(k)]) for k in range(1, n + 1)]

    def adapt(k, phi, u_t, d_t):
        u = u_t[hoods[k]]
        return phi + spec.step_size * (u.T @ error_gain(spec.kind, d_t[hoods[k]] - u @ phi))

    def combine(k, estimates):
        return estimates[hoods[k]].T @ a[hoods[k], k]

    theta = np.zeros((n, d)) if theta0 is None else np.array(theta0, dtype=float)
    trace = np.empty((t_len, n, d))
    for t in range(t_len):
        u_t, d_t = data.regressors[t], data.targets[t]
        if config.strategy == "cta":
            theta = np.array([adapt(k, combine(k, theta), u_t, d_t) for k in range(n)])
        else:
            adapted = np.array([adapt(k, theta[k], u_t, d_t) for k in range(n)])
            theta = np.array([combine(k, adapted) for k in range(n)])
        trace[t] = theta
    return trace


# Gains evaluated on the neighbour pairs only; the pairs off the
# neighbourhoods hold +0.0 for every family, so only neighbour pairs need the
# costly evaluation. Set it to () for a step that evaluates every gain on
# every pair.
_SPARSE_GAINS = (DMCC, DLMSF)


def local_combine(combine, state, links, d_axis):
    """combine(state), each node taking non-finite values from its neighbours only.

    `combine` applies the combination matrix to a state whose axis `d_axis`
    holds the d entries of a node's estimate. The plain product hands a
    non-finite estimate to every node (a_lk * inf = NaN where a_lk = 0); a
    node none of whose neighbours (links[l, k] = a_lk != 0) holds one takes
    the product of the state with the non-finite entries zeroed instead.
    """
    bad = ~np.isfinite(state)
    reached = np.expand_dims(bad.any(axis=d_axis) @ links, d_axis)
    return np.where(reached, combine(state), combine(np.where(bad, 0.0, state)))


def neighbourhood_energy(err, mask):
    """eps[r, k]: the sum of err[r, l, k]^2 over l in N_k, the squares zeroed
    off the neighbourhoods so that an infinite error there adds +0.0."""
    return np.einsum("rlk,lk->rk", np.where(mask > 0, err * err, 0.0), mask)


def run_baselines_dense_reference(config, specs: list, batch) -> np.ndarray:
    """Every baseline family in one synchronous run; squared deviations (A, R, T, N).

    The state is (A, R, d, N): family, realization, and the (d, N) matrix
    whose column k is node k's estimate. Each product runs per (d, N) slice,
    so every family and realization takes exactly the arithmetic of a run of
    its own. Only the error gain differs per family.

    The engine's baseline step as it stood before its one gather/scatter of
    the neighbour pairs: each family's gain is dispatched through
    `error_gain` over every node pair (l, k) and set to +0.0 off the
    neighbourhoods, except the `_SPARSE_GAINS`, which it evaluates on the
    neighbour pairs through fancy indexing. The combine is `local_combine`.
    `harness._run_chunk` must match it bit for bit on its baseline blocks, NaN
    positions and signs included.
    """
    a = config.combination.matrix
    links = a != 0
    mask = config.topology.adjacency_mask()
    nbr, own = np.nonzero(mask)                            # neighbour pairs (l, k)
    t_len, reals, n, d = batch.regressors.shape
    steps = np.array([spec.step_size for spec in specs]).reshape(-1, 1, 1, 1)
    u_tr = batch.regressors.transpose(0, 1, 3, 2)         # (T, R, d, N)
    targets = batch.targets[:, :, :, None]
    theta_path = batch.theta_path[:, :, :, None]
    theta = np.zeros((len(specs), reals, d, n))
    gains = np.empty((len(specs), reals, n, n))
    sq = np.empty((t_len, len(specs), reals, n))
    cta = config.strategy == "cta"
    with np.errstate(all="ignore"):
        for t in range(t_len):
            point = local_combine(lambda x: x @ a, theta, links, -2) if cta else theta
            err = targets[t] - batch.regressors[t] @ point     # err[., ., l, k]
            for i, spec in enumerate(specs):
                if isinstance(spec.kind, _SPARSE_GAINS):
                    gains[i] = 0.0
                    gains[i][:, nbr, own] = error_gain(spec.kind, err[i][:, nbr, own])
                else:
                    gains[i] = error_gain(spec.kind, err[i])
                    gains[i][:, mask == 0] = 0.0
            adapted = point + steps * (u_tr[t] @ gains)
            theta = adapted if cta else local_combine(lambda x: x @ a, adapted, links, -2)
            dev = theta - theta_path[t]
            np.einsum("...dk,...dk->...k", dev, dev, out=sq[t])
    return sq.transpose(1, 2, 0, 3)


# --- kernel-MAP chain, one node at a time ------------------------------------


@dataclass
class SharedData:
    """Everything node `node` sees in one iteration.

    Arrays are aligned with `neighbors` (sorted 1-based ids, node included):
    regressor rows u, targets d, and the neighbours' previous-iteration
    estimates.
    """

    node: int
    neighbors: tuple
    u: np.ndarray
    d: np.ndarray
    theta_prev: np.ndarray

    def __post_init__(self):
        m = len(self.neighbors)
        if self.node not in self.neighbors:
            raise DimensionMismatch(f"node {self.node} missing from its own neighbourhood")
        if self.u.shape[0] != m or self.d.shape[0] != m or self.theta_prev.shape[0] != m:
            raise DimensionMismatch("shared arrays must have one row per neighbour")


@dataclass(frozen=True)
class MuWeights:
    """Per-buffer-entry responsibilities; each vector sums to one."""

    mu_kli: np.ndarray
    mu_ki: np.ndarray


class EstimateBuffer:
    """Fixed-capacity rings of recent parameter vectors, newest first.

    One ring per tracked node; pushing at capacity evicts the oldest entry.
    """

    def __init__(self, capacity: int, tracked: Iterable[int]):
        capacity = int(capacity)
        if capacity < 1:
            raise InvalidParameters(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings = {int(node): deque(maxlen=capacity) for node in tracked}

    def push(self, node: int, theta) -> None:
        self._rings[node].appendleft(np.array(theta, dtype=float, copy=True))

    def depth(self, node: int) -> int:
        return len(self._rings[node])

    def history(self, node: int) -> np.ndarray:
        """(m, d) array of buffered vectors for `node`, newest first."""
        ring = self._rings[node]
        if not ring:
            raise EmptyBuffer(f"no buffered estimates for node {node}")
        return np.stack(ring)


def gaussian_kernel(t: float, x, y) -> float:
    """K_t(x - y) = (1/t) exp(-||x - y||^2 / (2t))."""
    if not t > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"kernel arguments differ in shape: {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.exp(-(diff @ diff) / (2.0 * t)) / t)


def pseudo_huber(delta: float, a):
    """Pseudo-Huber loss and its derivative at a.

    loss = delta^2 (sqrt(1 + (a/delta)^2) - 1), quadratic near zero and
    asymptotically delta|a| - delta^2.
    """
    if not delta > 0:
        raise InvalidParameters(f"delta must be > 0, got {delta}")
    a_arr = np.asarray(a, dtype=float)
    r = a_arr / delta
    root = np.hypot(1.0, r)
    loss = delta * delta * (r * r) / (1.0 + root)  # sqrt(1+r^2)-1 without cancellation
    dloss = bounded_error_gain(delta, a_arr)
    if np.isscalar(a) or np.asarray(a).ndim == 0:
        return float(loss), float(dloss)
    return loss, dloss


def _log_weights(theta, history, sigma):
    """Log kernel weights -||theta - history_i||^2 / (2 sigma), no prefactor."""
    diff = np.asarray(history, dtype=float) - np.asarray(theta, dtype=float)
    return -np.einsum("ij,ij->i", diff, diff) / (2.0 * sigma)


def _check_bandwidths(*values):
    for v in values:
        if not v > 0:
            raise NonPositiveBandwidth(f"bandwidth must be > 0, got {v}")


def kde_prior(buffer, theta, sigma: float) -> float:
    """Mixture density (1/m) sum_i K_sigma(theta - theta_i) over buffered vectors."""
    _check_bandwidths(sigma)
    history = np.asarray(buffer, dtype=float)
    if history.size == 0:
        raise EmptyBuffer("kde_prior needs at least one buffered vector")
    lw = _log_weights(theta, history, sigma)
    return float(np.exp(logsumexp(lw)) / (len(history) * sigma))


def _log_conditional(buf_k, buf_l, theta_k, theta_l, sigma_k, sigma_l):
    lw_k = _log_weights(theta_k, buf_k, sigma_k)
    lw_l = _log_weights(theta_l, buf_l, sigma_l)
    if not np.isfinite(np.max(lw_l)):
        raise DegenerateDenominator("conditional kernel denominator underflowed")
    return logsumexp(lw_k + lw_l) - logsumexp(lw_l) - math.log(sigma_k)


def conditional_kde(buf_k, buf_l, theta_k, theta_l, sigma_k: float, sigma_l: float) -> float:
    """Conditional mixture sum_i K_k(.)K_l(.) / sum_i K_l(.), index-aligned buffers."""
    _check_bandwidths(sigma_k, sigma_l)
    buf_k = np.asarray(buf_k, dtype=float)
    buf_l = np.asarray(buf_l, dtype=float)
    if buf_k.size == 0 or buf_l.size == 0:
        raise EmptyBuffer("conditional_kde needs nonempty buffers")
    if len(buf_k) != len(buf_l):
        raise DimensionMismatch("buffers must be aligned index-wise")
    return float(np.exp(_log_conditional(buf_k, buf_l, theta_k, theta_l, sigma_k, sigma_l)))


def _softmax(lw):
    shifted = np.exp(lw - np.max(lw))
    return shifted / shifted.sum()


def mu_weights(buf_k, buf_l, theta_k, theta_l, sigma_k: float, sigma_l: float) -> MuWeights:
    """Joint-kernel and own-kernel responsibilities over the buffer entries."""
    _check_bandwidths(sigma_k, sigma_l)
    buf_k = np.asarray(buf_k, dtype=float)
    buf_l = np.asarray(buf_l, dtype=float)
    if buf_k.size == 0 or buf_l.size == 0:
        raise EmptyBuffer("mu_weights needs nonempty buffers")
    if len(buf_k) != len(buf_l):
        raise DimensionMismatch("buffers must be aligned index-wise")
    lw_k = _log_weights(theta_k, buf_k, sigma_k)
    lw_joint = lw_k + _log_weights(theta_l, buf_l, sigma_l)
    if not np.isfinite(np.max(lw_k)):
        raise DegenerateDenominator("own-kernel normalisation underflowed")
    if not np.isfinite(np.max(lw_joint)):
        raise DegenerateDenominator("joint-kernel normalisation underflowed")
    return MuWeights(mu_kli=_softmax(lw_joint), mu_ki=_softmax(lw_k))


def neighbor_error(theta, shared: SharedData) -> float:
    """Neighbourhood squared error eps = sum_{l in N_k} (d_l - u_l theta)^2."""
    e = shared.d - shared.u @ np.asarray(theta, dtype=float)
    return float(e @ e)


def threshold_gate(epsilon: float, params: NPDLMS) -> float:
    """Gate value: 1.0 where epsilon exceeds eta, 0.0 elsewhere."""
    return 1.0 if epsilon > params.eta else 0.0


def log_local_objective(theta_k, shared: SharedData, buffers: EstimateBuffer,
                        params: NPDLMS) -> float:
    """Log posterior of theta_k given neighbourhood data and buffered history.

    The neighbour-prior block log f(theta_l) is evaluated at the shared
    (fixed) estimates, so it is constant in theta_k; only the likelihood and
    the conditional-minus-own prior terms move under differentiation. Additive
    constants of the likelihood are dropped.
    """
    theta_k = np.asarray(theta_k, dtype=float)
    total = 0.0
    for i, l in enumerate(shared.neighbors):
        e = shared.d[i] - shared.u[i] @ theta_k
        loss, _ = pseudo_huber(params.delta, e)
        total -= loss / params.h
        hist_l = buffers.history(l)
        lw_l = _log_weights(shared.theta_prev[i], hist_l, params.sigma)
        total += logsumexp(lw_l) - math.log(len(hist_l) * params.sigma)
    hist_k = buffers.history(shared.node)
    lw_own = _log_weights(theta_k, hist_k, params.sigma)
    log_prior = logsumexp(lw_own) - math.log(len(hist_k) * params.sigma)
    for i, l in enumerate(shared.neighbors):
        if l == shared.node:
            continue
        log_cond = _log_conditional(hist_k, buffers.history(l), theta_k,
                                    shared.theta_prev[i], params.sigma, params.sigma)
        total += log_cond - log_prior
    return float(total)


def npdlms_gradient(theta_eval, shared: SharedData, buffers: EstimateBuffer,
                    params: NPDLMS) -> np.ndarray:
    """Ascent direction of the log posterior at theta_eval.

    The likelihood part is (1/h) sum_l bounded_error_gain(delta, e_l) u_l';
    the prior part weighs the node's own buffered vectors by the responsibility
    gaps (mu_kli - mu_ki) across neighbours. Until a ring holds two entries
    the prior carries no information and is zeroed; a neighbour whose kernel
    weights fully underflow is skipped the same way.
    """
    theta_eval = np.asarray(theta_eval, dtype=float)
    e = shared.d - shared.u @ theta_eval
    grad = shared.u.T @ bounded_error_gain(params.delta, e) / params.h

    if buffers.depth(shared.node) < 2:
        return grad
    hist_k = buffers.history(shared.node)
    lw_own = _log_weights(theta_eval, hist_k, params.sigma)
    if not np.isfinite(np.max(lw_own)):
        return grad
    mu_ki = _softmax(lw_own)
    for i, l in enumerate(shared.neighbors):
        if l == shared.node:
            continue
        lw_joint = lw_own + _log_weights(shared.theta_prev[i], buffers.history(l), params.sigma)
        if not np.isfinite(np.max(lw_joint)):
            continue
        mu_kli = _softmax(lw_joint)
        grad = grad + hist_k.T @ (mu_kli - mu_ki) / params.sigma
    return grad


def npdlms_adapt(shared: SharedData, buffers: EstimateBuffer, params: NPDLMS,
                 threshold: NPDLMS, step_size: float, theta_eval):
    """Push the carried estimates into the rings and run one gated ascent.

    The rings receive exactly what this iteration's messages carry: every
    neighbour's previous-iteration estimate, the node's own included, so all
    rings stay aligned index-wise. Returns (adapted vector, gate fired).
    """
    for i, l in enumerate(shared.neighbors):
        buffers.push(l, shared.theta_prev[i])
    theta_eval = np.asarray(theta_eval, dtype=float)
    grad = npdlms_gradient(theta_eval, shared, buffers, params)
    eps = neighbor_error(theta_eval, shared)
    gate = threshold_gate(eps, threshold)
    return theta_eval + step_size * gate * grad, bool(eps > threshold.eta)


def run_npdlms_reference(config, spec, data):
    """Per-node run of the kernel-MAP update through the single-node ops.

    `data` holds one realization's draws. Every node keeps its own rings and
    goes through `npdlms_adapt`, so nothing is shared with the batched runner
    but the parameter record and the bounded gain. Returns (squared
    deviations (T, N), gate update counts (N,)).
    """
    algo = spec.kind
    topo = config.topology
    a = config.combination.matrix
    t_len, n, d = config.iterations, topo.node_count, config.dim
    neighbor_ids = [topo.neighbors(k) for k in range(1, n + 1)]
    neighbor_idx = [np.array([l - 1 for l in ids]) for ids in neighbor_ids]
    buffers = [EstimateBuffer(algo.buffer, ids) for ids in neighbor_ids]
    theta = np.zeros((n, d))
    sq = np.empty((t_len, n))
    updates = np.zeros(n)
    cta = config.strategy == "cta"
    for t in range(t_len):
        u_t = data.regressors[t]
        d_t = data.targets[t]
        theta_prev = theta
        combined = a.T @ theta_prev if cta else None
        staged = np.empty_like(theta)
        for k in range(n):
            idx = neighbor_idx[k]
            shared = SharedData(node=k + 1, neighbors=neighbor_ids[k], u=u_t[idx],
                                d=d_t[idx], theta_prev=theta_prev[idx])
            point = combined[k] if cta else theta_prev[k]
            adapted, fired = npdlms_adapt(shared, buffers[k], algo, algo,
                                          spec.step_size, point)
            updates[k] += fired
            staged[k] = adapted
        theta = staged if cta else a.T @ staged
        dev = theta - data.theta_path[t]
        sq[t] = np.einsum("nd,nd->n", dev, dev)
    return sq, updates


def dense_prior_term(history, point, theta, cross, lw_scale, sigma):
    """The kernel prior's gradient term (V*R, d, N) of the dense step, over
    every node pair (l, k) with the off-neighbourhood pairs masked by `cross`
    (N_k \\ {k}). `history` (B, V*R, N, d) holds the buffered states, newest
    first, `point` the evaluation points and `theta` the current states
    (V*R, N, d); the log-weights are divided by `lw_scale` = -2 sigma.
    """
    diff_own = history - point            # (B, V*R, N, d)
    lw_own = np.einsum("brnd,brnd->brn", diff_own, diff_own) / lw_scale
    diff_nbr = history - theta
    lw_nbr = np.einsum("brnd,brnd->brn", diff_nbr, diff_nbr) / lw_scale
    mu_own = np.exp(lw_own - lw_own.max(axis=0))
    mu_own /= mu_own.sum(axis=0)
    joint = lw_own[:, :, None, :] + lw_nbr[:, :, :, None]   # (B, V*R, l, k)
    mu_joint = np.exp(joint - joint.max(axis=0))
    mu_joint /= mu_joint.sum(axis=0)
    mu_diff = (mu_joint - mu_own[:, :, None, :]) * cross
    # The max is subtracted, so a pair's largest weight is exactly 1 and
    # the weights, in [0, 1], cannot all underflow. NaN, their only
    # non-finite value, marks pairs whose log-weights are all -inf or
    # hold a NaN (|dtheta| >~ 1e154); they carry no prior signal.
    np.copyto(mu_diff, 0.0, where=np.isnan(mu_diff))
    return np.einsum("brkd,brlk->rdk", history, mu_diff) / sigma


def run_npdlms_dense_reference(config, variants, batch, trace_out=None):
    """The engine's kernel-MAP step as it stood before the neighbour-slot
    layout: the prior's softmax and contraction, and the pseudo-Huber gain,
    over every node pair (l, k) with the off-neighbourhood pairs masked; the
    gate energy is `neighbourhood_energy` and the combine `local_combine`.

    Returns squared deviations (V*R, T, N) and update counts (V*R, N).
    `harness._run_chunk` must match it bit for bit on its kernel-MAP blocks,
    NaN positions and signs of zero included: the slot layout only drops
    products history * (+-0) from sums that start at +0.0.
    Every node's rings hold the same global history, so they collapse into
    one (B, V*R, N, d) array and the mu weights into one (B, V*R, N, N)
    softmax per row.
    """
    algo = variants[0]
    topo = config.topology
    a_t = config.combination.matrix.T
    links = a_t.T != 0
    mask = topo.adjacency_mask()                  # mask[l, k] = 1 iff l in N_k
    cross = mask.copy()
    np.fill_diagonal(cross, 0.0)                  # N_k \ {k}
    t_len, reals, n, d = batch.regressors.shape
    values = len(variants)
    rows = values * reals
    step = config.npdlms_spec().step_size
    cta = config.strategy == "cta"

    def per_row(name, ndim):
        # A parameter all variants share stays a scalar, which numpy applies faster.
        params = [getattr(variant, name) for variant in variants]
        if len(set(params)) == 1:
            return params[0]
        return np.repeat(np.array(params, dtype=float), reals).reshape((rows,) + (1,) * ndim)

    eta = per_row("eta", 1)
    lw_scale = -2.0 * per_row("sigma", 1)
    sigma = per_row("sigma", 2)
    h = per_row("h", 2)
    delta = per_row("delta", 2)

    u_tr = batch.regressors.transpose(0, 1, 3, 2)  # (T, R, d, N)
    targets = batch.targets[:, :, :, None]
    theta_path = batch.theta_path[:, :, None, :]
    theta = np.zeros((rows, n, d))
    history = np.zeros((0, rows, n, d))           # newest first, at most B entries
    sq = np.empty((t_len, rows, n))
    updates = np.zeros((rows, n))
    with np.errstate(all="ignore"):
        for t in range(t_len):
            history = np.concatenate((theta[None], history[: algo.buffer - 1]))
            # (V*R, N, d) evaluation points
            point = local_combine(lambda x: a_t @ x, theta, links, -1) if cta else theta

            # err[row, l, k] = d_l - u_l theta_eval_k
            points = point.reshape(values, reals, n, d).transpose(0, 1, 3, 2)
            err = (targets[t] - batch.regressors[t] @ points).reshape(rows, n, n)
            eps = neighbourhood_energy(err, mask)
            gain = np.where(mask > 0, bounded_error_gain(delta, err), 0.0).reshape(values, reals, n, n)
            grad = (u_tr[t] @ gain).reshape(rows, d, n) / h   # (V*R, d, N)

            if history.shape[0] >= 2:
                grad = grad + dense_prior_term(history, point, theta, cross, lw_scale, sigma)

            fired = eps > eta
            open_gate = fired.astype(float)
            updates += fired
            adapted = point + step * open_gate[:, :, None] * grad.transpose(0, 2, 1)
            theta = adapted if cta else local_combine(lambda x: a_t @ x, adapted, links, -1)
            dev = (theta.reshape(values, reals, n, d) - theta_path[t]).reshape(rows, n, d)
            np.einsum("rkd,rkd->rk", dev, dev, out=sq[t])
            if trace_out is not None:
                trace_out[t] = theta
    return sq.transpose(1, 0, 2), updates


# --- closed-form theory -------------------------------------------------------


def gain_statistics_reference(inputs, phi):
    """(slope, second moment, variance, traces) when the error at the
    evaluation point has second moment `phi`. The first three hold one entry
    per e_lk, each (N, N) indexed [l, k] and zero where l is not in N_k;
    traces[l, k, k'] is the cross trace tr(R_l Phi_kk')."""
    covs = inputs.regressor_covariances
    n, d = covs.shape[:2]
    phi4 = np.asarray(phi, dtype=float).reshape(n, d, n, d)
    traces = (covs.reshape(n, d * d) @ phi4.transpose(3, 1, 0, 2).reshape(d * d, n * n)).reshape(n, n, n)
    l_idx, k_idx = np.nonzero(inputs.topology.adjacency_mask())
    variance = np.zeros((n, n))
    variance[l_idx, k_idx] = inputs.noise_variances[l_idx] + traces[l_idx, k_idx, k_idx]
    slope = np.zeros((n, n))
    second = np.zeros((n, n))
    slope[l_idx, k_idx], second[l_idx, k_idx] = bounded_gain_moments(variance[l_idx, k_idx],
                                                                     inputs.delta)
    return slope, second, variance, traces


def linearize_reference(inputs, phi):
    """Slopes s_lk, the blocks of C, and the noise covariance Xi at Phi = `phi`."""
    covs = inputs.regressor_covariances
    n, d = covs.shape[:2]
    inv_h = 1.0 / inputs.h
    slope, second, _, traces = gain_statistics_reference(inputs, phi)
    diag = np.arange(n)
    pair = slope[:, :, None] * slope[:, None, :] * (inputs.noise_variances[:, None, None] + traces)
    pair[:, diag, diag] = second
    pair *= inv_h * inv_h
    xi = ((pair.reshape(n, n * n).T @ covs.reshape(n, d * d))
          .reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d))
    coeff = -((slope * inv_h).T @ covs.reshape(n, d * d)).reshape(n, d, d)
    return slope, coeff, xi


def update_blocks_reference(inputs, coeff):
    """Blocks of B = I + M C, so that F = B A_ext."""
    return np.eye(inputs.dim) + inputs.step_sizes[:, None, None] * coeff


def _step_outer(inputs):
    """alpha_k alpha_k' spread over the d x d blocks of an Nd x Nd matrix."""
    step_diag = np.repeat(inputs.step_sizes, inputs.dim)
    return np.outer(step_diag, step_diag)


def _combine(inputs, p):
    """A_ext P A_ext' for a symmetric P, applying A' to node blocks."""
    a = inputs.combination.matrix
    n = a.shape[0]
    nd = p.shape[0]
    left = (a.T @ p.reshape(n, -1)).reshape(nd, nd)
    return (a.T @ left.T.reshape(n, -1)).reshape(nd, nd)


def _propagate(blocks, phi):
    """B Phi B' for a symmetric Phi and block-diagonal B given by `blocks`."""
    n, d = blocks.shape[:2]
    nd = phi.shape[0]
    left = (blocks @ phi.reshape(n, d, nd)).reshape(nd, nd)
    return (blocks @ left.T.reshape(n, d, nd)).reshape(nd, nd)


def _transition(inputs, blocks):
    """Dense F = B A_ext for block-diagonal B: block (k, l) is a_lk B_k."""
    n, d = blocks.shape[:2]
    f = blocks[:, None] * inputs.combination.matrix.T[:, :, None, None]   # [k, l, i, j]
    return f.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _recursion(inputs, phi):
    """Slopes, dense F and Q = M Xi M at Phi = `phi`."""
    slope, coeff, xi = linearize_reference(inputs, phi)
    q = _step_outer(inputs) * xi
    return slope, _transition(inputs, update_blocks_reference(inputs, coeff)), q


def step_reference(inputs, p):
    """P_{n+1} = B Phi B' + M Xi M from P_n = `p`, Phi = A_ext P A_ext'."""
    phi = _combine(inputs, p)
    _, coeff, xi = linearize_reference(inputs, phi)
    return _propagate(update_blocks_reference(inputs, coeff), phi) + _step_outer(inputs) * xi


def moved_at_most(change, p, tol):
    """||change||_F <= tol ||p||_F, both scaled first by the power of two that
    brings max|p| into [0.5, 1), so that no square underflows or overflows."""
    scale = -np.frexp(np.abs(p).max())[1]
    return np.linalg.norm(np.ldexp(change, scale)) <= tol * np.linalg.norm(np.ldexp(p, scale))


def node_metrics_reference(p, covs):
    """MSD tr(P_kk) and EMSE tr(P_kk R_k) from the diagonal blocks of P."""
    n, d = covs.shape[:2]
    diag = np.arange(n)
    blocks = p.reshape(n, d, n, d)[diag, :, diag, :]
    return np.einsum("kii->k", blocks), np.einsum("kij,kji->k", blocks, covs)


def steady_fixed_point_reference(inputs):
    """(slopes, F, xi_vec, steady covariance) that `theory.build_moments` stores,
    found by the earlier step from `inputs`; the covariance is None when the
    small-error slopes are not mean-stable. The alternation starts from the
    covariance where `theory.TRANSIENT_STEPS` steps of the transient settle,
    and from zero error when none does."""
    nd = inputs.topology.node_count * inputs.dim
    slope, f, q = _recursion(inputs, np.zeros((nd, nd)))
    if theory.spectral_radius(f) >= 1.0:
        return slope, f, q.flatten(order="F"), None
    *_, settle_step, p = _transient_reference(inputs, theory.TRANSIENT_STEPS, settle=True)
    if settle_step is None:
        p = None
    for _ in range(theory.FIXED_POINT_MAX_SOLVES):
        if p is not None:
            slope, f, q = _recursion(inputs, _combine(inputs, p))
        p_next = theory._solve_stein(f, q)
        if p is not None and moved_at_most(p_next - p, p_next, theory.FIXED_POINT_TOL):
            return slope, f, q.flatten(order="F"), p_next
        p = p_next
    raise theory.NoConvergence("steady-state slopes did not settle")


def transient_curves_reference(inputs, n_max, settle=True):
    """(node MSD, node EMSE, settle step) of `theory.transient_curves`, by the
    earlier step. With `settle`, the recursion stops at the first step whose
    covariance differs from the one before by at most `theory.TRANSIENT_TOL`
    of its Frobenius norm, and the later rows repeat that step's row; the
    settle step is None when no step qualifies. Without it, all n_max steps
    run and the settle step is None."""
    return _transient_reference(inputs, n_max, settle)[:3]


def _transient_reference(inputs, n_max, settle):
    """`transient_curves_reference` and the covariance of its last step."""
    n, covs = inputs.topology.node_count, inputs.regressor_covariances
    theta_bar = np.tile(inputs.theta_o, n)
    node_msd = np.empty((n_max + 1, n))
    node_emse = np.empty((n_max + 1, n))
    p = np.outer(theta_bar, theta_bar)
    node_msd[0], node_emse[0] = node_metrics_reference(p, covs)
    for step in range(1, n_max + 1):
        p_next = step_reference(inputs, p)
        node_msd[step], node_emse[step] = node_metrics_reference(p_next, covs)
        if settle and moved_at_most(p_next - p, p_next, theory.TRANSIENT_TOL):
            node_msd[step + 1 :] = node_msd[step]
            node_emse[step + 1 :] = node_emse[step]
            return node_msd, node_emse, step, p_next
        p = p_next
    return node_msd, node_emse, None, p
