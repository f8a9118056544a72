"""Slow per-node reference runs that the batched simulation engine is checked against."""

import numpy as np

from diffnet.diffusion import SharedData, error_gain
from diffnet.npdlms import EstimateBuffer, npdlms_adapt


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


def run_npdlms_reference(config, spec, data):
    """Per-node run of the kernel-MAP update through the single-node ops.

    `data` holds one realization's draws. Every node keeps its own rings and
    goes through `npdlms_adapt`, so nothing is shared with the batched runner
    but the single-node kernel math. Returns (squared deviations (T, N),
    hard-gate update counts (N,)).
    """
    algo = spec.kind
    topo = config.topology
    a = config.combination.matrix
    t_len, n, d = config.iterations, topo.node_count, config.dim
    neighbor_ids = [topo.neighbors(k) for k in range(1, n + 1)]
    neighbor_idx = [np.array([l - 1 for l in ids]) for ids in neighbor_ids]
    buffers = [EstimateBuffer(algo.buffer_size, ids) for ids in neighbor_ids]
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
            adapted, fired = npdlms_adapt(shared, buffers[k], algo.kernel, config.gate,
                                          spec.step_size, point)
            updates[k] += fired
            staged[k] = adapted
        theta = staged if cta else a.T @ staged
        dev = theta - data.theta_path[t]
        sq[t] = np.einsum("nd,nd->n", dev, dev)
    return sq, updates
