"""Closed-form mean-square predictions for the kernel-MAP diffusion filter.

The update scores neighbour l's error at node k through the pseudo-Huber gain
g(e) = e / sqrt(1 + (e/delta)^2), which is bounded by delta. The analysis
replaces g by its Gaussian statistical linearization (Price's theorem;
Al-Naffouri & Sayed, "Transient analysis of adaptive filters with error
nonlinearities", IEEE TSP 51(3), 2003). The error e_lk = u_l theta_tilde_k + v_l
is taken as N(0, sigma_v,l^2 + tr(R_l Phi_kk)), where Phi is the second moment
of the stacked error at the evaluation point. Then:

- the mean recursion uses the slope s_lk = E[g'(e_lk)];
- the gradient-noise covariance uses E[g(e_lk)^2] within one node and
  Bussgang's s_lk s_lk' E[e_lk e_lk'] across two nodes sharing neighbour l.

Both expectations have closed forms (`gain_moments`). The slopes depend on the
error, so the transient is the covariance recursion
P_{n+1} = F_n P_n F_n' + M Xi_n M with the slopes refreshed every step. One
`MomentSet` holds that recursion: its fixed pieces, the slopes, F and Xi at the
steady state, and the steady covariance itself. `build_moments` finds the
steady state as the recursion's fixed point by alternating Stein solves with
slope updates, and the steady-state metrics read the last solve. The slopes
tend to 1 as the error variance falls to 0, so any delta > 0 is admissible.

Stability and the step-size bound use the small-error slopes E[g'(v_l)],
v_l ~ N(0, sigma_v,l^2). A bounded gain contracts at every step size once the
error is large, so only the small-error linearization separates stable from
unstable step sizes.

All block matrices follow the stacked-error convention: the global error is
col{theta_o - theta_k} with d-sized blocks, and the combine step applies A' to
the node blocks. Block-diagonal matrices are kept as (N, d, d) stacks of their
blocks. The mean transition F = B A_ext of the CTA recursion (Cattivelli &
Sayed, IEEE TSP 58(3), 2010) is built from them directly: its (k, l) block is
a_lk B_k. Solves and recursions work on Nd x Nd matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, k0e, k1e

from .errors import (
    DimensionMismatch,
    InsufficientPilot,
    InvalidParameters,
    NoConvergence,
    UnstableSystem,
)
from .network import CombinationMatrix, NetworkTopology, per_node

STEIN_TOL = 1e-10
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_SOLVES = 500

# Below this c = variance / delta^2 the closed forms in `gain_moments` lose
# digits to cancellation; their power series in c take over. Coefficients,
# highest power first: E[(1 + c Z^2)^(-3/2)] and E[c Z^2 / (1 + c Z^2)] / c
# for Z ~ N(0, 1).
_SERIES_BELOW = 2e-4
_SLOPE_SERIES = (258.3984375, -32.8125, 5.625, -1.5, 1.0)
_SECOND_SERIES = (945.0, -105.0, 15.0, -3.0, 1.0)


def gain_moments(variance, delta: float):
    """E[g'(e)] and E[g(e)^2] of the pseudo-Huber gain for e ~ N(0, variance).

    With c = variance / delta^2 and z = 1 / (4c), elementwise:
    E[g'(e)] = E[(1 + c Z^2)^(-3/2)] = 2 z (k1e(z) - k0e(z)) / sqrt(2 pi c), the
    c-derivative form of E[(1 + c Z^2)^(-1/2)] = k0e(z) / sqrt(2 pi c); and
    E[g(e)^2] = delta^2 (1 - E[(1 + c Z^2)^(-1)]) with
    E[(1 + c Z^2)^(-1)] = sqrt(pi / (2c)) erfcx(1 / sqrt(2c)).
    The slope is 1 and the second moment 0 at zero variance.
    """
    c = np.asarray(variance, dtype=float) / (delta * delta)
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 falls to the series
        z = 0.25 / c
        slope = 2.0 * z * (k1e(z) - k0e(z)) / np.sqrt(2.0 * np.pi * c)
        second = 1.0 - np.sqrt(np.pi / (2.0 * c)) * erfcx(np.sqrt(2.0 * z))
    small = c < _SERIES_BELOW
    if np.any(small):
        slope = np.where(small, np.polyval(_SLOPE_SERIES, c), slope)
        second = np.where(small, c * np.polyval(_SECOND_SERIES, c), second)
    return slope, delta * delta * second


@dataclass
class TheoryInputs:
    """Everything the moment construction needs.

    `r_similar` counts buffered neighbour estimates that match the current one
    (1..B); `beta_bar` holds the per-node, per-lag diagonal scalings relating
    buffered vectors to the current estimate, shape (N, B, d). The defaults
    r = B and beta = identity make the prior-bias block vanish.
    """

    topology: NetworkTopology
    combination: CombinationMatrix
    regressor_covariances: list
    noise_variances: np.ndarray
    step_sizes: np.ndarray
    theta_o: np.ndarray
    h: float = 1.0
    sigma: float = 1.0
    delta: float = 0.25
    buffer_size: int = 3
    r_similar: np.ndarray | None = None
    beta_bar: np.ndarray | None = None

    def __post_init__(self):
        n = self.topology.node_count
        covs = [np.asarray(r, dtype=float) for r in self.regressor_covariances]
        if len(covs) != n:
            raise DimensionMismatch(f"need {n} regressor covariances, got {len(covs)}")
        d = covs[0].shape[0]
        for r in covs:
            if r.shape != (d, d):
                raise DimensionMismatch("regressor covariances must share one square shape")
            if not np.all(np.isfinite(r)):
                raise InvalidParameters("regressor covariances must be finite")
            tol = 1e-12 * np.linalg.norm(r)
            if np.linalg.norm(r - r.T) > tol or np.linalg.eigvalsh(r)[0] < -tol:
                raise InvalidParameters("regressor covariances must be symmetric positive semidefinite")
        self.regressor_covariances = covs
        self.theta_o = np.asarray(self.theta_o, dtype=float)
        if self.theta_o.shape != (d,):
            raise DimensionMismatch(f"theta_o must have length {d}")
        if self.combination.node_count != n:
            raise DimensionMismatch("combination matrix does not match topology size")
        self.noise_variances = per_node(self.noise_variances, n, "noise_variances")
        self.step_sizes = per_node(self.step_sizes, n, "step_sizes")
        if np.any(self.noise_variances < 0):
            raise InvalidParameters("noise variances must be >= 0")
        if np.any(self.step_sizes <= 0):
            raise InvalidParameters("step sizes must be > 0")
        for name in ("h", "sigma", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameters(f"{name} must be finite and > 0, got {value}")
        if self.buffer_size < 1:
            raise InvalidParameters("buffer_size must be >= 1")
        if self.r_similar is None:
            self.r_similar = np.full(n, float(self.buffer_size))
        else:
            self.r_similar = per_node(self.r_similar, n, "r_similar")
            if np.any(self.r_similar < 1) or np.any(self.r_similar > self.buffer_size):
                raise InvalidParameters("r_similar entries must lie in [1, buffer_size]")
        if self.beta_bar is None:
            self.beta_bar = np.ones((n, self.buffer_size, d))
        else:
            self.beta_bar = np.asarray(self.beta_bar, dtype=float)
            if self.beta_bar.shape != (n, self.buffer_size, d):
                raise DimensionMismatch(f"beta_bar must have shape ({n}, {self.buffer_size}, {d})")

    @property
    def dim(self) -> int:
        return self.regressor_covariances[0].shape[0]

    def small_error_slopes(self) -> np.ndarray:
        """E[g'(v_l)] with v_l ~ N(0, sigma_v,l^2), per node l.

        The gain's expected slope once the estimation error is negligible next
        to the noise; 1 at zero noise. Stability and the step bound use it.
        """
        return gain_moments(self.noise_variances, self.delta)[0]

    def prior_bias_diagonals(self) -> np.ndarray:
        """(N, d) diagonals of the per-node prior-bias blocks."""
        b = self.buffer_size
        lag_weight = (b - self.r_similar) / (b * self.r_similar)
        cross = self.topology.adjacency_mask()
        np.fill_diagonal(cross, 0.0)
        beta_sum = self.beta_bar.sum(axis=1)  # sum_i diag(beta_{k,i})
        return beta_sum * (lag_weight @ cross / self.sigma)[:, None]


@dataclass
class MomentSet:
    """The statistically linearized error recursion and its steady state.

    The first fields are the pieces that stay fixed while the slopes change;
    block-diagonal matrices among them are kept as (N, d, d) stacks of their
    blocks, and `transition` builds the dense F from such a stack and A.
    `build_moments` fills in the rest. When the small-error slopes are
    mean-stable, the slope-dependent fields hold their values at the
    steady-state fixed point and `steady_covariance` is the Stein solution of
    `mean_transition` and `xi_vec`, both kept from the last solve. Otherwise
    they hold the small-error values, `small_error_radius` is >= 1,
    `steady_covariance` is None, and the metrics raise UnstableSystem.
    """

    combination: np.ndarray     # A
    pairs: tuple                # (l, k) index arrays of every l in N_k
    covs: np.ndarray            # (N, d, d) regressor covariances R_l
    noise_variances: np.ndarray
    delta: float
    inv_h: float                # 1 / h
    prior_blocks: np.ndarray    # I - alpha_k P_k
    step_sizes: np.ndarray      # alpha_k
    step_outer: np.ndarray      # alpha_k alpha_k' spread over the d x d blocks
    prior_source: np.ndarray    # M P theta_bar theta_bar' P' M
    theta_o: np.ndarray
    slopes: np.ndarray = field(init=False)             # s_lk = E[g'(e_lk)], [l, k]
    small_error_radius: float = field(init=False)      # rho(F) at the small-error slopes
    mean_transition: np.ndarray = field(init=False)    # F = (I + M C - M P) A_ext
    xi_vec: np.ndarray = field(init=False)             # vec(M (Xi + P_outer) M)
    steady_covariance: np.ndarray | None = field(init=False, default=None)

    @property
    def node_count(self) -> int:
        return self.covs.shape[0]

    @property
    def dim(self) -> int:
        return self.covs.shape[1]

    def gain_statistics(self, phi: np.ndarray):
        """(slope, second moment, variance, traces) when the error at the
        evaluation point has second moment `phi`. The first three hold one
        entry per e_lk, each (N, N) indexed [l, k] and zero where l is not in
        N_k; traces[l, k, k'] is the cross trace tr(R_l Phi_kk')."""
        n, d = self.covs.shape[:2]
        phi4 = np.asarray(phi, dtype=float).reshape(n, d, n, d)
        traces = (self.covs.reshape(n, d * d)
                  @ phi4.transpose(3, 1, 0, 2).reshape(d * d, n * n)).reshape(n, n, n)
        l_idx, k_idx = self.pairs
        variance = np.zeros((n, n))
        variance[l_idx, k_idx] = self.noise_variances[l_idx] + traces[l_idx, k_idx, k_idx]
        slope = np.zeros((n, n))
        second = np.zeros((n, n))
        slope[l_idx, k_idx], second[l_idx, k_idx] = gain_moments(variance[l_idx, k_idx], self.delta)
        return slope, second, variance, traces

    def linearize(self, phi: np.ndarray):
        """Slopes s_lk, the blocks of C, and the noise covariance Xi at Phi = `phi`."""
        n, d = self.covs.shape[:2]
        slope, second, _, traces = self.gain_statistics(phi)
        diag = np.arange(n)
        pair = slope[:, :, None] * slope[:, None, :] * (self.noise_variances[:, None, None] + traces)
        pair[:, diag, diag] = second
        pair *= self.inv_h * self.inv_h
        xi = ((pair.reshape(n, n * n).T @ self.covs.reshape(n, d * d))
              .reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d))
        coeff = -((slope * self.inv_h).T @ self.covs.reshape(n, d * d)).reshape(n, d, d)
        return slope, coeff, xi

    def source(self, xi: np.ndarray) -> np.ndarray:
        """M (Xi + P_outer) M."""
        return self.step_outer * xi + self.prior_source

    def update_blocks(self, coeff: np.ndarray) -> np.ndarray:
        """Blocks of B = I + M C - M P, so that F = B A_ext."""
        return self.prior_blocks + self.step_sizes[:, None, None] * coeff

    def combine(self, p: np.ndarray) -> np.ndarray:
        """A_ext P A_ext' for a symmetric P, applying A' to node blocks."""
        n = self.combination.shape[0]
        nd = p.shape[0]
        left = (self.combination.T @ p.reshape(n, -1)).reshape(nd, nd)
        return (self.combination.T @ left.T.reshape(n, -1)).reshape(nd, nd)

    def propagate(self, blocks: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """B Phi B' for a symmetric Phi and block-diagonal B given by `blocks`."""
        n, d = blocks.shape[:2]
        nd = phi.shape[0]
        left = (blocks @ phi.reshape(n, d, nd)).reshape(nd, nd)
        return (blocks @ left.T.reshape(n, d, nd)).reshape(nd, nd)

    def transition(self, blocks: np.ndarray) -> np.ndarray:
        """Dense F = B A_ext for block-diagonal B: block (k, l) is a_lk B_k."""
        n, d = blocks.shape[:2]
        f = blocks[:, None] * self.combination.T[:, :, None, None]   # [k, l, i, j]
        return f.transpose(0, 2, 1, 3).reshape(n * d, n * d)

    def recursion(self, phi: np.ndarray):
        """Slopes, dense F and Q = M (Xi + P_outer) M at Phi = `phi`."""
        slope, coeff, xi = self.linearize(phi)
        return slope, self.transition(self.update_blocks(coeff)), self.source(xi)


def _steady_fixed_point(moments: MomentSet, slope, f, q):
    """Alternate Stein solves with slope updates until the covariance settles.

    Starts from the small-error slopes, F and Q; returns the slopes, F and Q
    of the last solve and its solution. Raises UnstableSystem when an iterate's
    F has spectral radius >= 1.
    """
    p = None
    for _ in range(FIXED_POINT_MAX_SOLVES):
        p_next = _solve_stein(f, q)
        if p is not None and (np.linalg.norm(p_next - p)
                              <= FIXED_POINT_TOL * np.linalg.norm(p_next)):
            return slope, f, q, p_next
        p = p_next
        slope, f, q = moments.recursion(moments.combine(p))
    raise NoConvergence(f"steady-state slopes did not settle in {FIXED_POINT_MAX_SOLVES} solves")


def build_moments(inputs: TheoryInputs) -> MomentSet:
    """Assemble the linearized recursion and solve for its steady state."""
    n, d = inputs.topology.node_count, inputs.dim
    step_diag = np.repeat(inputs.step_sizes, d)
    step_outer = np.outer(step_diag, step_diag)
    bias = inputs.prior_bias_diagonals()
    p_theta = (bias * inputs.theta_o).ravel()
    moments = MomentSet(
        combination=inputs.combination.matrix,
        pairs=np.nonzero(inputs.topology.adjacency_mask()),
        covs=np.stack(inputs.regressor_covariances),
        noise_variances=inputs.noise_variances,
        delta=inputs.delta,
        inv_h=1.0 / inputs.h,
        prior_blocks=np.eye(d) - inputs.step_sizes[:, None, None] * (bias[:, :, None] * np.eye(d)),
        step_sizes=inputs.step_sizes,
        step_outer=step_outer,
        prior_source=step_outer * np.outer(p_theta, p_theta),
        theta_o=inputs.theta_o,
    )

    slope, f, q = moments.recursion(np.zeros((n * d, n * d)))
    moments.small_error_radius = spectral_radius(f)
    if moments.small_error_radius < 1.0:
        slope, f, q, moments.steady_covariance = _steady_fixed_point(moments, slope, f, q)
    moments.slopes = slope
    moments.mean_transition = f
    moments.xi_vec = q.flatten(order="F")
    return moments


def stepsize_upper_bound(inputs: TheoryInputs, k: int) -> float:
    """Largest mean-stable step size for node k at the small-error slopes."""
    neighbors = [l - 1 for l in inputs.topology.neighbors(k)]
    slopes = inputs.small_error_slopes()
    hessian = sum(slopes[l] * inputs.regressor_covariances[l] for l in neighbors) / inputs.h
    hessian = hessian + np.diag(inputs.prior_bias_diagonals()[k - 1])
    lam_max = float(np.linalg.eigvalsh(hessian)[-1])
    if lam_max <= 0.0:
        return math.inf
    return 2.0 / lam_max


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a finite square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameters("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _solve_stein(f: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve X = F X F' + Q by Smith squaring.

    After i squarings X holds the first 2^i terms of sum_j F^j Q F'^j. The
    iterate is accepted once its increment has settled, with finite norms,
    and the residual of the equation passes the same tolerance. Otherwise
    UnstableSystem is raised, naming rho(F): at rho(F) >= 1 the series does
    not settle unless Q avoids the unstable modes, and its norm may overflow
    while every entry is still finite.
    """
    x = q.copy()
    a = f.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(120):
            x_next = x + a @ x @ a.T
            a = a @ a
            delta = np.linalg.norm(x_next - x, "fro")
            x = x_next
            norm = np.linalg.norm(x, "fro")
            if not (np.isfinite(delta) and np.isfinite(norm)):
                break
            tol = STEIN_TOL * max(1.0, norm)
            if delta <= tol:
                if np.linalg.norm(x - f @ x @ f.T - q, "fro") <= tol:
                    return x
                break
    raise UnstableSystem(
        f"Stein solve did not settle: mean transition spectral radius {spectral_radius(f):.6f}"
    )


def to_db(values):
    """10 log10, mapping exact zeros to -inf without warnings."""
    arr = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(arr)


@dataclass
class PerformanceCurves:
    """Per-node and network MSD/EMSE, linear scale; dB via `to_db`.

    Curve arrays are indexed by completed iterations: row 0 is the all-zero
    initialization (error equal to theta_o), row n the prediction after n
    updates. Steady-state fields hold the n -> infinity limits.
    """

    node_msd: np.ndarray | None = None
    node_emse: np.ndarray | None = None
    network_msd: np.ndarray | None = None
    network_emse: np.ndarray | None = None
    steady_node_msd: np.ndarray | None = None
    steady_node_emse: np.ndarray | None = None
    steady_network_msd: float | None = None
    steady_network_emse: float | None = None


def _require_stable(moments: MomentSet) -> None:
    if moments.small_error_radius >= 1.0:
        raise UnstableSystem(
            f"mean transition spectral radius {moments.small_error_radius:.6f} >= 1 "
            "at the small-error slopes"
        )


def _node_metrics(p: np.ndarray, covs: np.ndarray):
    """MSD tr(P_kk) and EMSE tr(P_kk R_k) from the diagonal blocks of P."""
    n, d = covs.shape[:2]
    diag = np.arange(n)
    blocks = p.reshape(n, d, n, d)[diag, :, diag, :]
    return np.einsum("kii->k", blocks), np.einsum("kij,kji->k", blocks, covs)


def steady_state_metrics(moments: MomentSet) -> PerformanceCurves:
    """Steady-state per-node and network MSD/EMSE of the linearized recursion."""
    _require_stable(moments)
    node_msd, node_emse = _node_metrics(moments.steady_covariance, moments.covs)
    return PerformanceCurves(
        steady_node_msd=node_msd,
        steady_node_emse=node_emse,
        steady_network_msd=float(np.mean(node_msd)),
        steady_network_emse=float(np.mean(node_emse)),
    )


def transient_curves(moments: MomentSet, n_max: int = 500) -> PerformanceCurves:
    """Iteration-indexed MSD/EMSE predictions from the covariance recursion.

    Carries the error second moment P_n forward from theta_bar theta_bar',
    re-linearizing the gain at every step:
    P_{n+1} = B_n Phi_n B_n' + M (Xi_n + P_outer) M, with
    Phi_n = A_ext P_n A_ext' and B_n = I + M C_n - M P block-diagonal.
    """
    _require_stable(moments)
    theta_bar = np.tile(moments.theta_o, moments.node_count)
    node_msd = np.empty((n_max + 1, moments.node_count))
    node_emse = np.empty((n_max + 1, moments.node_count))
    p = np.outer(theta_bar, theta_bar)
    node_msd[0], node_emse[0] = _node_metrics(p, moments.covs)
    for step in range(1, n_max + 1):
        phi = moments.combine(p)
        _, coeff, xi = moments.linearize(phi)
        p = moments.propagate(moments.update_blocks(coeff), phi) + moments.source(xi)
        node_msd[step], node_emse[step] = _node_metrics(p, moments.covs)

    return PerformanceCurves(
        node_msd=node_msd,
        node_emse=node_emse,
        network_msd=node_msd.mean(axis=1),
        network_emse=node_emse.mean(axis=1),
    )


def estimate_beta_and_r(trace: np.ndarray, buffer_size: int, sigma: float,
                        burn_in: int = 0):
    """Estimate the buffer-scaling diagonals and similarity counts from a pilot.

    `trace` has shape (T, N, d): per-iteration estimates of every node.
    Ratios theta[t-i]/theta[t] are clipped to [-2, 2] with tiny denominators
    treated as neutral; r counts lags whose normalized kernel value is >= 0.9.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 3:
        raise DimensionMismatch(f"trace must be (T, N, d), got {trace.shape}")
    post = trace[burn_in:]
    t_len, n, d = post.shape
    if t_len - buffer_size < 10 * buffer_size:
        raise InsufficientPilot(
            f"need at least {11 * buffer_size} post-burn-in iterations, got {t_len}"
        )
    beta_bar = np.empty((n, buffer_size, d))
    cur = post[buffer_size:]                            # theta_{k,t}, (T', N, d)
    safe = np.abs(cur) >= 1e-8
    counts = np.zeros((t_len - buffer_size, n))
    for i in range(1, buffer_size + 1):
        past = post[buffer_size - i:t_len - i]          # theta_{k,t-i}
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(safe, past / cur, 1.0)
        beta_bar[:, i - 1] = np.clip(ratio, -2.0, 2.0).mean(axis=0)
        sq = ((cur - past) ** 2).sum(axis=2)
        counts += np.exp(-sq / (2.0 * sigma)) >= 0.9
    r_similar = np.clip(np.round(counts.mean(axis=0)), 1, buffer_size)
    return beta_bar, r_similar
