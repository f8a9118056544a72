"""Closed-form mean-square predictions for the kernel-MAP diffusion filter.

The predictions are those of the prior-free update, the simulator's
`buffer: 1`: the kernel prior over buffered estimates (its bandwidth sigma and
buffer length B) does not enter them. The update scores neighbour l's error
at node k through the pseudo-Huber gain g(e) = e / sqrt(1 + (e/delta)^2),
which is bounded by delta. The analysis replaces g by its Gaussian
statistical linearization (Price's theorem; Al-Naffouri & Sayed, "Transient
analysis of adaptive filters with error nonlinearities", IEEE TSP 51(3),
2003). The error e_lk = u_l theta_tilde_k + v_l is taken as
N(0, sigma_v,l^2 + tr(R_l Phi_kk)), where Phi is the second moment
of the stacked error at the evaluation point. Then:

- the mean recursion uses the slope s_lk = E[g'(e_lk)];
- the gradient-noise covariance uses E[g(e_lk)^2] within one node and
  Bussgang's s_lk s_lk' E[e_lk e_lk'] across two nodes sharing neighbour l.

Both expectations have closed forms, kept beside the gain in `diffusion`
(`bounded_gain_moments`). The slopes depend on the error, so the transient is
the covariance recursion
P_{n+1} = F_n P_n F_n' + M Xi_n M with the slopes refreshed every step. One
`MomentSet` holds the `TheoryInputs` it was built from, the slopes, F and Xi at
the steady state, the steady covariance itself, and the transient's per-node
rows. `build_moments` runs the recursion from theta_bar theta_bar' until it
settles, at most `TRANSIENT_STEPS` steps, and keeps its rows; the transient
curves read them. The steady state is the recursion's fixed point: Stein
solves alternate with slope updates, from the settled covariance, where one
solve confirms it, or from zero error when no step settled. The steady-state
metrics read the last solve. The fixed point and the transient run one
in-place step (`_Recursion`), built from the inputs once per call. The slopes
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
import numbers
from dataclasses import dataclass

import numpy as np

from .diffusion import bounded_gain_moments
from .errors import DimensionMismatch, InvalidParameters, NoConvergence, UnstableSystem
from .network import CombinationMatrix, NetworkTopology, per_node

STEIN_TOL = 1e-10
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_SOLVES = 500

# Steps whose diagonal blocks `transient_curves` reduces in one einsum pair:
# over the steps' (N, d, d) stacks end to end, beside the covariances tiled
# as often, since an einsum over a fourth, step axis adds in another order.
METRIC_STEPS = 64

# The transient holds P once a step moves it by at most this share of its
# Frobenius norm, ~450 eps. Past that point the steps of the 16-node protocol
# network only wander by rounding, 5e-15 to 7e-15 of the norm per step.
TRANSIENT_TOL = 1e-13

# Steps `build_moments` runs the transient for, and `transient_curves`' default.
TRANSIENT_STEPS = 500


def _floats(value, name: str) -> np.ndarray:
    """`value` as a float array; a boolean anywhere in it is refused, not read as 0 or 1."""
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        raise InvalidParameters(f"{name} must hold numbers, got {value!r}")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the moment construction needs, validated; the regressor
    covariances as one (N, d, d) stack. Frozen with read-only array copies, so a
    `MomentSet` keeps its inputs; `dataclasses.replace` validates a changed copy."""

    topology: NetworkTopology
    combination: CombinationMatrix
    regressor_covariances: np.ndarray
    noise_variances: np.ndarray
    step_sizes: np.ndarray
    theta_o: np.ndarray
    h: float = 1.0
    delta: float = 0.25

    def __post_init__(self):
        n = self.topology.node_count
        covs = [_floats(r, "regressor_covariances") for r in self.regressor_covariances]
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
        theta_o = _floats(self.theta_o, "theta_o").copy()
        if theta_o.shape != (d,):
            raise DimensionMismatch(f"theta_o must have length {d}")
        if not np.all(np.isfinite(theta_o)):
            raise InvalidParameters(f"theta_o must be finite, got {theta_o}")
        if self.combination.node_count != n:
            raise DimensionMismatch("combination matrix does not match topology size")
        noise_variances = per_node(_floats(self.noise_variances, "noise_variances"), n, "noise_variances").copy()
        step_sizes = per_node(_floats(self.step_sizes, "step_sizes"), n, "step_sizes").copy()
        if not np.all(np.isfinite(noise_variances) & (noise_variances >= 0)):
            raise InvalidParameters("noise_variances must be finite and >= 0")
        if not np.all(np.isfinite(step_sizes) & (step_sizes > 0)):
            raise InvalidParameters("step_sizes must be finite and > 0")
        for name in ("h", "delta"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                raise InvalidParameters(f"{name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameters(f"{name} must be finite and > 0, got {value}")
        for name, value in (("regressor_covariances", np.stack(covs)), ("theta_o", theta_o),
                            ("noise_variances", noise_variances), ("step_sizes", step_sizes)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        combination = CombinationMatrix(self.combination.matrix.copy())
        combination.matrix.flags.writeable = False
        object.__setattr__(self, "combination", combination)

    @property
    def dim(self) -> int:
        return self.regressor_covariances.shape[1]

    def small_error_slopes(self) -> np.ndarray:
        """E[g'(v_l)] with v_l ~ N(0, sigma_v,l^2), per node l.

        The gain's expected slope once the estimation error is negligible next
        to the noise; 1 at zero noise. Stability and the step bound use it.
        """
        return bounded_gain_moments(self.noise_variances, self.delta)[0]


@dataclass(frozen=True)
class MomentSet:
    """The transient and steady state of the linearized error recursion of `inputs`.

    When the small-error slopes are mean-stable, the slopes, F and Xi hold
    their values at the steady-state fixed point and `steady_covariance` is
    the Stein solution of `mean_transition` and `xi_vec`, both kept from the
    last solve. The transient rows are the per-node MSD and EMSE of steps
    0..`settle_step`, or of steps 0..`TRANSIENT_STEPS` with `settle_step`
    None when no step settled; only then is `last_covariance` kept, the P of
    the last step, for a longer transient to continue from. Otherwise the
    slopes, F and Xi hold the small-error values, the radius is >= 1, the
    other fields are None, and the metrics raise UnstableSystem.
    """

    inputs: TheoryInputs
    slopes: np.ndarray                  # s_lk = E[g'(e_lk)], [l, k]
    small_error_radius: float           # rho(F) at the small-error slopes
    mean_transition: np.ndarray         # F = (I + M C) A_ext
    xi_vec: np.ndarray                  # vec(M Xi M)
    steady_covariance: np.ndarray | None
    transient_msd: np.ndarray | None = None     # [step, k]
    transient_emse: np.ndarray | None = None
    settle_step: int | None = None
    last_covariance: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.inputs.dim


class _Recursion:
    """One step of the linearized covariance recursion of `TheoryInputs`, in place.

    `linearize(p)` evaluates the step at the error second moment P before the
    combine: Phi = A_ext P A_ext', the gain statistics of every e_lk, the
    blocks of B = I + M C and Q = M Xi M. The transient then
    overwrites P with B Phi B' + Q (`advance`); the fixed point writes the
    dense F and Q instead (`transition`, `source`).

    The pair tensor s_lk s_lk' (sigma_v,l^2 + tr(R_l Phi_kk')) / h^2, with
    E[g(e_lk)^2] / h^2 on k = k', is nonzero only where l is a neighbour of
    both k and k'. Index tables built once name those entries: the neighbour
    pairs (l, k), as positions in the traces tr(R_l Phi_kk) and in the (N, N)
    slopes, and the triples (l, k, k'), k != k'. The rest of the tensor stays
    zero in a buffer allocated once, as do Phi, the traces, Xi and the blocks.
    Xi comes out of its product in the (k, k', i, j) layout; the step-size
    multiply reads it through a transposed view and writes Q contiguous in
    P's (k, i, k', j) layout, so the transient adds two contiguous arrays.
    Every matrix product keeps the operand shapes, and every elementwise
    expression the operand order, of the step that allocates each
    intermediate, so the two give the same bits; that step is the test
    oracle.
    """

    def __init__(self, inputs: TheoryInputs):
        n, d = inputs.topology.node_count, inputs.dim
        nd = n * d
        self.a_t = inputs.combination.matrix.T
        self.covs_flat = inputs.regressor_covariances.reshape(n, d * d)
        self.delta = inputs.delta
        self.inv_h = 1.0 / inputs.h
        self.inv_h2 = self.inv_h * self.inv_h
        self.eye = np.eye(d)
        self.neg_steps = -inputs.step_sizes[:, None, None]
        # alpha_k alpha_k' laid out as q, contiguous: a broadcast multiply takes over twice as long.
        outer = np.outer(inputs.step_sizes, inputs.step_sizes)[:, None, :, None]
        self.step_outer = np.ascontiguousarray(np.broadcast_to(outer, (n, d, n, d)))

        l_idx, k_idx = np.nonzero(inputs.topology.adjacency_mask())
        self.pair_slope = l_idx * n + k_idx                # [l, k] in (N, N)
        self.pair_trace = self.pair_slope * n + k_idx      # [l, k, k] in (N, N, N)
        self.pair_noise = inputs.noise_variances[l_idx]
        slot = np.full((n, n), -1)
        slot[l_idx, k_idx] = np.arange(l_idx.size)
        shared = (slot[:, :, None] >= 0) & (slot[:, None, :] >= 0)
        shared[:, np.arange(n), np.arange(n)] = False
        tri_l, tri_k, tri_kk = np.nonzero(shared)
        self.tri_slopes = np.concatenate([slot[tri_l, tri_k], slot[tri_l, tri_kk]])
        self.tri_trace = (tri_l * n + tri_k) * n + tri_kk  # [l, k, k'] in (N, N, N)
        self.tri_noise = inputs.noise_variances[tri_l]
        self.pair_entries = np.concatenate([self.tri_trace, self.pair_trace])

        # Buffers, allocated once, and the views of them each product reads or writes.
        cut = tri_l.size
        self.phi, self.left, self.work = (np.empty((nd, nd)) for _ in range(3))
        self.phi_rows, self.left_rows, self.work_rows = (
            b.reshape(n, d * nd) for b in (self.phi, self.left, self.work))
        self.phi_nodes, self.left_nodes, self.work_nodes = (
            b.reshape(n, d, nd) for b in (self.phi, self.left, self.work))
        self.phi_t = np.empty((d * d, n * n))
        self.phi_t_dest = self.phi_t.reshape(d, d, n, n).transpose(2, 1, 3, 0)  # [k, i, k', j]
        self.traces = np.empty((n, n * n))
        self.variance = np.empty(l_idx.size)
        self.slope = None
        self.tri = np.empty(2 * cut)
        self.tri_first, self.tri_second = self.tri[:cut], self.tri[cut:]
        self.tri_cross = np.empty(cut)
        self.entries = np.empty(cut + l_idx.size)
        self.entries_cross, self.entries_second = self.entries[:cut], self.entries[cut:]
        self.pair = np.zeros((n, n, n))
        self.pair_t = self.pair.reshape(n, n * n).T
        self.xi = np.empty((n * n, d * d))
        self.xi_dense = self.xi.reshape(n, n, d, d).transpose(0, 2, 1, 3)   # [k, i, k', j]
        self.q = np.empty((nd, nd))                       # Q = M Xi M in P's layout
        self.scaled_pairs = np.empty(l_idx.size)
        self.scaled = np.zeros((n, n))
        self.coeff = np.empty((n, d * d))
        self.coeff_blocks = self.coeff.reshape(n, d, d)
        self.blocks = np.empty((n, d, d))
        self.a_dense = self.a_t[:, None, :, None]       # a_lk at [k, ., l, .]

    def linearize(self, p: np.ndarray) -> None:
        """Evaluate the step at the error second moment `p` (Nd x Nd, symmetric)."""
        # Phi = A_ext P A_ext', applying A' to node blocks
        np.matmul(self.a_t, p.reshape(self.left_rows.shape), out=self.left_rows)
        np.copyto(self.work, self.left.T)
        np.matmul(self.a_t, self.work_rows, out=self.phi_rows)
        # traces[l, k, k'] = tr(R_l Phi_kk')
        np.copyto(self.phi_t_dest, self.phi.reshape(self.phi_t_dest.shape))
        np.matmul(self.covs_flat, self.phi_t, out=self.traces)
        variance = np.take(self.traces, self.pair_trace, out=self.variance, mode="clip")
        np.add(self.pair_noise, variance, out=variance)
        self.slope, second = bounded_gain_moments(variance, self.delta)
        # the pair tensor's nonzero entries, Xi, and Q = M Xi M
        np.take(self.slope, self.tri_slopes, out=self.tri, mode="clip")
        np.multiply(self.tri_first, self.tri_second, out=self.entries_cross)
        cross = np.take(self.traces, self.tri_trace, out=self.tri_cross, mode="clip")
        np.add(self.tri_noise, cross, out=cross)
        np.multiply(self.entries_cross, cross, out=self.entries_cross)
        self.entries_second[:] = second
        np.multiply(self.entries, self.inv_h2, out=self.entries)
        np.put(self.pair, self.pair_entries, self.entries, mode="clip")
        np.matmul(self.pair_t, self.covs_flat, out=self.xi)
        np.multiply(self.step_outer, self.xi_dense, out=self.q.reshape(self.step_outer.shape))
        # B = I + M C with C_k = -sum_l s_lk R_l / h
        np.multiply(self.slope, self.inv_h, out=self.scaled_pairs)
        np.put(self.scaled, self.pair_slope, self.scaled_pairs, mode="clip")
        np.matmul(self.scaled.T, self.covs_flat, out=self.coeff)
        np.multiply(self.neg_steps, self.coeff_blocks, out=self.blocks)
        np.add(self.eye, self.blocks, out=self.blocks)

    def advance(self, p: np.ndarray) -> None:
        """Overwrite the C-contiguous `p` with B Phi B' + Q from the last `linearize`."""
        np.matmul(self.blocks, self.phi_nodes, out=self.left_nodes)
        np.copyto(self.work, self.left.T)
        np.matmul(self.blocks, self.work_nodes, out=p.reshape(self.work_nodes.shape))
        np.add(p, self.q, out=p)

    def transition(self, f: np.ndarray) -> np.ndarray:
        """Write the dense F = B A_ext into `f`: block (k, l) is a_lk B_k."""
        np.multiply(self.blocks[:, :, None, :], self.a_dense, out=f.reshape(self.step_outer.shape))
        return f

    def source(self, q: np.ndarray) -> np.ndarray:
        """Write the dense Q = M Xi M into `q`."""
        np.copyto(q, self.q)
        return q

    def slopes(self) -> np.ndarray:
        """The last slopes as an (N, N) array indexed [l, k], zero off the pairs."""
        out = np.zeros(self.scaled.shape)
        out.flat[self.pair_slope] = self.slope
        return out


def _diagonal_blocks(n: int, d: int) -> np.ndarray:
    """(N, d, d) flat positions of the diagonal blocks P_kk of an Nd x Nd P."""
    start = np.arange(n)[:, None, None] * d
    return (start + np.arange(d)[:, None]) * (n * d) + start + np.arange(d)


def _node_metrics(blocks: np.ndarray, covs: np.ndarray, msd: np.ndarray, emse: np.ndarray):
    """MSD tr(P_kk) and EMSE tr(P_kk R_k) from the (N, d, d) diagonal blocks of P."""
    np.einsum("kii->k", blocks, out=msd)
    np.einsum("kij,kji->k", blocks, covs, out=emse)


def _steady_fixed_point(recursion: _Recursion, f: np.ndarray, q: np.ndarray,
                        p: np.ndarray | None = None) -> np.ndarray:
    """Alternate Stein solves with slope updates until the covariance settles.

    Starts from the covariance `p` when given: linearizes there and compares
    the first solve against it. Otherwise starts from the step last linearized
    and its dense F and Q. Writes each update's F and Q over `f` and `q`, so
    they end as those of the last solve; returns that solve's solution. Raises
    UnstableSystem when an iterate's F has spectral radius >= 1.
    """
    for _ in range(FIXED_POINT_MAX_SOLVES):
        if p is not None:
            recursion.linearize(p)
            recursion.transition(f)
            recursion.source(q)
        p_next = _solve_stein(f, q)
        if p is not None and (np.linalg.norm(p_next - p)
                              <= FIXED_POINT_TOL * np.linalg.norm(p_next)):
            return p_next
        p = p_next
    raise NoConvergence(f"steady-state slopes did not settle in {FIXED_POINT_MAX_SOLVES} solves")


def _run_transient(recursion: _Recursion, p: np.ndarray, node_msd: np.ndarray,
                   node_emse: np.ndarray, first: int) -> int | None:
    """Write the per-node MSD/EMSE rows first.. of the recursion, carrying `p` in place.

    `p` is P_{first - 1}, or P_0 at `first` = 0, whose own row is written
    without a step. Stops at the first step n with
    ||P_n - P_{n-1}||_F <= TRANSIENT_TOL ||P_n||_F and returns n, leaving the
    rows after it unwritten and `p` at P_n; returns None when no step up to
    the last row settles.
    """
    n = node_msd.shape[1]
    d = p.shape[0] // n
    last = node_msd.shape[0] - 1
    blocks = _diagonal_blocks(n, d)
    diag = np.empty((METRIC_STEPS, n, d, d))
    covs = np.tile(recursion.covs_flat.reshape(n, d, d), (METRIC_STEPS, 1, 1))
    prev = np.empty_like(p)
    settled = False
    for step in range(first, last + 1):
        if step:
            np.copyto(prev, p)
            recursion.linearize(p)
            recursion.advance(p)
            np.subtract(p, prev, out=prev)
            settled = np.linalg.norm(prev) <= TRANSIENT_TOL * np.linalg.norm(p)
        slot = (step - first) % METRIC_STEPS
        np.take(p, blocks, out=diag[slot], mode="clip")
        if slot == METRIC_STEPS - 1 or step == last or settled:
            done, t0 = (slot + 1) * n, step - slot
            _node_metrics(diag.reshape(covs.shape)[:done], covs[:done], node_msd[t0 : step + 1].reshape(-1),
                          node_emse[t0 : step + 1].reshape(-1))
        if settled:
            return step
    return None


def build_moments(inputs: TheoryInputs) -> MomentSet:
    """Linearize the recursion of `inputs`, run its transient and solve for its steady state."""
    n = inputs.topology.node_count
    nd = n * inputs.dim
    recursion = _Recursion(inputs)
    recursion.linearize(np.zeros((nd, nd)))
    f = recursion.transition(np.empty((nd, nd)))
    q = recursion.source(np.empty((nd, nd)))
    radius = spectral_radius(f)
    if radius >= 1.0:
        return MomentSet(inputs=inputs, slopes=recursion.slopes(), small_error_radius=radius,
                         mean_transition=f, xi_vec=q.flatten(order="F"), steady_covariance=None)
    theta_bar = np.tile(inputs.theta_o, n)
    p = np.outer(theta_bar, theta_bar)
    node_msd = np.empty((TRANSIENT_STEPS + 1, n))
    node_emse = np.empty((TRANSIENT_STEPS + 1, n))
    settle_step = _run_transient(recursion, p, node_msd, node_emse, 0)
    settled = settle_step is not None
    steady = _steady_fixed_point(recursion, f, q, p if settled else None)
    rows = (settle_step if settled else TRANSIENT_STEPS) + 1
    return MomentSet(inputs=inputs, slopes=recursion.slopes(), small_error_radius=radius,
                     mean_transition=f, xi_vec=q.flatten(order="F"), steady_covariance=steady,
                     transient_msd=node_msd[:rows].copy(), transient_emse=node_emse[:rows].copy(),
                     settle_step=settle_step, last_covariance=None if settled else p)


def stepsize_upper_bound(inputs: TheoryInputs, k: int) -> float:
    """Largest mean-stable step size for node k at the small-error slopes."""
    neighbors = [l - 1 for l in inputs.topology.neighbors(k)]
    slopes = inputs.small_error_slopes()
    hessian = sum(slopes[l] * inputs.regressor_covariances[l] for l in neighbors) / inputs.h
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
            a = a @ a
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
    updates. `settle_step` is the first step whose covariance moved by at most
    `TRANSIENT_TOL` of its norm; the rows after it hold its row. It is None
    when the recursion did not settle within the curves, and on steady-state
    results. Steady-state fields hold the n -> infinity limits.
    """

    node_msd: np.ndarray | None = None
    node_emse: np.ndarray | None = None
    network_msd: np.ndarray | None = None
    network_emse: np.ndarray | None = None
    steady_node_msd: np.ndarray | None = None
    steady_node_emse: np.ndarray | None = None
    steady_network_msd: float | None = None
    steady_network_emse: float | None = None
    settle_step: int | None = None


def _require_stable(moments: MomentSet) -> None:
    if moments.small_error_radius >= 1.0:
        raise UnstableSystem(
            f"mean transition spectral radius {moments.small_error_radius:.6f} >= 1 "
            "at the small-error slopes"
        )


def steady_state_metrics(moments: MomentSet) -> PerformanceCurves:
    """Steady-state per-node and network MSD/EMSE of the linearized recursion."""
    _require_stable(moments)
    covs = moments.inputs.regressor_covariances
    n, d = covs.shape[:2]
    node_msd, node_emse = np.empty(n), np.empty(n)
    _node_metrics(np.take(moments.steady_covariance, _diagonal_blocks(n, d)), covs, node_msd, node_emse)
    return PerformanceCurves(
        steady_node_msd=node_msd,
        steady_node_emse=node_emse,
        steady_network_msd=float(np.mean(node_msd)),
        steady_network_emse=float(np.mean(node_emse)),
    )


def transient_curves(moments: MomentSet, n_max: int = TRANSIENT_STEPS) -> PerformanceCurves:
    """Iteration-indexed MSD/EMSE predictions from the covariance recursion.

    Carries the error second moment P_n forward from theta_bar theta_bar',
    re-linearizing the gain at every step:
    P_{n+1} = B_n Phi_n B_n' + M Xi_n M, with
    Phi_n = A_ext P_n A_ext' and B_n = I + M C_n block-diagonal. Stops at
    the first step n with ||P_n - P_{n-1}||_F <= TRANSIENT_TOL ||P_n||_F and
    holds row n through n_max. The rows up to `TRANSIENT_STEPS` are those
    `build_moments` computed; only an unsettled recursion runs past them.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise InvalidParameters(f"n_max must be an integer >= 0, got {n_max!r}")
    _require_stable(moments)
    stored = moments.transient_msd.shape[0] - 1
    rows = min(n_max, stored) + 1
    node_msd = np.empty((n_max + 1, moments.transient_msd.shape[1]))
    node_emse = np.empty_like(node_msd)
    node_msd[:rows] = moments.transient_msd[:rows]
    node_emse[:rows] = moments.transient_emse[:rows]
    settle_step = moments.settle_step if n_max >= stored else None
    if settle_step is None and n_max > stored:
        settle_step = _run_transient(_Recursion(moments.inputs), moments.last_covariance.copy(),
                                     node_msd, node_emse, stored + 1)
    if settle_step is not None:
        node_msd[settle_step + 1 :] = node_msd[settle_step]
        node_emse[settle_step + 1 :] = node_emse[settle_step]

    return PerformanceCurves(
        node_msd=node_msd,
        node_emse=node_emse,
        network_msd=node_msd.mean(axis=1),
        network_emse=node_emse.mean(axis=1),
        settle_step=settle_step,
    )
