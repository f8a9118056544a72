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
MSD rows. `build_moments` runs the recursion from theta_bar theta_bar' until it
settles, at most `TRANSIENT_STEPS` steps, and keeps its rows; the transient
curves read them. The steady state is the recursion's fixed point: Stein
solves alternate with slope updates, from the settled covariance, where one
solve confirms it, or from zero error when no step settled. The steady-state
metrics read the last solve. The slopes tend to 1 as the error variance
falls to 0, so any delta > 0 is admissible.

Stability and the step-size bound use the small-error slopes E[g'(v_l)],
v_l ~ N(0, sigma_v,l^2). A bounded gain contracts at every step size once the
error is large, so only the small-error linearization separates stable from
unstable step sizes.

White regressors. The theory takes R_l = r_l I only, the regressors the
simulator draws; `TheoryInputs` refuses any other covariance, which no
simulation could check. Then the stacked error's second moment keeps the form
P = H (x) theta_o theta_o' + G (x) I_d at every step (the global error is
col{theta_o - theta_k} with d-sized blocks, and the combine applies A' to the
node blocks; Cattivelli & Sayed, IEEE TSP 58(3), 2010). Every Nd x Nd block
reduces to N x N matrices: tr(R_l Phi_kk') = r_l Phi_S[k, k'] with
S = ||theta_o||^2 H + d G, the update B = I + M C is diag(b) (x) I_d with
b_k = 1 - mu_k sum_l s_lk r_l / h, F = diag(b) A' (x) I_d and
M Xi M = (mu mu' o Xi_s) (x) I_d, with
Xi_s[k, k'] = sum_l r_l s_lk s_lk' (sigma_v,l^2 + r_l Phi_S[k, k']) / h^2 and
Xi_s[k, k] = sum_l r_l E[g(e_lk)^2] / h^2. The recursion carries the (2, N, N)
stack (T, S), T = ||theta_o||^2 H in S's units: Phi = A' X A on both,
T <- (b b') o Phi_T and S <- (b b') o Phi_S + d (mu mu') o Xi_s. MSD_k = S_kk,
EMSE_k = r_k S_kk, and ||P||_F^2 = (1 - 1/d) ||T||_F^2 + ||S||_F^2 / d, exactly.
A step is about 45 numpy calls on N x N arrays and pair vectors, ~47 us at
N = 16 on a 2-core x86_64 box, ~13.5 us of it in the gain moments' special
functions and arithmetic, where the Nd x Nd step took ~180 us. It writes Phi
into buffers allocated once, the transient alternates two state buffers, and
the error state the gain moments need (`moment_errstate`) is entered once
per run. The `MomentSet` keeps the dense F, Xi and steady covariance, built
once by `_kron_eye`; `tests/oracles.py` keeps the Nd x Nd recursion as the
reference.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .diffusion import _bounded_gain_moments, bounded_gain_moments, moment_errstate
from .errors import DimensionMismatch, InvalidParameters, NoConvergence, UnstableSystem
from .network import CombinationMatrix, NetworkTopology, per_node

STEIN_TOL = 1e-10
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_SOLVES = 500

# The transient holds P once a step moves it by at most this share of its
# Frobenius norm, ~450 eps. Past that point the steps of the 16-node protocol
# network only wander by rounding, 5e-15 to 7e-15 of the norm per step.
TRANSIENT_TOL = 1e-13

# Steps `build_moments` runs the transient for, and `transient_curves`' default.
TRANSIENT_STEPS = 500


def _floats(value, name: str) -> np.ndarray:
    """`value` as a float array; a boolean anywhere in it is refused, not read as 0 or 1.
    A float or integer ndarray holds none, so only other values are scanned."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu") and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        raise InvalidParameters(f"{name} must hold numbers, got {value!r}")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the moment construction needs, validated; the regressor
    covariances as one (N, d, d) stack, each r_l I with r_l >= 0. Frozen with
    read-only array copies, so a `MomentSet` keeps its inputs;
    `dataclasses.replace` validates a changed copy."""

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
        d = covs[0].shape[0] if covs[0].ndim == 2 else 0
        if d < 1 or any(r.shape != (d, d) for r in covs):
            raise DimensionMismatch("regressor covariances must share one square d x d shape, d >= 1")
        stack = np.stack(covs)
        r = stack[:, :1, :1]
        white = ((stack == np.where(np.eye(d, dtype=bool), r, 0.0)).all(axis=(1, 2))
                 & np.isfinite(r[:, 0, 0]) & (r[:, 0, 0] >= 0))
        if not white.all():
            raise InvalidParameters("regressor covariances must be r I with r finite and >= 0: "
                                    f"the theory models white regressors, got {covs[white.argmin()].tolist()}")
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
        for name, value in (("regressor_covariances", stack), ("theta_o", theta_o),
                            ("noise_variances", noise_variances), ("step_sizes", step_sizes)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        combination = CombinationMatrix(self.combination.matrix.copy())
        combination.matrix.flags.writeable = False
        object.__setattr__(self, "combination", combination)

    @property
    def dim(self) -> int:
        return self.regressor_covariances.shape[1]

    @property
    def regressor_variances(self) -> np.ndarray:
        """r_l of each covariance R_l = r_l I."""
        return self.regressor_covariances[:, 0, 0]

    @functools.cached_property
    def small_error_slopes(self) -> np.ndarray:
        """E[g'(v_l)] with v_l ~ N(0, sigma_v,l^2), per node l, read-only.

        The gain's expected slope once the estimation error is negligible next
        to the noise; 1 at zero noise. The step bound of every node uses it.
        """
        slopes = bounded_gain_moments(self.noise_variances, self.delta)[0]
        slopes.flags.writeable = False
        return slopes


@dataclass(frozen=True)
class MomentSet:
    """The transient and steady state of the linearized error recursion of `inputs`.

    When the small-error slopes are mean-stable, the slopes, F and Xi hold
    their values at the steady-state fixed point and `steady_covariance` is
    the Stein solution of `mean_transition` and `xi_vec`, both kept from the
    last solve. The transient rows are the per-node MSD of steps
    0..`settle_step`, or of steps 0..`TRANSIENT_STEPS` with `settle_step`
    None when no step settled; only then is `last_state` kept, the (T, S)
    stack of the last step, for a longer transient to continue from.
    Otherwise the slopes, F and Xi hold the small-error values, the radius is
    >= 1, the other fields are None, and the metrics raise UnstableSystem.
    """

    inputs: TheoryInputs
    slopes: np.ndarray                  # s_lk = E[g'(e_lk)], [l, k]
    small_error_radius: float           # rho(F) at the small-error slopes
    mean_transition: np.ndarray         # F = (I + M C) A_ext
    xi_vec: np.ndarray                  # vec(M Xi M)
    steady_covariance: np.ndarray | None
    transient_msd: np.ndarray | None = None     # [step, k]
    settle_step: int | None = None
    last_state: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.inputs.dim


class _Recursion:
    """One step of the linearized covariance recursion of `TheoryInputs`, on
    the (2, N, N) stack x = (T, S) that stands for P (see the module docstring).

    `linearize(x)` evaluates the step at the error second moment before the
    combine: Phi = A' X A on both matrices, the gain statistics of every
    neighbour pair e_lk, b and S's source q = d (mu mu') o Xi_s. The transient
    then overwrites x with (b b') o Phi plus q on S (`advance`); the fixed
    point solves S = F S F' + q with F = diag(b) A' (`transition`).
    """

    def __init__(self, inputs: TheoryInputs):
        n, d = inputs.topology.node_count, inputs.dim
        r, mu = inputs.regressor_variances, inputs.step_sizes
        self.a, self.a_t = inputs.combination.matrix, inputs.combination.matrix.T
        self.r = r
        self.delta = inputs.delta
        pair_l, pair_k = np.nonzero(inputs.topology.adjacency_mask())
        self.pair_lk, self.pair_kk = pair_l * n + pair_k, pair_k * (n + 1)   # flat [l, k] and [k, k]
        self.pair_noise = inputs.noise_variances[pair_l]
        self.pair_r = r[pair_l]
        # s' diag(w) s for the noise and the error parts of Xi_s, as one stack
        self.xi_weights = np.stack([r * inputs.noise_variances, r * r])[:, :, None]
        self.step_load = -mu / inputs.h
        self.source_weight = d * np.outer(mu / inputs.h, mu / inputs.h)
        # per entry of the (2, N, N) stack, so the settle test multiplies without broadcasting
        self.norm_weights = np.repeat(np.sqrt([1.0 - 1.0 / d, 1.0 / d]), n * n).reshape(2, n, n)
        self.slope = np.zeros((n, n))      # s_lk at [l, k], zero off the pairs
        self.second = np.zeros((n, n))     # E[g(e_lk)^2] at [l, k]
        self.a_t_x = np.empty((2, n, n))   # A' X, then Phi = A' X A
        self.phi = np.empty((2, n, n))
        self.b = self.q = None

    def linearize(self, x: np.ndarray) -> None:
        """Evaluate the step at the (T, S) stack `x`, under `moment_errstate`."""
        np.matmul(np.matmul(self.a_t, x, out=self.a_t_x), self.a, out=self.phi)
        phi_s = self.phi[1]
        variance = self.pair_noise + self.pair_r * phi_s.take(self.pair_kk)
        slope, second = _bounded_gain_moments(variance, self.delta)
        self.slope.put(self.pair_lk, slope)
        self.second.put(self.pair_lk, second)
        self.b = 1.0 + self.step_load * (self.r @ self.slope)
        noise, error = self.slope.T @ (self.xi_weights * self.slope)
        xi = noise + error * phi_s
        xi.flat[:: xi.shape[0] + 1] = self.r @ self.second
        self.q = self.source_weight * xi

    def advance(self, x: np.ndarray) -> None:
        """Overwrite `x` with the step from the last `linearize`."""
        np.multiply(self.phi, np.multiply.outer(self.b, self.b), out=x)
        x[1] += self.q

    def transition(self) -> np.ndarray:
        """F = diag(b) A', whose Kronecker product with I_d is the mean transition."""
        return self.b[:, None] * self.a_t

    def moved_at_most(self, change: np.ndarray, x: np.ndarray, tol: float) -> bool:
        """Whether ||change||_F <= tol ||x||_F for the P that the stacks stand
        for, both scaled by `_unit_scale(x)`."""
        scale = self.norm_weights * _unit_scale(x)
        return _norm(change * scale) <= tol * _norm(x * scale)


def _unit_scale(x: np.ndarray) -> float:
    """The power of two 2^e that brings max|x| into [0.5, 1). Scaling by it is
    exact, so the squares of a norm neither underflow nor overflow at any
    scale of x. Below max|x| = 2^-1024, where 2^e would overflow, e is capped
    at 1000, which still brings max|x| to 2^-74 or above."""
    return math.ldexp(1.0, min(-math.frexp(np.abs(x).max())[1], 1000))


def _norm(v: np.ndarray) -> float:
    """Frobenius norm of a contiguous array, the bits of `np.linalg.norm`
    without its dispatch."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def _kron_eye(m: np.ndarray, d: int) -> np.ndarray:
    """m (x) I_d, the bytes of `np.kron(m, np.eye(d))` (the same products,
    -0.0 included) without its general set-up."""
    n = m.shape[0]
    return (m[:, None, :, None] * np.eye(d)[:, None, :]).reshape(n * d, n * d)


def _steady_fixed_point(recursion: _Recursion, f: np.ndarray, q: np.ndarray,
                        x: np.ndarray | None = None) -> tuple:
    """Alternate Stein solves with slope updates until the covariance settles.

    Starts from the (T, S) stack `x` when given: linearizes there and compares
    the first solve against it. Otherwise starts from the N x N F and q of the
    step last linearized. Returns (S, F, q) of the last solve; its P is
    S / d (x) I_d. Raises UnstableSystem when an iterate's F has spectral
    radius >= 1.
    """
    for _ in range(FIXED_POINT_MAX_SOLVES):
        if x is not None:
            recursion.linearize(x)
            f, q = recursion.transition(), recursion.q
        s = _solve_stein(f, q)
        x_next = np.stack([np.zeros_like(s), s])
        if x is not None and recursion.moved_at_most(x_next - x, x_next, FIXED_POINT_TOL):
            return s, f, q
        x = x_next
    raise NoConvergence(f"steady-state slopes did not settle in {FIXED_POINT_MAX_SOLVES} solves")


def _run_transient(recursion: _Recursion, x: np.ndarray, node_msd: np.ndarray, first: int) -> tuple:
    """Write the per-node MSD rows first.. of the recursion.

    `x` is the (T, S) stack of step first - 1, or of step 0 at `first` = 0,
    whose own row is written without a step; the run overwrites it. Each step
    writes the next stack into a second buffer (`advance` does not read x),
    then the change into the old one, and the two swap. Stops at the first
    step n with ||P_n - P_{n-1}||_F <= TRANSIENT_TOL ||P_n||_F and returns
    (n, the stack at n), leaving the rows after it unwritten; returns
    (None, the stack at the last row) when no step up to it settles.
    """
    if first == 0:
        node_msd[0] = x[1].diagonal()
        first = 1
    y = np.empty_like(x)
    with moment_errstate():
        for step in range(first, node_msd.shape[0]):
            recursion.linearize(x)
            recursion.advance(y)
            node_msd[step] = y[1].diagonal()
            np.subtract(y, x, out=x)
            x, y = y, x
            if recursion.moved_at_most(y, x, TRANSIENT_TOL):
                return step, x
    return None, x


def build_moments(inputs: TheoryInputs) -> MomentSet:
    """Linearize the recursion of `inputs`, run its transient and solve for its steady state."""
    n, d = inputs.topology.node_count, inputs.dim
    recursion = _Recursion(inputs)
    steady = x = node_msd = settle_step = None
    with moment_errstate():
        recursion.linearize(np.zeros((2, n, n)))
        f, q = recursion.transition(), recursion.q
        radius = spectral_radius(f)
        if radius < 1.0:
            node_msd = np.empty((TRANSIENT_STEPS + 1, n))
            settle_step, x = _run_transient(recursion, np.full((2, n, n), inputs.theta_o @ inputs.theta_o),
                                            node_msd, 0)
            if settle_step is not None:
                node_msd = node_msd[: settle_step + 1].copy()
            s, f, q = _steady_fixed_point(recursion, f, q, None if settle_step is None else x)
            steady = _kron_eye(s / d, d)
    return MomentSet(inputs=inputs, slopes=recursion.slope.copy(), small_error_radius=radius,
                     mean_transition=_kron_eye(f, d), xi_vec=_kron_eye(q / d, d).flatten(order="F"),
                     steady_covariance=steady, transient_msd=node_msd, settle_step=settle_step,
                     last_state=x if settle_step is None else None)


def stepsize_upper_bound(inputs: TheoryInputs, k: int) -> float:
    """Largest mean-stable step size for node k at the small-error slopes:
    2 h / sum_{l in N_k} s_l r_l."""
    neighbors = [l - 1 for l in inputs.topology.neighbors(k)]
    load = float(inputs.small_error_slopes[neighbors] @ inputs.regressor_variances[neighbors])
    if load <= 0.0:
        return math.inf
    return 2.0 * inputs.h / load


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
    iterate is accepted once its increment is at most STEIN_TOL of its
    Frobenius norm, with finite norms, and the residual of the equation
    passes the same tolerance; both are relative, and all three are taken
    after scaling by `_unit_scale(X)`, so the solve does not depend on the
    scale of Q. Otherwise UnstableSystem is raised, naming
    rho(F): at rho(F) >= 1 the series does not settle unless Q avoids the
    unstable modes, and its norm may overflow while every entry is still
    finite.
    """
    x = q.copy()
    a = f.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(120):
            x_next = x + a @ x @ a.T
            scale = _unit_scale(x_next)
            delta = _norm((x_next - x) * scale)
            x = x_next
            norm = _norm(x * scale)
            if not (np.isfinite(delta) and np.isfinite(norm)):
                break
            tol = STEIN_TOL * norm
            if delta <= tol:
                if _norm((x - f @ x @ f.T - q) * scale) <= tol:
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
    n, d = moments.inputs.topology.node_count, moments.dim
    node_msd = np.einsum("kiki->k", moments.steady_covariance.reshape(n, d, n, d))
    node_emse = node_msd * moments.inputs.regressor_variances
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
    node_msd = np.empty((n_max + 1, moments.transient_msd.shape[1]))
    node_msd[: min(n_max, stored) + 1] = moments.transient_msd[: n_max + 1]
    settle_step = moments.settle_step if n_max >= stored else None
    if settle_step is None and n_max > stored:
        settle_step = _run_transient(_Recursion(moments.inputs), moments.last_state.copy(), node_msd, stored + 1)[0]
    if settle_step is not None:
        node_msd[settle_step + 1 :] = node_msd[settle_step]
    node_emse = node_msd * moments.inputs.regressor_variances
    return PerformanceCurves(
        node_msd=node_msd,
        node_emse=node_emse,
        network_msd=node_msd.mean(axis=1),
        network_emse=node_emse.mean(axis=1),
        settle_step=settle_step,
    )
