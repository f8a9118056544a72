"""Noise models of the measurements: Gaussian and alpha-stable.

The alpha-stable family is pinned to the characteristic function

    phi(t) = exp(-gamma * |t|**alpha * (1 + 1j*beta*sign(t)*S(t, alpha)) + 1j*delta*t)

with S(t, alpha) = tan(pi*alpha/2) for alpha != 1 and (2/pi)*log|t| for
alpha = 1.  Samples are drawn with the Chambers-Mallows-Stuck transform and
mapped onto this parameterization; `characteristic_function` is the oracle
the sampler is validated against, never the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters


@dataclass(frozen=True)
class Gaussian:
    """Zero-mean Gaussian noise with the given variance."""

    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise InvalidParameters(f"gaussian variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class AlphaStable:
    """Alpha-stable noise: tail exponent, skew, scale and location."""

    alpha: float
    beta: float
    gamma: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise InvalidParameters(f"alpha must lie in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise InvalidParameters(f"beta must lie in [-1, 1], got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidParameters(f"gamma must be finite and > 0, got {self.gamma}")
        if not math.isfinite(self.delta):
            raise InvalidParameters(f"delta must be finite, got {self.delta}")


NoiseSpec = Gaussian | AlphaStable


def _cms_standard(alpha: float, beta: float, rng, size):
    """Standardized stable draw (unit scale, zero location) via the CMS transform.

    Uses the continuous-at-alpha=1 form only in the sense of the classic
    two-branch algorithm; the alpha = 1 branch is exact, not a limit.
    """
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        b = np.pi / 2.0 + beta * v
        return (2.0 / np.pi) * (b * np.tan(v) - beta * np.log((np.pi / 2.0) * w * np.cos(v) / b))
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(zeta) / alpha
    s0 = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    cos_v = np.cos(v)
    return (
        s0
        * np.sin(alpha * (v + b0))
        / cos_v ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample(spec: NoiseSpec, rng, size=None):
    """Draw i.i.d. noise per `spec` from a caller-owned generator.

    Returns a scalar when size is None, else an ndarray of that shape.
    """
    if isinstance(spec, Gaussian):
        draw = math.sqrt(spec.variance) * rng.standard_normal(size)
        return float(draw) if size is None else draw
    if not isinstance(spec, AlphaStable):
        raise InvalidParameters(f"unknown noise spec {spec!r}")
    a, b, g, d = spec.alpha, spec.beta, spec.gamma, spec.delta
    if a == 1.0:
        x = _cms_standard(1.0, b, rng, size)
        out = g * x + (2.0 / np.pi) * b * g * math.log(g) + d
    else:
        # The printed characteristic function carries +i*beta*sign(t)*tan(pi*a/2),
        # which is the mirror of the standard CMS convention for alpha != 1.
        x = _cms_standard(a, -b, rng, size)
        out = g ** (1.0 / a) * x + d
    return float(out) if size is None else out


def characteristic_function(spec: AlphaStable, t):
    """Closed-form characteristic function phi(t) of an alpha-stable spec."""
    if not isinstance(spec, AlphaStable):
        raise InvalidParameters("characteristic_function is defined for AlphaStable specs")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    a, b, g, d = spec.alpha, spec.beta, spec.gamma, spec.delta
    abs_t = np.abs(t_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        if a == 1.0:
            s_term = (2.0 / np.pi) * np.log(abs_t)
        elif a == 2.0:
            s_term = 0.0  # tan(pi) is exactly zero in exact arithmetic
        else:
            s_term = math.tan(math.pi * a / 2.0)
        exponent = -g * abs_t**a * (1.0 + 1j * b * np.sign(t_arr) * s_term) + 1j * d * t_arr
        phi = np.exp(exponent)
    phi = np.where(abs_t == 0.0, 1.0 + 0.0j, phi)
    return complex(phi[0]) if scalar else phi


def empirical_characteristic_function(samples, t):
    """(1/M) sum exp(i t X_m), evaluated per t value (memory-bounded)."""
    samples = np.asarray(samples, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape, dtype=complex)
    for i, ti in enumerate(t_arr):
        out[i] = np.exp(1j * ti * samples).mean()
    return complex(out[0]) if np.asarray(t).ndim == 0 else out
