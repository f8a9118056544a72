"""The update families: five robust baselines and the kernel-MAP record.

Every baseline family is an error gain g(e), so a node's adapt step is

    theta <- theta_eval + step * sum_{l in N_k} g(e_l) u_l'

where e_l = d_l - u_l theta_eval. All families consume the full neighbourhood
measurement set so comparisons against the kernel-MAP update are like for
like. The ATC and CTA orderings of that step live in the simulation engine
(`harness`).

Each baseline's `gain` is its formula, written once. The engine evaluates it
on the neighbour pairs (l, k) only, into an (N, N) matrix of node pairs that
holds +0.0 off the neighbourhoods, so a non-finite error reaches no node
outside them.

The kernel-MAP update (`NPDLMS`) ascends a log-posterior built from a
Gaussian-kernel prior over buffered estimates and a pseudo-Huber likelihood on
the neighbourhood prediction errors, gated by a threshold on the neighbourhood
squared error. Its likelihood gain is `bounded_error_gain`, whose magnitude
never exceeds `delta`; `bounded_gain_moments` gives that gain's
Gaussian-expected slope and second moment in closed form, the two numbers the
closed-form theory (`theory`) needs per neighbour error.

`FAMILIES` maps each record's `kind`, the name a config gives it, to its class.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidParameters


@dataclass(frozen=True)
class DLMS:
    """Plain diffusion LMS: g(e) = e."""

    kind: ClassVar[str] = "dlms"

    def gain(self, e):
        return e


@dataclass(frozen=True)
class DSELMS:
    """Diffusion sign-error LMS: g(e) = sign(e)."""

    kind: ClassVar[str] = "dse_lms"

    def gain(self, e):
        return np.sign(e)


@dataclass(frozen=True)
class DMCC:
    """Diffusion maximum-correntropy: g(e) = exp(-e^2 / (2 w^2)) e."""

    kernel_width: float = 2.0
    kind: ClassVar[str] = "dmcc"

    def __post_init__(self):
        if not (math.isfinite(self.kernel_width) and self.kernel_width > 0):
            raise InvalidParameters(f"kernel_width must be finite and > 0, got {self.kernel_width}")

    def gain(self, e):
        w = self.kernel_width
        return np.exp(-(e * e) / (2.0 * w * w)) * e


@dataclass(frozen=True)
class DLMSF:
    """Diffusion LMS/F: g(e) = e^3 / (mix + e^2)."""

    mix: float = 1.0
    kind: ClassVar[str] = "dlms_f"

    def __post_init__(self):
        if not (math.isfinite(self.mix) and self.mix > 0):
            raise InvalidParameters(f"mix must be finite and > 0, got {self.mix}")

    def gain(self, e):
        # e^3 overflows long before the ratio stops being ~e; switch forms. The
        # cube stays `**`, numpy's SIMD power: np.float_power, libm pow and
        # e * e * e each round some inputs differently, and the golden digests
        # pin these bits.
        return np.where(np.abs(e) < 1e100, e**3 / (self.mix + e * e), e)


@dataclass(frozen=True)
class DLLAD:
    """Diffusion least logarithmic absolute difference: g(e) = sign(e)/(1 + a|e|)."""

    scale: float = 1.0
    kind: ClassVar[str] = "dllad"

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidParameters(f"scale must be finite and > 0, got {self.scale}")

    def gain(self, e):
        return np.sign(e) / (1.0 + self.scale * np.abs(e))


@dataclass(frozen=True)
class NPDLMS:
    """Kernel-MAP update: buffer length B, prior and likelihood bandwidths sigma
    and h, pseudo-Huber steepness delta, and the error gate: sigmoid midpoint
    eta, slope, mode."""

    buffer: int = 3
    sigma: float = 1.0
    h: float = 1.0
    delta: float = 0.25
    eta: float = 0.0
    slope: float = 5.0
    mode: str = "smooth"
    kind: ClassVar[str] = "npdlms"

    def __post_init__(self):
        if isinstance(self.buffer, bool) or not isinstance(self.buffer, numbers.Integral) or self.buffer < 1:
            raise InvalidParameters(f"buffer must be an integer >= 1, got {self.buffer!r}")
        for name in ("sigma", "h", "delta", "slope"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameters(f"{name} must be finite and > 0, got {value}")
        if not self.eta >= 0:
            raise InvalidParameters(f"eta must be >= 0, got {self.eta}")
        if self.mode not in ("smooth", "hard"):
            raise InvalidParameters(f"mode must be 'smooth' or 'hard', got {self.mode!r}")


FAMILIES = {cls.kind: cls for cls in (DLMS, DSELMS, DMCC, DLMSF, DLLAD, NPDLMS)}

_ERROR_CLIP = 1e150


def bounded_error_gain(delta, a):
    """d/da of the pseudo-Huber loss: a / sqrt(1 + (a/delta)^2).

    Written as delta * (a / r), with r = sqrt(delta^2 + a^2) formed without
    overflow, so the magnitude never exceeds delta, bit-exactly. a is first
    clipped to +-_ERROR_CLIP, so an infinite error scores like an enormous
    finite one, +-delta, rather than inf / inf = NaN; NaN stays NaN.
    `delta` may be an array that broadcasts against a.
    """
    a = np.maximum(np.minimum(a, _ERROR_CLIP), -_ERROR_CLIP)
    return delta * (a / np.hypot(delta, a))


# Below this c = variance / delta^2 the closed forms in `bounded_gain_moments`
# lose digits to cancellation; their power series in c take over.
# Coefficients, highest power first: E[(1 + c Z^2)^(-3/2)] and
# E[c Z^2 / (1 + c Z^2)] / c for Z ~ N(0, 1).
_SERIES_BELOW = 2e-4
_SLOPE_SERIES = (258.3984375, -32.8125, 5.625, -1.5, 1.0)
_SECOND_SERIES = (945.0, -105.0, 15.0, -3.0, 1.0)


def bounded_gain_moments(variance, delta: float):
    """E[g'(e)] and E[g(e)^2] of the pseudo-Huber gain for e ~ N(0, variance).

    With c = variance / delta^2 and z = 1 / (4c), elementwise:
    E[g'(e)] = E[(1 + c Z^2)^(-3/2)] = 2 z (k1e(z) - k0e(z)) / sqrt(2 pi c), the
    c-derivative form of E[(1 + c Z^2)^(-1/2)] = k0e(z) / sqrt(2 pi c); and
    E[g(e)^2] = delta^2 (1 - E[(1 + c Z^2)^(-1)]) with
    E[(1 + c Z^2)^(-1)] = sqrt(pi / (2c)) exp(1 / (2c)) erfc(1 / sqrt(2c)),
    evaluated in its scaled form.
    The slope is 1 and the second moment 0 at zero variance.
    """
    from scipy import special  # loaded on the first theory call

    c = np.asarray(variance, dtype=float) / (delta * delta)
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 falls to the series
        z = 0.25 / c
        slope = 2.0 * z * (special.k1e(z) - special.k0e(z)) / np.sqrt(2.0 * np.pi * c)
        second = 1.0 - np.sqrt(np.pi / (2.0 * c)) * special.erfcx(np.sqrt(2.0 * z))
    small = c < _SERIES_BELOW
    if small.any():
        slope = np.where(small, np.polyval(_SLOPE_SERIES, c), slope)
        second = np.where(small, c * np.polyval(_SECOND_SERIES, c), second)
    return slope, delta * delta * second
