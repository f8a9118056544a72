"""Baseline robust update families and their error gains.

Every baseline family is an error gain g(e), so a node's adapt step is

    theta <- theta_eval + step * sum_{l in N_k} g(e_l) u_l'

where e_l = d_l - u_l theta_eval. All families consume the full neighbourhood
measurement set so comparisons against the kernel-MAP update are like for
like. The ATC and CTA orderings of that step live in the simulation engine
(`harness`).

Each family's `gain` is its formula, written once and called by `error_gain`
and by the engine alike. The engine evaluates it on the neighbour pairs (l, k)
only, into an (N, N) matrix of node pairs that holds +0.0 off the
neighbourhoods, so a non-finite error reaches no node outside them.
"""

from __future__ import annotations

import math
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


BaselineKind = DLMS | DSELMS | DMCC | DLMSF | DLLAD


def error_gain(kind: BaselineKind, e):
    """The scalar ascent gain g(e) of a baseline family (vectorized over e)."""
    if not isinstance(kind, BaselineKind):
        raise InvalidParameters(f"unknown baseline kind {kind!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        return kind.gain(np.asarray(e, dtype=float))
