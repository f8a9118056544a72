"""Baseline robust update families and their error gains.

Every baseline family is an error gain g(e), so a node's adapt step is

    theta <- theta_eval + step * sum_{l in N_k} g(e_l) u_l'

where e_l = d_l - u_l theta_eval. All families consume the full neighbourhood
measurement set so comparisons against the kernel-MAP update are like for
like. The ATC and CTA orderings of that step live in the simulation engine
(`harness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidParameters


@dataclass(frozen=True)
class DLMS:
    """Plain diffusion LMS: g(e) = e."""

    kind: ClassVar[str] = "dlms"


@dataclass(frozen=True)
class DSELMS:
    """Diffusion sign-error LMS: g(e) = sign(e)."""

    kind: ClassVar[str] = "dse_lms"


@dataclass(frozen=True)
class DMCC:
    """Diffusion maximum-correntropy: g(e) = exp(-e^2 / (2 w^2)) e."""

    kernel_width: float = 2.0
    kind: ClassVar[str] = "dmcc"

    def __post_init__(self):
        if not self.kernel_width > 0:
            raise InvalidParameters(f"kernel_width must be > 0, got {self.kernel_width}")


@dataclass(frozen=True)
class DLMSF:
    """Diffusion LMS/F: g(e) = e^3 / (mix + e^2)."""

    mix: float = 1.0
    kind: ClassVar[str] = "dlms_f"

    def __post_init__(self):
        if not self.mix > 0:
            raise InvalidParameters(f"mix must be > 0, got {self.mix}")


@dataclass(frozen=True)
class DLLAD:
    """Diffusion least logarithmic absolute difference: g(e) = sign(e)/(1 + a|e|)."""

    scale: float = 1.0
    kind: ClassVar[str] = "dllad"

    def __post_init__(self):
        if not self.scale > 0:
            raise InvalidParameters(f"scale must be > 0, got {self.scale}")


BaselineKind = DLMS | DSELMS | DMCC | DLMSF | DLLAD


def error_gain(kind: BaselineKind, e):
    """The scalar ascent gain g(e) of a baseline family (vectorized over e)."""
    e = np.asarray(e, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        if isinstance(kind, DLMS):
            out = e
        elif isinstance(kind, DSELMS):
            out = np.sign(e)
        elif isinstance(kind, DMCC):
            w = kind.kernel_width
            out = np.exp(-(e * e) / (2.0 * w * w)) * e
        elif isinstance(kind, DLMSF):
            # e^3 overflows long before the ratio stops being ~e; switch forms.
            out = np.where(np.abs(e) < 1e100, e**3 / (kind.mix + e * e), e)
        elif isinstance(kind, DLLAD):
            out = np.sign(e) / (1.0 + kind.scale * np.abs(e))
        else:
            raise InvalidParameters(f"unknown baseline kind {kind!r}")
    return out
