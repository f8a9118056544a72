"""Parameters of the kernel-density MAP update for diffusion networks (NPDLMS).

The update ascends a log-posterior built from a Gaussian-kernel prior over
buffered estimates and a pseudo-Huber likelihood on the neighbourhood
prediction errors, gated by a threshold on the neighbourhood squared error.
`NPDLMS` holds all of its parameters: the buffer length, the prior and
likelihood bandwidths, the pseudo-Huber steepness and the gate.
`bounded_error_gain` is the pseudo-Huber derivative that the simulation engine
(`harness`) applies to every neighbourhood error; its magnitude never exceeds
`delta`, and `theory.gain_moments` gives its Gaussian-expected slope and
second moment in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters


@dataclass(frozen=True)
class NPDLMS:
    """Buffer length B, prior and likelihood bandwidths sigma and h, pseudo-Huber
    steepness delta, and the error gate: sigmoid midpoint eta, slope, mode."""

    buffer: int = 3
    sigma: float = 1.0
    h: float = 1.0
    delta: float = 0.25
    eta: float = 0.0
    slope: float = 5.0
    mode: str = "smooth"
    kind = "npdlms"

    def __post_init__(self):
        if self.buffer < 1:
            raise InvalidParameters(f"buffer must be >= 1, got {self.buffer}")
        for name in ("sigma", "h", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameters(f"{name} must be finite and > 0, got {value}")
        if not self.eta >= 0:
            raise InvalidParameters(f"eta must be >= 0, got {self.eta}")
        if not self.slope > 0:
            raise InvalidParameters(f"slope must be > 0, got {self.slope}")
        if self.mode not in ("smooth", "hard"):
            raise InvalidParameters(f"mode must be 'smooth' or 'hard', got {self.mode!r}")


def bounded_error_gain(delta: float, a):
    """d/da of the pseudo-Huber loss: a / sqrt(1 + (a/delta)^2).

    Written as delta * (a / hypot(delta, a)) so the magnitude never exceeds
    delta, bit-exactly, even for enormous errors.
    """
    a = np.asarray(a, dtype=float)
    return delta * (a / np.hypot(delta, a))
