"""Exception hierarchy shared across the library."""


class DiffnetError(Exception):
    """Base class for all diffnet errors."""


class DisconnectedGraph(DiffnetError):
    """The communication graph is not a single connected component."""


class IndexOutOfRange(DiffnetError):
    """A node index falls outside 1..N."""


class NonPositiveSignalPower(DiffnetError):
    """SNR conversion requested for a model with no output power."""


class InvalidParameters(DiffnetError):
    """A parameter violates its documented range."""


class DimensionMismatch(DiffnetError):
    """Vector or matrix shapes are inconsistent."""


class NoConvergence(DiffnetError):
    """The steady-state fixed point did not settle within its cap on Stein solves."""


class UnstableSystem(DiffnetError):
    """The mean transition matrix has spectral radius >= 1."""


class ConfigError(DiffnetError):
    """An experiment configuration failed validation."""


class PartialFailure(DiffnetError):
    """One or more Monte-Carlo realizations raised; carries the failed indices."""

    def __init__(self, failures):
        self.failures = list(failures)
        indices = ", ".join(str(i) for i, _ in self.failures)
        super().__init__(f"realizations failed: [{indices}]")
