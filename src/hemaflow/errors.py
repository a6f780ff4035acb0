"""Exception types shared across the package."""


class HemaflowError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HemaflowError, ValueError):
    """A model, grid, or run configuration is invalid; ``key``, if given,
    names the refusing constructor's argument at fault."""

    def __init__(self, message, *, key=None):
        super().__init__(message)
        self.key = key


class DomainError(HemaflowError, ValueError):
    """An argument lies outside the domain of an operation."""


class ConvergenceError(HemaflowError, RuntimeError):
    """An iteration failed to converge within its budget."""

    def __init__(self, message, *, window_index=None, last_delta=None):
        super().__init__(message)
        self.window_index = window_index
        self.last_delta = last_delta


class HistoryWindowError(HemaflowError, RuntimeError):
    """A field lookup fell outside the stored time window.

    Usually indicates a grid or ring-capacity misconfiguration.
    """


class PreconditionError(HemaflowError, RuntimeError):
    """An experiment's hypothesis does not hold for the supplied inputs."""
