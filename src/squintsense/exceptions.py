"""Exception hierarchy shared across the package."""


class SquintSenseError(Exception):
    """Base class for all package errors."""


class ConfigError(SquintSenseError):
    """Invalid configuration value or configuration-file syntax."""


class InfeasibleError(SquintSenseError):
    """A power allocation problem has no feasible solution."""

    def __init__(self, message, last_threshold=None):
        super().__init__(message)
        self.last_threshold = last_threshold
