"""Exception hierarchy shared across the package.

Three branches map onto distinct CLI exit codes: configuration problems,
bad or missing input data, and failures arising during computation.
"""


class ResfaultError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(ResfaultError):
    """Invalid configuration value or file."""

    exit_code = 2


class DataError(ResfaultError):
    """Missing, malformed, or insufficient input data."""

    exit_code = 3


class ComputeError(ResfaultError):
    """A computation could not be carried out on otherwise valid inputs."""

    exit_code = 4
