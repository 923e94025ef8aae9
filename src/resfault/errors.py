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


class ConfigInvalid(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class UnitTooShort(DataError):
    pass


class InsufficientData(DataError):
    pass


class EmptyFleet(DataError):
    pass


class MissingColumn(DataError):
    pass


class NonNumericCell(DataError):
    pass


class RaggedRow(DataError):
    pass


class EmptyFile(DataError):
    pass


class NonPositiveAltitude(DataError):
    pass


class VersionMismatch(DataError):
    pass


class CorruptCheckpoint(DataError):
    pass


class ShapeMismatch(ComputeError):
    pass


class SingleCluster(ComputeError):
    pass


class NonFiniteLoss(ComputeError):
    pass
