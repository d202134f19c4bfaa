"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes: configuration/schema problems,
numeric failures (non-convergence, truncation leak, invalid states), and I/O.
"""


class NonMarkovError(Exception):
    """Base class for all package errors."""


class ConfigError(NonMarkovError):
    """Invalid parameters, unsupported variants, or malformed configuration."""


class DataFormatError(ConfigError):
    """A dataset or model file does not match its schema/version."""


class NumericError(NonMarkovError):
    """A numerical procedure failed in a detectable way."""


class StateValidationError(NumericError):
    """A density matrix violated Hermiticity, unit trace, or positivity."""


class TruncationLeakError(NumericError):
    """Population reached the top pseudomode Fock level.  Raised at each rung
    of FOCK_LADDER that leaks; only the last rung's error escapes."""

