"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: configuration/usage problems are exit 4,
numerical failures (degenerate metric, non-finite values, solver breakdown)
are exit 3. Reaching a singularity is not an error and is signalled through
the trace termination reason instead.
"""


class CodimflowError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CodimflowError):
    """Invalid configuration: bad chart spec, malformed scenario file, ..."""


class UsageError(CodimflowError):
    """An operation was called with inconsistent or missing arguments."""


class DegenerateImmersion(CodimflowError):
    """The induced metric dropped below the positive-definiteness floor."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class NonFiniteError(CodimflowError):
    """A field acquired NaN or Inf entries."""


class SolverError(CodimflowError):
    """An iterative linear solve failed to reach the required residual."""
