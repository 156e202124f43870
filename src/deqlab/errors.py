"""Exception types shared across deqlab.

The CLI maps these onto distinct process exit codes (see deqlab.cli).
"""


class DeqlabError(Exception):
    """Base class for all deqlab errors."""


class InputError(DeqlabError, ValueError):
    """Malformed or out-of-contract input (shapes, ranges, non-finite entries)."""


class DegenerateInputError(InputError):
    """Input is structurally degenerate (e.g. linearly dependent vectors)."""


class ConfigError(DeqlabError, ValueError):
    """Experiment configuration is invalid or references missing files."""


class ConvergenceError(DeqlabError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class WellPosednessError(DeqlabError, RuntimeError):
    """The layer map is not a contraction (spectral norm of W is >= 1)."""


class AssumptionError(DeqlabError, ValueError):
    """A dataset or initialization assumption required by the theory fails."""


class TrainingAssertionError(DeqlabError, RuntimeError):
    """A verification check failed: `deqlab grad-check` found a gradient
    off its reference constructions."""
