"""Exception types shared across deqlab. Each class's `exit_code` is the
process exit code the CLI ends with on it, as in click's ClickException."""


class DeqlabError(Exception):
    """Base class for all deqlab errors."""
    exit_code = 1


class InputError(DeqlabError, ValueError):
    """Malformed or out-of-contract input (shapes, ranges, non-finite entries)."""
    exit_code = 2


class DegenerateInputError(InputError):
    """Input is structurally degenerate (e.g. linearly dependent vectors)."""


class ConfigError(DeqlabError, ValueError):
    """Experiment configuration is invalid or references missing files."""
    exit_code = 2


class ConvergenceError(DeqlabError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""
    exit_code = 3

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class WellPosednessError(DeqlabError, RuntimeError):
    """The layer map is not a contraction (spectral norm of W is >= 1)."""
    exit_code = 4


class AssumptionError(DeqlabError, ValueError):
    """A dataset or initialization assumption required by the theory fails."""
    exit_code = 4


class TrainingAssertionError(DeqlabError, RuntimeError):
    """A verification check failed: `deqlab grad-check` found a gradient
    off its reference constructions."""
    exit_code = 5
