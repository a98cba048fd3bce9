"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, and nothing else but OSError (exit 2):
ConfigError -> 2, IncompatibilityError -> 3, NumericFailure -> 4. Any
other exception, a bare ValueError included, is a bug and shows its
traceback (exit 1). A fit that raises a NumericFailure inside ``explain``
or ``align`` is recorded as a failed cell instead; ``evaluate`` leaves
failed cells out and exits 4 only when no cell is left.
"""


class ConfigError(ValueError):
    """Invalid configuration value or file."""


class IncompatibilityError(ValueError):
    """Two artifacts that must match (shapes, dataset hashes) do not."""


class NumericFailure(ArithmeticError):
    """A numeric procedure failed (singular system, divergence, ...)."""


class SingularSystemError(NumericFailure):
    """A fit's penalized normal matrix is singular: the penalty is lost in rounding."""


class NonFiniteFitError(NumericFailure):
    """A surrogate fit's coefficients or intercept are not finite."""


class DegenerateSampleError(NumericFailure):
    """A statistic is undefined for the given sample (e.g. zero variance)."""


class DivergenceError(NumericFailure):
    """Training produced a non-finite loss."""


class ZeroVectorError(NumericFailure):
    """Cosine similarity requested for an all-zero vector."""
