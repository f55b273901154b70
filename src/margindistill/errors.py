"""Exception types shared across the package."""


class MarginDistillError(Exception):
    """Base class for all package-specific errors."""


class ContractViolation(MarginDistillError, ValueError):
    """An argument violated a documented precondition."""


class DegenerateInput(MarginDistillError, ValueError):
    """Numerically degenerate input (zero norm, zero variance, ...)."""


class CapacityError(MarginDistillError, ValueError):
    """A dataset or batch cannot satisfy the requested sizes."""


class UnknownSampleError(MarginDistillError, KeyError):
    """A sample id was not found in a dataset or an embedding table."""

    def __str__(self) -> str:
        return Exception.__str__(self)      # KeyError's is the repr: the message in quotes


class NoTripletsError(MarginDistillError, ValueError):
    """Mining produced no valid triplets (fewer than two identities in the batch)."""


class DivergenceError(MarginDistillError, RuntimeError):
    """Training reached a non-finite loss (a learning rate too large, for one)."""


class InsufficientData(MarginDistillError, ValueError):
    """Too few elements to compute the requested statistic."""


class FormatError(MarginDistillError, ValueError):
    """A file did not match its declared binary or text format."""
