"""Exception types shared across the package, and the one rule that maps numpy's
non-convergence onto them."""

import functools

import numpy as np


class ProddecompError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(ProddecompError):
    """Operands disagree about dimensions or factor structure."""


class DegenerateInput(ProddecompError):
    """Structurally valid input that is numerically degenerate (zero vector, non-PSD, ...)."""


class HypothesisViolation(ProddecompError):
    """A decomposition fails one of the uniqueness hypotheses (collinearity, independence, factorability)."""


class OperatorMismatch(ProddecompError):
    """Two inputs that must describe the same operator or global vector do not."""


class NotExtractable(ProddecompError):
    """No weighted product decomposition could be recovered under the stated hypotheses."""


class FileError(ProddecompError):
    """A data file is missing, malformed, or violates its schema."""


def _nonconvergence(what: str):
    """Decorator: a ``LinAlgError`` raised inside the function becomes DegenerateInput,
    "<what> did not converge (...)", with the ``LinAlgError`` as its cause."""

    def wrap(func):
        @functools.wraps(func)
        def mapped(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            except np.linalg.LinAlgError as exc:
                raise DegenerateInput(f"{what} did not converge ({exc})") from exc

        return mapped

    return wrap
