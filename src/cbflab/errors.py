"""Exception types shared across the package, and the scope of the range rule."""

from contextlib import contextmanager

import numpy as np


class CBFError(Exception):
    """Base class for all package errors."""


class GridMismatchError(CBFError):
    """Operands live on different grids."""


class MeanViolationError(CBFError):
    """A raw coefficient array carries a nonzero mean mode."""


class ValidationError(CBFError):
    """Invalid parameters or configuration.

    ``violations`` collects every individual problem so callers can report
    all of them at once instead of failing on the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@contextmanager
def value_range(*paths):
    """Raise each floating-point overflow, invalid operation or zero divisor in the
    block, numpy's or Python's, as one ValidationError naming the config ``paths``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"{', '.join(paths)}: out of the range cbflab computes with ({exc.args[-1]})"
        ) from exc


class CFLViolationError(CBFError):
    """Requested step size exceeds the advective stability guard."""


class BlowUpError(CBFError):
    """Solution norm exceeded the blow-up guard or became non-finite."""

    def __init__(self, message, t=None, h_norm=None):
        super().__init__(message)
        self.t = t
        self.h_norm = h_norm


class NonConvergenceError(CBFError):
    """An iterative procedure hit its budget without converging."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log
