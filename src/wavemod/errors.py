"""Exception types raised by the library, and the two helpers that turn
numpy's failures into them (:func:`_numbers` for inputs that are not
numbers, :func:`numerical_errors` for floating-point failures).

Every operational error is a WavemodError, so callers can catch the
library's failures with a single except clause.  There are two kinds: a
ConfigError is an invalid input, configuration or precondition, a
NumericalError a computation that failed or produced unusable values.  The
CLI maps them to exit codes 2 and 3 respectively.  The message names the
check that fired.
"""

import contextlib

import numpy as np


class WavemodError(Exception):
    """Base class for all library errors."""


class ConfigError(WavemodError):
    """Invalid configuration or precondition violation."""


class NumericalError(WavemodError):
    """Computation failed or produced unusable values."""


def _numbers(values, what: str, dtype=None) -> np.ndarray:
    """values as an array of numbers (bool, integer, float or complex),
    converted to dtype when one is given; ConfigError when they are not
    numbers of one rectangular shape, or complex where dtype is real."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an array of numbers") from None
    kind = array.dtype.kind
    if kind not in "biufc":
        raise ConfigError(f"{what} must be an array of numbers")
    if kind == "c" and dtype is not None and np.dtype(dtype).kind != "c":
        raise ConfigError(f"{what} must be real numbers")
    return array if dtype is None else array.astype(dtype, copy=False)


@contextlib.contextmanager
def numerical_errors(what: str):
    """Run the block with numpy's overflow, invalid and divide warnings
    raised, and re-raise such a failure as NumericalError naming what."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what}: {exc}") from None
