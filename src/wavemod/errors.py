"""Exception types raised by the library, and the helpers that turn
numpy's failures into them (:func:`_numbers` and :func:`_samples` for bad
inputs, :func:`numerical_errors` for floating-point failures).

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


def _samples(values, what: str = "frame samples", finite: bool = True) -> np.ndarray:
    """values as the complex (n,) frame or (..., n) block a chain stage
    reads, n >= 1; ConfigError when they are not such numbers or, unless
    finite is False, when one is NaN or infinite."""
    array = _numbers(values, what, complex)
    if array.ndim == 0 or array.shape[-1] == 0:
        raise ConfigError(f"{what} need at least one axis and one sample a row")
    if finite:
        # the float view scans twice as fast; it needs a contiguous last axis
        parts = array.view(float) if array.strides[-1] == array.itemsize else array
        if not np.isfinite(parts).all():
            raise ConfigError(f"{what} must be finite, not NaN or infinite")
    return array


@contextlib.contextmanager
def numerical_errors(what: str):
    """Run the block with numpy's overflow, invalid and divide warnings
    raised, and re-raise such a failure as NumericalError naming what."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what}: {exc}") from None
