"""Exception types raised by the library.

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


@contextlib.contextmanager
def numerical_errors(what: str):
    """Run the block with numpy's overflow, invalid and divide warnings
    raised, and re-raise such a failure as NumericalError naming what."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what}: {exc}") from None
