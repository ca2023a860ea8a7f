"""Exception types raised by the library.

Every operational error derives from WavemodError so callers can catch the
library's failures with a single except clause.  Configuration problems
derive from ConfigError, runtime numerical problems from NumericalError;
the CLI maps those to exit codes 2 and 3 respectively.
"""

import contextlib

import numpy as np


class WavemodError(Exception):
    """Base class for all library errors."""


class ConfigError(WavemodError):
    """Invalid configuration or precondition violation."""


class NumericalError(WavemodError):
    """Computation failed or produced unusable values."""


# --- filter bank / transforms ------------------------------------------------

class UnsupportedFamily(ConfigError):
    """Unknown wavelet family or unsupported order."""


class OddLength(ConfigError):
    """Signal length must be even for a decimating analysis step."""


class LengthMismatch(ConfigError):
    """Paired arrays must have equal length."""


class BadLength(ConfigError):
    """Signal is empty, or its length is not divisible by 2**levels."""


# --- wavelet design -----------------------------------------------------------

class SpanTooSmall(ConfigError):
    """Requested time grid does not cover the waveform support."""


class NotConverged(NumericalError):
    """Derived quantity failed its normalization check."""


class EmptySpectrum(ConfigError):
    """Spectrum has no samples."""


class UndersampledMother(ConfigError):
    """Mother wavelet is sampled too coarsely for the requested compression."""


# --- modem --------------------------------------------------------------------

class BitCountMismatch(ConfigError):
    """Bit count is not a multiple of bits per symbol."""


class ConfigInvariantViolated(ConfigError):
    """A transmitter configuration invariant does not hold."""


class PeriodTooShort(ConfigError):
    """Symbol period shorter than the pulse support."""


class StreamPulseCountMismatch(ConfigError):
    """Number of symbol streams differs from number of shaping pulses."""


# --- channel ------------------------------------------------------------------

class EmptyFrame(ConfigError):
    """Frame contains no samples."""


class DelayExceedsFrame(ConfigError):
    """Multipath delay reaches past the end of the frame."""


class SingularChannel(NumericalError):
    """Channel frequency response too small for zero-forcing inversion."""


# --- metrics ------------------------------------------------------------------

class ZeroEnergy(ConfigError):
    """Frame has zero energy, PAPR undefined."""


class ZeroReferenceSymbol(ConfigError):
    """EVM reference symbols must be nonzero."""


class FrameTooShort(ConfigError):
    """Frame shorter than the PSD segment length."""


class ZeroBandwidth(NumericalError):
    """Measured bandwidth is zero, spectral efficiency undefined."""


@contextlib.contextmanager
def numerical_errors(what: str):
    """Run the block with numpy's overflow, invalid and divide warnings
    raised, and re-raise such a failure as NumericalError naming what."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what}: {exc}") from None
