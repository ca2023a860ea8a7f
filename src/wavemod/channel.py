"""AWGN and static multipath channels with perfect-CSI equalization.

All randomness is drawn from explicitly seeded generators, so identical
(spec, seed) pairs give bit-identical outputs.  apply_multipath, awgn and
equalize take one frame (n,) or a block of frames (..., n) and act on each
row alone;
Monte-Carlo callers give each row its own seed sequence [master, ...,
trial] (see :class:`AwgnSpec`), so no output depends on how trials are
grouped into blocks.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, numerical_errors
from . import metrics, modem
from .modem import (
    FOURIER,
    BasebandFrame,
    OfdmConfig,
    _unprecode,
    ofdm_demodulate,
)

ES_PER_SAMPLE = "es-per-sample"
EB_PER_BIT = "eb-per-bit"


def _check_db(value_db: float, what: str) -> None:
    """Raise ConfigError unless 10 ** (value_db / 10) is a normal float
    (NaN fails; so does a ratio that overflows or underflows)."""
    try:
        ratio = 10.0 ** (value_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:
        raise ConfigError(
            f"{what} of {value_db!r} dB is a power ratio outside the float range"
        )


@dataclass(frozen=True)
class AwgnSpec:
    """Noise level with an explicit SNR interpretation.

    * es-per-sample: snr_db is average signal power per sample over noise
      variance per (complex) sample.
    * eb-per-bit: snr_db is Eb/N0; the per-sample noise variance becomes
      measured_power * samples_per_bit / 10**(snr_db/10).  samples_per_bit
      counts useful body samples only (oversampling / bits_per_symbol for
      the multicarrier chains), so the cyclic-prefix overhead does not
      shift the SNR axis.

    Both measure the signal power of each frame (row) on its own.

    seed is an int or a 1-D integer sequence (a seed sequence such as
    [master, trial]); one generator then draws the noise of the whole
    frame or block, real parts first, exactly as default_rng(seed).  For
    per-row seeds, seed is a :class:`metrics.TrialSeeds` whose grid has
    the block's rows, such as one of ``TrialSeeds.blocks``: row b then
    draws exactly as awgn on that frame alone with
    seed=[*prefix, *index_b, *suffix], from a PCG64 seeded from its four
    seed words.  Every seed is an integer >= 0 and not a bool, or
    ConfigError is raised (2-D seed arrays included).
    """

    snr_db: float
    seed: int = 0
    reference: str = ES_PER_SAMPLE
    samples_per_bit: float = 1.0

    def __post_init__(self):
        if self.reference not in (ES_PER_SAMPLE, EB_PER_BIT):
            raise ConfigError(f"unknown SNR reference {self.reference!r}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError("snr_db must not be NaN or -inf (infinite noise)")
        if self.snr_db != math.inf:
            _check_db(self.snr_db, "snr_db")
        if not self.samples_per_bit > 0:
            raise ConfigError("samples_per_bit must be positive")
        if not isinstance(self.seed, metrics.TrialSeeds):
            # each entry checked as TrialSeeds.grid checks it, without the hash
            for value in self.seed if np.iterable(self.seed) else [self.seed]:
                metrics._entropy_words(value)

    def noise_variance(self, mean_power):
        """Noise variance per sample for a measured mean power (float, or
        an array with one power per frame)."""
        if math.isinf(self.snr_db):
            return 0.0 * mean_power
        ratio = 10.0 ** (self.snr_db / 10.0)
        if self.reference == EB_PER_BIT:
            return mean_power * self.samples_per_bit / ratio
        return mean_power / ratio


def _draw_noise(seed, shape, scale) -> np.ndarray:
    """scale times unit-variance-per-rail complex Gaussian draws, one scale
    per row; see AwgnSpec.seed.  Each seed's PCG64, inside a Generator,
    fills its rows: a 0-d grid's one seed the whole block, a grid of the
    block's rows one row each.  It fills its rows' real rails, then their
    imaginary rails, exactly as standard_normal(rows) + 1j *
    standard_normal(rows) would, through one (2, ...) real buffer whose
    scaled rails are written into the output's parts."""
    seeds = seed
    if not isinstance(seed, metrics.TrialSeeds):  # one seed: a 0-d grid
        seeds = metrics.TrialSeeds.grid(seed if np.iterable(seed) else [seed], ())
    scale = np.asarray(scale)
    noise = np.empty(shape, dtype=complex)
    grid = seeds.words.shape[:-1]
    if grid == ():
        rows, scale = noise[None], scale[None]
    elif grid == shape[:-1]:
        rows, scale = noise.reshape(-1, shape[-1]), scale.reshape(-1)
    else:
        raise ConfigError(f"per-row seeds {grid} do not match frame rows {shape[:-1]}")
    # real and imaginary parts as views (2, rows, ...); each seed's scaled
    # rails are written straight into them
    parts = np.moveaxis(rows.view(float).reshape(rows.shape + (2,)), -1, 0)
    rails = np.empty(parts[:, 0].shape)
    for row, bitgen in enumerate(seeds.bit_generators()):
        rng = np.random.Generator(bitgen)
        rng.standard_normal(out=rails[0])
        rng.standard_normal(out=rails[1])
        np.multiply(rails, scale[row][..., None], out=parts[:, row])
    return noise


def awgn(frame: BasebandFrame, spec: AwgnSpec) -> BasebandFrame:
    """Add circularly symmetric complex Gaussian noise, seeded.

    The noise variance of each frame (row) follows that row's own mean
    power; see :class:`AwgnSpec` for the per-row seed form.  A power or
    noise sum that overflows raises NumericalError.
    """
    samples = np.asarray(frame.samples, dtype=complex)
    if samples.size == 0:
        raise ConfigError("cannot add noise to an empty frame")
    with numerical_errors("awgn"):
        variance = spec.noise_variance(np.mean(np.abs(samples) ** 2, axis=-1))
        if not np.any(variance):
            return BasebandFrame(samples.copy(), frame.sample_rate)
        noisy = _draw_noise(spec.seed, samples.shape, np.sqrt(variance / 2.0))
        noisy += samples
    return BasebandFrame(noisy, frame.sample_rate)


@dataclass
class MultipathSpec:
    """Static tapped-delay-line channel."""

    tap_delays: np.ndarray
    tap_gains: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        self.tap_delays = np.asarray(self.tap_delays, dtype=np.int64)
        self.tap_gains = np.asarray(self.tap_gains, dtype=complex)
        if len(self.tap_delays) != len(self.tap_gains):
            raise ConfigError("tap delay and gain counts differ")
        if len(self.tap_delays) == 0:
            raise ConfigError("channel needs at least one tap")
        if self.tap_delays[0] != 0 or np.any(np.diff(self.tap_delays) < 0):
            raise ConfigError("tap delays must be nondecreasing and start at 0")
        if not np.all(np.isfinite(self.tap_gains)):
            raise ConfigError("tap gains must be finite")
        if self.normalize:
            power = float(np.sum(np.abs(self.tap_gains) ** 2))
            if power == 0.0:
                raise ConfigError("cannot normalize an all-zero tap set")
            self.tap_gains = self.tap_gains / np.sqrt(power)

    @property
    def max_delay(self) -> int:
        return int(self.tap_delays[-1])

    def impulse_response(self) -> np.ndarray:
        ir = np.zeros(self.max_delay + 1, dtype=complex)
        np.add.at(ir, self.tap_delays, self.tap_gains)
        return ir

    @classmethod
    def identity(cls) -> "MultipathSpec":
        return cls(tap_delays=[0], tap_gains=[1.0 + 0.0j], normalize=False)

    @classmethod
    def ten_path(cls, seed: int = 424242, n_taps: int = 10,
                 decay_db_per_tap: float = 3.0) -> "MultipathSpec":
        """Default static fading profile: one tap per sample, exponentially
        decaying power (3 dB per tap), seeded uniform phases, unit power.
        The first and last taps' powers must differ by a ratio a float
        holds (about 3000 dB).  The phases are default_rng(seed).uniform
        draws, through the seed check and hash of metrics.TrialSeeds."""
        if not isinstance(n_taps, numbers.Integral) or isinstance(n_taps, bool) or n_taps < 1:
            raise ConfigError(f"channel needs a whole number of taps >= 1, got {n_taps!r:.60}")
        _check_db(abs(decay_db_per_tap) * (n_taps - 1), "channel power span")
        bitgen, = metrics.TrialSeeds.grid([seed], ()).bit_generators()  # one trial
        phases = np.random.Generator(bitgen).uniform(0.0, 2.0 * np.pi, n_taps)
        delays = np.arange(n_taps)
        amplitude = 10.0 ** (-decay_db_per_tap * delays / 20.0)
        return cls(tap_delays=delays, tap_gains=amplitude * np.exp(1j * phases),
                   normalize=True)

    @classmethod
    def from_file(cls, path, normalize: bool = True) -> "MultipathSpec":
        """Load a profile: one `delay_samples gain_re gain_im` line per tap."""
        delays, gains = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ConfigError(
                        f"bad channel profile line {raw!r} (want 3 fields)"
                    )
                delays.append(int(parts[0]))
                gains.append(float(parts[1]) + 1j * float(parts[2]))
        return cls(tap_delays=delays, tap_gains=gains, normalize=normalize)


# Most bytes of input samples one tile of apply_multipath's tap loop takes
# (at least one row): each tap's product and sum then stay in cache instead
# of streaming the whole block through memory once per tap.  This is 2 rows
# of a 2304-sample ber-fading frame.  In the 16-trial ber-fading study
# (2 vCPUs, one interpreter, 24 rotated rounds) tiles of 1, 4 and 8 such
# rows took 2.2%, 8.1% and 6.1% more CPU than tiles of 2, and the untiled
# 14-row block 7.2% more; on that block apply_multipath took 39-42 us per
# row against 103-124 untiled.
_MULTIPATH_TILE_BYTES = 72 << 10


def apply_multipath(frame: BasebandFrame, spec: MultipathSpec) -> BasebandFrame:
    """Linear convolution with the sparse tap set; output grows by max delay.

    A block (..., n) convolves every row with the same taps, a tile of
    rows under ``_MULTIPATH_TILE_BYTES`` at a time; each row gets the bits
    of a call on that row alone.  An output sample that overflows raises
    NumericalError.
    """
    x = np.atleast_1d(np.asarray(frame.samples, dtype=complex))
    n = x.shape[-1]
    if spec.max_delay >= n:
        raise ConfigError(
            f"max delay {spec.max_delay} >= frame length {n}"
        )
    out = np.zeros(x.shape[:-1] + (n + spec.max_delay,), dtype=complex)
    rows, out_rows = x.reshape(-1, n), out.reshape(-1, out.shape[-1])
    tile = max(1, _MULTIPATH_TILE_BYTES // (n * x.itemsize))
    product = np.empty((min(tile, len(rows)), n), dtype=complex)  # every tap's product
    with numerical_errors("apply_multipath"):
        for start in range(0, len(rows), tile):
            x_tile, out_tile = rows[start:start + tile], out_rows[start:start + tile]
            tile_product = product[:len(x_tile)]
            for delay, gain in zip(spec.tap_delays, spec.tap_gains):
                np.multiply(gain, x_tile, out=tile_product)
                out_tile[:, delay:delay + n] += tile_product
    return BasebandFrame(out, frame.sample_rate)


def check_cyclic_prefix(channel: MultipathSpec, cfg: OfdmConfig) -> None:
    """Raise ConfigError when cfg is a Fourier chain whose cyclic prefix is
    shorter than the channel memory (max_delay samples)."""
    if cfg.transform == FOURIER and cfg.cp_length < channel.max_delay:
        raise ConfigError(
            f"cyclic prefix ({cfg.cp_length} samples) shorter than the "
            f"channel memory ({channel.max_delay} samples)"
        )


_EQUALIZE_EPS = 1e-6  # floor on the channel response |H| (see equalize)


@functools.lru_cache(maxsize=32)
def _zero_forcing_bins(response_bytes: bytes, m: int, n: int, rolloff):
    """(occupied bins, channel response on them) for a Fourier body of m
    bins carrying n subcarriers, built once per impulse response (as
    bytes), m, n and roll-off, and shared read-only.  Raises NumericalError
    when the response falls below _EQUALIZE_EPS on an occupied bin."""
    response = np.fft.fft(np.frombuffer(response_bytes, dtype=complex), n=m)
    occupied = np.nonzero(modem._grid_weights(n, m, rolloff) > 1e-12)[0]
    gains = response[occupied]
    if np.any(np.abs(gains) < _EQUALIZE_EPS):
        raise NumericalError(
            "channel response below eps on an occupied subcarrier"
        )
    occupied.flags.writeable = False
    gains.flags.writeable = False
    return occupied, gains


@functools.lru_cache(maxsize=32)
def _deconvolution_filter(response_bytes: bytes, length: int):
    """(conj(H), |H|**2 + _EQUALIZE_EPS**2) of the length-bin channel
    response H, built once per impulse response (as bytes) and length, and
    shared read-only."""
    response = np.fft.fft(np.frombuffer(response_bytes, dtype=complex),
                          n=length)
    numerator = np.conj(response)
    denominator = np.abs(response) ** 2 + _EQUALIZE_EPS**2
    numerator.flags.writeable = False
    denominator.flags.writeable = False
    return numerator, denominator


def equalize(frame: BasebandFrame, channel: MultipathSpec,
             cfg: OfdmConfig) -> np.ndarray:
    """Perfect-CSI zero-forcing equalization, then demodulation to symbols.

    Fourier chain: the cyclic prefix is stripped, one-tap ZF is applied per
    occupied bin of the body DFT, and the result is fed through the inverse
    precoder.  Raises NumericalError when any occupied bin of the channel
    response falls below _EQUALIZE_EPS, and otherwise ConfigError when the
    cyclic prefix is shorter than the channel memory (max_delay samples).

    Wavelet-packet chain: the whole frame is deconvolved in the frequency
    domain with an _EQUALIZE_EPS**2 Tikhonov floor (the chain has no
    prefix), then demodulated normally.

    A block of frames (..., length) gives a block of symbol rows.  The
    channel's frequency response is computed once per (taps, length) and
    reused by every later block.  Samples whose spectrum or equalized value
    overflows raise NumericalError.
    """
    samples = np.atleast_1d(np.asarray(frame.samples, dtype=complex))
    if samples.shape[-1] < cfg.frame_length:
        raise ConfigError("frame shorter than cyclic prefix plus body")
    response_bytes = channel.impulse_response().tobytes()
    if cfg.transform == FOURIER:
        m = cfg.body_length
        start = cfg.cp_length
        occupied, gains = _zero_forcing_bins(
            response_bytes, m, cfg.n_subcarriers, cfg.tx_rolloff
        )
        check_cyclic_prefix(channel, cfg)
        with numerical_errors("equalize"):
            spectrum = np.fft.fft(samples[..., start:start + m], norm="ortho")
            spectrum[..., occupied] /= gains
            return _unprecode(modem._fourier_bins(spectrum, cfg), cfg)
    # wavelet-packet: regularized full-frame deconvolution
    numerator, denominator = _deconvolution_filter(response_bytes,
                                                   samples.shape[-1])
    with numerical_errors("equalize"):
        spectrum = np.fft.fft(samples)
        spectrum *= numerator
        spectrum /= denominator
        body = np.fft.ifft(spectrum)[..., :cfg.body_length]
    del spectrum  # freed before the demodulator allocates
    return ofdm_demodulate(BasebandFrame(body, frame.sample_rate), cfg)
