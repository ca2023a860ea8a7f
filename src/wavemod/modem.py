"""Symbol mapping and multicarrier / single-carrier transmit chains.

Supported chains, all built from unitary blocks so that noiseless
modulate/demodulate roundtrips are exact:

* Fourier multicarrier: optional precoder (size-N unitary DFT, a J-level
  pruned DWT, or the full wavelet-packet analysis), unitary inverse DFT,
  oversampling by zero padding the spectrum or by an optional square-root
  raised-cosine bin weighting (tx_rolloff), cyclic prefix as a prepended
  copy of the frame tail.  A DFT precoder turns the chain into the usual
  single-carrier uplink arrangement; the full-tree wavelet precoder plays
  the same role for the wavelet-packet chain (the synthesis inverts it).
  On the chain's own pair and depth the two cancel when that pair is
  orthogonal, so with a shipped pair (taps equal to make_filter's) the
  chain skips both and sends the symbols themselves, oversampled.
* Wavelet-packet multicarrier: optional precoder, inverse wavelet-packet
  transform (2**J = N subcarriers in natural tree order), oversampling by
  polyphase interpolation with an os-th-band windowed sinc (default) or by
  spectral zero padding; no cyclic prefix (the packet waveforms overlap).
* Wavelet shift keying: antipodal mother-wavelet pulses with matched-filter
  detection.
* Dyadic pulse shaping: parallel streams on a mother wavelet and its
  compressed dyadics, stream m signalling at rate 2**m per symbol period.

Gray mappings are fixed bit-exactly (see README): bit 0 maps to the
positive rail, the in-phase rail carries the first bit(s).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BitCountMismatch,
    ConfigError,
    ConfigInvariantViolated,
    LengthMismatch,
    PeriodTooShort,
    StreamPulseCountMismatch,
    UnsupportedFamily,
)
from .filterbank import (
    DWT_PRUNED,
    WPT_FULL,
    SubbandSet,
    WaveletFilterPair,
    dwt,
    idwt,
    iwpt,
    make_filter,
    wpt,
)
from .waveletdesign import SampledWaveform

FOURIER = "fourier"
WAVELET_PACKET = "wavelet-packet"

PRECODER_NONE = "none"
PRECODER_DFT = "dft"
PRECODER_DWT = "dwt"
PRECODER_WPT = "wpt"

INTERP_FIR = "fir"
INTERP_FFT = "fft"


# --- constellations -----------------------------------------------------------

@dataclass(frozen=True)
class ConstellationSpec:
    """Unit-average-energy Gray-mapped constellation."""

    kind: str
    bits_per_symbol: int
    alphabet: np.ndarray = field(repr=False)


def _build_constellations():
    # BPSK: bit 0 -> +1, bit 1 -> -1
    bpsk = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    # Per-rail Gray map for one bit: 0 -> +1, 1 -> -1 (scaled 1/sqrt(2))
    rail1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    qpsk = np.empty(4, dtype=complex)
    for word in range(4):
        qpsk[word] = rail1[(word >> 1) & 1] + 1j * rail1[word & 1]
    # Per-rail Gray map for two bits, sign bit first (0 -> positive, as in
    # BPSK/QPSK): 00 -> +3, 01 -> +1, 11 -> -1, 10 -> -3
    rail2 = {0b00: 3.0, 0b01: 1.0, 0b11: -1.0, 0b10: -3.0}
    qam16 = np.empty(16, dtype=complex)
    for word in range(16):
        i_bits = (word >> 2) & 0b11
        q_bits = word & 0b11
        qam16[word] = (rail2[i_bits] + 1j * rail2[q_bits]) / np.sqrt(10.0)
    return {
        "bpsk": ConstellationSpec("bpsk", 1, bpsk),
        "qpsk": ConstellationSpec("qpsk", 2, qpsk),
        "qam16": ConstellationSpec("qam16", 4, qam16),
    }


_CONSTELLATIONS = _build_constellations()


def constellation(kind: str) -> ConstellationSpec:
    """Look up a constellation by name: bpsk, qpsk or qam16."""
    try:
        return _CONSTELLATIONS[kind.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown constellation {kind!r}") from None


def map_bits(bits, spec: ConstellationSpec) -> np.ndarray:
    """Map a 0/1 array to unit-average-energy Gray constellation symbols.

    Maps the last axis: (..., n_bits) bits give (..., n_bits / k) symbols.
    """
    bits = np.atleast_1d(np.asarray(bits)).astype(np.int64, copy=False)
    k = spec.bits_per_symbol
    if bits.shape[-1] % k != 0:
        raise BitCountMismatch(f"{bits.shape[-1]} bits not divisible by {k}")
    words = bits.reshape(bits.shape[:-1] + (-1, k))
    index = np.zeros(words.shape[:-1], dtype=np.int64)
    for b in range(k):
        index = (index << 1) | words[..., b]
    return spec.alphabet[index]


def demap_symbols(symbols, spec: ConstellationSpec) -> np.ndarray:
    """Hard-decision minimum-distance demapping back to bits.

    Demaps the last axis: (..., n) symbols give (..., n * k) bits.  Each
    symbol takes the first alphabet point at its least distance, as argmin
    over the (..., n, alphabet) distances would, one alphabet point at a
    time.
    """
    symbols = np.atleast_1d(np.asarray(symbols, dtype=complex))
    alphabet = spec.alphabet
    diff = symbols - alphabet[0]
    best = np.abs(diff)
    index = np.zeros(symbols.shape, dtype=np.intp)
    dist = np.empty_like(best)
    closer = np.empty(best.shape, dtype=bool)
    for point in range(1, len(alphabet)):
        np.subtract(symbols, alphabet[point], out=diff)
        np.abs(diff, out=dist)
        np.less(dist, best, out=closer)
        np.copyto(index, point, where=closer)
        np.copyto(best, dist, where=closer)
    k = spec.bits_per_symbol
    bits = np.empty(index.shape + (k,), dtype=np.int64)
    for b in range(k):
        bits[..., b] = (index >> (k - 1 - b)) & 1
    return bits.reshape(symbols.shape[:-1] + (-1,))


# --- transmitter configuration --------------------------------------------------

@dataclass(frozen=True)
class OfdmConfig:
    """Full description of one multicarrier transmitter."""

    n_subcarriers: int
    transform: str = FOURIER
    pair: WaveletFilterPair | None = None
    levels: int | None = None
    oversampling: int = 1
    cp_fraction: float = 0.0
    precoder: str = PRECODER_NONE
    precoder_pair: WaveletFilterPair | None = None
    precoder_levels: int | None = None
    wpm_interp: str = INTERP_FIR
    tx_rolloff: float | None = None

    def __post_init__(self):
        n = self.n_subcarriers
        if not isinstance(n, numbers.Integral) or n < 2 or (n & (n - 1)) != 0:
            raise ConfigInvariantViolated(
                f"subcarrier count {n!r} is not an integer power of two"
            )
        if self.transform not in (FOURIER, WAVELET_PACKET):
            raise ConfigInvariantViolated(f"unknown transform {self.transform!r}")
        if self.oversampling < 1 or int(self.oversampling) != self.oversampling:
            raise ConfigInvariantViolated("oversampling must be a positive integer")
        if not 0.0 <= self.cp_fraction < 1.0:
            raise ConfigInvariantViolated("cp_fraction must be in [0, 1)")
        if self.transform == WAVELET_PACKET:
            if self.pair is None:
                raise ConfigInvariantViolated("wavelet-packet transform needs a filter pair")
            if self.cp_fraction != 0.0:
                raise ConfigInvariantViolated(
                    "wavelet-packet chains carry no cyclic prefix"
                )
            levels = self.levels
            if levels is None or 2**levels != n:
                raise ConfigInvariantViolated(
                    f"wavelet-packet needs 2**levels == {n}"
                )
            if self.wpm_interp not in (INTERP_FIR, INTERP_FFT):
                raise ConfigInvariantViolated(
                    f"unknown interpolation {self.wpm_interp!r}"
                )
        if self.tx_rolloff is not None:
            if self.transform != FOURIER:
                raise ConfigInvariantViolated(
                    "transmit roll-off shaping applies to the Fourier chain only"
                )
            if not 0.0 <= self.tx_rolloff <= 1.0:
                raise ConfigInvariantViolated("tx_rolloff must lie in [0, 1]")
            if self.oversampling < 1.0 + self.tx_rolloff:
                raise ConfigInvariantViolated(
                    "oversampling must cover the excess band (>= 1 + rolloff)"
                )
        if self.precoder not in (PRECODER_NONE, PRECODER_DFT, PRECODER_DWT,
                                 PRECODER_WPT):
            raise ConfigInvariantViolated(f"unknown precoder {self.precoder!r}")
        if self.precoder in (PRECODER_DWT, PRECODER_WPT):
            if self.effective_precoder_pair is None:
                raise ConfigInvariantViolated(
                    "wavelet precoders need a filter pair"
                )
            j = self.effective_precoder_levels
            if j is None or n % (2**j) != 0:
                raise ConfigInvariantViolated(
                    f"wavelet precoder depth {j} incompatible with {n} subcarriers"
                )

    @property
    def effective_precoder_pair(self) -> WaveletFilterPair | None:
        return self.precoder_pair if self.precoder_pair is not None else self.pair

    @property
    def effective_precoder_levels(self) -> int | None:
        if self.precoder_levels is not None:
            return self.precoder_levels
        if self.levels is not None:
            return self.levels
        return int(np.log2(self.n_subcarriers))

    @property
    def body_length(self) -> int:
        return self.n_subcarriers * self.oversampling

    @property
    def cp_length(self) -> int:
        return int(round(self.body_length * self.cp_fraction))

    @property
    def frame_length(self) -> int:
        return self.body_length + self.cp_length


@dataclass
class BasebandFrame:
    """Complex baseband samples with their rate and originating config.

    samples is (n,) for one frame or (..., n) for a block of frames of
    equal length; every chain function acts on the last axis.
    """

    samples: np.ndarray
    sample_rate: float
    meta: OfdmConfig | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ConfigError("frame contains non-finite samples")


# --- oversampling helpers -------------------------------------------------------

def _spectral_place(spec: np.ndarray, m: int) -> np.ndarray:
    """(..., n) DFT bins -> (..., m) grid: the n // 2 lowest positive and
    negative frequencies keep their places, the bins between are zero."""
    n = spec.shape[-1]
    grid = np.zeros(spec.shape[:-1] + (m,), dtype=complex)
    grid[..., : n // 2] = spec[..., : n // 2]
    grid[..., m - n // 2:] = spec[..., n // 2:]
    return grid


def _spectral_select(spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_spectral_place`: the n bins of a (..., m) grid."""
    m = spec.shape[-1]
    return np.concatenate([spec[..., : n // 2], spec[..., m - n // 2:]], axis=-1)


def _spectral_zero_pad(x: np.ndarray, os: int) -> np.ndarray:
    """Unitary oversampling: zero padding in the frequency domain."""
    if os == 1:
        return x.copy()
    spec = np.fft.fft(x, norm="ortho")
    return np.fft.ifft(_spectral_place(spec, x.shape[-1] * os), norm="ortho")


def _spectral_decimate(y: np.ndarray, os: int, n: int) -> np.ndarray:
    if os == 1:
        return y.copy()
    spec = np.fft.fft(y, norm="ortho")
    return np.fft.ifft(_spectral_select(spec, n), norm="ortho")


def interpolation_filter(os: int, half_width: int = 32) -> np.ndarray:
    """Windowed-sinc interpolation filter with the os-th-band property.

    The center sits on a multiple of os, so the taps vanish at every other
    multiple of os and decimating the interpolated stream at the right
    phase returns the original samples exactly.
    """
    center = os * int(np.ceil(half_width / os))
    k = np.arange(2 * center + 1)
    window = 0.5 + 0.5 * np.cos(np.pi * (k - center) / (center + 1))
    return np.sinc((k - center) / os) * window


def _rescale(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Scale each row of y, in place, to the l2 norm of the same row of x
    (silent rows of y stay) and return y, which must be an array the
    caller allocated.  Every block size uses the same row-wise norm: the
    1-D np.linalg.norm call sums in another order than axis=-1."""
    target = np.linalg.norm(x, axis=-1)
    norm_y = np.linalg.norm(y, axis=-1)
    silent = norm_y == 0.0
    gain = target / np.where(silent, 1.0, norm_y)
    np.multiply(y, gain[..., None], out=y, where=~silent[..., None])
    return y


@functools.lru_cache(maxsize=32)
def _fir_kernel_spectrum(m: int, os: int) -> np.ndarray:
    """DFT of the zero-phase interpolation filter wrapped onto m samples;
    built once per (m, os) and shared read-only."""
    taps = interpolation_filter(os)
    center = (len(taps) - 1) // 2
    kernel = np.zeros(m, dtype=complex)
    np.add.at(kernel, (np.arange(len(taps)) - center) % m, taps)
    spectrum = np.fft.fft(kernel)
    spectrum.flags.writeable = False
    return spectrum


def _fir_interpolate(x: np.ndarray, os: int) -> np.ndarray:
    """Polyphase interpolation, circular, rescaled to preserve energy."""
    if os == 1:
        return x.copy()
    # a zero-stuffed row's spectrum is its own spectrum tiled os times:
    # (..., 1, n) rows times the (os, n) kernel, with no tiled copy
    n = x.shape[-1]
    kernel = _fir_kernel_spectrum(n * os, os).reshape(os, n)
    spectrum = np.fft.fft(x)[..., None, :] * kernel
    y = np.fft.ifft(spectrum.reshape(x.shape[:-1] + (n * os,)))
    del spectrum  # freed before the rescale allocates
    return _rescale(y, x)


def _fir_decimate(y: np.ndarray, os: int) -> np.ndarray:
    """Inverse of :func:`_fir_interpolate` (exact in the noiseless case)."""
    if os == 1:
        return y.copy()
    return _rescale(y[..., ::os].copy(), y)  # y is the caller's


# --- multicarrier chains ---------------------------------------------------------

def rrc_bin_weights(n: int, m: int, rolloff: float) -> np.ndarray:
    """Square-root raised-cosine amplitude per DFT bin, unit-power aliases.

    Bin k of the length-m grid belongs to subcarrier class k mod n; the
    weights are normalized so every class carries unit total power, which
    makes the shaped synthesis map an isometry and the conjugate-weighted
    folding at the receiver its exact inverse.
    """
    x = np.abs(np.fft.fftfreq(m) * m) / n  # |f| in subcarrier-rate units
    flat = x <= (1.0 - rolloff) / 2.0
    weights = np.zeros(m)
    weights[flat] = 1.0
    if rolloff > 0.0:
        taper = (~flat) & (x <= (1.0 + rolloff) / 2.0)
        weights[taper] = np.sqrt(
            0.5 * (1.0 + np.cos(
                np.pi / rolloff * (x[taper] - (1.0 - rolloff) / 2.0)
            ))
        )
    classes = np.arange(m) % n
    power = np.zeros(n)
    np.add.at(power, classes, weights**2)
    return weights / np.sqrt(power[classes])


def _precode(symbols: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    if cfg.precoder == PRECODER_NONE:
        return symbols
    if cfg.precoder == PRECODER_DFT:
        return np.fft.fft(symbols, norm="ortho")
    if cfg.precoder == PRECODER_WPT:
        bands = wpt(symbols, cfg.effective_precoder_pair,
                    cfg.effective_precoder_levels)
        return bands.coeffs
    bands = dwt(symbols, cfg.effective_precoder_pair, cfg.effective_precoder_levels)
    return bands.coeffs


def _unprecode(vec: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    if cfg.precoder == PRECODER_NONE:
        return vec
    if cfg.precoder == PRECODER_DFT:
        return np.fft.ifft(vec, norm="ortho")
    if cfg.precoder == PRECODER_WPT:
        bands = SubbandSet.from_flat(
            vec, WPT_FULL, cfg.effective_precoder_levels
        )
        return iwpt(bands, cfg.effective_precoder_pair)
    bands = SubbandSet.from_flat(
        vec, DWT_PRUNED, cfg.effective_precoder_levels
    )
    return idwt(bands, cfg.effective_precoder_pair)


def _synthesize_body(vec: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Precoded symbol vector(s) (..., n) -> oversampled body (no CP)."""
    n, os = cfg.n_subcarriers, cfg.oversampling
    if cfg.transform == FOURIER:
        m = n * os
        if cfg.tx_rolloff is not None:
            weights = rrc_bin_weights(n, m, cfg.tx_rolloff)
            tiled = np.tile(vec, os)
            return np.fft.ifft(tiled * weights, norm="ortho")
        return np.fft.ifft(_spectral_place(vec, m), norm="ortho")
    chips = iwpt(SubbandSet.from_flat(vec, WPT_FULL, cfg.levels), cfg.pair)
    return _interpolate_chips(chips, cfg)


def _interpolate_chips(chips: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Wavelet-packet chips (..., n) -> oversampled body (..., n * os)."""
    if cfg.wpm_interp == INTERP_FFT:
        return _spectral_zero_pad(chips, cfg.oversampling)
    return _fir_interpolate(chips, cfg.oversampling)


def _decimate_body(body: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Inverse of :func:`_interpolate_chips`."""
    if cfg.wpm_interp == INTERP_FFT:
        return _spectral_decimate(body, cfg.oversampling, cfg.n_subcarriers)
    return _fir_decimate(body, cfg.oversampling)


@functools.lru_cache(maxsize=64)
def _shipped_taps(family: str) -> tuple[bytes, bytes] | None:
    """Lowpass and highpass taps (as bytes) of the shipped pair named
    family, or None when no shipped pair has that name."""
    try:
        pair = make_filter(family)
    except UnsupportedFamily:
        return None
    return pair.h.tobytes(), pair.g.tobytes()


def _precoder_cancels(cfg: OfdmConfig) -> bool:
    """True when the precoder is the full packet analysis on the chain's
    own pair and depth, and that pair is a shipped orthogonal one (its taps
    equal make_filter's for its family).  The packet synthesis then
    inverts the precoder (perfect reconstruction), so the chain sends the
    symbols themselves as chips.  Any other pair, such as a perturbed one
    built for a sensitivity study, need not reconstruct perfectly and runs
    both transforms.  The precoder pair is compared by identity: a
    dataclass holding arrays has no usable ==."""
    if not (cfg.transform == WAVELET_PACKET
            and cfg.precoder == PRECODER_WPT
            and (cfg.precoder_pair is None or cfg.precoder_pair is cfg.pair)
            and cfg.effective_precoder_levels == cfg.levels):
        return False
    pair = cfg.pair
    return _shipped_taps(pair.family) == (pair.h.tobytes(), pair.g.tobytes())


def _fourier_bins(spec: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Body spectrum (..., m) -> the n subcarrier values of a Fourier chain:
    the occupied bins, or under roll-off shaping the conjugate-weighted fold
    of every alias class."""
    n = cfg.n_subcarriers
    if cfg.tx_rolloff is not None:
        weights = rrc_bin_weights(n, cfg.body_length, cfg.tx_rolloff)
        folded = (spec * weights).reshape(spec.shape[:-1] + (cfg.oversampling, n))
        return folded.sum(axis=-2)
    return _spectral_select(spec, n)


def _analyze_body(body: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Oversampled body (..., m) -> precoded symbol vector(s)."""
    if cfg.transform == FOURIER:
        return _fourier_bins(np.fft.fft(body, norm="ortho"), cfg)
    return wpt(_decimate_body(body, cfg), cfg.pair, cfg.levels).coeffs


def ofdm_modulate(symbols, cfg: OfdmConfig) -> BasebandFrame:
    """One multicarrier symbol: precode, inverse transform, oversample, CP.

    symbols is (n_subcarriers,) for one frame or (..., n_subcarriers) for a
    block of frames; each row gives the same samples as it would alone.
    The cyclic prefix (Fourier chain only) is a copy of the frame tail, so
    the CP-stripped body carries exactly the input symbol energy.  A
    wavelet-packet precoder on the chain's own pair and depth cancels
    against the packet synthesis when the pair is orthogonal, so with a
    shipped pair (taps equal to make_filter's for its family) the chain
    skips both and oversamples the symbols directly (equal to the composed
    chain within round-off).  Any other pair, e.g. a perturbed one, runs
    both transforms.
    """
    symbols = np.asarray(symbols, dtype=complex)
    count = symbols.shape[-1] if symbols.ndim else 1
    if symbols.ndim == 0 or count != cfg.n_subcarriers:
        raise LengthMismatch(
            f"expected {cfg.n_subcarriers} symbols, got {count}"
        )
    if _precoder_cancels(cfg):
        body = _interpolate_chips(symbols, cfg)
    else:
        body = _synthesize_body(_precode(symbols, cfg), cfg)
    cp = cfg.cp_length
    if cp:
        samples = np.empty(body.shape[:-1] + (cp + body.shape[-1],),
                           dtype=complex)
        samples[..., cp:] = body
        samples[..., :cp] = body[..., -cp:]
        body = samples
    return BasebandFrame(samples=body, sample_rate=float(cfg.body_length),
                         meta=cfg)


def ofdm_demodulate(frame: BasebandFrame, cfg: OfdmConfig) -> np.ndarray:
    """Exact inverse of :func:`ofdm_modulate` in the absence of a channel
    (a block of frames gives a block of symbol rows)."""
    samples = np.asarray(frame.samples, dtype=complex)
    if samples.ndim == 0 or samples.shape[-1] < cfg.frame_length:
        raise LengthMismatch(
            f"frame has {samples.shape[-1] if samples.ndim else 1} samples, "
            f"config needs {cfg.frame_length}"
        )
    body = samples[..., cfg.cp_length:cfg.cp_length + cfg.body_length]
    if _precoder_cancels(cfg):
        return _decimate_body(body, cfg)
    return _unprecode(_analyze_body(body, cfg), cfg)


# --- wavelet shift keying --------------------------------------------------------

def _check_pulse(mother: SampledWaveform):
    if abs(mother.energy() - 1.0) > 1e-6:
        raise ConfigError("mother pulse must have unit energy")


def wsk_modulate(bits, mother: SampledWaveform, symbol_period: float) -> BasebandFrame:
    """Antipodal keying of a mother-wavelet pulse: bit b -> (2b-1) psi."""
    _check_pulse(mother)
    bits = np.asarray(bits).astype(np.int64)
    hop = symbol_period / mother.dt
    if abs(hop - round(hop)) > 1e-9:
        raise ConfigError("symbol period must be an integer number of samples")
    hop = int(round(hop))
    pulse = np.asarray(mother.samples)
    if hop < len(pulse):
        raise PeriodTooShort(
            f"symbol period {hop} samples shorter than pulse ({len(pulse)})"
        )
    out = np.zeros((len(bits) - 1) * hop + len(pulse), dtype=complex)
    signs = 2.0 * bits - 1.0
    for k, s in enumerate(signs):
        out[k * hop:k * hop + len(pulse)] += s * pulse
    return BasebandFrame(samples=out, sample_rate=1.0 / mother.dt)


def wsk_demodulate(frame: BasebandFrame, mother: SampledWaveform,
                   symbol_period: float) -> np.ndarray:
    """Matched-filter correlation and sign decision."""
    _check_pulse(mother)
    hop = int(round(symbol_period / mother.dt))
    pulse = np.conj(np.asarray(mother.samples))
    samples = np.asarray(frame.samples)
    n_bits = (len(samples) - len(pulse)) // hop + 1
    bits = np.empty(n_bits, dtype=np.int64)
    for k in range(n_bits):
        corr = np.sum(samples[k * hop:k * hop + len(pulse)] * pulse)
        bits[k] = 1 if corr.real > 0 else 0
    return bits


# --- dyadic pulse shaping --------------------------------------------------------

def pulse_shape_dyadic(symbol_streams, pulses, symbol_period: float) -> BasebandFrame:
    """Superpose streams shaped by a mother wavelet and its dyadics.

    Stream m rides pulse m (the m-th dyadic compression) and signals at
    rate 2**m per symbol period, the natural rate of the compressed pulse;
    the shifts then tile the period and stay orthogonal across streams.
    Stream m must therefore carry 2**m symbols per period.
    """
    if len(symbol_streams) != len(pulses):
        raise StreamPulseCountMismatch(
            f"{len(symbol_streams)} streams vs {len(pulses)} pulses"
        )
    dt = pulses[0].dt
    if any(abs(p.dt - dt) > 1e-12 for p in pulses):
        raise ConfigError("pulses must share one sample spacing")
    n_periods = len(symbol_streams[0])
    total = int(round(n_periods * symbol_period / dt)) + len(pulses[0].samples)
    out = np.zeros(total, dtype=complex)
    for m, (stream, pulse) in enumerate(zip(symbol_streams, pulses)):
        stream = np.asarray(stream, dtype=complex)
        if len(stream) != n_periods * 2**m:
            raise ConfigError(
                f"stream {m} must carry {n_periods * 2**m} symbols "
                f"({len(stream)} given)"
            )
        hop = symbol_period / 2**m / dt
        if abs(hop - round(hop)) > 1e-9:
            raise ConfigError("symbol period must align with the sample grid")
        hop = int(round(hop))
        taps = np.asarray(pulse.samples)
        for k, s in enumerate(stream):
            out[k * hop:k * hop + len(taps)] += s * taps
    return BasebandFrame(samples=out, sample_rate=1.0 / dt)


def matched_filter_streams(frame: BasebandFrame, pulses, symbol_period: float,
                           n_periods: int) -> list:
    """Per-stream matched-filter recovery of :func:`pulse_shape_dyadic`."""
    dt = pulses[0].dt
    samples = np.asarray(frame.samples)
    streams = []
    for m, pulse in enumerate(pulses):
        hop = int(round(symbol_period / 2**m / dt))
        taps = np.conj(np.asarray(pulse.samples))
        count = n_periods * 2**m
        est = np.empty(count, dtype=complex)
        for k in range(count):
            est[k] = np.sum(samples[k * hop:k * hop + len(taps)] * taps) * dt
        streams.append(est)
    return streams
