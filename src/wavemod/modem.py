"""Symbol mapping and multicarrier / single-carrier transmit chains.

Supported chains, all built from unitary blocks so that noiseless
modulate/demodulate roundtrips are exact:

* Fourier multicarrier: optional precoder (size-N unitary DFT, a pruned
  DWT, or the full wavelet-packet analysis, on the chain's own pair and
  depth), unitary inverse DFT, oversampling, cyclic prefix as a prepended
  copy of the frame tail.  A DFT precoder turns the chain into the usual
  single-carrier uplink arrangement; the full-tree wavelet precoder plays
  the same role for the wavelet-packet chain (the synthesis inverts it).
  The two cancel when the chain's pair is orthogonal, so with a shipped
  pair (taps equal to make_filter's) the chain skips both and sends the
  symbols themselves, oversampled.
* Wavelet-packet multicarrier: optional precoder, inverse wavelet-packet
  transform (2**J = N subcarriers in natural tree order), oversampling by
  polyphase interpolation with an os-th-band windowed sinc (default) or by
  spectral zero padding; no cyclic prefix (the packet waveforms overlap).

Every oversampler is the n DFT bins broadcast over the m = n * os grid
(bin k carries subcarrier k mod n) times one bin-weight vector: 1 on the
n // 2 lowest positive and negative bins for zero padding, square-root
raised-cosine weights under tx_rolloff, the interpolation filter's
spectrum for the polyphase FIR.  Every spectral receiver folds the grid
back with the same weights.

Gray mappings are fixed bit-exactly (see README): bit 0 maps to the
positive rail, the in-phase rail carries the first bit(s).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, _numbers, _samples, numerical_errors
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
    Bits are bools, or integers or floats equal to 0 or 1; anything else
    raises ConfigError.
    """
    bits = np.atleast_1d(_numbers(bits, "bits"))
    kind = bits.dtype.kind
    if kind in "iu":
        # 0/1 bits OR to 0 or 1; any other value, a negative too, sets another bit
        bad = np.bitwise_or.reduce(bits, axis=None) not in (0, 1)
    else:
        bad = kind != "b" and not (kind == "f" and np.all((bits == 0) | (bits == 1)))
    if bad:
        raise ConfigError("bits must be 0 or 1")
    bits = bits.astype(np.int64, copy=False)
    k = spec.bits_per_symbol
    if bits.shape[-1] % k != 0:
        raise ConfigError(f"{bits.shape[-1]} bits not divisible by {k}")
    words = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // k, k))
    index = np.zeros(words.shape[:-1], dtype=np.int64)
    for b in range(k):
        index = (index << 1) | words[..., b]
    return spec.alphabet[index]


def demap_symbols(symbols, spec: ConstellationSpec) -> np.ndarray:
    """Hard-decision minimum-distance demapping back to bits.

    Demaps the last axis: (..., n) symbols give (..., n * k) bits.  Each
    symbol takes the first alphabet point at its least distance, as argmin
    over the (..., n, alphabet) distances would, one alphabet point at a
    time.  Symbols that are not numbers, or whose least distance is not
    finite (NaN, infinite or beyond the float range), raise ConfigError.
    """
    symbols = np.atleast_1d(_numbers(symbols, "symbols", complex))
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
    if not np.all(np.isfinite(best)):
        raise ConfigError("symbols must be finite numbers within the float range")
    k = spec.bits_per_symbol
    bits = np.empty(index.shape + (k,), dtype=np.int64)
    for b in range(k):
        bits[..., b] = (index >> (k - 1 - b)) & 1
    return bits.reshape(symbols.shape[:-1] + (symbols.shape[-1] * k,))


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
    wpm_interp: str = INTERP_FIR
    tx_rolloff: float | None = None

    def __post_init__(self):
        n = self.n_subcarriers
        if not isinstance(n, numbers.Integral) or n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(
                f"subcarrier count {n!r} is not an integer power of two"
            )
        if self.transform not in (FOURIER, WAVELET_PACKET):
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.oversampling < 1 or int(self.oversampling) != self.oversampling:
            raise ConfigError("oversampling must be a positive integer")
        if not 0.0 <= self.cp_fraction < 1.0:
            raise ConfigError("cp_fraction must be in [0, 1)")
        if self.transform == WAVELET_PACKET:
            if self.pair is None:
                raise ConfigError("wavelet-packet transform needs a filter pair")
            if self.cp_fraction != 0.0:
                raise ConfigError(
                    "wavelet-packet chains carry no cyclic prefix"
                )
            levels = self.levels
            if levels is None or 2**levels != n:
                raise ConfigError(
                    f"wavelet-packet needs 2**levels == {n}"
                )
            if self.wpm_interp not in (INTERP_FIR, INTERP_FFT):
                raise ConfigError(
                    f"unknown interpolation {self.wpm_interp!r}"
                )
        if self.tx_rolloff is not None:
            if self.transform != FOURIER:
                raise ConfigError(
                    "transmit roll-off shaping applies to the Fourier chain only"
                )
            if not 0.0 <= self.tx_rolloff <= 1.0:
                raise ConfigError("tx_rolloff must lie in [0, 1]")
            if self.oversampling < 1.0 + self.tx_rolloff:
                raise ConfigError(
                    "oversampling must cover the excess band (>= 1 + rolloff)"
                )
        if self.precoder not in (PRECODER_NONE, PRECODER_DFT, PRECODER_DWT,
                                 PRECODER_WPT):
            raise ConfigError(f"unknown precoder {self.precoder!r}")
        if self.precoder in (PRECODER_DWT, PRECODER_WPT):
            if self.pair is None:
                raise ConfigError(
                    "wavelet precoders need a filter pair"
                )
            j = _precoder_depth(self)
            if n % (2**j) != 0:
                raise ConfigError(
                    f"wavelet precoder depth {j} incompatible with {n} subcarriers"
                )

    @property
    def body_length(self) -> int:
        return self.n_subcarriers * self.oversampling

    @property
    def cp_length(self) -> int:
        return int(round(self.body_length * self.cp_fraction))

    @property
    def frame_length(self) -> int:
        return self.body_length + self.cp_length


# --- oversampling helpers -------------------------------------------------------

def _upsample(spec: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(..., n) DFT bins -> (..., m) grid: each bin is broadcast over its
    m / n aliases (bin k of the grid carries class k mod n) and multiplied
    by the m weights; no tiled copy is made."""
    n, m = spec.shape[-1], weights.shape[-1]
    grid = spec[..., None, :] * weights.reshape(m // n, n)
    return grid.reshape(spec.shape[:-1] + (m,))


def _fold(spec: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_upsample` for real weights of unit power per
    class: the (..., m) spectrum, which must be an array the caller
    allocated, is weighted in place and each alias class summed to n bins."""
    spec *= weights
    return spec.reshape(spec.shape[:-1] + (spec.shape[-1] // n, n)).sum(axis=-2)


_INTERP_HALF_WIDTH = 32  # interpolation filter half-length, output samples


def interpolation_filter(os: int) -> np.ndarray:
    """Windowed-sinc interpolation filter with the os-th-band property.

    The center sits on a multiple of os, so the taps vanish at every other
    multiple of os and decimating the interpolated stream at the right
    phase returns the original samples exactly.
    """
    center = os * int(np.ceil(_INTERP_HALF_WIDTH / os))
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


def _fir_upsample(x: np.ndarray, os: int) -> np.ndarray:
    """Polyphase interpolation, circular, before the energy rescale: a
    zero-stuffed row's spectrum is its own spectrum over the os aliases,
    so the filter acts as the bin weights of :func:`_upsample`."""
    weights = _fir_kernel_spectrum(x.shape[-1] * os, os)
    return np.fft.ifft(_upsample(np.fft.fft(x), weights))


def _fir_decimate(y: np.ndarray, os: int) -> np.ndarray:
    """Inverse of the rescaled :func:`_fir_upsample` (exact in the
    noiseless case)."""
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


@functools.lru_cache(maxsize=32)
def _grid_weights(n: int, m: int, rolloff: float | None) -> np.ndarray:
    """The m bin weights of n subcarriers on an m-bin grid, built once per
    (n, m, rolloff) and shared read-only: with no roll-off 1 on the n // 2
    lowest positive and n // 2 lowest negative bins and 0 between, under
    roll-off :func:`rrc_bin_weights`."""
    if rolloff is not None:
        weights = rrc_bin_weights(n, m, rolloff)
    else:
        weights = np.zeros(m)
        weights[: n // 2] = 1.0
        weights[m - n // 2:] = 1.0
    weights.flags.writeable = False
    return weights


def _precoder_depth(cfg: OfdmConfig) -> int:
    """Depth of a wavelet precoder: the chain's levels, or log2 n when
    levels is unset."""
    if cfg.levels is not None:
        return cfg.levels
    return int(np.log2(cfg.n_subcarriers))


def _precode(symbols: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    if cfg.precoder == PRECODER_NONE:
        return symbols
    if cfg.precoder == PRECODER_DFT:
        return np.fft.fft(symbols, norm="ortho")
    analysis = wpt if cfg.precoder == PRECODER_WPT else dwt
    return analysis(symbols, cfg.pair, _precoder_depth(cfg)).coeffs


def _unprecode(vec: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    if cfg.precoder == PRECODER_NONE:
        return vec
    if cfg.precoder == PRECODER_DFT:
        return np.fft.ifft(vec, norm="ortho")
    levels = _precoder_depth(cfg)
    if cfg.precoder == PRECODER_WPT:
        return iwpt(SubbandSet.from_flat(vec, WPT_FULL, levels), cfg.pair)
    return idwt(SubbandSet.from_flat(vec, DWT_PRUNED, levels), cfg.pair)


def _decimate_body(body: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Inverse of a wavelet-packet chain's oversampler: oversampled body
    (..., n * os) -> chips (..., n)."""
    os = cfg.oversampling
    if os == 1:
        return body.copy()
    if cfg.wpm_interp == INTERP_FIR:
        return _fir_decimate(body, os)
    n = cfg.n_subcarriers
    weights = _grid_weights(n, cfg.body_length, None)
    return np.fft.ifft(_fold(np.fft.fft(body, norm="ortho"), weights, n),
                       norm="ortho")


@functools.lru_cache(maxsize=64)
def _shipped_taps(family: str) -> tuple[bytes, bytes] | None:
    """Lowpass and highpass taps (as bytes) of the shipped pair named
    family, or None when no shipped pair has that name."""
    try:
        pair = make_filter(family)
    except ConfigError:
        return None
    return pair.h.tobytes(), pair.g.tobytes()


def _precoder_cancels(cfg: OfdmConfig) -> bool:
    """True when the precoder is the full packet analysis of a
    wavelet-packet chain (always on the chain's own pair and depth) and
    that pair is a shipped orthogonal one (its taps equal make_filter's for
    its family).  The packet synthesis then inverts the precoder (perfect
    reconstruction), so the chain sends the symbols themselves as chips.
    Any other pair, such as a perturbed one built for a sensitivity study,
    need not reconstruct perfectly and runs both transforms."""
    if not (cfg.transform == WAVELET_PACKET and cfg.precoder == PRECODER_WPT):
        return False
    pair = cfg.pair
    return _shipped_taps(pair.family) == (pair.h.tobytes(), pair.g.tobytes())


def _fourier_bins(spec: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Body spectrum (..., m) -> the n subcarrier values of a Fourier chain:
    every alias class folded with the chain's bin weights (the occupied
    bins alone without roll-off).  spec, the caller's own array, is
    overwritten."""
    n = cfg.n_subcarriers
    return _fold(spec, _grid_weights(n, cfg.body_length, cfg.tx_rolloff), n)


def _analyze_body(body: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Oversampled body (..., m) -> precoded symbol vector(s)."""
    if cfg.transform == FOURIER:
        return _fourier_bins(np.fft.fft(body, norm="ortho"), cfg)
    return wpt(_decimate_body(body, cfg), cfg.pair, cfg.levels).coeffs


def _transmit_body(symbols: np.ndarray, cfg: OfdmConfig):
    """(body, target): the CP-less oversampled body of :func:`ofdm_modulate`
    for complex symbol rows (..., n), before the FIR interpolator's energy
    rescale, and the rows that rescale targets (the chips; None for every
    chain without that stage).  body is an array allocated here."""
    if cfg.transform == FOURIER:
        weights = _grid_weights(cfg.n_subcarriers, cfg.body_length,
                                cfg.tx_rolloff)
        vec = _precode(symbols, cfg)
        return np.fft.ifft(_upsample(vec, weights), norm="ortho"), None
    if _precoder_cancels(cfg):
        chips = symbols
    else:
        vec = _precode(symbols, cfg)
        chips = iwpt(SubbandSet.from_flat(vec, WPT_FULL, cfg.levels), cfg.pair)
    os = cfg.oversampling
    if os == 1:
        return chips.copy(), None
    if cfg.wpm_interp == INTERP_FIR:
        return _fir_upsample(chips, os), chips
    weights = _grid_weights(cfg.n_subcarriers, cfg.body_length, None)
    spec = np.fft.fft(chips, norm="ortho")
    return np.fft.ifft(_upsample(spec, weights), norm="ortho"), None


def ofdm_modulate(symbols, cfg: OfdmConfig) -> np.ndarray:
    """One multicarrier symbol: precode, inverse transform, oversample, CP.

    symbols (n_subcarriers,) give the complex frame (frame_length,), a
    block (..., n_subcarriers) a block (..., frame_length) whose rows are
    the frames they would give alone; NaN or infinite symbols raise
    ConfigError.  The cyclic prefix (Fourier chain only) is a copy of the
    frame tail, so the CP-stripped body carries exactly the input symbol
    energy; the FIR interpolator of a wavelet-packet chain is rescaled, row
    by row, to the chips' energy.  A wavelet-packet precoder cancels against
    the packet synthesis when the chain's pair is orthogonal, so with a
    shipped pair (taps equal to make_filter's for its family) the chain
    skips both and oversamples the symbols directly (equal to the composed
    chain within round-off).  Any other pair, e.g. a perturbed one, runs
    both transforms.
    """
    symbols = _samples(symbols, "symbols")
    if symbols.shape[-1] != cfg.n_subcarriers:
        raise ConfigError(f"expected {cfg.n_subcarriers} symbols, got {symbols.shape[-1]}")
    with numerical_errors("ofdm_modulate"):
        body, target = _transmit_body(symbols, cfg)
        if target is not None:
            _rescale(body, target)
    cp = cfg.cp_length
    if not cp:
        return body
    frame = np.empty(body.shape[:-1] + (cp + body.shape[-1],), dtype=complex)
    frame[..., cp:] = body
    frame[..., :cp] = body[..., -cp:]
    return frame


def ofdm_demodulate(frame, cfg: OfdmConfig) -> np.ndarray:
    """Exact inverse of :func:`ofdm_modulate` without a channel: a complex
    frame (n,) or block (..., n), n >= frame_length, gives its symbol rows.
    NaN or infinite samples raise ConfigError, an overflow NumericalError."""
    samples = _samples(frame)
    if samples.shape[-1] < cfg.frame_length:
        raise ConfigError(f"frame has {samples.shape[-1]} samples, "
                          f"config needs {cfg.frame_length}")
    body = samples[..., cfg.cp_length:cfg.cp_length + cfg.body_length]
    with numerical_errors("ofdm_demodulate"):
        if _precoder_cancels(cfg):
            return _decimate_body(body, cfg)
        return _unprecode(_analyze_body(body, cfg), cfg)
