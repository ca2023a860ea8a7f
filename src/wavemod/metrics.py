"""Waveform and link quality metrics: PAPR, EVM, BER, PSD, bandwidth.

EVM follows the mean-of-power-ratios definition

    EVM = (1/Ls) * sum_i |e_i|^2 / |d_i|^2

i.e. a linear power ratio without the square root used by most industry
conventions.  All ordering comparisons in the experiment suite are
unaffected by this choice; absolute values are not comparable to RMS-EVM
figures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BitCountMismatch,
    ConfigError,
    FrameTooShort,
    LengthMismatch,
    ZeroBandwidth,
    ZeroEnergy,
    ZeroReferenceSymbol,
    numerical_errors,
)
from .modem import (
    BasebandFrame,
    ConstellationSpec,
    OfdmConfig,
    _numbers,
    _transmit_body,
    map_bits,
    ofdm_modulate,
)


def papr_db(frame: BasebandFrame):
    """Peak-to-average power ratio of the frame, in dB.

    A float for one frame; for a block (..., n) an array of one PAPR per row.
    """
    x = np.asarray(frame.samples)
    with numerical_errors("papr_db"):
        power = x.real**2
        power += x.imag**2
        peak = np.max(power, axis=-1, initial=0.0)
        if power.size == 0 or not np.all(peak > 0):
            raise ZeroEnergy("PAPR undefined for an empty or silent frame")
        ratio = 10.0 * np.log10(peak / np.mean(power, axis=-1))
    return float(ratio) if ratio.ndim == 0 else ratio


@dataclass
class CcdfCurve:
    """Complementary CDF of a per-symbol metric over Monte-Carlo trials."""

    thresholds_db: np.ndarray
    probabilities: np.ndarray
    n_trials: int
    exceed_counts: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.thresholds_db = np.asarray(self.thresholds_db, dtype=float)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.exceed_counts is None:
            self.exceed_counts = np.round(
                self.probabilities * self.n_trials
            ).astype(np.int64)
        else:
            self.exceed_counts = np.asarray(self.exceed_counts, dtype=np.int64)
        if np.any(np.diff(self.thresholds_db) <= 0):
            raise ConfigError("thresholds must be strictly ascending")
        if np.any(np.diff(self.probabilities) > 0):
            raise ConfigError("CCDF probabilities must be nonincreasing")
        if self.probabilities.size and self.probabilities[0] > 1.0:
            raise ConfigError("probabilities cannot exceed 1")

    def level_at(self, probability: float) -> float:
        """Threshold (dB) where the CCDF crosses the given probability,
        linearly interpolated in (threshold, log10 prob)."""
        p = self.probabilities
        t = self.thresholds_db
        if probability >= p[0]:
            return float(t[0])
        below = np.nonzero(p <= probability)[0]
        if below.size == 0:
            return float(t[-1])
        j = int(below[0])
        if j == 0 or p[j] == p[j - 1]:
            return float(t[j])
        lo, hi = p[j - 1], p[j]
        if hi <= 0.0:
            return float(t[j])
        frac = (np.log10(probability) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))
        return float(t[j - 1] + frac * (t[j] - t[j - 1]))


# Monte-Carlo loops push blocks of trials through the chains; a block holds
# about this many bytes of complex samples: 16 frames of 2048 samples in
# papr-ccdf, 14 of 2304 in ber-fading, and 3 frames in evm-sweep, whose
# receive block holds 9 cutoffs x 1024 samples a frame.  Per-trial seeding
# makes every output byte independent of the block size.  The size is set
# by memory: each chain stage writes only into arrays it allocated and frees
# its block-sized temporaries before the next, so a warm study peaks at 2.5
# blocks of traced memory in papr-ccdf (2.52, wpm, with papr_ccdf's transmit
# path, whose block arrays are freed before the next block's) and 4.0 in
# ber-fading (4.6 and 8.1 with the stages' earlier temporaries, which held
# the block at 256 KiB).
# On the benchmark (2 vCPUs, 10 alternating pairs) this size ran papr-tx at
# 12513 frames/s against 10447 for 256 KiB blocks with those temporaries
# (faster in 10 of 10), for +0.63 MB (+1.6%) peak RSS; ber-link (5 pairs)
# ran 16% more frames/s for +0.16 MB.
_BLOCK_BYTES = 1 << 19


def trial_blocks(count: int, frame_length: int):
    """Consecutive trial ranges covering [0, count), each small enough that
    its frames of frame_length complex samples fit the block budget (at
    least one trial per block)."""
    size = max(1, _BLOCK_BYTES // (16 * frame_length))
    return [range(start, min(start + size, count))
            for start in range(0, count, size)]


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64 seeding
# (pcg64.c).  NEP 19 keeps both streams stable across numpy versions, while
# Generator methods such as integers may change theirs.  The hash runs
# vectorised over all trials: on the papr-tx benchmark (2 vCPUs, 10 rotated
# runs) numpy's own SeedSequence(row).generate_state per trial, with the
# same reused PCG64, ran 20% fewer frames/s (6505 -> 5194 median, slower in
# all 10), and a new PCG64(row) per trial 10% fewer (5861, slower in 9).
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of SeedSequence(row) for every row of (..., k)
    uint32 entropy: (..., 4) uint64, equal to generate_state(4, uint64).
    The hash constants advance the same way for every row, so each step is
    one uint32 ufunc over all rows."""
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    k = entropy.shape[-1]
    zero = np.zeros(entropy.shape[:-1], dtype=np.uint32)
    pool = [hashmix(entropy[..., i] if i < k else zero) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, k):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[..., src]))
    hash_const = _SS_INIT_B
    state = np.empty(entropy.shape[:-1] + (8,), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[..., i] = value ^ (value >> np.uint32(16))
    return state.view(np.uint64)


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's split of a nonnegative int into little-endian uint32
    words (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class TrialSeeds:
    """PCG64 seed words of a grid of seeded Monte-Carlo trials.

    Trial `index` (a position in the grid) is seeded exactly as
    default_rng([*prefix, *index, *suffix]).  The seeds of all trials are
    hashed at once (each int split into its uint32 words, as SeedSequence
    does) into ``words``, a read-only (*grid, 4) uint64 array;
    ``seeds[index]`` is the TrialSeeds of a sub-grid.  :meth:`reseed`
    sets one reused PCG64 to each trial's state in turn, so no trial
    builds its own generator.  A negative int raises ValueError, as in
    default_rng.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    @classmethod
    def grid(cls, prefix, shape, suffix=()) -> "TrialSeeds":
        """Seeds of every trial of a grid of the given shape."""
        def split(values):
            return [word for value in values for word in _entropy_words(int(value))]

        prefix, suffix, shape = split(prefix), split(suffix), tuple(shape)
        entropy = np.concatenate([
            np.broadcast_to(np.array(prefix, dtype=np.uint32), shape + (len(prefix),)),
            np.moveaxis(np.indices(shape, dtype=np.uint32), 0, -1),
            np.broadcast_to(np.array(suffix, dtype=np.uint32), shape + (len(suffix),)),
        ], axis=-1)
        words = _seed_words(entropy)
        words.flags.writeable = False
        return cls(words)

    def __getitem__(self, index) -> "TrialSeeds":
        return TrialSeeds(self.words[index])

    def reseed(self, bitgen: np.random.PCG64):
        """Set bitgen to each trial's PCG64 state in turn (the trials in C
        order), yielding the trial's flat position after each."""
        for row, (w0, w1, w2, w3) in enumerate(self.words.reshape(-1, 4).tolist()):
            # pcg64_set_seed: inc = 2 * seq + 1, then two LCG steps from 0
            inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
            state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield row


class TrialBits:
    """0/1 payloads of a grid of seeded Monte-Carlo trials.

    Trial `index` (a position in `shape`) gets exactly
    default_rng([*prefix, *index]).integers(0, 2, n_bits).  The trials'
    seeds are one :class:`TrialSeeds` grid, and each trial's bits are raw
    output of one reused PCG64 set from its seed words: integers(0, 2) is
    numpy's Lemire draw, which returns bit 31 and then bit 63 of each
    64-bit output.  Only the seed words are kept, never the bits of all
    trials.  A negative prefix raises ValueError, as in default_rng.

    :meth:`symbols` draws the same payloads as constellation symbols,
    equal to map_bits(bits, spec): each raw word carries the two bits
    ``((w >> 30) & 2) | (w >> 63)``, first bit high, so a word is one QPSK
    symbol, two words one QAM16 symbol and one word two BPSK symbols.  It
    builds the alphabet indices from the words and makes no bit array, and
    it skips map_bits' check, since the bits come from the generator.
    """

    def __init__(self, prefix, shape, n_bits: int):
        self._seeds = TrialSeeds.grid(prefix, shape)
        self._bitgen = np.random.PCG64(0)
        self._n_bits = n_bits

    def _raw(self, index) -> np.ndarray:
        """Raw PCG64 words (len(trials), ceil(n_bits / 2)) of the trials at
        index, as in :meth:`__call__`."""
        *lead, trials = index
        seeds = self._seeds[tuple(lead) + (slice(trials.start, trials.stop),)]
        raw = np.empty((len(seeds.words), (self._n_bits + 1) // 2), dtype=np.uint64)
        for row in seeds.reseed(self._bitgen):
            raw[row] = self._bitgen.random_raw(raw.shape[1])
        return raw

    def __call__(self, *index) -> np.ndarray:
        """Bits (len(trials), n_bits) of the trials at index: leading grid
        positions, then a range of positions along the last axis."""
        raw = self._raw(index)
        bits = np.empty(raw.shape + (2,), dtype=np.uint64)
        np.right_shift(raw, 31, out=bits[..., 0])
        bits[..., 0] &= np.uint64(1)
        np.right_shift(raw, 63, out=bits[..., 1])
        return bits.reshape(len(raw), -1)[:, :self._n_bits].view(np.int64)

    def symbols(self, spec: ConstellationSpec, *index) -> np.ndarray:
        """Symbols (len(trials), n_bits / k) of the trials at index, equal
        to map_bits(self(*index), spec).  An odd k above 1 splits words
        between symbols, so those symbols are mapped from the bits."""
        k = spec.bits_per_symbol
        if self._n_bits % k:
            raise BitCountMismatch(f"{self._n_bits} bits not divisible by {k}")
        if k % 2 and k != 1:
            return map_bits(self(*index), spec)
        raw = self._raw(index)
        pairs = np.right_shift(raw, 30)
        pairs &= np.uint64(2)
        pairs |= np.right_shift(raw, 63)
        pairs = pairs.view(np.int64)
        if k == 1:
            code = np.stack([pairs >> 1, pairs & 1], axis=-1)
            code = code.reshape(len(raw), -1)[:, :self._n_bits]
        else:
            pairs = pairs.reshape(len(raw), -1, k // 2)
            code = pairs[..., 0]
            for i in range(1, k // 2):
                code = (code << 2) | pairs[..., i]
        return spec.alphabet[code]


# Rows whose fast linear PAPR lies within this many dB of a threshold are
# recomputed alone on the exact path.  The fast ratio differs from the exact
# one by about 1e-14 relative (about 5e-15 dB); at the defaults the PAPR
# nearest any threshold lies 3.7e-7 dB from it (ofdm), so no row is recomputed.
_PAPR_GUARD_DB = 1e-9
_PAPR_GUARD = math.expm1(_PAPR_GUARD_DB / 10.0 * math.log(10.0))


def _papr_ratios(symbols: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Linear PAPR of each frame of ofdm_modulate(symbols, cfg), within
    round-off, from the body before the FIR energy rescale and the cyclic
    prefix: the peak is the body's, since the prefix copies its tail, and
    the mean power adds the last cp_length samples' power once more.  The
    block's arrays are freed on return."""
    body, _ = _transmit_body(symbols, cfg)
    power = body.real**2
    power += body.imag**2
    peak = np.max(power, axis=-1)
    if np.any(peak == 0.0):
        raise ZeroEnergy("PAPR undefined for an empty or silent frame")
    total = np.sum(power, axis=-1)
    cp = cfg.cp_length
    if cp:
        total += np.sum(power[..., -cp:], axis=-1)
    return peak * cfg.frame_length / total


def papr_ccdf(cfg: OfdmConfig, spec: ConstellationSpec, n_symbols: int,
              thresholds_db, seed: int) -> CcdfCurve:
    """CCDF of per-symbol PAPR over seeded random payloads.

    Trial k draws default_rng([seed, k]).integers(0, 2, n_bits) as its bits
    (through :class:`TrialBits`, which takes them from raw PCG64 output), so
    the curve does not depend on how the trials are split into blocks.

    The counts are those of papr_db(ofdm_modulate(...)) > thresholds_db,
    frame by frame, but each block is measured by :func:`_papr_ratios`
    and compared in linear power with 10**(t / 10), the thresholds clipped
    to [-1, 10 log10(frame_length) + 1] dB, beyond which no PAPR lies.  A
    row whose ratio lies within _PAPR_GUARD_DB of a threshold, or is not
    finite, is recomputed alone on the exact path, which gives a block
    row's bytes.  Thresholds that are not strictly ascending numbers are
    rejected before the first trial.
    """
    if not isinstance(n_symbols, numbers.Integral) or n_symbols < 1:
        raise ConfigError(f"need a whole number of symbols >= 1, got {n_symbols!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    thresholds_db = _numbers(thresholds_db, "thresholds", float)
    if (thresholds_db.ndim != 1 or np.any(np.isnan(thresholds_db))
            or not np.all(np.diff(thresholds_db) > 0)):
        raise ConfigError("thresholds must be strictly ascending numbers")
    frame_length = cfg.frame_length
    top_db = 10.0 * math.log10(frame_length) + 1.0
    limits = 10.0 ** (np.clip(thresholds_db, -1.0, top_db) / 10.0)
    counts = np.zeros(len(thresholds_db), dtype=np.int64)
    payloads = TrialBits([seed], [n_symbols],
                         cfg.n_subcarriers * spec.bits_per_symbol)
    for trials in trial_blocks(n_symbols, frame_length):
        symbols = payloads.symbols(spec, trials)
        with numerical_errors("papr_ccdf"):
            ratio = _papr_ratios(symbols, cfg)
        exceeds = ratio[:, None] > limits
        near = np.abs(ratio[:, None] / limits - 1.0) <= _PAPR_GUARD
        for row in np.flatnonzero(near.any(axis=1) | ~np.isfinite(ratio)):
            frame = ofdm_modulate(symbols[row], cfg)
            exceeds[row] = papr_db(frame) > thresholds_db
        counts += np.sum(exceeds, axis=0)
    return CcdfCurve(thresholds_db, counts / n_symbols, n_symbols,
                     exceed_counts=counts)


def evm(received, reference):
    """Mean per-symbol power ratio between error vectors and references.

    One frame (n,) gives a float.  A block (..., n) gives an array with one
    value per row, each the bits of a call on that row alone (numpy's
    pairwise row sum); its reference is one (n,) frame for every row, or a
    block of the received shape.
    """
    received = np.asarray(received, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if reference.shape not in (received.shape, received.shape[-1:]):
        raise LengthMismatch("received/reference symbol counts differ")
    if received.size == 0:
        raise ConfigError("EVM needs at least one symbol")
    ref_power = np.abs(reference) ** 2
    if np.any(ref_power == 0.0):
        raise ZeroReferenceSymbol("reference symbols must be nonzero")
    ratio = np.abs(received - reference) ** 2 / ref_power
    if received.ndim <= 1:
        return float(np.mean(ratio))
    return np.mean(ratio, axis=-1)


def ber(tx_bits, rx_bits) -> float:
    """Bit error rate: Hamming distance over length."""
    tx_bits = np.asarray(tx_bits)
    rx_bits = np.asarray(rx_bits)
    if tx_bits.shape != rx_bits.shape:
        raise LengthMismatch("bit streams differ in length")
    if tx_bits.size == 0:
        raise ConfigError("BER needs at least one bit")
    return float(np.mean(tx_bits != rx_bits))


@dataclass(frozen=True)
class WelchMethod:
    segment: int = 1024
    overlap: float = 0.5


@dataclass(frozen=True)
class PeriodogramMethod:
    pass


@dataclass
class PsdEstimate:
    """Two-sided power spectral density on an ascending frequency grid."""

    freqs: np.ndarray
    power_db: np.ndarray
    resolution_bw: float
    method: object = None

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.power_db = np.asarray(self.power_db, dtype=float)
        if self.freqs.shape != self.power_db.shape:
            raise LengthMismatch("frequency and power arrays differ in length")

    def power_linear(self) -> np.ndarray:
        return 10.0 ** (self.power_db / 10.0)


def psd(frame: BasebandFrame, method=None) -> PsdEstimate:
    """Averaged-periodogram PSD of a frame (Welch, IEEE Trans. Audio
    Electroacoust. 15(2), 1967): the mean of |fft(segment * window)|**2
    over the frame's segments, divided by fs * sum(window**2).

    WelchMethod (the default) cuts segments of ``segment`` samples,
    ``segment - int(overlap * segment)`` apart, under a periodic Hann
    window 0.5 - 0.5 cos(2 pi k / segment).  PeriodogramMethod takes the
    whole frame as one boxcar segment.  The two-sided density, on the
    ascending fftfreq grid of one segment, integrates to the frame's
    average power within estimator tolerance.
    """
    x = np.asarray(frame.samples)
    fs = float(frame.sample_rate)
    if method is None:
        method = WelchMethod(segment=min(1024, len(x)))
    if isinstance(method, WelchMethod):
        if len(x) < method.segment:
            raise FrameTooShort(
                f"frame ({len(x)}) shorter than Welch segment ({method.segment})"
            )
        step = method.segment - int(method.overlap * method.segment)
        if method.segment < 2 or step < 1:
            raise ConfigError(f"Welch needs segment >= 2 and overlap < 1: {method!r}")
        k = np.arange(method.segment)
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / method.segment)
    elif isinstance(method, PeriodogramMethod):
        if len(x) == 0:
            raise FrameTooShort("empty frame")
        window, step = np.ones(len(x)), len(x)
    else:
        raise ConfigError(f"unknown PSD method {method!r}")
    freqs, density = _averaged_periodogram(x, fs, window, step)
    return PsdEstimate(
        freqs=freqs,
        power_db=10.0 * np.log10(np.maximum(density, 1e-300)),
        resolution_bw=fs / len(window),
        method=method,
    )


def _averaged_periodogram(x, fs: float, window: np.ndarray, step: int):
    """(freqs, density): the estimate :func:`psd` states, on an ascending grid."""
    segments = np.lib.stride_tricks.sliding_window_view(x, len(window))[::step]
    power = np.mean(np.abs(np.fft.fft(segments * window)) ** 2, axis=0)
    density = power / (fs * np.sum(window**2))
    freqs = np.fft.fftfreq(len(window), d=1.0 / fs)
    return np.fft.fftshift(freqs), np.fft.fftshift(density)


def occupied_bandwidth(estimate: PsdEstimate, containment: float = 0.99) -> float:
    """Smallest symmetric band around the power centroid holding the
    requested power fraction; a single occupied bin reports one bin width."""
    if not 0.0 < containment < 1.0:
        raise ConfigError("containment must be in (0, 1)")
    power = estimate.power_linear()
    total = float(np.sum(power))
    if not total > 0.0:
        raise ZeroBandwidth(f"spectrum carries no power (total {total})")
    centroid = float(np.sum(estimate.freqs * power) / total)
    distance = np.abs(estimate.freqs - centroid)
    order = np.argsort(distance)
    cumulative = np.cumsum(power[order])
    stop = int(np.searchsorted(cumulative, containment * total))
    stop = min(stop, len(order) - 1)
    radius = float(distance[order[stop]])
    if len(estimate.freqs) > 1:
        bin_width = float(estimate.freqs[1] - estimate.freqs[0])
    else:
        bin_width = estimate.resolution_bw
    return 2.0 * radius + bin_width


def spectral_efficiency(bit_rate: float, bandwidth: float) -> float:
    """Bit rate divided by occupied bandwidth, in b/s/Hz."""
    if not bandwidth > 0.0:
        raise ZeroBandwidth(f"bandwidth must be positive, got {bandwidth}")
    return float(bit_rate) / float(bandwidth)


def ccdf_to_csv(curve: CcdfCurve) -> str:
    """Two-column CSV export: threshold_db,prob."""
    lines = ["threshold_db,prob"]
    for t, p in zip(curve.thresholds_db, curve.probabilities):
        lines.append(f"{t:.10g},{p:.10g}")
    return "\n".join(lines) + "\n"


def psd_to_csv(estimate: PsdEstimate) -> str:
    """Two-column CSV export: freq_hz,power_db."""
    lines = ["freq_hz,power_db"]
    for f, p in zip(estimate.freqs, estimate.power_db):
        lines.append(f"{f:.10g},{p:.10g}")
    return "\n".join(lines) + "\n"
