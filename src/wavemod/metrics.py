"""Waveform and link quality metrics: PAPR, EVM, bandwidth, spectral efficiency.

EVM follows the mean-of-power-ratios definition

    EVM = (1/Ls) * sum_i |e_i|^2 / |d_i|^2

i.e. a linear power ratio without the square root used by most industry
conventions.  All ordering comparisons in the experiment suite are
unaffected by this choice; absolute values are not comparable to RMS-EVM
figures.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, _numbers, _samples, numerical_errors
from .modem import (
    ConstellationSpec,
    OfdmConfig,
    _transmit_body,
    map_bits,
    ofdm_modulate,
)


def papr_db(frame):
    """Peak-to-average power ratio of the complex frame, in dB.

    A float for one frame (n,); for a block (..., n) an array of one PAPR
    per row.  NaN or infinite samples raise ConfigError.
    """
    x = _samples(frame)
    with numerical_errors("papr_db"):
        power = x.real**2
        power += x.imag**2
        peak = np.max(power, axis=-1, initial=0.0)
        if power.size == 0 or not np.all(peak > 0):
            raise ConfigError("PAPR undefined for an empty or silent frame")
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


# numpy's SeedSequence hash (bit_generator.pyx).  NEP 19 keeps it and the
# PCG64 stream stable across numpy versions, while Generator methods such as
# integers may change theirs.  The hash runs vectorised over all trials: on
# the papr-tx benchmark (2 vCPUs, 10 rotated runs) numpy's own
# SeedSequence(row).generate_state per trial ran 20% fewer frames/s (6505 ->
# 5194 median, slower in all 10), and a new PCG64(row) per trial, which runs
# that hash for each row, 10% fewer (5861, slower in 9).  Each trial's PCG64
# is seeded from its hashed words instead (:func:`_seed_words_class`).
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_MASK32 = (1 << 32) - 1


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of SeedSequence(row) for every row of (rows, k)
    uint32 entropy: (rows, 4) uint64, equal to generate_state(4, uint64).
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


def _entropy_words(seed) -> list[int]:
    """SeedSequence's split of a seed into little-endian uint32 words (0 is
    one word).  A seed is an integer >= 0 and not a bool; anything else
    raises ConfigError.  Every seeded draw in the package passes here."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seeds must be integers >= 0, got {seed!r:.60}")
    value = int(seed)
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.cache
def _seed_words_class():
    """The seed-sequence class of :meth:`TrialSeeds.bit_generators`, built
    on its first call, so that ``import wavemod`` leaves numpy.random
    unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """One trial's four hashed seed words, handed to PCG64 as its seed
        sequence: PCG64 asks for generate_state(4, uint64) and seeds itself
        from the words as from SeedSequence's."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _SeedWords


class TrialSeeds:
    """PCG64 seed words of a grid of seeded Monte-Carlo trials, and the
    trials' draws.

    Trial `index` (a position in the grid) is seeded exactly as
    default_rng([*prefix, *index, *suffix]).  The seeds of all trials are
    hashed at once (each int split into its uint32 words, as SeedSequence
    does) into ``words``, a read-only (*grid, 4) uint64 array;
    ``seeds[index]`` is the TrialSeeds of a sub-grid, and :meth:`blocks`
    cuts the last grid axis into sub-grids of a block's size.
    :meth:`bit_generators` seeds each trial's PCG64 from its words, with no
    hash per trial.  A 0-d grid (shape ()) is the one seed
    [*prefix, *suffix].  Every entry of prefix and suffix is an integer
    >= 0 and not a bool, or ConfigError is raised.

    :meth:`bits` gives each trial exactly
    default_rng(seed).integers(0, 2, n_bits) from raw output of its PCG64:
    integers(0, 2) is numpy's Lemire draw, which returns bit 31 and then
    bit 63 of each 64-bit output.  :meth:`symbols` draws the same payloads
    as constellation symbols, equal to map_bits(bits, spec): each raw word
    carries the two bits ``((w >> 30) & 2) | (w >> 63)``, first bit high,
    so a word is one QPSK symbol, two words one QAM16 symbol and one word
    two BPSK symbols.  It builds the alphabet indices from the words and
    makes no bit array, and it skips map_bits' check, since the bits come
    from the generator.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    @classmethod
    def grid(cls, prefix, shape, suffix=()) -> "TrialSeeds":
        """Seeds of every trial of a grid of the given shape."""
        def split(values):
            return [word for value in values for word in _entropy_words(value)]

        prefix, suffix, shape = split(prefix), split(suffix), tuple(shape)
        entropy = np.concatenate([
            np.broadcast_to(np.array(prefix, dtype=np.uint32), shape + (len(prefix),)),
            np.moveaxis(np.indices(shape, dtype=np.uint32), 0, -1),
            np.broadcast_to(np.array(suffix, dtype=np.uint32), shape + (len(suffix),)),
        ], axis=-1)
        # hashed as (trials, k) rows, also for a 0-d grid, so every step
        # is an array ufunc and the uint32 wraparound raises no warning
        words = _seed_words(entropy.reshape(math.prod(shape), entropy.shape[-1]))
        words = words.reshape(shape + (4,))
        words.flags.writeable = False
        return cls(words)

    def __getitem__(self, index) -> "TrialSeeds":
        return TrialSeeds(self.words[index])

    def blocks(self, frame_length: int) -> list["TrialSeeds"]:
        """Consecutive sub-grids along the last grid axis, covering it, each
        small enough that its frames of frame_length complex samples fit
        _BLOCK_BYTES (at least one position of the last axis per block)."""
        *lead, count = self.words.shape[:-1]
        size = max(1, _BLOCK_BYTES // max(1, 16 * frame_length * math.prod(lead)))
        return [self[..., start:start + size, :] for start in range(0, count, size)]

    def bit_generators(self):
        """Each trial's PCG64, seeded from its words, the trials in C order."""
        seed_words = _seed_words_class()
        return (np.random.PCG64(seed_words(row)) for row in self.words.reshape(-1, 4))

    def _raw(self, n_bits: int) -> np.ndarray:
        """Raw PCG64 words (*grid, ceil(n_bits / 2)) of every trial."""
        grid = self.words.shape[:-1]
        raw = np.empty((math.prod(grid), (n_bits + 1) // 2), dtype=np.uint64)
        for row, bitgen in enumerate(self.bit_generators()):
            raw[row] = bitgen.random_raw(raw.shape[1])
        return raw.reshape(grid + raw.shape[1:])

    def bits(self, n_bits: int) -> np.ndarray:
        """Bits (*grid, n_bits) of every trial, as int64."""
        raw = self._raw(n_bits)
        bits = np.empty(raw.shape + (2,), dtype=np.uint64)
        np.right_shift(raw, 31, out=bits[..., 0])
        bits[..., 0] &= np.uint64(1)
        np.right_shift(raw, 63, out=bits[..., 1])
        return bits.reshape(raw.shape[:-1] + (2 * raw.shape[-1],))[..., :n_bits].view(np.int64)

    def symbols(self, spec: ConstellationSpec, n_bits: int) -> np.ndarray:
        """Symbols (*grid, n_bits / k) of every trial, equal to
        map_bits(self.bits(n_bits), spec).  An odd k above 1 splits words
        between symbols, so those symbols are mapped from the bits."""
        k = spec.bits_per_symbol
        if n_bits % k:
            raise ConfigError(f"{n_bits} bits not divisible by {k}")
        if k % 2 and k != 1:
            return map_bits(self.bits(n_bits), spec)
        raw = self._raw(n_bits)
        pairs = np.right_shift(raw, 30)
        pairs &= np.uint64(2)
        pairs |= np.right_shift(raw, 63)
        pairs = pairs.view(np.int64)
        if k == 1:
            code = np.stack([pairs >> 1, pairs & 1], axis=-1)
            code = code.reshape(raw.shape[:-1] + (2 * raw.shape[-1],))[..., :n_bits]
        else:
            pairs = pairs.reshape(raw.shape[:-1] + (n_bits // k, k // 2))
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
        raise ConfigError("PAPR undefined for an empty or silent frame")
    total = np.sum(power, axis=-1)
    cp = cfg.cp_length
    if cp:
        total += np.sum(power[..., -cp:], axis=-1)
    return peak * cfg.frame_length / total


def papr_ccdf(cfg: OfdmConfig, spec: ConstellationSpec, n_symbols: int,
              thresholds_db, seed: int) -> CcdfCurve:
    """CCDF of per-symbol PAPR over seeded random payloads.

    Trial k draws default_rng([seed, k]).integers(0, 2, n_bits) as its bits
    (through :meth:`TrialSeeds.symbols`, which maps them from raw PCG64
    output), so the curve does not depend on how the trials are split into
    blocks.

    The counts are those of papr_db(ofdm_modulate(...)) > thresholds_db,
    frame by frame, but each block is measured by :func:`_papr_ratios`
    and compared in linear power with 10**(t / 10), the thresholds clipped
    to [-1, 10 log10(frame_length) + 1] dB, beyond which no PAPR lies.  A
    row whose ratio lies within _PAPR_GUARD_DB of a threshold, or is not
    finite, is recomputed alone on the exact path, which gives a block
    row's bytes.  Thresholds that are not strictly ascending numbers, and
    a seed that is not an integer >= 0, are rejected before the first trial.
    """
    if not isinstance(n_symbols, numbers.Integral) or isinstance(n_symbols, bool) or n_symbols < 1:
        raise ConfigError(f"need a whole number of symbols >= 1, got {n_symbols!r}")
    thresholds_db = _numbers(thresholds_db, "thresholds", float)
    if (thresholds_db.ndim != 1 or np.any(np.isnan(thresholds_db))
            or not np.all(np.diff(thresholds_db) > 0)):
        raise ConfigError("thresholds must be strictly ascending numbers")
    frame_length = cfg.frame_length
    top_db = 10.0 * math.log10(frame_length) + 1.0
    limits = 10.0 ** (np.clip(thresholds_db, -1.0, top_db) / 10.0)
    counts = np.zeros(len(thresholds_db), dtype=np.int64)
    n_bits = cfg.n_subcarriers * spec.bits_per_symbol
    for block in TrialSeeds.grid([seed], [n_symbols]).blocks(frame_length):
        symbols = block.symbols(spec, n_bits)
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
    block of the received shape.  Symbols that make a value overflow, or
    not finite, raise NumericalError.
    """
    received = _numbers(received, "received symbols", complex)
    reference = _numbers(reference, "reference symbols", complex)
    if reference.shape not in (received.shape, received.shape[-1:]):
        raise ConfigError("received/reference symbol counts differ")
    if received.size == 0:
        raise ConfigError("EVM needs at least one symbol")
    with numerical_errors("evm"):
        ref_power = np.abs(reference) ** 2
        if np.any(ref_power == 0.0):
            raise ConfigError("reference symbols must be nonzero")
        ratio = np.abs(received - reference) ** 2 / ref_power
        value = np.mean(ratio, axis=-1 if received.ndim > 1 else None)
    # a NaN symbol raises no floating-point error, so the values are checked
    if not np.all(np.isfinite(value)):
        raise NumericalError("evm: a NaN or infinite symbol")
    return float(value) if received.ndim <= 1 else value


@dataclass
class PsdEstimate:
    """Two-sided power spectral density on a strictly ascending frequency
    grid; resolution_bw, the width of a lone bin, is a positive finite
    number.  A grid or width that breaks this raises ConfigError."""

    freqs: np.ndarray
    power_db: np.ndarray
    resolution_bw: float

    def __post_init__(self):
        self.freqs = _numbers(self.freqs, "frequencies", float)
        self.power_db = _numbers(self.power_db, "powers", float)
        if self.freqs.ndim != 1 or self.freqs.shape != self.power_db.shape:
            raise ConfigError("frequency and power arrays must be 1-D of one length")
        if not np.all(self.freqs[1:] > self.freqs[:-1]):
            raise ConfigError("frequencies must be strictly ascending")
        bw = _numbers(self.resolution_bw, "resolution bandwidth", float)
        if bw.ndim or not 0.0 < bw < math.inf:
            raise ConfigError(f"resolution bandwidth must be a positive finite number, "
                              f"got {self.resolution_bw!r:.60}")
        self.resolution_bw = float(bw)

    def power_linear(self) -> np.ndarray:
        return 10.0 ** (self.power_db / 10.0)


def occupied_bandwidth(estimate: PsdEstimate, containment: float = 0.99) -> float:
    """Smallest symmetric band around the power centroid holding the
    requested power fraction; a single occupied bin reports one bin width.
    A power or sum that overflows, or a width that is not finite, raises
    NumericalError."""
    if not 0.0 < containment < 1.0:
        raise ConfigError("containment must be in (0, 1)")
    with numerical_errors("occupied_bandwidth"):
        power = estimate.power_linear()
        total = float(np.sum(power))
        if not total > 0.0:
            raise NumericalError(f"spectrum carries no power (total {total})")
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
        width = 2.0 * radius + bin_width
    if not math.isfinite(width):
        raise NumericalError(f"occupied bandwidth is {width}")
    return width


def spectral_efficiency(bit_rate: float, bandwidth: float) -> float:
    """Bit rate divided by occupied bandwidth, in b/s/Hz; a result that is
    not finite raises NumericalError."""
    if not bandwidth > 0.0:
        raise NumericalError(f"bandwidth must be positive, got {bandwidth}")
    value = float(bit_rate) / float(bandwidth)
    if not math.isfinite(value):
        raise NumericalError(f"spectral efficiency of {bit_rate!r} b/s is {value}")
    return value
