"""Waveform and link quality metrics: PAPR, EVM, BER, PSD, bandwidth.

EVM follows the mean-of-power-ratios definition

    EVM = (1/Ls) * sum_i |e_i|^2 / |d_i|^2

i.e. a linear power ratio without the square root used by most industry
conventions.  All ordering comparisons in the experiment suite are
unaffected by this choice; absolute values are not comparable to RMS-EVM
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    FrameTooShort,
    LengthMismatch,
    ZeroBandwidth,
    ZeroEnergy,
    ZeroReferenceSymbol,
)
from .modem import BasebandFrame, ConstellationSpec, OfdmConfig, map_bits, ofdm_modulate


def papr_db(frame: BasebandFrame):
    """Peak-to-average power ratio of the frame, in dB.

    A float for one frame; for a block (..., n) an array of one PAPR per row.
    """
    power = np.abs(np.asarray(frame.samples)) ** 2
    if power.size == 0 or not np.all(np.any(power > 0, axis=-1)):
        raise ZeroEnergy("PAPR undefined for an empty or silent frame")
    ratio = 10.0 * np.log10(np.max(power, axis=-1) / np.mean(power, axis=-1))
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
# about this many bytes of complex samples (8 frames of 2048 samples).
# Per-trial seeding makes every output byte independent of the block size.
_BLOCK_BYTES = 1 << 18


def trial_blocks(count: int, frame_length: int):
    """Consecutive trial ranges covering [0, count), each small enough that
    its frames of frame_length complex samples fit the block budget (at
    least one trial per block)."""
    size = max(1, _BLOCK_BYTES // (16 * frame_length))
    return [range(start, min(start + size, count))
            for start in range(0, count, size)]


def papr_ccdf(cfg: OfdmConfig, spec: ConstellationSpec, n_symbols: int,
              thresholds_db, seed: int) -> CcdfCurve:
    """CCDF of per-symbol PAPR over seeded random payloads.

    Trial k draws its bits from a generator seeded [seed, k], so the curve
    does not depend on how the trials are split into blocks.
    """
    if n_symbols < 1:
        raise ConfigError("need at least one symbol")
    thresholds_db = np.asarray(thresholds_db, dtype=float)
    counts = np.zeros(len(thresholds_db), dtype=np.int64)
    n_bits = cfg.n_subcarriers * spec.bits_per_symbol
    for trials in trial_blocks(n_symbols, cfg.frame_length):
        bits = np.stack([np.random.default_rng([seed, trial]).integers(0, 2, n_bits)
                         for trial in trials])
        values = papr_db(ofdm_modulate(map_bits(bits, spec), cfg))
        counts += np.sum(values[:, None] > thresholds_db, axis=0)
    return CcdfCurve(thresholds_db, counts / n_symbols, n_symbols,
                     exceed_counts=counts)


def evm(received, reference) -> float:
    """Mean per-symbol power ratio between error vectors and references."""
    received = np.asarray(received, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if received.shape != reference.shape:
        raise LengthMismatch("received/reference symbol counts differ")
    if received.size == 0:
        raise ConfigError("EVM needs at least one symbol")
    ref_power = np.abs(reference) ** 2
    if np.any(ref_power == 0.0):
        raise ZeroReferenceSymbol("reference symbols must be nonzero")
    return float(np.mean(np.abs(received - reference) ** 2 / ref_power))


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
    window: str = "hann"


@dataclass(frozen=True)
class PeriodogramMethod:
    window: str = "boxcar"


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
    """Welch (default) or periodogram PSD of a frame, window-gain corrected.

    The two-sided density integrates to the frame's average power within
    estimator tolerance.
    """
    # imported here: scipy.signal takes about a second to load and no
    # study calls psd()
    from scipy import signal as _signal

    x = np.asarray(frame.samples)
    fs = float(frame.sample_rate)
    if method is None:
        method = WelchMethod(segment=min(1024, len(x)))
    if isinstance(method, WelchMethod):
        if len(x) < method.segment:
            raise FrameTooShort(
                f"frame ({len(x)}) shorter than Welch segment ({method.segment})"
            )
        freqs, pxx = _signal.welch(
            x,
            fs=fs,
            window=method.window,
            nperseg=method.segment,
            noverlap=int(method.overlap * method.segment),
            detrend=False,
            return_onesided=False,
            scaling="density",
        )
        res_bw = fs / method.segment
    elif isinstance(method, PeriodogramMethod):
        if len(x) == 0:
            raise FrameTooShort("empty frame")
        freqs, pxx = _signal.periodogram(
            x,
            fs=fs,
            window=method.window,
            detrend=False,
            return_onesided=False,
            scaling="density",
        )
        res_bw = fs / len(x)
    else:
        raise ConfigError(f"unknown PSD method {method!r}")
    order = np.argsort(freqs)
    pxx = np.maximum(pxx[order], 1e-300)
    return PsdEstimate(
        freqs=freqs[order],
        power_db=10.0 * np.log10(pxx),
        resolution_bw=res_bw,
        method=method,
    )


def occupied_bandwidth(estimate: PsdEstimate, containment: float = 0.99) -> float:
    """Smallest symmetric band around the power centroid holding the
    requested power fraction; a single occupied bin reports one bin width."""
    if not 0.0 < containment < 1.0:
        raise ConfigError("containment must be in (0, 1)")
    power = estimate.power_linear()
    total = float(np.sum(power))
    if total <= 0.0:
        raise ZeroBandwidth("spectrum carries no power")
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
    if bandwidth <= 0.0:
        raise ZeroBandwidth("bandwidth must be positive")
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
