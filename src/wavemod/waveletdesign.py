"""Parametric wavelet construction and pulse-set design.

Two construction routes live here:

* An orthonormalized Gaussian scaling function defined directly in the
  frequency domain.  A Gaussian bump is divided by the square root of its
  own lattice power sum, which forces the integer-shift orthonormality
  identity sum_k |Phi(f + k/T)|^2 = 1 by construction.  The time-domain
  waveform is obtained by trapezoidal inverse Fourier quadrature and the
  scaling filter by two-scale inner products.

* Sampling of the scaling/wavelet functions of any shipped orthogonal
  filter pair through the cascade iteration, plus dyadic compressions of a
  mother wavelet for multi-pulse shaping.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .filterbank import WaveletFilterPair


# Widest sigma * symbol_period whose smallest lattice term, exp(-2 pi^2
# (sigma T)^2) at the band edge, is still a normal float.  Past it the
# orthonormality residual degrades (1.3e-5 at 6.1 against 5e-14 at 6.0),
# and from about 6.15 the term underflows to 0 and the spectrum reads 0/0.
_MAX_SIGMA_T = math.sqrt(-math.log(sys.float_info.min) / (2.0 * math.pi**2))


@dataclass(frozen=True)
class ModifiedGaussianParams:
    """Width parameter, symbol period and lattice truncation order.

    Only the product sigma * symbol_period matters for the spectral shape;
    both are kept so frequency axes stay in physical units.  tail_bound
    reports the size of the first neglected lattice term so callers can
    enlarge l_max when pushing sigma down.
    """

    sigma: float
    symbol_period: float = 1.0
    l_max: int = 8

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if not self.symbol_period > 0:
            raise ConfigError("symbol period must be positive")
        if self.l_max < 1:
            raise ConfigError("l_max must be >= 1")
        if not self.sigma_t <= _MAX_SIGMA_T:
            raise ConfigError(
                f"sigma * symbol_period must be at most {_MAX_SIGMA_T:.4g}, "
                f"got {self.sigma_t!r}"
            )

    @property
    def sigma_t(self) -> float:
        return self.sigma * self.symbol_period

    @property
    def tail_bound(self) -> float:
        """Magnitude of the first lattice term beyond the truncation."""
        return math.exp(-8.0 * self.sigma_t**2 * math.pi**2 * self.l_max**2)


@dataclass
class SampledWaveform:
    """Uniformly sampled time-domain signal."""

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if not self.dt > 0:
            raise ConfigError("sample spacing must be positive")
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ConfigError("waveform contains non-finite samples")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt)


@dataclass
class SpectrumSamples:
    """Uniformly sampled frequency-domain signal."""

    values: np.ndarray
    df: float
    f0: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if not self.df > 0:
            raise ConfigError("frequency spacing must be positive")

    def freqs(self) -> np.ndarray:
        return self.f0 + self.df * np.arange(len(self.values))


def mod_gauss_amplitude(params: ModifiedGaussianParams, f) -> np.ndarray:
    """Amplitude spectrum of the orthonormalized Gaussian at frequencies f.

    Evaluates exp(-sigma^2 T^2 (2 pi f)^2) divided by the square root of
    the truncated lattice sum of exp(-8 sigma^2 T^2 pi^2 (f + l/T)^2).
    The full lattice sum is periodic in f with period 1/T, so it is
    evaluated at the wrapped frequency offset; that keeps the truncation
    error uniformly at tail_bound level for all f.
    """
    f = np.asarray(f, dtype=float)
    s2 = params.sigma_t**2
    nu = f * params.symbol_period
    numerator = np.exp(-4.0 * np.pi**2 * s2 * nu**2)
    # the full lattice sum is 1-periodic and even; evaluating at |wrapped|
    # makes Phi(-f) == Phi(f) bit-exact
    frac = np.abs(nu - np.round(nu))
    ell = np.arange(-params.l_max, params.l_max + 1)
    lattice = np.exp(
        -8.0 * np.pi**2 * s2 * (frac[..., None] + ell) ** 2
    ).sum(axis=-1)
    return numerator / np.sqrt(lattice)


def mod_gauss_spectrum(
    params: ModifiedGaussianParams, f0: float, df: float, n: int
) -> SpectrumSamples:
    """Sample the amplitude spectrum on a uniform frequency grid."""
    if n < 1 or not df > 0:
        raise ConfigError("need a nonempty grid with positive spacing")
    f = f0 + df * np.arange(n)
    return SpectrumSamples(values=mod_gauss_amplitude(params, f), df=df, f0=f0)


def lattice_orthonormality_residual(
    params: ModifiedGaussianParams, n_grid: int = 10_000
) -> float:
    """max_f |sum_k |Phi(f + k/T)|^2 - 1| over one period of f."""
    T = params.symbol_period
    f = np.linspace(-0.5 / T, 0.5 / T, n_grid)
    k = np.arange(-params.l_max, params.l_max + 1) / T
    shifted = mod_gauss_amplitude(params, f[:, None] + k)
    total = np.sum(shifted**2, axis=-1)
    return float(np.max(np.abs(total - 1.0)))


def _inverse_ft(params: ModifiedGaussianParams, t: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature of the inverse Fourier integral at times t.

    The trapezoid sum equals the true waveform plus Poisson images spaced
    1/df apart.  The waveform's tails decay only exponentially with a rate
    that shrinks like 1/(sigma T)^2 (the orthogonalization sharpens the
    band edges), so the image distance is scaled accordingly.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    T = params.symbol_period
    f_span = (params.l_max + 1) / T
    t_reach = float(np.max(np.abs(t))) if t.size else T
    image_dist = 2.0 * t_reach + T * (40.0 + 200.0 * params.sigma_t**2)
    n_f = int(np.ceil(2.0 * f_span * image_dist)) + 1
    f = np.linspace(-f_span, f_span, n_f)
    df = f[1] - f[0]
    weights = np.full(n_f, df)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    spectrum = mod_gauss_amplitude(params, f) * weights
    out = np.empty(len(t), dtype=complex)
    for start in range(0, len(t), 512):
        block = t[start:start + 512]
        out[start:start + 512] = np.exp(
            2j * np.pi * np.outer(block, f)
        ) @ spectrum
    return out


def mod_gauss_time(
    params: ModifiedGaussianParams, n_samples: int, dt: float
) -> SampledWaveform:
    """Time-domain scaling function by numerical inverse Fourier transform.

    The grid is symmetric about t = 0 and must span at least
    [-8 sigma T, +8 sigma T].  The result is scaled by sqrt(T) so that
    <phi, phi> = 1 under the continuous inner product.
    """
    span = n_samples * dt
    if span < 16.0 * params.sigma_t:
        raise ConfigError(
            f"span {span:.3g} shorter than 16 sigma T = "
            f"{16 * params.sigma_t:.3g}"
        )
    t0 = -(n_samples // 2) * dt
    t = t0 + dt * np.arange(n_samples)
    samples = _inverse_ft(params, t) * np.sqrt(params.symbol_period)
    return SampledWaveform(samples=samples, dt=dt, t0=t0)


@dataclass
class ScalingFilter:
    """Two-scale filter taps h[n] for n in [n_min, n_min + len - 1]."""

    taps: np.ndarray
    n_min: int
    truncated: bool

    def sum(self) -> float:
        return float(np.sum(self.taps))


def derive_scaling_filter(
    phi: SampledWaveform,
    params: ModifiedGaussianParams,
    tap_threshold: float = 1e-8,
) -> ScalingFilter:
    """Scaling filter from the two-scale relation h[n] = <phi(t/2), phi(t-nT)>/sqrt(2).

    phi must come from :func:`mod_gauss_time` (symmetric grid, dt dividing
    the symbol period).  Taps are returned over the window where the two
    supports overlap; `truncated` flags edge taps above tap_threshold.

    Raises NumericalError when sum(h) misses sqrt(2) by more than 1e-4.
    """
    T = params.symbol_period
    shift = T / phi.dt
    if abs(shift - round(shift)) > 1e-9:
        raise ConfigError("sample spacing must divide the symbol period")
    shift = int(round(shift))
    t = phi.times()
    phi_half = _inverse_ft(params, t / 2.0) * np.sqrt(T)
    base = np.real(phi.samples)
    n_max = (len(base) // 2) // shift
    taps = []
    for n in range(-n_max, n_max + 1):
        offset = n * shift
        if offset >= 0:
            prod = phi_half[offset:] * base[: len(base) - offset]
        else:
            prod = phi_half[:offset] * base[-offset:]
        taps.append(np.real(np.sum(prod)) * phi.dt / np.sqrt(2.0))
    taps = np.asarray(taps)
    keep = np.abs(taps) > tap_threshold
    if not np.any(keep):
        raise NumericalError("all two-scale taps below threshold")
    first = int(np.argmax(keep))
    last = len(taps) - 1 - int(np.argmax(keep[::-1]))
    window = taps[first:last + 1]
    truncated = bool(first == 0 or last == len(taps) - 1)
    total = float(np.sum(window))
    if abs(total - np.sqrt(2.0)) > 1e-4:
        raise NumericalError(
            f"sum of derived taps {total:.6f} differs from sqrt(2) by "
            f"{abs(total - np.sqrt(2)):.2e}"
        )
    return ScalingFilter(taps=window, n_min=first - n_max, truncated=truncated)


def _main_lobe_edge(mag: np.ndarray, peak: int, step: int) -> int:
    # Walk away from the peak through every non-rise, and through rises
    # whose preceding minimum stays within 6 dB of the peak: flat-topped
    # spectra (truncated RC/SRRC, strongly orthogonalized Gaussians) carry
    # shallow passband ripple that must not split the main lobe.
    floor = 0.5 * mag[peak]
    i = peak
    while 0 <= i + step < len(mag):
        if mag[i + step] <= mag[i] or mag[i] > floor:
            i += step
        else:
            break
    return i


def sidelobe_level(spec: SpectrumSamples) -> float:
    """Highest sidelobe relative to the peak, in dB of power.

    The spectrum values are treated as amplitude samples.  The main lobe
    extends from the peak to the first local minimum at least 6 dB below
    it on each side; the returned value is 10 log10 of the power ratio
    between the largest local maximum outside the main lobe and the peak.
    Returns -inf when no sidelobe exists (monotone decay away from the
    peak).
    """
    mag = np.abs(np.asarray(spec.values, dtype=complex)).astype(float)
    if mag.size == 0 or not np.any(mag > 0):
        raise ConfigError("no nonzero spectrum samples")
    peak = int(np.argmax(mag))
    right = _main_lobe_edge(mag, peak, +1)
    left = _main_lobe_edge(mag, peak, -1)
    best = 0.0
    for i in range(1, len(mag) - 1):
        if left <= i <= right:
            continue
        if mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1] and (
            mag[i] > mag[i - 1] or mag[i] > mag[i + 1]
        ):
            best = max(best, mag[i])
    if best == 0.0:
        return float("-inf")
    return float(20.0 * np.log10(best / mag[peak]))


def _cascade(pair: WaveletFilterPair, first: np.ndarray, iterations: int):
    x = np.array([1.0])
    taps = [first] + [pair.h] * (iterations - 1)
    for f in taps:
        up = np.zeros(2 * len(x))
        up[::2] = x
        x = np.convolve(up, f)
    x = x * 2.0 ** (iterations / 2.0)
    support = (pair.length - 1) * 2**iterations
    return x[:max(support, 1)]


def scaling_function(pair: WaveletFilterPair, iterations: int = 8) -> SampledWaveform:
    """Sample the scaling function on a dyadic grid via cascade iteration."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    dt = 2.0**-iterations
    return SampledWaveform(samples=_cascade(pair, pair.h, iterations), dt=dt)


def mother_wavelet(pair: WaveletFilterPair, iterations: int = 8) -> SampledWaveform:
    """Sample the mother wavelet on a dyadic grid via cascade iteration."""
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    dt = 2.0**-iterations
    return SampledWaveform(samples=_cascade(pair, pair.g, iterations), dt=dt)


def raised_cosine_pulse(rolloff: float, dt: float = 1.0 / 64.0,
                        span: float = 8.0) -> SampledWaveform:
    """Unit-energy raised-cosine pulse truncated to +-span symbol periods."""
    if not 0.0 <= rolloff <= 1.0:
        raise ConfigError("roll-off must be in [0, 1]")
    t = np.arange(-span, span + dt / 2.0, dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.sinc(t) * np.cos(np.pi * rolloff * t) / (1.0 - (2.0 * rolloff * t) ** 2)
    if rolloff > 0.0:
        singular = np.isclose(np.abs(2.0 * rolloff * t), 1.0)
        p[singular] = np.pi / 4.0 * np.sinc(1.0 / (2.0 * rolloff))
    energy = np.sum(p**2) * dt
    return SampledWaveform(samples=p / np.sqrt(energy), dt=dt, t0=-span)


def root_raised_cosine_pulse(rolloff: float, dt: float = 1.0 / 64.0,
                             span: float = 8.0) -> SampledWaveform:
    """Unit-energy square-root raised-cosine pulse truncated to +-span periods."""
    if not 0.0 < rolloff <= 1.0:
        raise ConfigError("roll-off must be in (0, 1]")
    t = np.arange(-span, span + dt / 2.0, dt)
    b = rolloff
    p = np.empty_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (np.sin(np.pi * t * (1 - b)) + 4 * b * t * np.cos(np.pi * t * (1 + b))) / (
            np.pi * t * (1.0 - (4.0 * b * t) ** 2)
        )
    p[np.isclose(t, 0.0)] = 1.0 - b + 4.0 * b / np.pi
    singular = np.isclose(np.abs(4.0 * b * t), 1.0) & ~np.isclose(t, 0.0)
    p[singular] = (b / np.sqrt(2.0)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
    )
    energy = np.sum(p**2) * dt
    return SampledWaveform(samples=p / np.sqrt(energy), dt=dt, t0=-span)


def dyadic_pulse_set(mother: SampledWaveform, n_dyadics: int) -> list[SampledWaveform]:
    """Mother wavelet plus its first n_dyadics time compressions.

    Returns unit-energy pulses [psi(t), sqrt(2) psi(2t), 2 psi(4t)][:n+1].
    The compressed pulses are taken by decimating the mother's samples, so
    the mother must start at t0 = 0 and carry at least 16 samples inside
    the fastest compression.
    """
    if n_dyadics not in (0, 1, 2):
        raise ConfigError("n_dyadics must be 0, 1 or 2")
    if abs(mother.t0) > 1e-12:
        raise ConfigError("mother must be sampled from t0 = 0")
    if len(mother.samples) // (2**n_dyadics) < 16:
        raise ConfigError(
            f"{len(mother.samples)} samples leave fewer than 16 in the "
            f"fastest of {n_dyadics + 1} pulses"
        )
    pulses = []
    for m in range(n_dyadics + 1):
        compressed = np.asarray(mother.samples)[:: 2**m]
        energy = np.sum(np.abs(compressed) ** 2) * mother.dt
        pulses.append(
            SampledWaveform(
                samples=compressed / np.sqrt(energy), dt=mother.dt, t0=0.0
            )
        )
    return pulses
