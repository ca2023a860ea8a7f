"""Orthogonal two-channel filter banks and wavelet transforms.

The analysis pair (h, g) is a quadrature mirror filter pair: h is the
lowpass (scaling) filter normalized to sum(h) = sqrt(2) and unit l2 norm,
and the highpass mate is tied to it by the alternating-sign relation

    g[n] = (-1)**n * h[L - 1 - n].

All transforms use periodic (circular) boundary handling, which keeps them
exactly orthogonal and critically sampled on power-of-two-friendly block
lengths, and use the sqrt(2)-per-stage normalization so Parseval holds.
Synthesis uses the time-reversed analysis taps with a compensating circular
shift, giving a zero-delay roundtrip.

Operations accept arrays of shape (..., n) and transform the last axis, so
Monte-Carlo batches can be pushed through in one call.

The multi-level transforms return a SubbandSet: one (..., n) coefficient
array with the bands side by side along the last axis, coarsest first (the
full packet tree's 2**J bands in natural order).  Its ``bands`` are views
into that array, never copies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _wavelet_coeffs
from .errors import BadLength, ConfigError, LengthMismatch, OddLength, UnsupportedFamily

DWT_PRUNED = "dwt-pruned"
WPT_FULL = "wpt-full"


@dataclass(frozen=True)
class WaveletFilterPair:
    """Lowpass/highpass analysis pair defining an orthogonal two-channel bank.

    Instances built by :func:`make_filter` satisfy the QMF invariants
    (alternating-sign relation, sum and norm normalizations).  Directly
    constructed instances are only checked structurally, so perturbed pairs
    can be built for sensitivity experiments.
    """

    h: np.ndarray
    g: np.ndarray
    family: str

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if h.ndim != 1 or g.ndim != 1:
            raise ConfigError("filter taps must be one-dimensional")
        if len(h) != len(g):
            raise LengthMismatch(
                f"lowpass has {len(h)} taps, highpass has {len(g)}"
            )
        if len(h) % 2 != 0 or len(h) == 0:
            raise ConfigError("filter length must be even and positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def length(self) -> int:
        return len(self.h)

    @classmethod
    def from_lowpass(cls, h, family: str = "custom") -> "WaveletFilterPair":
        """Build the pair from a lowpass filter via the alternating-sign rule."""
        h = np.asarray(h, dtype=float)
        g = ((-1.0) ** np.arange(len(h))) * h[::-1]
        return cls(h=h, g=g, family=family)


_FAMILY_ALIASES = {
    "haar": "haar",
    "daubechies": "db",
    "db": "db",
    "symlet": "sym",
    "symlets": "sym",
    "sym": "sym",
    "coiflet": "coif",
    "coiflets": "coif",
    "coif": "coif",
}


def make_filter(family: str, order: int = 1) -> WaveletFilterPair:
    """Return the orthogonal filter pair for a named wavelet family.

    Supported: Haar (order 1), Daubechies 2..20, Symlet 2..10, Coiflet 1..5.

    Raises
    ------
    UnsupportedFamily
        If the family name is unknown or the order is out of range.
    """
    key = _FAMILY_ALIASES.get(str(family).strip().lower())
    if key is None:
        raise UnsupportedFamily(f"unknown wavelet family {family!r}")
    if key == "haar":
        if order != 1:
            raise UnsupportedFamily("Haar exists only at order 1")
        s = np.sqrt(0.5)
        return WaveletFilterPair.from_lowpass([s, s], family="haar")
    tables = {
        "db": _wavelet_coeffs.DAUBECHIES,
        "sym": _wavelet_coeffs.SYMLETS,
        "coif": _wavelet_coeffs.COIFLETS,
    }
    table = tables[key]
    if order not in table:
        supported = f"{min(table)}..{max(table)}"
        raise UnsupportedFamily(
            f"{key}{order} not available (supported orders: {supported})"
        )
    return WaveletFilterPair.from_lowpass(table[order], family=f"{key}{order}")


def list_families() -> list[str]:
    """Names of every shipped filter pair (haar, db2.., sym2.., coif1..)."""
    names = ["haar"]
    names += [f"db{k}" for k in sorted(_wavelet_coeffs.DAUBECHIES)]
    names += [f"sym{k}" for k in sorted(_wavelet_coeffs.SYMLETS)]
    names += [f"coif{k}" for k in sorted(_wavelet_coeffs.COIFLETS)]
    return names


def filter_by_name(name: str) -> WaveletFilterPair:
    """Resolve names like 'haar', 'db10', 'sym5', 'coif3'."""
    name = name.strip().lower()
    if name == "haar":
        return make_filter("haar", 1)
    for prefix in ("db", "sym", "coif"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return make_filter(prefix, int(name[len(prefix):]))
    raise UnsupportedFamily(f"cannot parse wavelet name {name!r}")


# The index tables depend only on (row length, taps), and a transform at J
# levels needs J of them, so each is built once and shared read-only.
@functools.lru_cache(maxsize=128)
def _gather_index(n: int, taps: int) -> np.ndarray:
    # row k holds the circular sample indices feeding output coefficient k
    idx = (np.arange(taps)[None, :] + 2 * np.arange(n // 2)[:, None]) % n
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=128)
def _synthesis_index(half: int, taps: int) -> np.ndarray:
    # row m holds the subband indices m - p (circular) for polyphase tap p
    idx = (np.arange(half)[:, None] - np.arange(taps)[None, :]) % half
    idx.flags.writeable = False
    return idx


# Above this many scalar multiply-adds the circular correlations run as
# FFT products instead of gathered matmuls; both paths agree to ~1e-13.
_FFT_WORK_THRESHOLD = 1 << 18


def _pad_taps(taps: np.ndarray, n: int) -> np.ndarray:
    # taps beyond the period wrap around, as in the gather path's index table
    return np.bincount(np.arange(len(taps)) % n, weights=taps, minlength=n)


def analysis_step(x, pair: WaveletFilterPair):
    """One decimating analysis step: a[k] = sum_n h[n-2k] x[n], same for g.

    Uses periodic extension.  Accepts (..., n) arrays and returns a pair of
    (..., n/2) arrays.

    Summation order: a two-tap pair runs elementwise on the even and odd
    samples, a = even*h[0] + odd*h[1], so every row gives the same bits
    whatever the leading axes.  Longer pairs take a gathered matmul, whose
    order is numpy's choice for each shape: a single (n/2, L) slice runs
    one BLAS gemv, stacked bands the in-order non-BLAS loop, and
    one-coefficient bands a dot per slice; so their bits can depend on the
    leading axes, and on the BLAS build.  Large arrays of longer pairs run
    as FFT products instead.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n % 2 != 0:
        raise OddLength(f"signal length {n} is odd")
    if pair.length == 2:
        even, odd = x[..., 0::2], x[..., 1::2]
        h, g = pair.h, pair.g
        return even * h[0] + odd * h[1], even * g[0] + odd * g[1]
    if x.size * pair.length >= _FFT_WORK_THRESHOLD:
        spectrum = np.fft.fft(x, axis=-1)
        corr_h = np.fft.ifft(
            spectrum * np.conj(np.fft.fft(_pad_taps(pair.h, n))), axis=-1
        )
        corr_g = np.fft.ifft(
            spectrum * np.conj(np.fft.fft(_pad_taps(pair.g, n))), axis=-1
        )
        a, d = corr_h[..., 0::2], corr_g[..., 0::2]
        if not np.iscomplexobj(x):
            return a.real, d.real
        return a, d
    idx = _gather_index(n, pair.length)
    windows = x[..., idx]
    return windows @ pair.h, windows @ pair.g


def synthesis_step(a, d, pair: WaveletFilterPair):
    """Inverse of :func:`analysis_step` (adjoint of the orthogonal analysis).

    Computed polyphase: even and odd output samples are circular
    convolutions of the subbands with the even/odd filter taps,

        x[2m + r] = sum_p h[2p + r] a[m - p] + g[2p + r] d[m - p].
    """
    a = np.asarray(a)
    d = np.asarray(d)
    if a.shape != d.shape:
        raise LengthMismatch(
            f"approximation shape {a.shape} != detail shape {d.shape}"
        )
    half = a.shape[-1]
    n = 2 * half
    if a.size * pair.length >= _FFT_WORK_THRESHOLD and pair.length > 2:
        up = np.zeros(a.shape[:-1] + (n,), dtype=np.result_type(a, d, 1j))
        up[..., 0::2] = a
        spectrum = np.fft.fft(up, axis=-1) * np.fft.fft(_pad_taps(pair.h, n))
        up[..., 0::2] = d
        spectrum += np.fft.fft(up, axis=-1) * np.fft.fft(_pad_taps(pair.g, n))
        out = np.fft.ifft(spectrum, axis=-1)
        if not (np.iscomplexobj(a) or np.iscomplexobj(d)):
            return out.real
        return out
    out = np.empty(a.shape[:-1] + (n,), dtype=np.result_type(a, d, pair.h))
    if pair.length == 2:
        h, g = pair.h, pair.g
        out[..., 0::2] = a * h[0] + d * g[0]
        out[..., 1::2] = a * h[1] + d * g[1]
        return out
    idx = _synthesis_index(half, pair.length // 2)
    win_a = a[..., idx]
    win_d = d[..., idx]
    out[..., 0::2] = win_a @ pair.h[0::2] + win_d @ pair.g[0::2]
    out[..., 1::2] = win_a @ pair.h[1::2] + win_d @ pair.g[1::2]
    return out


@dataclass(frozen=True)
class SubbandSet:
    """Critically sampled subband decomposition of one signal block.

    ``coeffs`` is one (..., n) array holding every band along the last
    axis, coarsest first: [a_J, d_J, d_{J-1}, ..., d_1] for the pruned DWT
    tree, and for the full packet tree the level-J stack of 2**J equal
    bands in natural order, so ``coeffs.reshape(..., 2**J, n >> J)`` is that
    stack.  :attr:`bands` splits it into views.
    """

    coeffs: np.ndarray = field(repr=False)
    tree_kind: str = DWT_PRUNED
    levels: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs))
        band_lengths(self.tree_kind, self.levels, self.coeffs.shape[-1])

    @property
    def bands(self) -> list[np.ndarray]:
        """Per-band views of ``coeffs`` (no copy), coarsest first."""
        lengths = band_lengths(self.tree_kind, self.levels, self.coeffs.shape[-1])
        return np.split(self.coeffs, np.cumsum(lengths)[:-1], axis=-1)

    @classmethod
    def from_flat(cls, vec, tree_kind: str, levels: int) -> "SubbandSet":
        """Wrap a flat coefficient vector (no copy) as a SubbandSet."""
        return cls(vec, tree_kind, levels)


def band_lengths(tree_kind: str, levels: int, n: int) -> list[int]:
    """Per-band coefficient counts for a length-n input.

    The one check of a subband layout: raises ConfigError for an unknown
    tree kind or levels < 1, and BadLength unless 2**levels divides n.
    """
    if tree_kind not in (DWT_PRUNED, WPT_FULL):
        raise ConfigError(f"unknown tree kind {tree_kind!r}")
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    if n % (2**levels) != 0:
        raise BadLength(f"length {n} not divisible by 2**{levels}")
    if tree_kind == DWT_PRUNED:
        # [a_J, d_J, d_{J-1}, ..., d_1]
        return [n >> levels] + [n >> j for j in range(levels, 0, -1)]
    return [n >> levels] * (2**levels)


def dwt(x, pair: WaveletFilterPair, levels: int) -> SubbandSet:
    """Multi-level discrete wavelet transform (approximation branch recursed).

    Bands are ordered coarsest first: [a_J, d_J, d_{J-1}, ..., d_1].
    """
    x = np.asarray(x)
    band_lengths(DWT_PRUNED, levels, x.shape[-1])
    details = []
    approx = x
    for _ in range(levels):
        approx, d = analysis_step(approx, pair)
        details.append(d)
    coeffs = np.concatenate([approx] + details[::-1], axis=-1)
    return SubbandSet(coeffs, DWT_PRUNED, levels)


def idwt(subbands: SubbandSet, pair: WaveletFilterPair):
    """Inverse multi-level DWT."""
    if subbands.tree_kind != DWT_PRUNED:
        raise ConfigError("idwt expects a DWT-pruned subband set")
    approx, *details = subbands.bands
    for d in details:
        approx = synthesis_step(approx, d, pair)
    return approx


def wpt(x, pair: WaveletFilterPair, levels: int) -> SubbandSet:
    """Full wavelet-packet transform: both branches recursed, 2**J bands.

    Bands are in natural (tree) order.  All bands at one level share a
    length, so each level is one batched analysis call.
    """
    x = np.asarray(x)
    band_lengths(WPT_FULL, levels, x.shape[-1])
    stack = x[..., None, :]
    for _ in range(levels):
        a, d = analysis_step(stack, pair)
        shape = list(a.shape)
        shape[-2] *= 2
        merged = np.empty(shape, dtype=np.result_type(a, d))
        merged[..., 0::2, :] = a
        merged[..., 1::2, :] = d
        stack = merged
    return SubbandSet(stack.reshape(x.shape), WPT_FULL, levels)


def iwpt(subbands: SubbandSet, pair: WaveletFilterPair):
    """Inverse full wavelet-packet transform."""
    if subbands.tree_kind != WPT_FULL:
        raise ConfigError("iwpt expects a full-tree subband set")
    coeffs, levels = subbands.coeffs, subbands.levels
    stack = coeffs.reshape(coeffs.shape[:-1] + (2**levels, coeffs.shape[-1] >> levels))
    for _ in range(levels):
        stack = synthesis_step(stack[..., 0::2, :], stack[..., 1::2, :], pair)
    return stack[..., 0, :]


def verify_pr(pair: WaveletFilterPair, grid_size: int = 1024):
    """Evaluate the two-channel perfect-reconstruction conditions.

    With analysis filters H0, G0 and synthesis filters taken as their time
    reversals H1(z) = z^{-(L-1)} H0(1/z), G1(z) = z^{-(L-1)} G0(1/z), the
    bank must satisfy, on the unit circle,

        G0(-z) G1(z) + H0(-z) H1(z) = 0            (alias cancellation)
        G0(z) G1(z) + H0(z) H1(z) = 2 z^{-(L-1)}   (flat amplitude)

    Returns (alias_residual, amplitude_residual): the max absolute
    deviations over grid_size points.
    """
    L = pair.length
    if grid_size < 2 * L:
        raise ConfigError(f"grid_size must be >= 2L = {2 * L}")
    omega = 2.0 * np.pi * np.arange(grid_size) / grid_size
    n = np.arange(L)
    basis = np.exp(-1j * np.outer(omega, n))          # e^{-i w n}
    basis_neg = basis * ((-1.0) ** n)                 # evaluated at -z
    h0 = basis @ pair.h
    g0 = basis @ pair.g
    h0_neg = basis_neg @ pair.h
    g0_neg = basis_neg @ pair.g
    h1 = basis @ pair.h[::-1]
    g1 = basis @ pair.g[::-1]
    alias = np.max(np.abs(g0_neg * g1 + h0_neg * h1))
    target = 2.0 * np.exp(-1j * omega * (L - 1))
    amplitude = np.max(np.abs(g0 * g1 + h0 * h1 - target))
    return float(alias), float(amplitude)
