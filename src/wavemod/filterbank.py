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


def make_filter(family: str, order: int | None = None) -> WaveletFilterPair:
    """Return the orthogonal filter pair for a named wavelet family.

    The order is passed on its own (``make_filter("daubechies", 10)``) or
    attached to the name (``make_filter("db10")``, ``"sym5"``, ``"coif3"``);
    without either it is 1.  Supported: Haar (order 1), Daubechies 2..20,
    Symlet 2..10, Coiflet 1..5.

    Raises
    ------
    UnsupportedFamily
        If the family name is unknown, the order is out of range, or the
        name carries an order and one is also passed.
    """
    name = str(family).strip().lower()
    digits = name[len(name.rstrip("0123456789")):]
    if digits:
        if order is not None:
            raise UnsupportedFamily(
                f"wavelet name {family!r} already carries an order"
            )
        name, order = name[:-len(digits)], int(digits)
    elif order is None:
        order = 1
    key = _FAMILY_ALIASES.get(name)
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


# The index tables depend only on (row length, taps), and a transform at J
# levels needs J of them, so each is built once and shared read-only.
@functools.lru_cache(maxsize=128)
def _gather_index(n: int, taps: int) -> np.ndarray:
    # row k holds the circular sample indices feeding output coefficient k
    idx = (np.arange(taps)[None, :] + 2 * np.arange(n // 2)[:, None]) % n
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=128)
def _padded_index(n: int, taps: int) -> np.ndarray:
    # a period of n samples followed by its first taps - 2 again (circularly)
    idx = np.arange(n + taps - 2) % n
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

# Most multiply-adds one gemv of the one-band gather path may run.
# OpenBLAS 0.3.31 hands a zgemv of 4096 or more to its thread pool, whose
# worker then spins between calls; below that it runs on the calling thread
# (measured on 2 vCPUs: CPU/wall 1.0 for a 204 x 20 zgemv, 2.0 for 205 x 20).
_GEMV_SLICE_MACS = 4095


def _pad_taps(taps: np.ndarray, n: int) -> np.ndarray:
    # taps beyond the period wrap around, as in the gather path's index table
    return np.bincount(np.arange(len(taps)) % n, weights=taps, minlength=n)


def analysis_step(x, pair: WaveletFilterPair):
    """One decimating analysis step: a[k] = sum_n h[n-2k] x[n], same for g.

    Uses periodic extension.  Accepts (..., n) arrays and returns a pair of
    (..., n/2) arrays.

    The last two axes of an input with two or more axes are one frame's
    (bands, n) stack; the axes before them only count frames.

    Summation order: a two-tap pair runs elementwise on the even and odd
    samples, a = even*h[0] + odd*h[1].  Longer pairs take a windowed
    product whose path follows the frame shape, never the frame count:

    * one band of n > 2 samples (a 1-D input, or a frame stack of one
      band): 2-D BLAS gemvs of gathered windows, ``windows @ h``, over the
      rows of every frame, in slices of at most ``_GEMV_SLICE_MACS``
      multiply-adds, so OpenBLAS never wakes its thread pool;
    * stacked bands of n > 2 samples: numpy's in-order non-BLAS loop, one
      matmul per filter over a read-only strided window view of a
      circularly padded copy (rows 2 samples apart, so no gathered copy);
    * n == 2: a dot per band.

    A complex gemv row gives the same bits for any row count of two or
    more (numpy sends a one-row product to dot, so no slice has one row),
    and a real gemv sums in groups of 4 rows, which every slice and every
    gathered frame starts on, so below the FFT threshold every frame of a
    block gives the bits of a call on that frame alone.  The bits also
    depend on the BLAS build.  Large arrays of longer pairs run as FFT
    products instead.
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
    if n > 2 and x.ndim > 1 and x.shape[-2] > 1:
        # (..., n/2, L) windows over a circularly padded copy, stepping 2
        # samples per row and 1 per tap: a row stride below L keeps matmul
        # off BLAS, on numpy's in-order loop.  The view is built on the
        # copy's buffer, not by as_strided: with as_strided (numpy 2.4.6)
        # the peak RSS of 80 evm-sweep studies in one interpreter rose in
        # steps, to about 1.4 MB above this view's.
        padded = np.take(x, _padded_index(n, pair.length), axis=-1)
        step = padded.strides[-1]
        windows = np.ndarray(x.shape[:-1] + (n // 2, pair.length), padded.dtype,
                             padded, 0, padded.strides[:-1] + (2 * step, step))
        windows.flags.writeable = False
        return windows @ pair.h, windows @ pair.g
    idx = _gather_index(n, pair.length)
    frames = x.reshape((-1,) + (x.shape[-2:] if x.ndim > 1 else (1, n)))
    out_shape = x.shape[:-1] + (n // 2,)
    if n > 2:
        a, d = _one_band_gemv(frames[:, 0, :], idx, (pair.h, pair.g))
        return a.reshape(out_shape), d.reshape(out_shape)
    a = np.empty(frames.shape[:-1] + (n // 2,), dtype=np.result_type(x, pair.h))
    d = np.empty_like(a)
    per_gather = max(1, _GEMV_SLICE_MACS // (frames.shape[1] * idx.size))
    for f in range(0, len(frames), per_gather):
        # two-sample bands: (frames, bands, 1, L) windows with each frame's
        # bands innermost, the layout of frame[..., idx], so matmul runs a
        # dot per band; gathered a few frames at a time, which bounds the
        # windows' memory
        block = frames[f:f + per_gather].swapaxes(-1, -2)
        windows = np.take(block, idx, axis=-2).transpose(0, 3, 1, 2)
        a[f:f + per_gather] = windows @ pair.h
        d[f:f + per_gather] = windows @ pair.g
    return a.reshape(out_shape), d.reshape(out_shape)


def _one_band_gemv(rows, idx, taps):
    """``windows @ t`` for each t in taps, as flat arrays, where windows are
    the (frames * len(idx), width) gathered windows ``rows[:, idx]`` of
    (frames, samples) one-band rows.

    Runs 2-D gemvs of at most ``_GEMV_SLICE_MACS`` multiply-adds (8 rows
    for windows wider than 256) over whole groups of 4 rows and at least
    two rows; a frame of one window gets a dot.  Windows are gathered one
    frame at a time, or as many whole frames at a time as one gemv takes
    when every frame starts a group of 4 rows."""
    half, width = idx.shape
    dtype = np.result_type(rows, *taps)
    outs = [np.empty(len(rows) * half, dtype=dtype) for _ in taps]
    step = max(8, (_GEMV_SLICE_MACS // width) & ~3)  # whole groups of 4 rows
    # a frame of one window is gathered alone: numpy sends its one-row
    # product to dot, as in a call on that frame.  So is a real frame of
    # rows that do not fill whole groups of 4: a real gemv sums in groups of
    # 4 rows, and a frame's rows then fall in the groups of its own call.
    alone = half == 1 or (dtype.kind != "c" and half % 4 != 0)
    per_gather = 1 if alone else max(1, step // half)
    for f in range(0, len(rows), per_gather):
        windows = np.take(rows[f:f + per_gather], idx, axis=-1).reshape(-1, width)
        bounds = list(range(0, len(windows), step))
        if len(windows) - bounds[-1] == 1 and len(bounds) > 1:
            bounds[-1] -= 4  # (step - 4, 5) rows instead of a one-row gemv
        offset = f * half
        for lo, hi in zip(bounds, bounds[1:] + [len(windows)]):
            for out, t in zip(outs, taps):
                out[offset + lo:offset + hi] = windows[lo:hi] @ t
    return outs


def synthesis_step(a, d, pair: WaveletFilterPair):
    """Inverse of :func:`analysis_step` (adjoint of the orthogonal analysis).

    Computed polyphase: even and odd output samples are circular
    convolutions of the subbands with the even/odd filter taps,

        x[2m + r] = sum_p h[2p + r] a[m - p] + g[2p + r] d[m - p].

    Frames are laid out as in :func:`analysis_step`.  Longer pairs gather
    windows of L/2 subband samples: one band (a 1-D input, or a frame stack
    of one band) runs the sliced gemvs of the analysis one-band path, so
    every frame of a complex block below the FFT threshold gives the bits
    of a call on that frame alone; stacked bands take one matmul.
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
    if a.ndim > 1 and a.shape[-2] > 1:
        win_a = a[..., idx]
        win_d = d[..., idx]
        out[..., 0::2] = win_a @ pair.h[0::2] + win_d @ pair.g[0::2]
        out[..., 1::2] = win_a @ pair.h[1::2] + win_d @ pair.g[1::2]
        return out
    even_a, odd_a = _one_band_gemv(a.reshape(-1, half), idx,
                                   (pair.h[0::2], pair.h[1::2]))
    even_d, odd_d = _one_band_gemv(d.reshape(-1, half), idx,
                                   (pair.g[0::2], pair.g[1::2]))
    out[..., 0::2] = (even_a + even_d).reshape(a.shape)
    out[..., 1::2] = (odd_a + odd_d).reshape(a.shape)
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
    approx = x[..., None, :]  # one band per frame, the path of a row call
    for _ in range(levels):
        approx, d = analysis_step(approx, pair)
        details.append(d)
    coeffs = np.concatenate([approx] + details[::-1], axis=-1)
    return SubbandSet(coeffs[..., 0, :], DWT_PRUNED, levels)


def idwt(subbands: SubbandSet, pair: WaveletFilterPair):
    """Inverse multi-level DWT."""
    if subbands.tree_kind != DWT_PRUNED:
        raise ConfigError("idwt expects a DWT-pruned subband set")
    approx, *details = subbands.bands
    approx = approx[..., None, :]  # one band per frame, the path of a row call
    for d in details:
        approx = synthesis_step(approx, d[..., None, :], pair)
    return approx[..., 0, :]


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
