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
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _wavelet_coeffs
from .errors import ConfigError, NumericalError, _numbers, numerical_errors

DWT_PRUNED = "dwt-pruned"
WPT_FULL = "wpt-full"


@dataclass(frozen=True)
class WaveletFilterPair:
    """Lowpass/highpass analysis pair defining an orthogonal two-channel bank.

    Instances built by :func:`make_filter` satisfy the QMF invariants
    (alternating-sign relation, sum and norm normalizations).  Directly
    constructed instances are only checked structurally (finite real taps
    of one even length), so perturbed pairs can be built for sensitivity
    experiments.
    """

    h: np.ndarray
    g: np.ndarray
    family: str

    def __post_init__(self):
        h = _numbers(self.h, "lowpass taps", float)
        g = _numbers(self.g, "highpass taps", float)
        if h.ndim != 1 or g.ndim != 1:
            raise ConfigError("filter taps must be one-dimensional")
        if not (np.isfinite(h).all() and np.isfinite(g).all()):
            raise ConfigError("filter taps must be finite")
        if len(h) != len(g):
            raise ConfigError(
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
        h = np.atleast_1d(_numbers(h, "lowpass taps", float))
        g = ((-1.0) ** np.arange(h.shape[-1])) * h[..., ::-1]
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
    ConfigError
        If the family name is unknown, the order is not an integer or out
        of range, or the name carries an order and one is also passed.
    """
    if order is not None and (not isinstance(order, numbers.Integral)
                              or isinstance(order, bool)):
        raise ConfigError(f"wavelet order must be an integer, got {order!r:.60}")
    name = str(family).strip().lower()
    digits = name[len(name.rstrip("0123456789")):]
    if digits:
        if order is not None:
            raise ConfigError(
                f"wavelet name {family!r} already carries an order"
            )
        name, order = name[:-len(digits)], int(digits)
    elif order is None:
        order = 1
    key = _FAMILY_ALIASES.get(name)
    if key is None:
        raise ConfigError(f"unknown wavelet family {family!r}")
    if key == "haar":
        if order != 1:
            raise ConfigError("Haar exists only at order 1")
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
        raise ConfigError(
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


# The index tables depend only on their shape arguments, and a transform at
# J levels needs J of them, so each is built once and shared read-only.
@functools.lru_cache(maxsize=128)
def _window_index(n: int, width: int, row_step: int, tap_step: int) -> np.ndarray:
    # row r holds the circular sample indices r * row_step + p * tap_step
    rows, taps = np.arange(n // row_step)[:, None], np.arange(width)[None, :]
    idx = (row_step * rows + tap_step * taps) % n
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=128)
def _padded_index(n: int, lead: int, length: int) -> np.ndarray:
    # length circular sample indices of a period of n, from -lead on
    idx = (np.arange(length) - lead) % n
    idx.flags.writeable = False
    return idx


# Most multiply-adds one gemv slice of the one-band path may run.  OpenBLAS
# 0.3.31 hands a zgemv of 4096 or more to its thread pool, whose worker then
# spins between calls; below that it runs on the calling thread (measured on
# 2 vCPUs: CPU/wall 1.0 for a 204 x 20 zgemv, 2.0 for 205 x 20).
_GEMV_SLICE_MACS = 4095

# Most bytes one circularly padded copy of stacked bands, or one gather of
# windows, may hold; whole frames are copied or gathered at a time, at least
# one.  Unbounded, a stacked copy grows with the block: at level 7 of a db10
# wpt of 27 rows of 512 samples it is 5.5 times the stack, about 1.2 MB.  On
# 2 vCPUs a 64-frame evm-sweep took 2.6% more CPU at 128 KiB than at this
# size, and 1.6% less at 512 KiB for 0.5 MB more peak RSS.
_GATHER_BYTES = 1 << 18


def _window_view(x, width: int, row_step: int, tap_step: int) -> np.ndarray:
    """Read-only (..., n // row_step, width) view of the (..., n) array x,
    ``view[..., r, p] = x[..., (r * row_step + p * tap_step) % n]``, on a
    circularly padded copy: no window is gathered, and overlapping rows keep
    matmul off BLAS, on numpy's in-order loop over the taps.  It is built on
    the copy's buffer, not by as_strided: with as_strided (numpy 2.4.6) the
    peak RSS of 80 evm-sweep studies in one interpreter rose in steps, to
    about 1.4 MB above this view's."""
    n = x.shape[-1]
    rows = n // row_step
    lead = (width - 1) * max(0, -tap_step)
    length = (rows - 1) * row_step + (width - 1) * abs(tap_step) + 1
    padded = np.take(x, _padded_index(n, lead, length), axis=-1)
    step = padded.strides[-1]
    view = np.ndarray(x.shape[:-1] + (rows, width), padded.dtype, padded, lead * step,
                      padded.strides[:-1] + (row_step * step, tap_step * step))
    view.flags.writeable = False
    return view


def _windowed_products(x, width: int, row_step: int, tap_step: int, taps):
    """``windows @ t`` for each t in taps, each of shape (..., n // row_step),
    where window r of the (..., n) array x is
    ``x[..., (r * row_step + p * tap_step) % n]`` for p < width.

    The last two axes of an input with two or more axes are one frame's
    (bands, n) stack; the axes before them only count frames.  The path, and
    so the summation order, follows the frame shape, never the frame count:

    * stacked bands of two or more windows: numpy's in-order non-BLAS loop,
      one matmul per tap vector over the read-only :func:`_window_view` of
      a few whole frames at a time, whose padded copy holds at most
      ``_GATHER_BYTES`` (or one frame), written into the preallocated
      outputs;
    * one window per band (two-sample analysis, one-sample synthesis): a
      dot per band, on windows copied with each frame's bands innermost (the
      layout of ``frame[..., idx]``), gathered whole frames at a time under
      ``_GATHER_BYTES``.  A strided dot's bits do not depend on its stride,
      only on the stride not being 1, and one band's copy has unit stride,
      as a row call has;
    * one band of two or more windows (a 1-D input, or a frame stack of one
      band): the sliced 2-D BLAS gemvs of :func:`_one_band_gemv`.

    Frames are independent in each product.  A complex gemv row gives the
    same bits for any row count of two or more (numpy sends a one-row
    product to dot, so no slice has one row), and a real gemv sums in
    groups of 4 rows, which every slice and every gathered frame starts on,
    so every frame of a block of any size gives the bits of a call on that
    frame alone.  The bits also depend on the BLAS build.
    """
    n = x.shape[-1]
    rows = n // row_step
    out_shape = x.shape[:-1] + (rows,)
    if rows > 1 and (x.ndim == 1 or x.shape[-2] == 1):
        idx = _window_index(n, width, row_step, tap_step)
        return [out.reshape(out_shape) for out in _one_band_gemv(x.reshape(-1, n), idx, taps)]
    frames = x.reshape((-1,) + (x.shape[-2:] if x.ndim > 1 else (1, n)))
    bands = frames.shape[1]
    dtype = np.result_type(x, *taps)
    outs = [np.empty((len(frames), bands, rows), dtype=dtype) for _ in taps]
    if rows > 1:
        length = (rows - 1) * row_step + (width - 1) * abs(tap_step) + 1
        per_gather = max(1, _GATHER_BYTES // (bands * length * frames.itemsize))
        for f in range(0, len(frames), per_gather):
            windows = _window_view(frames[f:f + per_gather], width, row_step, tap_step)
            for out, t in zip(outs, taps):
                np.matmul(windows, t, out=out[f:f + per_gather])
    else:
        idx = _window_index(n, width, row_step, tap_step)
        per_gather = max(1, _GATHER_BYTES // (bands * width * frames.itemsize))
        for f in range(0, len(frames), per_gather):
            # (frames, bands, 1, width) windows, bands innermost in memory
            block = frames[f:f + per_gather].swapaxes(-1, -2)
            windows = np.take(block, idx, axis=-2).transpose(0, 3, 1, 2)
            for out, t in zip(outs, taps):
                np.matmul(windows, t, out=out[f:f + per_gather])
    return [out.reshape(out_shape) for out in outs]


def _one_band_gemv(rows, idx, taps):
    """``windows @ t`` for each t in taps, as flat arrays, where windows are
    the (frames * len(idx), width) gathered windows ``rows[:, idx]`` of
    (frames, samples) one-band rows, with two or more windows a frame.

    Windows are gathered whole frames at a time under ``_GATHER_BYTES``,
    and each gather runs 2-D gemvs of at most ``_GEMV_SLICE_MACS``
    multiply-adds (8 rows for windows wider than 256) over whole groups of
    4 rows and at least two rows.  A real frame whose rows do not fill
    whole groups of 4 is gathered alone."""
    half, width = idx.shape
    dtype = np.result_type(rows, *taps)
    outs = [np.empty(len(rows) * half, dtype=dtype) for _ in taps]
    step = max(8, (_GEMV_SLICE_MACS // width) & ~3)  # whole groups of 4 rows
    # a real gemv sums in groups of 4 rows, so a real frame of rows that do
    # not fill whole groups is gathered alone: its rows then fall in the
    # groups of its own call
    alone = dtype.kind != "c" and half % 4 != 0
    per_gather = 1 if alone else max(1, _GATHER_BYTES // (idx.size * rows.itemsize))
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


def _is_haar(pair: WaveletFilterPair) -> bool:
    """Whether a two-tap pair has Haar's taps, h = (s, s) and g = (s, -s)
    for a nonzero s (so == compares bits: a zero tap may be -0.0)."""
    h, g = pair.h, pair.g
    return h[0] != 0 and h[0] == h[1] == g[0] == -g[1]


def _haar_butterfly(u, v, s, sum_out=None, diff_out=None):
    """(u*s + v*s, u*s + v*(-s)), the two-tap formula for Haar's taps, from
    the two products p = u*s and q = v*s alone, as (p + q, p - q), written
    into sum_out and diff_out when given.

    On real samples, and on complex samples whose parts hold no -0.0, the
    bytes equal the general formula's, because v*(-s) == -(v*s) and
    p + (-q) == p - q hold exactly.  numpy multiplies a complex sample by
    s as (s + 0j), so a -0.0 part can flip the sign of a zero result."""
    p = u * s
    q = v * s
    return np.add(p, q, out=sum_out), np.subtract(p, q, out=q if diff_out is None else diff_out)


def _check_finite(what: str, out) -> None:
    """Raise NumericalError when a step's output holds a NaN or infinite
    sample.  Overflow raises before this, so such a sample comes from the
    input.  The output is contiguous, so a complex one is scanned as its
    float view, the faster scan."""
    if not np.isfinite(out.view(out.real.dtype)).all():
        raise NumericalError(f"{what}: a NaN or infinite sample")


def analysis_step(x, pair: WaveletFilterPair):
    """One decimating analysis step: a[k] = sum_n h[n-2k] x[n], same for g.

    Uses periodic extension.  Accepts (..., n) arrays and returns a pair of
    (..., n/2) arrays, frames laid out as in :func:`_windowed_products`.
    A two-tap pair runs elementwise on the even and odd samples,
    a = even*h[0] + odd*h[1] (Haar's taps share the products; see
    :func:`_haar_butterfly`); a longer pair takes the windowed products of
    windows x[..., 2k + p], whose summation order that function sets.

    Raises ConfigError for an empty or 0-d input, one that is not numbers,
    or an odd n, and NumericalError for a NaN or infinite sample or an
    output that overflows.
    """
    x = _numbers(x, "signal")
    if x.size == 0 or x.ndim == 0:
        raise ConfigError(f"empty or 0-d input of shape {x.shape}")
    if x.shape[-1] % 2 != 0:
        raise ConfigError(f"signal length {x.shape[-1]} is odd")
    with numerical_errors("analysis_step"):
        if pair.length == 2:
            even, odd = x[..., 0::2], x[..., 1::2]
            h, g = pair.h, pair.g
            if _is_haar(pair):
                a, d = _haar_butterfly(even, odd, h[0])
            else:
                a, d = even * h[0] + odd * h[1], even * g[0] + odd * g[1]
        else:
            a, d = _windowed_products(x, pair.length, 2, 1, (pair.h, pair.g))
    # a NaN or infinite sample of x reaches a and d at the same positions,
    # whatever the taps (NaN * 0 and inf * 0 are NaN), so a alone is scanned
    _check_finite("analysis_step", a)
    return a, d


def synthesis_step(a, d, pair: WaveletFilterPair):
    """Inverse of :func:`analysis_step` (adjoint of the orthogonal analysis).

    Computed polyphase: even and odd output samples are circular
    convolutions of the subbands with the even/odd filter taps,

        x[2m + r] = sum_p h[2p + r] a[m - p] + g[2p + r] d[m - p].

    Frames are laid out as in :func:`analysis_step`.  Haar's taps share the
    products of a and d (:func:`_haar_butterfly`).  Longer pairs take the
    windowed products of windows of L/2 subband samples, a[..., m - p], once
    for a and once for d, so every frame of a block of any size gives the
    bits of a call on that frame alone.  Raises ConfigError for empty or
    0-d subbands, or ones that are not numbers, and NumericalError for a
    NaN or infinite sample or an output that overflows.
    """
    a = _numbers(a, "approximation")
    d = _numbers(d, "detail")
    if a.shape != d.shape:
        raise ConfigError(
            f"approximation shape {a.shape} != detail shape {d.shape}"
        )
    if a.size == 0 or a.ndim == 0:
        raise ConfigError(f"empty or 0-d subbands of shape {a.shape}")
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.result_type(a, d, pair.h))
    h, g = pair.h, pair.g
    with numerical_errors("synthesis_step"):
        if pair.length == 2:
            if _is_haar(pair):
                _haar_butterfly(a, d, h[0], out[..., 0::2], out[..., 1::2])
            else:
                out[..., 0::2] = a * h[0] + d * g[0]
                out[..., 1::2] = a * h[1] + d * g[1]
        else:
            even_a, odd_a = _windowed_products(a, pair.length // 2, 1, -1, (h[0::2], h[1::2]))
            even_d, odd_d = _windowed_products(d, pair.length // 2, 1, -1, (g[0::2], g[1::2]))
            out[..., 0::2] = even_a + even_d
            out[..., 1::2] = odd_a + odd_d
    _check_finite("synthesis_step", out)
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
        coeffs = _numbers(self.coeffs, "coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        band_lengths(self.tree_kind, self.levels, coeffs.shape[-1] if coeffs.ndim else 0)

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
    tree kind, for levels that are not an integer >= 1, and unless n is a
    positive multiple of 2**levels.
    """
    if tree_kind not in (DWT_PRUNED, WPT_FULL):
        raise ConfigError(f"unknown tree kind {tree_kind!r}")
    if not isinstance(levels, numbers.Integral) or isinstance(levels, bool) or levels < 1:
        raise ConfigError(f"levels must be an integer >= 1, got {levels!r:.60}")
    # n < 2**levels (n = 0 included) fails before a huge 2**levels is built
    if levels >= int(n).bit_length() or n % (2**levels) != 0:
        raise ConfigError(f"length {n} is not a positive multiple of 2**{levels}")
    if tree_kind == DWT_PRUNED:
        # [a_J, d_J, d_{J-1}, ..., d_1]
        return [n >> levels] + [n >> j for j in range(levels, 0, -1)]
    return [n >> levels] * (2**levels)


def dwt(x, pair: WaveletFilterPair, levels: int) -> SubbandSet:
    """Multi-level discrete wavelet transform (approximation branch recursed).

    Bands are ordered coarsest first: [a_J, d_J, d_{J-1}, ..., d_1].
    """
    x = _numbers(x, "signal")
    band_lengths(DWT_PRUNED, levels, x.shape[-1] if x.ndim else 0)
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
    length, so each level is one batched analysis call.  Each level's input
    and outputs are freed as soon as the next stack no longer needs them.
    """
    x = _numbers(x, "signal")
    band_lengths(WPT_FULL, levels, x.shape[-1] if x.ndim else 0)
    shape = x.shape
    stack = x[..., None, :]
    del x  # held through the stack's base until level 1 replaces it
    for _ in range(levels):
        a, d = analysis_step(stack, pair)
        del stack
        stack = np.empty(a.shape[:-2] + (2 * a.shape[-2], a.shape[-1]),
                         dtype=np.result_type(a, d))
        stack[..., 0::2, :] = a
        stack[..., 1::2, :] = d
        del a, d
    return SubbandSet(stack.reshape(shape), WPT_FULL, levels)


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
    deviations over grid_size points, an integer >= 2L.  Taps whose
    responses overflow raise NumericalError.
    """
    L = pair.length
    if (not isinstance(grid_size, numbers.Integral) or isinstance(grid_size, bool)
            or grid_size < 2 * L):
        raise ConfigError(
            f"grid_size must be an integer >= 2L = {2 * L}, got {grid_size!r:.60}"
        )
    omega = 2.0 * np.pi * np.arange(grid_size) / grid_size
    n = np.arange(L)
    with numerical_errors("verify_pr"):
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
