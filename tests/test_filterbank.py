"""Filter bank construction, transforms and perfect-reconstruction checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from wavemod import filterbank as fb
from wavemod.errors import ConfigError, NumericalError

ALL_FAMILIES = fb.list_families()
SQRT2 = np.sqrt(2.0)


def random_signal(n, seed, complex_valued=True):
    rng = np.random.default_rng(seed)
    if complex_valued:
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return rng.standard_normal(n)


class TestMakeFilter:
    def test_haar_taps(self):
        pair = fb.make_filter("haar", 1)
        assert_allclose(pair.h, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        assert_allclose(pair.g, [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    def test_db2_matches_spectral_factorization_oracle(self):
        """Independent oracle: factor the maxflat half-band polynomial and
        keep the roots inside the unit circle."""
        # P(y) = sum C(N-1+k, k) y^k = 1 + 2y for N = 2, ascending coeffs
        poly_y = [1.0, 2.0]
        roots_y = np.roots(list(reversed(poly_y)))
        zroots = []
        for y in roots_y:
            zr = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
            zroots.extend(z for z in zr if abs(z) < 1.0)
        taps = np.array([1.0])
        for _ in range(2):
            taps = np.convolve(taps, [1.0, 1.0])
        for z0 in zroots:
            taps = np.convolve(taps, [1.0, -z0])
        taps = np.real(taps) * SQRT2 / np.sum(np.real(taps))
        pair = fb.make_filter("daubechies", 2)
        assert_allclose(pair.h, taps, atol=1e-10)
        alias, amplitude = fb.verify_pr(pair, 1024)
        assert alias < 1e-10 and amplitude < 1e-10

    def test_unsupported_orders(self):
        with pytest.raises(ConfigError, match="db99 not available"):
            fb.make_filter("daubechies", 99)
        with pytest.raises(ConfigError, match="sym1 not available"):
            fb.make_filter("symlet", 1)
        with pytest.raises(ConfigError, match="coif6 not available"):
            fb.make_filter("coiflet", 6)
        with pytest.raises(ConfigError, match="Haar exists only at order 1"):
            fb.make_filter("haar", 2)
        with pytest.raises(ConfigError, match="unknown wavelet family .meyer."):
            fb.make_filter("meyer", 1)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_invariants_for_every_family(self, name):
        pair = fb.make_filter(name)
        L = pair.length
        assert L % 2 == 0 and len(pair.g) == L
        # alternating-sign relation h[L-1-n] == (-1)^n g[n]
        n = np.arange(L)
        assert_allclose(pair.h[L - 1 - n], ((-1.0) ** n) * pair.g, atol=1e-12)
        assert abs(np.sum(pair.h) - SQRT2) < 1e-10
        assert abs(np.sum(pair.g)) < 1e-10
        assert abs(np.dot(pair.h, pair.h) - 1.0) < 1e-10

    def test_family_name_parsing(self):
        assert fb.make_filter("db4").family == "db4"
        assert fb.make_filter("sym5").family == "sym5"
        assert fb.make_filter("coif2").family == "coif2"
        assert fb.make_filter(" Daubechies10").family == "db10"
        assert_array_equal(fb.make_filter("sym6").h, fb.make_filter("symlet", 6).h)
        with pytest.raises(ConfigError, match="unknown wavelet family .wavelet9000."):
            fb.make_filter("wavelet9000")
        with pytest.raises(ConfigError, match="already carries an order"):
            fb.make_filter("db4", 4)  # the order given twice
        with pytest.raises(ConfigError, match="db21 not available"):
            fb.make_filter("db21")


class TestAnalysisSynthesis:
    def test_constant_signal_has_zero_detail(self):
        a, d = fb.analysis_step([1.0, 1.0, 1.0, 1.0], fb.make_filter("haar"))
        assert_allclose(a, [SQRT2, SQRT2], atol=1e-15)
        assert_allclose(d, [0.0, 0.0], atol=1e-15)

    def test_impulse_decomposition(self):
        a, d = fb.analysis_step([1.0, 0.0, 0.0, 0.0], fb.make_filter("haar"))
        assert_allclose(a, [1 / SQRT2, 0.0], atol=1e-15)
        assert_allclose(d, [1 / SQRT2, 0.0], atol=1e-15)

    def test_energy_conservation_db4(self):
        x = random_signal(64, seed=5)
        a, d = fb.analysis_step(x, fb.make_filter("db4"))
        direct = np.sum(np.abs(a) ** 2) + np.sum(np.abs(d) ** 2)
        assert abs(direct - np.sum(np.abs(x) ** 2)) < 1e-9

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError, match="signal length 3 is odd"):
            fb.analysis_step([1.0, 2.0, 3.0], fb.make_filter("haar"))

    def test_synthesis_inverts_analysis(self):
        pair = fb.make_filter("sym6")
        x = random_signal(256, seed=6)
        a, d = fb.analysis_step(x, pair)
        assert np.max(np.abs(fb.synthesis_step(a, d, pair) - x)) < 1e-9

    def test_haar_synthesis_examples(self):
        haar = fb.make_filter("haar")
        assert_allclose(
            fb.synthesis_step([SQRT2, SQRT2], [0.0, 0.0], haar),
            [1.0, 1.0, 1.0, 1.0],
            atol=1e-15,
        )
        # direct upsample-filter-sum oracle for a one-point band pair
        assert_allclose(fb.synthesis_step([1.0], [1.0], haar), [SQRT2, 0.0],
                        atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="approximation shape"):
            fb.synthesis_step([1.0, 2.0], [1.0], fb.make_filter("haar"))

    @pytest.mark.parametrize("call", [
        lambda pair: fb.wpt(np.zeros(0), pair, 1),
        lambda pair: fb.dwt(np.zeros(0), pair, 1),
        lambda pair: fb.analysis_step(np.zeros((2, 0, 8)), pair),
        lambda pair: fb.analysis_step(np.zeros((2, 2, 0)), pair),
        lambda pair: fb.synthesis_step(np.zeros((2, 0)), np.zeros((2, 0)), pair),
        lambda pair: fb.synthesis_step(np.zeros((0, 4)), np.zeros((0, 4)), pair),
        lambda pair: fb.wpt(np.float64(1.0), pair, 1),
        lambda pair: fb.dwt(np.float64(1.0), pair, 1),
        lambda pair: fb.analysis_step(np.float64(1.0), pair),
        lambda pair: fb.synthesis_step(np.float64(1.0), np.float64(1.0), pair),
    ], ids=["wpt", "dwt", "no-bands", "no-samples", "synthesis-no-samples",
            "synthesis-no-frames", "wpt-0d", "dwt-0d", "analysis-0d",
            "synthesis-0d"])
    def test_empty_input_is_bad_length(self, call):
        """Empty inputs, and 0-d ones, which have no samples axis."""
        for name in ALL_FAMILIES:
            with pytest.raises(ConfigError,
                               match="empty or 0-d|length 0 is not a positive multiple"):
                call(fb.make_filter(name))


HAAR8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, 1, -1, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, -1, -1],
    [1, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -1],
], dtype=float)
HAAR8 = HAAR8 / np.linalg.norm(HAAR8, axis=1, keepdims=True)


class TestDwt:
    def test_constant_input(self):
        haar = fb.make_filter("haar")
        out = fb.dwt(np.full(8, 3.0), haar, levels=3)
        assert len(out.bands) == 4
        assert_allclose(out.bands[0], [3.0 * 2.0 ** 1.5], atol=1e-12)
        for band in out.bands[1:]:
            assert_allclose(band, 0.0, atol=1e-12)

    def test_impulse_matches_explicit_haar_matrix(self):
        """Oracle: the 8x8 orthogonal Haar transform written out by hand.

        The DWT band layout is [a3, d3, d2, d1]; the matrix rows are in
        the same order.
        """
        haar = fb.make_filter("haar")
        x = np.zeros(8)
        x[0] = 1.0
        got = fb.dwt(x, haar, levels=3).coeffs
        assert_allclose(got, HAAR8 @ x, atol=1e-12)
        # and for a dense input
        y = random_signal(8, seed=3, complex_valued=False)
        assert_allclose(fb.dwt(y, haar, 3).coeffs, HAAR8 @ y, atol=1e-12)

    def test_dwt_equals_orthogonal_matrix_small_instances(self):
        """dwt on length-2^J inputs is multiplication by an orthogonal
        matrix; build the matrix column by column and check."""
        for name, n, levels in [("db2", 8, 3), ("haar", 16, 4), ("sym3", 16, 2)]:
            pair = fb.make_filter(name)
            mat = np.column_stack(
                [fb.dwt(col, pair, levels).coeffs for col in np.eye(n)]
            )
            assert np.max(np.abs(mat.T @ mat - np.eye(n))) < 1e-10
            x = random_signal(n, seed=n)
            assert_allclose(fb.dwt(x, pair, levels).coeffs, mat @ x,
                            atol=1e-10)

    def test_roundtrip_db10(self):
        pair = fb.make_filter("db10")
        x = random_signal(512, seed=9)
        back = fb.idwt(fb.dwt(x, pair, 5), pair)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_bad_length(self):
        with pytest.raises(ConfigError, match="length 12 is not a positive multiple"):
            fb.dwt(np.zeros(12), fb.make_filter("haar"), levels=3)

    def test_band_counts_and_total(self):
        out = fb.dwt(np.zeros(64), fb.make_filter("db3"), levels=4)
        assert out.tree_kind == fb.DWT_PRUNED
        assert [len(b) for b in out.bands] == [4, 4, 8, 16, 32]


class TestWpt:
    def test_single_level_equals_analysis_step_exactly(self):
        pair = fb.make_filter("db6")
        x = random_signal(64, seed=10)
        out = fb.wpt(x, pair, 1)
        a, d = fb.analysis_step(x, pair)
        assert_array_equal(out.bands[0], a)
        assert_array_equal(out.bands[1], d)

    def test_haar_nine_levels_512_bands(self):
        x = random_signal(512, seed=11)
        out = fb.wpt(x, fb.make_filter("haar"), 9)
        assert len(out.bands) == 512
        assert all(len(b) == 1 for b in out.bands)
        back = fb.iwpt(out, fb.make_filter("haar"))
        assert np.max(np.abs(back - x)) < 1e-9

    def test_roundtrip_db4(self):
        pair = fb.make_filter("db4")
        x = random_signal(64, seed=12)
        back = fb.iwpt(fb.wpt(x, pair, 3), pair)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_parseval(self):
        pair = fb.make_filter("coif2")
        x = random_signal(256, seed=13)
        out = fb.wpt(x, pair, 4)
        subband_energy = sum(np.sum(np.abs(b) ** 2) for b in out.bands)
        assert abs(subband_energy - np.sum(np.abs(x) ** 2)) < 1e-9

    def test_batched_inputs(self):
        pair = fb.make_filter("db5")
        x = random_signal(6 * 128, seed=14).reshape(6, 128)
        back = fb.iwpt(fb.wpt(x, pair, 3), pair)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_flat_layout_roundtrip(self):
        pair = fb.make_filter("db3")
        x = random_signal(64, seed=15)
        flat = fb.wpt(x, pair, 3).coeffs
        rebuilt = fb.SubbandSet.from_flat(flat, fb.WPT_FULL, 3)
        assert np.max(np.abs(fb.iwpt(rebuilt, pair) - x)) < 1e-9

    def test_bands_shorter_than_filter_on_long_input(self):
        """db20 at 9 levels on 8192 samples: the deep bands (16 samples) are
        shorter than the 40 taps while the input is long."""
        pair = fb.make_filter("db20")
        x = np.ones(8192)
        back = fb.iwpt(fb.wpt(x, pair, 9), pair)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_step_round_trip_on_rows_shorter_than_filter(self):
        pair = fb.make_filter("db20")
        x = random_signal(3 * 32, seed=16).reshape(3, 32)
        rebuilt = fb.synthesis_step(*fb.analysis_step(x, pair), pair)
        assert_allclose(rebuilt, x, atol=1e-12)


TWO_TAP_PAIRS = [fb.make_filter("haar"),
                 fb.WaveletFilterPair.from_lowpass([0.6, 0.8], family="rot")]


def random_block(shape, seed, complex_valued=True):
    return random_signal(int(np.prod(shape)), seed, complex_valued).reshape(shape)


def gathered_analysis(x, pair):
    windows = x[..., fb._window_index(x.shape[-1], pair.length, 2, 1)]
    return windows @ pair.h, windows @ pair.g


def gathered_synthesis(a, d, pair):
    idx = fb._window_index(a.shape[-1], pair.length // 2, 1, -1)
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=complex)
    for r in (0, 1):
        out[..., r::2] = a[..., idx] @ pair.h[r::2] + d[..., idx] @ pair.g[r::2]
    return out


class TestTwoTapKernel:
    """The elementwise two-tap path against the gathered matmul formula."""

    @pytest.mark.parametrize("pair", TWO_TAP_PAIRS, ids=lambda p: p.family)
    @pytest.mark.parametrize("shape", [(8, 2, 256), (3, 64, 8)])
    def test_bit_equal_to_gather_on_stacked_complex_bands(self, shape, pair):
        x = random_block(shape, seed=20)
        for got, want in zip(fb.analysis_step(x, pair), gathered_analysis(x, pair)):
            assert_array_equal(got, want)
        a, d = random_block(shape, seed=21), random_block(shape, seed=22)
        assert_array_equal(fb.synthesis_step(a, d, pair),
                           gathered_synthesis(a, d, pair))

    @pytest.mark.parametrize("pair", TWO_TAP_PAIRS, ids=lambda p: p.family)
    @pytest.mark.parametrize("shape, complex_valued", [
        ((512,), False),
        ((16, 256, 2), True),
    ])
    def test_within_round_off_of_gather_where_numpy_calls_blas(
            self, shape, complex_valued, pair):
        x = random_block(shape, seed=23, complex_valued=complex_valued)
        for got, want in zip(fb.analysis_step(x, pair), gathered_analysis(x, pair)):
            assert_allclose(got, want, rtol=0, atol=2e-15)
        a = random_block(shape, seed=24, complex_valued=complex_valued)
        d = random_block(shape, seed=25, complex_valued=complex_valued)
        assert_allclose(fb.synthesis_step(a, d, pair),
                        gathered_synthesis(a, d, pair), rtol=0, atol=2e-15)

    @pytest.mark.parametrize("rows", [1, 7, 16])
    def test_haar_block_equals_row_calls_bit_for_bit(self, rows):
        pair = fb.make_filter("haar")
        x = random_block((rows, 512), seed=26)
        coeffs = fb.wpt(x, pair, 9).coeffs
        assert_array_equal(coeffs, np.stack([fb.wpt(r, pair, 9).coeffs for r in x]))
        back = fb.iwpt(fb.SubbandSet.from_flat(coeffs, fb.WPT_FULL, 9), pair)
        assert_array_equal(back, np.stack([
            fb.iwpt(fb.SubbandSet.from_flat(r, fb.WPT_FULL, 9), pair)
            for r in coeffs
        ]))

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_haar_butterfly_keeps_the_general_formula_bytes(self, complex_valued):
        """Haar's shared products (p + q, p - q) against the written-out
        two-tap formula, on blocks that hold zero samples."""
        pair = fb.make_filter("haar")
        assert fb._is_haar(pair)
        h, g = pair.h, pair.g
        x, a, d = (random_block((4, 64), seed, complex_valued) for seed in (27, 28, 29))
        for block in (x, a, d):
            block[:, ::5] = 0.0
        even, odd = x[..., 0::2], x[..., 1::2]
        want = (even * h[0] + odd * h[1], even * g[0] + odd * g[1])
        for got, expected in zip(fb.analysis_step(x, pair), want):
            assert got.tobytes() == expected.tobytes()
        out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        out[..., 0::2] = a * h[0] + d * g[0]
        out[..., 1::2] = a * h[1] + d * g[1]
        assert fb.synthesis_step(a, d, pair).tobytes() == out.tobytes()

    @pytest.mark.parametrize("h, g", [
        ([SQRT2 / 2, np.nextafter(SQRT2 / 2, 1.0)], [SQRT2 / 2, -SQRT2 / 2]),
        ([SQRT2 / 2, SQRT2 / 2], [SQRT2 / 2, SQRT2 / 2]),
        ([0.0, 0.0], [0.0, -0.0]),
    ], ids=["perturbed-h", "same-sign-g", "zero"])
    def test_other_two_tap_pairs_take_the_general_formula(self, h, g):
        pair = fb.WaveletFilterPair(h=h, g=g, family="custom")
        assert not fb._is_haar(pair)
        x = random_block((3, 32), seed=30)
        even, odd = x[..., 0::2], x[..., 1::2]
        a, d = fb.analysis_step(x, pair)
        assert a.tobytes() == (even * pair.h[0] + odd * pair.h[1]).tobytes()
        assert d.tobytes() == (even * pair.g[0] + odd * pair.g[1]).tobytes()
        out = np.empty(x.shape, dtype=complex)
        out[..., 0::2] = even * pair.h[0] + odd * pair.g[0]
        out[..., 1::2] = even * pair.h[1] + odd * pair.g[1]
        assert fb.synthesis_step(even, odd, pair).tobytes() == out.tobytes()

    @pytest.mark.parametrize("table, args", [
        (fb._window_index, (64, 4, 2, 1)),
        (fb._window_index, (64, 4, 1, -1)),
        (fb._padded_index, (64, 3, 66)),
    ], ids=["_window_index-analysis", "_window_index-synthesis", "_padded_index"])
    def test_index_tables_are_cached_and_read_only(self, table, args):
        first = table(*args)
        assert table(*args) is first
        with pytest.raises(ValueError):
            first.flat[0] = 1


def row_call_step(x, pair):
    """The summation a call on one frame runs, written out: one 2-D gemv of
    gathered windows for a single band, the in-order tap sum for stacked
    bands, a dot per band for two-sample bands."""
    n = x.shape[-1]
    windows = x[..., fb._window_index(n, pair.length, 2, 1)]
    out = []
    for taps in (pair.h, pair.g):
        if n == 2:
            dots = [np.dot(w, taps) for w in windows.reshape(-1, pair.length)]
            out.append(np.reshape(dots, x.shape[:-1] + (1,)))
        elif x.ndim == 1:
            out.append(windows @ taps)
        else:
            acc = np.zeros(windows.shape[:-1], dtype=complex)
            for t, tap in enumerate(taps):
                acc = acc + windows[..., t] * tap
            out.append(acc)
    return out


def row_call_wpt(x, pair, levels):
    stack = x
    for _ in range(levels):
        a, d = row_call_step(stack, pair)
        stack = np.stack([a, d], axis=-2).reshape(-1, a.shape[-1])
    return stack.reshape(-1)


def row_call_dwt(x, pair, levels):
    approx, details = x, []
    for _ in range(levels):
        approx, d = row_call_step(approx, pair)
        details.append(d)
    return np.concatenate([approx] + details[::-1])


BATCH_FAMILIES = ["db2", "db10", "sym8", "coif3"]

# (family, frames) of the complex blocks: nine frames of each family, and a
# db10 block of 32 frames (327680 multiply-adds in each analysis level)
COMPLEX_BLOCKS = [pytest.param(name, 9, id=name) for name in BATCH_FAMILIES] + [
    pytest.param("db10", 32, id="db10-32frames"),
]


class TestBatchInvariance:
    """Longer filters: every frame of a complex or real block, of any size,
    gives the bits of a call on that frame alone."""

    @pytest.mark.parametrize("name, frames", COMPLEX_BLOCKS)
    @pytest.mark.parametrize("transform, formula", [
        (fb.wpt, row_call_wpt), (fb.dwt, row_call_dwt),
    ], ids=["wpt", "dwt"])
    def test_block_equals_row_calls_bit_for_bit(self, transform, formula, name,
                                                frames):
        pair = fb.make_filter(name)
        x = random_block((frames, 512), seed=27)
        for levels in range(1, 10):
            rows = np.stack([transform(r, pair, levels).coeffs for r in x])
            for r, row in zip(x[:2], rows):
                assert_array_equal(row, formula(r, pair, levels))
            for count in (2, 7, frames):
                assert_array_equal(transform(x[:count], pair, levels).coeffs,
                                   rows[:count])

    @pytest.mark.parametrize("name, frames", COMPLEX_BLOCKS)
    @pytest.mark.parametrize("forward, inverse, kind", [
        (fb.wpt, fb.iwpt, fb.WPT_FULL), (fb.dwt, fb.idwt, fb.DWT_PRUNED),
    ], ids=["iwpt", "idwt"])
    def test_inverse_block_equals_row_calls_bit_for_bit(self, forward, inverse,
                                                        kind, name, frames):
        """Includes idwt at 9 levels, whose deepest band has one sample."""
        pair = fb.make_filter(name)
        x = random_block((frames, 512), seed=30)
        for levels in range(1, 10):
            coeffs = forward(x, pair, levels).coeffs
            rows = np.stack([inverse(fb.SubbandSet(c, kind, levels), pair)
                             for c in coeffs])
            for count in (2, 7, frames):
                block = fb.SubbandSet(coeffs[:count], kind, levels)
                assert_array_equal(inverse(block, pair), rows[:count])

    @pytest.mark.parametrize("name", BATCH_FAMILIES)
    @pytest.mark.parametrize("forward, inverse, kind", [
        (fb.wpt, fb.iwpt, fb.WPT_FULL), (fb.dwt, fb.idwt, fb.DWT_PRUNED),
    ], ids=["wpt", "dwt"])
    def test_real_block_equals_row_calls_bit_for_bit(self, forward, inverse,
                                                     kind, name):
        """A real gemv sums in groups of 4 rows, so a real frame whose rows
        do not fill whole groups (dwt's short levels) is gathered alone."""
        pair = fb.make_filter(name)
        x = random_block((9, 512), seed=31, complex_valued=False)
        for levels in range(1, 10):
            coeffs = np.stack([forward(r, pair, levels).coeffs for r in x])
            rows = np.stack([inverse(fb.SubbandSet(c, kind, levels), pair)
                             for c in coeffs])
            for count in (2, 7, 9):
                assert_array_equal(forward(x[:count], pair, levels).coeffs,
                                   coeffs[:count])
                block = fb.SubbandSet(coeffs[:count], kind, levels)
                assert_array_equal(inverse(block, pair), rows[:count])

    @pytest.mark.parametrize("name", BATCH_FAMILIES)
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("budget", [1, 1 << 15, 1 << 17],
                             ids=["one-frame", "32KiB", "128KiB"])
    def test_byte_budget_does_not_change_bits(self, monkeypatch, budget,
                                              complex_valued, name):
        """Padded copies and gathers of one frame, a few frames or a whole
        (3, 3) block of 256-sample frames at a time.  Between them the three
        budgets split the stacked copies of 8 levels, the one-window bands
        (2-sample analysis, 1-sample synthesis) and the one-band gemvs,
        real and complex, into chunks of 1 to 9 frames; every frame keeps
        the bits of a call on that frame alone."""
        pair = fb.make_filter(name)
        x = random_block((3, 3, 256), seed=35, complex_valued=complex_valued)
        transforms = [(fb.wpt, fb.iwpt, fb.WPT_FULL), (fb.dwt, fb.idwt, fb.DWT_PRUNED)]
        rows = []
        for forward, inverse, kind in transforms:
            coeffs = [forward(r, pair, 8).coeffs for r in x.reshape(-1, 256)]
            back = [inverse(fb.SubbandSet(c, kind, 8), pair) for c in coeffs]
            rows.append((np.reshape(coeffs, x.shape), np.reshape(back, x.shape)))
        monkeypatch.setattr(fb, "_GATHER_BYTES", budget)
        for (forward, inverse, kind), (coeffs, back) in zip(transforms, rows):
            block = forward(x, pair, 8).coeffs
            assert_array_equal(block, coeffs)
            assert_array_equal(inverse(fb.SubbandSet(block, kind, 8), pair), back)

    @pytest.mark.parametrize("name", BATCH_FAMILIES)
    @pytest.mark.parametrize("shape", [(3, 8, 64), (2, 4, 3), (3, 8, 1)],
                             ids=["stacked", "odd-half", "one-sample"])
    def test_stacked_synthesis_equals_gathered_matmul(self, shape, name):
        """The strided window view sums the taps in the order of a matmul
        over gathered windows a[..., m - p]; one-sample bands keep that
        matmul."""
        pair = fb.make_filter(name)
        a, d = random_block(shape, seed=32), random_block(shape, seed=33)
        assert_array_equal(fb.synthesis_step(a, d, pair),
                           gathered_synthesis(a, d, pair))

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_one_row_remainder_equals_one_unsliced_gemv(self, complex_valued):
        # OpenBLAS 0.3.31 hands a zgemv of 4096 multiply-adds or more to its
        # thread pool; every slice stays below that
        assert fb._GEMV_SLICE_MACS < 4096
        pair = fb.make_filter("db10")
        step = (fb._GEMV_SLICE_MACS // pair.length) & ~3  # rows per full slice
        n = 2 * (2 * step + 1)  # two full slices and one row left over
        x = random_signal(n, seed=28, complex_valued=complex_valued)
        windows = x[fb._window_index(n, pair.length, 2, 1)]
        a, d = fb.analysis_step(x, pair)
        assert_array_equal(a, windows @ pair.h)
        assert_array_equal(d, windows @ pair.g)
        # synthesis windows hold L/2 taps, so its slices are twice as long
        half = 2 * ((fb._GEMV_SLICE_MACS // (pair.length // 2)) & ~3) + 1
        a, d = random_block((2, half), seed=29, complex_valued=complex_valued)
        idx = fb._window_index(half, pair.length // 2, 1, -1)
        out = fb.synthesis_step(a, d, pair)
        assert_array_equal(out[0::2], a[idx] @ pair.h[0::2] + d[idx] @ pair.g[0::2])
        assert_array_equal(out[1::2], a[idx] @ pair.h[1::2] + d[idx] @ pair.g[1::2])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(4, 12),
    name=st.sampled_from(["haar", "db4", "db10", "sym5", "coif3"]),
)
def test_roundtrip_property(seed, k, name):
    """Perfect reconstruction for random lengths 2^k and random payloads."""
    pair = fb.make_filter(name)
    x = random_signal(2**k, seed)
    levels = min(3, k - 1)
    assert np.max(np.abs(fb.idwt(fb.dwt(x, pair, levels), pair) - x)) < 1e-9
    assert np.max(np.abs(fb.iwpt(fb.wpt(x, pair, levels), pair) - x)) < 1e-9


class TestSubbandSet:
    def test_band_count_validated(self):
        """Four coefficients cannot form the 2**3 bands of a 3-level tree."""
        with pytest.raises(ConfigError, match="length 4 is not a positive multiple"):
            fb.SubbandSet(np.zeros(4), tree_kind=fb.WPT_FULL, levels=3)

    def test_unknown_tree_kind(self):
        with pytest.raises(ConfigError):
            fb.SubbandSet(np.zeros(4), tree_kind="pruned-wpt", levels=1)

    def test_bands_are_views_of_coeffs(self):
        pair = fb.make_filter("db3")
        x = random_signal(2 * 64, seed=17).reshape(2, 64)
        for out in (fb.wpt(x, pair, 3), fb.dwt(x, pair, 3)):
            assert all(np.shares_memory(b, out.coeffs) for b in out.bands)
        flat = fb.wpt(x, pair, 3).coeffs
        assert fb.SubbandSet.from_flat(flat, fb.WPT_FULL, 3).coeffs is flat

    def test_band_lengths_layouts(self):
        assert fb.band_lengths(fb.DWT_PRUNED, 3, 32) == [4, 4, 8, 16]
        assert fb.band_lengths(fb.WPT_FULL, 3, 32) == [4] * 8
        with pytest.raises(ConfigError, match="length 24 is not a positive multiple"):
            fb.band_lengths(fb.WPT_FULL, 4, 24)


class TestVerifyPr:
    def test_haar_residuals_tiny(self):
        alias, amplitude = fb.verify_pr(fb.make_filter("haar"), 256)
        assert alias < 1e-12 and amplitude < 1e-12

    def test_db10_residuals(self):
        alias, amplitude = fb.verify_pr(fb.make_filter("db10"), 4096)
        assert alias < 1e-8 and amplitude < 1e-8

    def test_perturbation_is_detected(self):
        haar = fb.make_filter("haar")
        h = haar.h.copy()
        h[0] += 0.01
        bad = fb.WaveletFilterPair(h=h, g=haar.g, family="perturbed")
        _, amplitude = fb.verify_pr(bad, 1024)
        assert amplitude > 1e-3

    def test_grid_size_precondition(self):
        with pytest.raises(ConfigError):
            fb.verify_pr(fb.make_filter("db10"), grid_size=10)

    @pytest.mark.parametrize("name, grid_size", [
        ("haar", 2**21 + 1), ("db10", 2**22 // 20 + 1), ("haar", 2**70),
    ])
    def test_grid_size_bound_rejects_before_allocating(self, name, grid_size):
        """Past grid_size * L = 2**22 verify_pr raises ConfigError and
        allocates nothing; just inside the bound it would build two 64 MiB
        bases."""
        pair = fb.make_filter(name)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"to 2\*\*22 // L"):
                fb.verify_pr(pair, grid_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


HAAR = fb.make_filter("haar")
BAD_CALLS = {
    "wpt-text-levels": (lambda: fb.wpt(np.ones(8), HAAR, "a"), ConfigError),
    "wpt-huge-levels": (lambda: fb.wpt(np.ones(8), HAAR, 2**70), ConfigError),
    "dwt-bool-levels": (lambda: fb.dwt(np.ones(8), HAAR, True), ConfigError),
    "verify-text-grid": (lambda: fb.verify_pr(HAAR, "x"), ConfigError),
    "verify-float-grid": (lambda: fb.verify_pr(HAAR, 16.0), ConfigError),
    "analysis-text": (lambda: fb.analysis_step(np.array(["ab", "cd"]), HAAR), ConfigError),
    "synthesis-text": (lambda: fb.synthesis_step(["a"], ["b"], HAAR), ConfigError),
    "wpt-text": (lambda: fb.wpt(["a", "b"], HAAR, 1), ConfigError),
    "analysis-ragged": (lambda: fb.analysis_step([[1, 2], [3]], HAAR), ConfigError),
    "pair-text-taps": (lambda: fb.WaveletFilterPair(["a", "b"], [1, 2], "x"), ConfigError),
    "pair-complex-taps": (lambda: fb.WaveletFilterPair([1j, 1], [1, 2], "x"), ConfigError),
    "pair-nan-tap": (lambda: fb.WaveletFilterPair([np.nan, 1], [1, 2], "x"), ConfigError),
    "make-filter-list-order": (lambda: fb.make_filter("db", [4]), ConfigError),
    "from-lowpass-text": (lambda: fb.WaveletFilterPair.from_lowpass("ab"), ConfigError),
    "from-lowpass-2d": (lambda: fb.WaveletFilterPair.from_lowpass(np.ones((2, 3))), ConfigError),
    "from-lowpass-0d": (lambda: fb.WaveletFilterPair.from_lowpass(1.0), ConfigError),
    "subbands-0d": (lambda: fb.SubbandSet(1.0, fb.WPT_FULL, 1), ConfigError),
    "wpt-nan-sample": (lambda: fb.wpt([np.nan, 1.0], HAAR, 1), NumericalError),
    "iwpt-inf-sample": (lambda: fb.iwpt(fb.SubbandSet([np.inf, 1.0], fb.WPT_FULL, 1),
                                        fb.make_filter("db2")), NumericalError),
    "wpt-overflow": (lambda: fb.wpt(np.full(16, 1e308), fb.make_filter("db4"), 2),
                     NumericalError),
    "haar-overflow": (lambda: fb.analysis_step(np.full(4, 1.7e308), HAAR), NumericalError),
    "idwt-overflow": (lambda: fb.idwt(fb.SubbandSet(np.full(8, 1.7e308), fb.DWT_PRUNED, 2),
                                      HAAR), NumericalError),
    "verify-overflow": (lambda: fb.verify_pr(fb.WaveletFilterPair(
        [1e308, 1e308], [1e308, -1e308], "x")), NumericalError),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_input_raises_a_library_error(name):
    """Each of these raised a TypeError, ValueError or numpy's
    UFuncTypeError, was accepted, or returned inf with a RuntimeWarning."""
    call, error = BAD_CALLS[name]
    with pytest.raises(error):
        call()
