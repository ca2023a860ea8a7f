"""Constellations, multicarrier chains, WSK and dyadic pulse shaping."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wavemod import channel as ch
from wavemod import filterbank as fb
from wavemod import modem
from wavemod import waveletdesign as wd
from wavemod.errors import (
    BitCountMismatch,
    ConfigError,
    ConfigInvariantViolated,
    LengthMismatch,
    PeriodTooShort,
    StreamPulseCountMismatch,
)

SQRT2 = np.sqrt(2.0)
HAAR = fb.make_filter("haar")


def qfunc(x):
    return 0.5 * math.erfc(x / SQRT2)


class TestConstellations:
    def test_bpsk_convention(self):
        spec = modem.constellation("bpsk")
        assert_allclose(modem.map_bits([0], spec), [1.0 + 0.0j])
        assert_allclose(modem.map_bits([1], spec), [-1.0 + 0.0j])

    def test_qpsk_gray_table(self):
        """Bit-exact table from the README: first bit drives I, 0 -> +."""
        spec = modem.constellation("qpsk")
        table = {
            (0, 0): (1 + 1j) / SQRT2,
            (0, 1): (1 - 1j) / SQRT2,
            (1, 0): (-1 + 1j) / SQRT2,
            (1, 1): (-1 - 1j) / SQRT2,
        }
        for bits, symbol in table.items():
            assert_allclose(modem.map_bits(list(bits), spec), [symbol],
                            atol=1e-15)

    def test_qam16_corners(self):
        spec = modem.constellation("qam16")
        s10 = np.sqrt(10.0)
        assert_allclose(modem.map_bits([0, 0, 0, 0], spec), [(3 + 3j) / s10])
        assert_allclose(modem.map_bits([1, 0, 1, 0], spec), [(-3 - 3j) / s10])
        assert_allclose(modem.map_bits([0, 1, 1, 1], spec), [(1 - 1j) / s10])

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    def test_unit_average_energy(self, kind):
        spec = modem.constellation(kind)
        assert abs(np.mean(np.abs(spec.alphabet) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    def test_gray_neighbours(self, kind):
        """Minimum-distance neighbours differ in exactly one bit."""
        spec = modem.constellation(kind)
        if spec.bits_per_symbol == 1:
            pytest.skip("one bit per symbol")
        for i, point in enumerate(spec.alphabet):
            dist = np.abs(spec.alphabet - point)
            dist[i] = np.inf
            nearest = np.nonzero(np.isclose(dist, dist.min()))[0]
            for j in nearest:
                assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    def test_demap_equals_argmin_over_all_distances(self, kind):
        """The alphabet loop picks what argmin over the (..., n, M)
        distance array picks, exact ties (midpoints, the origin, the axes,
        non-finite symbols) included: the first nearest point."""
        spec = modem.constellation(kind)
        a = spec.alphabet
        rng = np.random.default_rng(len(a))
        ties = np.concatenate([
            a, ((a[:, None] + a[None, :]) / 2).ravel(),
            [0.0, 1.0, -1.0, 1j, -1j, 0.5, -0.5j, np.inf, -np.inf,
             complex(np.inf, 1.0), complex(np.nan, 0.0), 1e300 + 1e300j],
        ])
        noisy = rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
        for symbols in (ties, noisy, noisy[0]):
            index = np.argmin(np.abs(symbols[..., None] - a), axis=-1)
            want = (index[..., None] >> np.arange(spec.bits_per_symbol)[::-1]) & 1
            want = want.reshape(symbols.shape[:-1] + (-1,))
            assert_array_equal(modem.demap_symbols(symbols, spec), want)

    def test_roundtrip_qam16(self):
        spec = modem.constellation("qam16")
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 4096)
        assert np.array_equal(
            modem.demap_symbols(modem.map_bits(bits, spec), spec), bits
        )

    def test_bit_count_mismatch(self):
        with pytest.raises(BitCountMismatch):
            modem.map_bits([0, 1, 0], modem.constellation("qpsk"))

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    def test_empty_block_gives_empty_rows(self, kind):
        """Zero frames map and demap to zero rows, as zero bits and zero
        symbols already did, not a numpy reshape error."""
        spec = modem.constellation(kind)
        k = spec.bits_per_symbol
        symbols = modem.map_bits(np.zeros((0, 2 * k), dtype=np.int64), spec)
        assert symbols.shape == (0, 2) and symbols.dtype == complex
        bits = modem.demap_symbols(np.zeros((0, 3), dtype=complex), spec)
        assert bits.shape == (0, 3 * k) and bits.dtype == np.int64
        assert modem.map_bits(np.zeros((3, 0), dtype=np.int64), spec).shape == (3, 0)
        assert modem.demap_symbols(np.zeros(0, dtype=complex), spec).shape == (0,)

    @pytest.mark.parametrize("bits", [[0.5, 0.5], [2, 3], [-1, 0], ["0", "1"]])
    def test_bits_other_than_0_and_1_rejected(self, bits):
        """Not truncated to a symbol, and not an IndexError: a ConfigError.
        Bool and integer 0/1 bits map unchanged."""
        spec = modem.constellation("qpsk")
        with pytest.raises(ConfigError):
            modem.map_bits(bits, spec)
        assert_array_equal(modem.map_bits(np.array([True, False]), spec),
                           modem.map_bits([1, 0], spec))

    def test_unknown_constellation(self):
        with pytest.raises(ConfigError):
            modem.constellation("qam4096")


class TestOfdmConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(n_subcarriers=96)
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(n_subcarriers=64.0)

    def test_wavelet_packet_rejects_cp(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(64, modem.WAVELET_PACKET, HAAR, 6, cp_fraction=0.125)

    def test_wavelet_packet_levels_must_match(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(64, modem.WAVELET_PACKET, HAAR, 5)

    def test_dwt_precoder_needs_pair(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(64, precoder=modem.PRECODER_DWT)

    def test_frame_length_accounting(self):
        cfg = modem.OfdmConfig(512, oversampling=4, cp_fraction=1 / 8)
        assert cfg.body_length == 2048
        assert cfg.cp_length == 256
        assert cfg.frame_length == 2304


class TestFourierChain:
    def test_dc_only_constant_envelope(self):
        cfg = modem.OfdmConfig(4)
        frame = modem.ofdm_modulate([1.0, 0.0, 0.0, 0.0], cfg)
        assert_allclose(frame.samples, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_single_carrier_property(self):
        """DFT precoding followed by the inverse DFT is the identity."""
        cfg = modem.OfdmConfig(64, precoder=modem.PRECODER_DFT)
        rng = np.random.default_rng(1)
        symbols = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(frame.samples - symbols)) < 1e-9

    @pytest.mark.parametrize("oversampling,cp", [(1, 0.0), (2, 1 / 8), (4, 1 / 8)])
    def test_roundtrip(self, oversampling, cp):
        cfg = modem.OfdmConfig(512, oversampling=oversampling, cp_fraction=cp)
        rng = np.random.default_rng(2)
        spec = modem.constellation("qpsk")
        symbols = modem.map_bits(rng.integers(0, 2, 1024), spec)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert len(frame.samples) == cfg.frame_length
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9

    def test_body_energy_equals_symbol_energy(self):
        cfg = modem.OfdmConfig(256, oversampling=4, cp_fraction=1 / 8)
        rng = np.random.default_rng(3)
        symbols = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        frame = modem.ofdm_modulate(symbols, cfg)
        body = frame.samples[cfg.cp_length:]
        assert abs(
            np.sum(np.abs(body) ** 2) - np.sum(np.abs(symbols) ** 2)
        ) < 1e-9

    def test_wrong_symbol_count(self):
        with pytest.raises(LengthMismatch):
            modem.ofdm_modulate(np.ones(100), modem.OfdmConfig(128))


class TestWaveletPacketChain:
    def test_small_instance_matches_synthesis_matrix(self):
        """Oracle: the 4x4 inverse packet transform written as a matrix."""
        cfg = modem.OfdmConfig(4, modem.WAVELET_PACKET, HAAR, 2)
        mat = np.column_stack(
            [modem.ofdm_modulate(e, cfg).samples for e in np.eye(4)]
        )
        # rows of the analysis matrix = Walsh-like Haar packet waveforms
        expected = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [0.5, -0.5, 0.5, -0.5],
            [0.5, -0.5, -0.5, 0.5],
        ]).T
        assert_allclose(mat, expected, atol=1e-12)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-12

    def test_basis_vector_unit_energy(self):
        cfg = modem.OfdmConfig(4, modem.WAVELET_PACKET, HAAR, 2)
        frame = modem.ofdm_modulate([1.0, 0.0, 0.0, 0.0], cfg)
        assert abs(np.sum(np.abs(frame.samples) ** 2) - 1.0) < 1e-9

    @pytest.mark.parametrize("interp", [modem.INTERP_FIR, modem.INTERP_FFT])
    @pytest.mark.parametrize("oversampling", [1, 2, 4])
    def test_roundtrip_haar9(self, interp, oversampling):
        cfg = modem.OfdmConfig(
            512, modem.WAVELET_PACKET, HAAR, 9,
            oversampling=oversampling, wpm_interp=interp,
        )
        rng = np.random.default_rng(4)
        spec = modem.constellation("qpsk")
        symbols = modem.map_bits(rng.integers(0, 2, 1024), spec)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert len(frame.samples) == 512 * oversampling
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9

    @pytest.mark.parametrize("interp", [modem.INTERP_FIR, modem.INTERP_FFT])
    def test_energy_preserved_with_oversampling(self, interp):
        cfg = modem.OfdmConfig(
            128, modem.WAVELET_PACKET, HAAR, 7, oversampling=4,
            wpm_interp=interp,
        )
        rng = np.random.default_rng(5)
        symbols = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert abs(
            np.sum(np.abs(frame.samples) ** 2) - np.sum(np.abs(symbols) ** 2)
        ) < 1e-9

    def test_fir_interpolation_equals_zero_stuffed_filter(self):
        """The tiled spectrum equals the FFT of the zero-stuffed row."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 512)) + 1j * rng.standard_normal((3, 512))
        for os_ in (2, 4):
            up = np.zeros((3, 512 * os_), dtype=complex)
            up[:, ::os_] = x
            kernel = modem._fir_kernel_spectrum(512 * os_, os_)
            expected = np.fft.ifft(np.fft.fft(up) * kernel)
            assert np.max(np.abs(modem._fir_upsample(x, os_) - expected)) < 1e-13

    def test_fir_kernel_spectrum_is_cached_and_read_only(self):
        spectrum = modem._fir_kernel_spectrum(2048, 4)
        assert modem._fir_kernel_spectrum(2048, 4) is spectrum
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_db10_roundtrip(self):
        cfg = modem.OfdmConfig(
            512, modem.WAVELET_PACKET, fb.make_filter("db10"), 9,
            oversampling=2, wpm_interp=modem.INTERP_FFT,
        )
        rng = np.random.default_rng(6)
        symbols = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9

    def test_zero_frame_roundtrip(self):
        cfg = modem.OfdmConfig(64, modem.WAVELET_PACKET, HAAR, 6,
                               oversampling=4)
        frame = modem.ofdm_modulate(np.zeros(64, dtype=complex), cfg)
        assert np.max(np.abs(frame.samples)) == 0.0
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg))) == 0.0


class TestPrecoders:
    @pytest.mark.parametrize("precoder", [
        modem.PRECODER_DFT, modem.PRECODER_DWT, modem.PRECODER_WPT,
    ])
    def test_precoded_roundtrips(self, precoder):
        cfg = modem.OfdmConfig(
            512, modem.WAVELET_PACKET, HAAR, 9, oversampling=2,
            precoder=precoder,
        )
        rng = np.random.default_rng(7)
        symbols = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9

    def test_full_tree_precoder_restores_single_carrier(self):
        """The full-tree analysis precoder is inverted by the packet
        synthesis: the wavelet analogue of the DFT/IDFT cancellation."""
        cfg = modem.OfdmConfig(
            256, modem.WAVELET_PACKET, HAAR, 8, precoder=modem.PRECODER_WPT,
        )
        rng = np.random.default_rng(8)
        symbols = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(frame.samples - symbols)) < 1e-9

    @pytest.mark.parametrize("interp", [modem.INTERP_FIR, modem.INTERP_FFT])
    @pytest.mark.parametrize("name", ["haar", "db2", "db10", "sym8", "coif3", "db20"])
    def test_cancelling_precoder_is_skipped(self, name, interp):
        """sc_wpm (wpt precoder, own pair and depth) equals the composed
        chain within round-off.  The composed chain runs on the same taps
        under a family name no shipped pair has."""
        pair = fb.make_filter(name)
        cfg = modem.OfdmConfig(
            512, modem.WAVELET_PACKET, pair, 9,
            oversampling=4, precoder=modem.PRECODER_WPT, wpm_interp=interp,
        )
        twin = fb.WaveletFilterPair(h=pair.h, g=pair.g, family="unshipped")
        rng = np.random.default_rng(17)
        spec = modem.constellation("qpsk")
        symbols = modem.map_bits(rng.integers(0, 2, (3, 1024)), spec)
        samples = modem.ofdm_modulate(symbols, cfg).samples
        composed = modem.ofdm_modulate(symbols, replace(cfg, pair=twin)).samples
        assert np.max(np.abs(samples - composed)) < 1e-13
        estimate = modem.ofdm_demodulate(modem.BasebandFrame(samples, 1.0), cfg)
        composed = modem._unprecode(modem._analyze_body(samples, cfg), cfg)
        assert np.max(np.abs(estimate - composed)) < 1e-13

    @pytest.mark.parametrize("precoder, expected", [
        (modem.PRECODER_WPT, 0),
        (modem.PRECODER_DWT, 1),  # the chain's own wpt and iwpt
    ])
    def test_only_the_cancelling_pair_skips_the_transforms(
            self, monkeypatch, precoder, expected):
        """A dwt precoder still runs the packet transforms; expected counts
        the wpt and the iwpt calls of one round trip."""
        calls = {"wpt": 0, "iwpt": 0}

        def counted(name):
            inner = getattr(modem, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(modem, "wpt", counted("wpt"))
        monkeypatch.setattr(modem, "iwpt", counted("iwpt"))
        cfg = modem.OfdmConfig(64, modem.WAVELET_PACKET, HAAR, 6,
                               precoder=precoder)
        symbols = np.exp(2j * np.pi * np.arange(64) / 7)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9
        assert calls == {"wpt": expected, "iwpt": expected}

    @pytest.mark.parametrize("family", ["haar", "perturbed"])
    def test_perturbed_pair_runs_the_composed_chain(self, family):
        """A hand-built pair need not reconstruct perfectly, so its precoder
        and synthesis both run, even under a shipped family name."""
        h = HAAR.h.copy()
        h[0] += 0.01
        pair = fb.WaveletFilterPair(h=h, g=HAAR.g, family=family)
        cfg = modem.OfdmConfig(64, modem.WAVELET_PACKET, pair, 6,
                               oversampling=2, precoder=modem.PRECODER_WPT)
        symbols = np.exp(2j * np.pi * np.arange(64) / 7)
        samples = modem.ofdm_modulate(symbols, cfg).samples
        chips = fb.iwpt(fb.SubbandSet.from_flat(modem._precode(symbols, cfg),
                                                fb.WPT_FULL, 6), pair)
        composed = modem._rescale(modem._fir_upsample(chips, 2), chips)
        assert np.array_equal(samples, composed)
        shortcut = modem._rescale(modem._fir_upsample(symbols, 2), symbols)
        assert np.max(np.abs(samples - shortcut)) > 1e-3
        estimate = modem.ofdm_demodulate(modem.BasebandFrame(samples, 1.0), cfg)
        composed = modem._unprecode(modem._analyze_body(samples, cfg), cfg)
        assert np.array_equal(estimate, composed)

    def test_fourier_with_dwt_precoder(self):
        cfg = modem.OfdmConfig(256, pair=HAAR, levels=4,
                               precoder=modem.PRECODER_DWT)
        rng = np.random.default_rng(9)
        symbols = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9


class TestGridMap:
    """Every oversampler is n bins broadcast over the m-bin grid times one
    bin-weight vector; every spectral receiver folds with the same one."""

    @pytest.mark.parametrize("os_", [1, 2, 4])
    def test_zero_padding_keeps_the_outer_bins_in_place(self, os_):
        rng = np.random.default_rng(50)
        spec = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        m = 64 * os_
        placed = np.zeros((3, m), dtype=complex)
        placed[:, :32] = spec[:, :32]
        placed[:, m - 32:] = spec[:, 32:]
        weights = modem._grid_weights(64, m, None)
        grid = modem._upsample(spec, weights)
        assert np.array_equal(grid, placed)
        assert np.array_equal(modem._fold(grid, weights, 64), spec)

    @pytest.mark.parametrize("os_", [2, 4])
    @pytest.mark.parametrize("rolloff", [0.0, 0.35, 1.0])
    def test_fold_inverts_upsample_under_rolloff(self, rolloff, os_):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
        weights = modem._grid_weights(128, 128 * os_, rolloff)
        back = modem._fold(modem._upsample(x, weights), weights, 128)
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("rolloff", [None, 0.35])
    def test_block_gives_the_bits_of_per_row_calls(self, rolloff):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        weights = modem._grid_weights(64, 256, rolloff)
        grid = modem._upsample(x, weights)
        folded = modem._fold(grid.copy(), weights, 64)
        for row in range(3):
            alone = modem._upsample(x[row], weights)
            assert grid[row].tobytes() == alone.tobytes()
            assert folded[row].tobytes() == modem._fold(alone, weights, 64).tobytes()

    @pytest.mark.parametrize("rolloff", [None, 0.35])
    def test_weights_are_cached_and_read_only(self, rolloff):
        weights = modem._grid_weights(64, 256, rolloff)
        assert modem._grid_weights(64, 256, rolloff) is weights
        with pytest.raises(ValueError):
            weights[0] = 0.0


@pytest.fixture(scope="module")
def mother():
    return wd.mother_wavelet(HAAR, 5)


class TestTransmitRolloff:
    @pytest.mark.parametrize("rolloff", [0.0, 0.2, 0.5])
    def test_shaped_roundtrip_and_energy(self, rolloff):
        cfg = modem.OfdmConfig(256, oversampling=4, cp_fraction=1 / 8,
                               precoder=modem.PRECODER_DFT, tx_rolloff=rolloff)
        rng = np.random.default_rng(40)
        spec = modem.constellation("qpsk")
        symbols = modem.map_bits(rng.integers(0, 2, 512), spec)
        frame = modem.ofdm_modulate(symbols, cfg)
        assert np.max(np.abs(modem.ofdm_demodulate(frame, cfg) - symbols)) < 1e-9
        body = frame.samples[cfg.cp_length:]
        assert abs(
            np.sum(np.abs(body) ** 2) - np.sum(np.abs(symbols) ** 2)
        ) < 1e-9

    def test_alias_classes_carry_unit_power(self):
        weights = modem.rrc_bin_weights(64, 256, 0.35)
        power = np.zeros(64)
        np.add.at(power, np.arange(256) % 64, weights**2)
        assert np.max(np.abs(power - 1.0)) < 1e-12

    def test_rolloff_reduces_single_carrier_papr(self):
        """Classic trade: excess-bandwidth shaping smooths the envelope."""
        from wavemod import metrics
        spec = modem.constellation("qpsk")
        levels = {}
        for rolloff in (0.0, 0.5):
            cfg = modem.OfdmConfig(256, oversampling=4,
                                   precoder=modem.PRECODER_DFT,
                                   tx_rolloff=rolloff)
            worst = []
            for trial in range(300):
                rng = np.random.default_rng([41, trial])
                frame = modem.ofdm_modulate(
                    modem.map_bits(rng.integers(0, 2, 512), spec), cfg
                )
                worst.append(metrics.papr_db(frame))
            levels[rolloff] = np.median(worst)
        assert levels[0.5] < levels[0.0] - 1.0

    def test_shaping_rejected_off_fourier(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(64, modem.WAVELET_PACKET, HAAR, 6, tx_rolloff=0.2)

    def test_shaping_needs_excess_band(self):
        with pytest.raises(ConfigInvariantViolated):
            modem.OfdmConfig(64, oversampling=1, tx_rolloff=0.2)


class TestWsk:
    def test_frame_is_signed_pulse_train(self, mother):
        frame = modem.wsk_modulate([1, 0], mother, symbol_period=1.0)
        n = len(mother.samples)
        assert_allclose(frame.samples[:n], mother.samples, atol=1e-12)
        assert_allclose(frame.samples[n:2 * n], -mother.samples, atol=1e-12)

    def test_noiseless_roundtrip(self, mother):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, 10_000)
        frame = modem.wsk_modulate(bits, mother, 1.0)
        assert np.array_equal(modem.wsk_demodulate(frame, mother, 1.0), bits)

    def test_period_too_short(self, mother):
        with pytest.raises(PeriodTooShort):
            modem.wsk_modulate([0, 1], mother, symbol_period=0.5)

    def test_non_unit_energy_rejected(self, mother):
        bad = wd.SampledWaveform(samples=2.0 * mother.samples, dt=mother.dt)
        with pytest.raises(ConfigError):
            modem.wsk_modulate([0, 1], bad, 1.0)

    def test_awgn_ber_matches_bpsk_theory(self, mother):
        """The antipodal WSK link over AWGN performs as BPSK: BER at
        Eb/N0 = 4 dB within 3 binomial sigma of Q(sqrt(2*10^0.4))."""
        rng = np.random.default_rng(11)
        n_bits = 100_000
        bits = rng.integers(0, 2, n_bits)
        frame = modem.wsk_modulate(bits, mother, 1.0)
        hop = int(round(1.0 / mother.dt))
        noisy = ch.awgn(frame, ch.AwgnSpec(
            snr_db=4.0, seed=12, reference=ch.EB_PER_BIT, samples_per_bit=hop,
        ))
        measured = np.mean(modem.wsk_demodulate(noisy, mother, 1.0) != bits)
        expected = qfunc(np.sqrt(2.0 * 10.0 ** 0.4))
        sigma = np.sqrt(expected * (1 - expected) / n_bits)
        assert abs(measured - expected) < 3 * sigma


class TestDyadicPulseShaping:
    def test_single_stream_reduces_to_pam(self):
        psi = wd.mother_wavelet(HAAR, 5)
        pulses = wd.dyadic_pulse_set(psi, 0)
        symbols = np.array([1.0, -1.0, 1.0, 1.0])
        frame = modem.pulse_shape_dyadic([symbols], pulses, 1.0)
        hop = int(round(1.0 / psi.dt))
        direct = np.zeros(4 * hop + len(pulses[0].samples), dtype=complex)
        for k, s in enumerate(symbols):
            direct[k * hop:k * hop + len(pulses[0].samples)] += (
                s * pulses[0].samples
            )
        assert_allclose(frame.samples, direct[: len(frame.samples)], atol=1e-12)

    def test_two_streams_matched_filter_recovery(self):
        """Closed-form Haar orthogonality makes recovery exact."""
        psi = wd.mother_wavelet(HAAR, 6)
        pulses = wd.dyadic_pulse_set(psi, 1)
        rng = np.random.default_rng(13)
        s0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        frame = modem.pulse_shape_dyadic([s0, s1], pulses, 1.0)
        r0, r1 = modem.matched_filter_streams(frame, pulses, 1.0, 8)
        assert np.max(np.abs(r0 - s0)) < 1e-9
        assert np.max(np.abs(r1 - s1)) < 1e-9

    def test_three_streams_bit_rate(self):
        """Streams at natural dyadic rates carry 1 + 2 + 4 symbols per
        period, the mechanism behind the rising efficiency ladder."""
        psi = wd.mother_wavelet(HAAR, 6)
        pulses = wd.dyadic_pulse_set(psi, 2)
        n_periods = 4
        streams = [
            np.ones(n_periods * 2**m, dtype=complex) for m in range(3)
        ]
        frame = modem.pulse_shape_dyadic(streams, pulses, 1.0)
        recovered = modem.matched_filter_streams(frame, pulses, 1.0, n_periods)
        assert [len(r) for r in recovered] == [4, 8, 16]
        for got, sent in zip(recovered, streams):
            assert np.max(np.abs(got - sent)) < 1e-9

    def test_stream_pulse_count_mismatch(self):
        psi = wd.mother_wavelet(HAAR, 6)
        pulses = wd.dyadic_pulse_set(psi, 1)
        with pytest.raises(StreamPulseCountMismatch):
            modem.pulse_shape_dyadic([np.ones(4)], pulses, 1.0)

    def test_wrong_stream_length(self):
        psi = wd.mother_wavelet(HAAR, 6)
        pulses = wd.dyadic_pulse_set(psi, 1)
        with pytest.raises(ConfigError):
            modem.pulse_shape_dyadic([np.ones(4), np.ones(4)], pulses, 1.0)
