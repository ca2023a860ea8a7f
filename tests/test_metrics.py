"""PAPR, CCDF, EVM, BER, PSD and bandwidth measurements."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavemod
from wavemod import metrics, modem
from wavemod.errors import (
    ConfigError,
    FrameTooShort,
    LengthMismatch,
    ZeroBandwidth,
    ZeroEnergy,
    ZeroReferenceSymbol,
)

QPSK = modem.constellation("qpsk")


def frame_of(samples, rate=1.0):
    return modem.BasebandFrame(np.asarray(samples, dtype=complex), rate)


class TestPaprDb:
    def test_constant_envelope_is_zero(self):
        frame = frame_of(np.exp(1j * np.linspace(0.0, 7.0, 256)))
        assert abs(metrics.papr_db(frame)) < 1e-12

    def test_coherent_worst_case_exact(self):
        """All-identical QPSK symbols add coherently at one sample: the
        PAPR equals the subcarrier count exactly."""
        cfg = modem.OfdmConfig(128)
        frame = modem.ofdm_modulate(np.full(128, QPSK.alphabet[2]), cfg)
        assert abs(metrics.papr_db(frame) - 10.0 * np.log10(128.0)) < 1e-9

    def test_bound_over_random_payloads(self):
        cfg = modem.OfdmConfig(128)
        bound = 10.0 * np.log10(128.0)
        for trial in range(500):
            rng = np.random.default_rng([31, trial])
            frame = modem.ofdm_modulate(
                modem.map_bits(rng.integers(0, 2, 256), QPSK), cfg
            )
            value = metrics.papr_db(frame)
            assert 0.0 <= value <= bound + 1e-9

    def test_zero_energy_rejected(self):
        with pytest.raises(ZeroEnergy):
            metrics.papr_db(frame_of(np.zeros(16)))


@pytest.fixture(scope="module")
def curve():
    cfg = modem.OfdmConfig(64)
    thresholds = np.arange(-1.0, 20.01, 0.5)
    return metrics.papr_ccdf(cfg, QPSK, 400, thresholds, seed=5)


class TestPaprCcdf:
    def test_probability_one_below_zero_db(self, curve):
        below = curve.thresholds_db < 0.0
        assert np.all(curve.probabilities[below] == 1.0)

    def test_probability_zero_above_bound(self, curve):
        above = curve.thresholds_db > 10.0 * np.log10(64.0)
        assert np.all(curve.probabilities[above] == 0.0)

    def test_monotone_nonincreasing(self, curve):
        assert np.all(np.diff(curve.probabilities) <= 0.0)

    def test_direct_recount_oracle(self):
        """Independent counting pass reproduces one CCDF point exactly."""
        cfg = modem.OfdmConfig(64)
        threshold = 7.0
        n = 250
        count = 0
        for trial in range(n):
            rng = np.random.default_rng([6, trial])
            frame = modem.ofdm_modulate(
                modem.map_bits(rng.integers(0, 2, 128), QPSK), cfg
            )
            count += metrics.papr_db(frame) > threshold
        curve = metrics.papr_ccdf(cfg, QPSK, n, [threshold], seed=6)
        assert curve.probabilities[0] == count / n

    def test_level_interpolation(self):
        curve = metrics.CcdfCurve(
            thresholds_db=np.array([5.0, 6.0, 7.0]),
            probabilities=np.array([1.0, 0.1, 0.001]),
            n_trials=1000,
        )
        assert curve.level_at(0.1) == 6.0
        assert 6.0 < curve.level_at(0.01) < 7.0

    def test_independent_seeds_agree_within_binomial_bands(self):
        """Curves from disjoint seeds converge: mid-curve points differ by
        less than four binomial sigmas."""
        cfg = modem.OfdmConfig(64)
        thresholds = np.array([6.0, 7.0, 8.0])
        n = 400
        a = metrics.papr_ccdf(cfg, QPSK, n, thresholds, seed=21)
        b = metrics.papr_ccdf(cfg, QPSK, n, thresholds, seed=22)
        for pa, pb in zip(a.probabilities, b.probabilities):
            pooled = 0.5 * (pa + pb)
            sigma = np.sqrt(max(pooled * (1 - pooled), 1e-9) * 2.0 / n)
            assert abs(pa - pb) < 4.0 * sigma


def _reference_bits(rows, n):
    return np.stack([np.random.default_rng(row).integers(0, 2, n) for row in rows])


class TestTrialBits:
    """The raw-PCG64 bits equal numpy's Generator draw bit for bit."""

    def test_random_seeds_and_lengths(self):
        rng = np.random.default_rng(2011)
        for _ in range(60):
            seed = int(rng.integers(0, 2**32))
            n = int(rng.integers(1, 2100))  # odd lengths included
            start = int(rng.integers(0, 5000))
            payloads = metrics.TrialBits([seed], [start + 3], n)
            trials = range(start, start + 3)
            got = payloads(trials)
            assert got.dtype == np.int64 and got.shape == (3, n)
            assert np.array_equal(got, _reference_bits([[seed, t] for t in trials], n))

    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_trial_zero_and_odd_lengths(self, n):
        payloads = metrics.TrialBits([0], [4], n)
        assert np.array_equal(payloads(range(0, 1)), _reference_bits([[0, 0]], n))
        assert np.array_equal(payloads(range(1, 4)),
                              _reference_bits([[0, t] for t in range(1, 4)], n))

    def test_ber_entropy_grid(self):
        """[seed, system, point, trial]: a (points, trials) grid per system."""
        seed, system = 20110223, 3
        payloads = metrics.TrialBits([seed, system], [9, 50], 1024)
        for point, trials in ((0, range(0, 7)), (8, range(49, 50)), (4, range(21, 28))):
            rows = [[seed, system, point, t] for t in trials]
            assert np.array_equal(payloads(point, trials), _reference_bits(rows, 1024))

    @pytest.mark.parametrize("prefix", [[2**32], [4800000000], [7, 2**40], [2**128 + 3, 0]])
    def test_wide_seed_words(self, prefix):
        """Seeds of 2**32 or more span several SeedSequence entropy words."""
        payloads = metrics.TrialBits(prefix, [5], 33)
        rows = [prefix + [t] for t in range(1, 5)]
        assert np.array_equal(payloads(range(1, 5)), _reference_bits(rows, 33))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            metrics.TrialBits([-1], [2], 8)
        with pytest.raises(ConfigError):
            metrics.papr_ccdf(modem.OfdmConfig(64), QPSK, 2, [6.0], seed=-1)

    def test_papr_ccdf_wide_seed_matches_per_trial_reference(self):
        cfg = modem.OfdmConfig(64)
        thresholds = np.array([4.0, 6.0, 8.0])
        seed = 600000000 * 8 + 1  # the papr-ccdf seed of system 1 at --seed 600000000
        curve = metrics.papr_ccdf(cfg, QPSK, 40, thresholds, seed=seed)
        values = np.array([
            metrics.papr_db(modem.ofdm_modulate(
                modem.map_bits(_reference_bits([[seed, t]], 128)[0], QPSK), cfg))
            for t in range(40)
        ])
        expected = np.sum(values[:, None] > thresholds, axis=0)
        assert np.array_equal(curve.exceed_counts, expected)


class TestEvm:
    def test_perfect_reception(self):
        s = QPSK.alphabet
        assert metrics.evm(s, s) == 0.0

    def test_double_amplitude_is_unity(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert abs(metrics.evm(2.0 * d, d) - 1.0) < 1e-12

    def test_against_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        d = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        r = d + 0.1 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        direct = sum(
            abs(ri - di) ** 2 / abs(di) ** 2 for ri, di in zip(r, d)
        ) / 256.0
        assert abs(metrics.evm(r, d) - direct) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        d = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        r = d + 0.2 * rng.standard_normal(64)
        phase = np.exp(1j * 0.7)
        assert abs(metrics.evm(r, d) - metrics.evm(phase * r, phase * d)) < 1e-12

    @pytest.mark.parametrize("n", [7, 512, 1000])
    def test_block_equals_row_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = d + 1e-8 * (rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n)))
        rows = [metrics.evm(row, d) for row in r]
        assert all(type(value) is float for value in rows)
        block = metrics.evm(r, d)
        assert block.shape == (9,)
        assert np.array_equal(block, rows)
        assert np.array_equal(metrics.evm(r, np.broadcast_to(d, r.shape)), rows)
        assert np.array_equal(metrics.evm(r.reshape(3, 3, n), d).ravel(), rows)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceSymbol):
            metrics.evm(np.ones(3), np.array([1.0, 0.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.evm(np.ones(3), np.ones(4))
        with pytest.raises(LengthMismatch):
            metrics.evm(np.ones((2, 3)), np.ones((3, 3)))


class TestBer:
    def test_trivial_cases(self):
        bits = np.array([0, 1, 1, 0, 1])
        assert metrics.ber(bits, bits) == 0.0
        assert metrics.ber(bits, 1 - bits) == 1.0

    def test_single_flip(self):
        tx = np.zeros(1000, dtype=int)
        rx = tx.copy()
        rx[123] = 1
        assert metrics.ber(tx, rx) == 0.001

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.ber(np.zeros(4), np.zeros(5))


class TestPsd:
    def test_tone_peak_bin(self):
        f0 = 0.125
        n = 4096
        frame = frame_of(np.exp(2j * np.pi * f0 * np.arange(n)), rate=1.0)
        est = metrics.psd(frame, metrics.WelchMethod(segment=512))
        peak_freq = est.freqs[int(np.argmax(est.power_db))]
        assert abs(peak_freq - f0) <= est.resolution_bw

    def test_white_noise_flat(self):
        rng = np.random.default_rng(11)
        n = 2**18
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        est = metrics.psd(frame_of(x), metrics.WelchMethod(segment=256))
        median = np.median(est.power_db)
        assert np.max(np.abs(est.power_db - median)) < 1.0

    def test_parseval_within_two_percent(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
        frame = frame_of(x, rate=4.0)
        est = metrics.psd(frame, metrics.WelchMethod(segment=1024))
        integral = np.sum(est.power_linear()) * (est.freqs[1] - est.freqs[0])
        average = np.mean(np.abs(x) ** 2)
        assert abs(integral - average) / average < 0.02

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        a = metrics.psd(frame_of(x), metrics.WelchMethod(segment=512))
        b = metrics.psd(frame_of(np.roll(x, 1000)),
                        metrics.WelchMethod(segment=512))
        # agreement within estimator variance, checked in dB
        assert np.mean(np.abs(a.power_db - b.power_db)) < 1.0

    def test_periodogram_method(self):
        x = np.exp(2j * np.pi * 0.25 * np.arange(1024))
        est = metrics.psd(frame_of(x), metrics.PeriodogramMethod())
        assert est.resolution_bw == 1.0 / 1024

    def test_frame_too_short(self):
        with pytest.raises(FrameTooShort):
            metrics.psd(frame_of(np.ones(64)), metrics.WelchMethod(segment=256))

    def test_welch_is_the_mean_of_windowed_segment_periodograms(self):
        """Segments of 4 samples, 2 apart, under the periodic Hann window;
        the symmetric np.hanning(4) gives other numbers."""
        fs = 2.0
        x = np.random.default_rng(15).standard_normal(16).view(complex)
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(4) / 4)
        segments = [x[0:4], x[2:6], x[4:8]]
        density = np.mean(
            [np.abs(np.fft.fft(seg * w)) ** 2 for seg in segments], axis=0
        ) / (fs * np.sum(w**2))
        est = metrics.psd(frame_of(x, rate=fs),
                          metrics.WelchMethod(segment=4, overlap=0.5))
        assert_allclose(est.freqs, np.fft.fftshift(np.fft.fftfreq(4, 1.0 / fs)))
        assert_allclose(est.power_linear(), np.fft.fftshift(density), rtol=1e-12)
        assert est.resolution_bw == fs / 4

    def test_periodogram_of_a_bin_centred_tone(self):
        """A unit tone on bin 5 of 64 puts all of N/fs on that bin."""
        n, fs = 64, 4.0
        x = np.exp(2j * np.pi * 5 * np.arange(n) / n)
        est = metrics.psd(frame_of(x, rate=fs), metrics.PeriodogramMethod())
        peak = int(np.argmax(est.power_db))
        assert est.freqs[peak] == 5 * fs / n
        assert est.power_linear()[peak] == pytest.approx(n / fs, rel=1e-12)
        assert np.sum(est.power_linear()) == pytest.approx(n / fs, rel=1e-12)

    def test_bad_welch_parameters(self):
        frame = frame_of(np.ones(64))
        for method in (metrics.WelchMethod(segment=1),
                       metrics.WelchMethod(segment=16, overlap=1.0)):
            with pytest.raises(ConfigError):
                metrics.psd(frame, method)

    def test_runs_without_scipy(self):
        """wavemod needs numpy only: with scipy blocked from import, the CLI
        module loads and both PSD methods run."""
        src = str(Path(wavemod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, wavemod.cli\n"
            "from wavemod import metrics, modem\n"
            "frame = modem.BasebandFrame(np.ones(256), 1.0)\n"
            "for method in (metrics.WelchMethod(segment=64), "
            "metrics.PeriodogramMethod()):\n"
            "    print(len(metrics.psd(frame, method).freqs))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["64", "256"]


class TestOccupiedBandwidth:
    def test_single_tone_one_bin(self):
        n = 4096
        frame = frame_of(np.exp(2j * np.pi * 0.25 * np.arange(n)))
        est = metrics.psd(frame, metrics.PeriodogramMethod())
        assert metrics.occupied_bandwidth(est) == pytest.approx(
            est.resolution_bw, rel=1e-9
        )

    def test_brickwall_containment_bounds(self):
        """0.99 B <= measured <= B (+ one bin) for an ideal flat width-B
        spectrum; random phases leave the PSD flat."""
        n = 8192
        rng = np.random.default_rng(14)
        spectrum = np.zeros(n, dtype=complex)
        width = n // 4
        idx = (np.arange(-width // 2, width // 2)) % n
        spectrum[idx] = np.exp(2j * np.pi * rng.random(width))
        x = np.fft.ifft(spectrum)
        est = metrics.psd(frame_of(x, rate=1.0), metrics.PeriodogramMethod())
        b_true = 0.25
        measured = metrics.occupied_bandwidth(est, 0.99)
        assert 0.99 * b_true <= measured <= b_true + 2.0 * est.resolution_bw

    def test_containment_validation(self):
        est = metrics.PsdEstimate(
            freqs=np.linspace(-0.5, 0.5, 11), power_db=np.zeros(11),
            resolution_bw=0.1,
        )
        with pytest.raises(ConfigError):
            metrics.occupied_bandwidth(est, 1.5)
        with pytest.raises(ZeroBandwidth):
            metrics.occupied_bandwidth(metrics.PsdEstimate(
                freqs=est.freqs, power_db=np.full(11, np.nan), resolution_bw=0.1,
            ))


class TestSpectralEfficiency:
    def test_ratio(self):
        assert metrics.spectral_efficiency(2.0, 4.0) == 0.5

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ZeroBandwidth):
            metrics.spectral_efficiency(1.0, 0.0)
        with pytest.raises(ZeroBandwidth):
            metrics.spectral_efficiency(1.0, np.nan)


class TestCsvExports:
    def test_ccdf_csv(self):
        curve = metrics.CcdfCurve(
            thresholds_db=np.array([1.0, 2.0]),
            probabilities=np.array([0.5, 0.25]),
            n_trials=4,
        )
        text = metrics.ccdf_to_csv(curve)
        assert text.splitlines()[0] == "threshold_db,prob"
        assert text.splitlines()[1] == "1,0.5"

    def test_psd_csv(self):
        est = metrics.PsdEstimate(
            freqs=np.array([-0.25, 0.25]), power_db=np.array([-3.0, -6.0]),
            resolution_bw=0.5,
        )
        lines = metrics.psd_to_csv(est).splitlines()
        assert lines[0] == "freq_hz,power_db"
        assert lines[1] == "-0.25,-3"
