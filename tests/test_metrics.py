"""PAPR, CCDF, EVM, bandwidth and spectral-efficiency measurements."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavemod
from wavemod import channel, experiments, filterbank, metrics, modem
from wavemod.configio import ExperimentConfig, parse_float_list
from wavemod.errors import ConfigError, NumericalError

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
        with pytest.raises(ConfigError, match="PAPR undefined"):
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
    """TrialSeeds.bits, raw PCG64 output, equals numpy's Generator draw bit
    for bit."""

    def test_random_seeds_and_lengths(self):
        rng = np.random.default_rng(2011)
        for _ in range(60):
            seed = int(rng.integers(0, 2**32))
            n = int(rng.integers(1, 2100))  # odd lengths included
            start = int(rng.integers(0, 5000))
            payloads = metrics.TrialSeeds.grid([seed], [start + 3])
            trials = range(start, start + 3)
            got = payloads[start:start + 3].bits(n)
            assert got.dtype == np.int64 and got.shape == (3, n)
            assert np.array_equal(got, _reference_bits([[seed, t] for t in trials], n))

    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_trial_zero_and_odd_lengths(self, n):
        payloads = metrics.TrialSeeds.grid([0], [4])
        assert np.array_equal(payloads[0:1].bits(n), _reference_bits([[0, 0]], n))
        assert np.array_equal(payloads[1:4].bits(n),
                              _reference_bits([[0, t] for t in range(1, 4)], n))

    def test_ber_entropy_grid(self):
        """[seed, system, point, trial]: a (points, trials) grid per system."""
        seed, system = 20110223, 3
        payloads = metrics.TrialSeeds.grid([seed, system], [9, 50])
        for point, trials in ((0, range(0, 7)), (8, range(49, 50)), (4, range(21, 28))):
            rows = [[seed, system, point, t] for t in trials]
            got = payloads[point, trials.start:trials.stop].bits(1024)
            assert np.array_equal(got, _reference_bits(rows, 1024))

    @pytest.mark.parametrize("prefix", [[2**32], [4800000000], [7, 2**40], [2**128 + 3, 0]])
    def test_wide_seed_words(self, prefix):
        """Seeds of 2**32 or more span several SeedSequence entropy words."""
        payloads = metrics.TrialSeeds.grid(prefix, [5])
        rows = [prefix + [t] for t in range(1, 5)]
        assert np.array_equal(payloads[1:5].bits(33), _reference_bits(rows, 33))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigError):
            metrics.TrialSeeds.grid([-1], [2])
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


class TestTrialSeeds:
    @pytest.mark.parametrize("prefix, suffix", [([7], []), ([2**40], [3]), ([], [])])
    def test_zero_d_grid_is_its_one_seed_without_warnings(self, prefix, suffix):
        """A 0-d grid is hashed as one row of array ufuncs, so the uint32
        wraparound of the hash raises no overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = metrics.TrialSeeds.grid(prefix, (), suffix).words
        want = np.random.SeedSequence(prefix + suffix).generate_state(4, np.uint64)
        assert words.shape == (4,) and words.tobytes() == want.tobytes()

    def test_empty_grid(self):
        assert metrics.TrialSeeds.grid([1], (0, 3)).words.shape == (0, 3, 4)

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (50,), (3, 11), (2, 1)])
    @pytest.mark.parametrize("budget", [1, 16 * 64, 16 * 64 * 5, 16 * 64 * 7 - 1, 1 << 19])
    def test_blocks_cover_the_last_axis_in_order(self, monkeypatch, shape, budget):
        """Blocks of 64-sample frames: every trial once, in order, each
        block the parent's slice along the last axis, and every block but
        the last as wide as the budget allows (at least one position)."""
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", budget)
        seeds = metrics.TrialSeeds.grid([4], shape)
        *lead, count = shape
        width = max(1, budget // (16 * 64 * math.prod(lead)))
        start = 0
        for block in seeds.blocks(64):
            size = block.words.shape[-2]
            assert 1 <= size <= width and (size == width or start + size == count)
            assert block.words.shape == seeds.words[..., start:start + size, :].shape
            assert block.words.tobytes() == seeds.words[..., start:start + size, :].tobytes()
            frames = math.prod(block.words.shape[:-1])
            assert frames * 16 * 64 <= budget or size == 1
            start += size
        assert start == count

    def test_blocks_of_the_default_budget(self):
        """evm-sweep's 9 cutoffs x 1024 samples a frame give blocks of 3."""
        blocks = metrics.TrialSeeds.grid([0], [7]).blocks(9 * 1024)
        assert [len(block.words) for block in blocks] == [3, 3, 1]


SEEDED_DRAWS = {
    "AwgnSpec": lambda seed: channel.AwgnSpec(snr_db=10.0, seed=seed),
    "TrialSeeds": lambda seed: metrics.TrialSeeds.grid([seed], [2]).bits(8),
    "papr_ccdf": lambda seed: metrics.papr_ccdf(modem.OfdmConfig(64), QPSK, 2, [6.0],
                                                seed=seed),
    "ten_path": lambda seed: channel.MultipathSpec.ten_path(seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, [[1], [2]]])
@pytest.mark.parametrize("draw", sorted(SEEDED_DRAWS))
def test_every_seeded_draw_rejects_a_bad_seed(draw, seed):
    """One seed check (metrics.TrialSeeds): a seed is an integer >= 0 and
    not a bool, and a 2-D array is no seed."""
    with pytest.raises(ConfigError):
        SEEDED_DRAWS[draw](seed)


class TestTrialSymbols:
    """The symbol draw equals map_bits of the bit draw, byte for byte."""

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    @pytest.mark.parametrize("prefix", [[0], [2**32 + 5], [600000000 * 8 + 1]])
    def test_equal_map_bits_of_the_bits(self, kind, prefix):
        spec = modem.constellation(kind)
        for n_symbols in (1, 7, 64):  # 7 BPSK symbols use half of a word
            n_bits = n_symbols * spec.bits_per_symbol
            payloads = metrics.TrialSeeds.grid(prefix, [6])
            for trials in (slice(0, 1), slice(0, 6), slice(3, 5)):
                got = payloads[trials].symbols(spec, n_bits)
                want = modem.map_bits(payloads[trials].bits(n_bits), spec)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_grid_positions_and_other_symbol_widths(self):
        eight = modem.ConstellationSpec("8psk", 3, np.exp(2j * np.pi * np.arange(8) / 8))
        for spec in (QPSK, eight):
            n_bits = 12 * spec.bits_per_symbol
            payloads = metrics.TrialSeeds.grid([2**40, 3], [4, 5])
            got = payloads[2, 1:4].symbols(spec, n_bits)
            assert got.tobytes() == modem.map_bits(payloads[2, 1:4].bits(n_bits), spec).tobytes()

    def test_bit_count_must_fill_whole_symbols(self):
        with pytest.raises(ConfigError, match="3 bits not divisible by 2"):
            metrics.TrialSeeds.grid([0], [2]).symbols(QPSK, 3)


def _systems(**overrides):
    """The four papr-ccdf transmitters at 64 subcarriers; a block holds 113
    frames of 288 samples at the default oversampling and prefix."""
    return experiments.system_configs(ExperimentConfig(modem_n_subcarriers=64, **overrides))


def _exact_paprs(cfg, spec, n, seed):
    """papr_db(ofdm_modulate(...)) of each of papr_ccdf's n frames alone."""
    bits = metrics.TrialSeeds.grid([seed], [n]).bits(cfg.n_subcarriers * spec.bits_per_symbol)
    return np.array([metrics.papr_db(modem.ofdm_modulate(modem.map_bits(row, spec), cfg))
                     for row in bits])


def _recorded_modulations(monkeypatch):
    """Symbol rows of every ofdm_modulate call papr_ccdf makes from now on."""
    calls = []
    inner = metrics.ofdm_modulate

    def wrapped(symbols, cfg):
        calls.append(np.array(symbols))
        return inner(symbols, cfg)

    monkeypatch.setattr(metrics, "ofdm_modulate", wrapped)
    return calls


def _perturbed_systems():
    """wpm and sc_wpm on a hand-built pair, which runs both packet transforms."""
    haar = filterbank.make_filter("haar")
    h = haar.h.copy()
    h[0] += 0.01
    pair = filterbank.WaveletFilterPair(h=h, g=haar.g, family="perturbed")
    wpm = modem.OfdmConfig(64, modem.WAVELET_PACKET, pair, 6, oversampling=4)
    return {"wpm": wpm, "sc_wpm": replace(wpm, precoder=modem.PRECODER_WPT)}


class TestPaprGuard:
    """papr_ccdf's fast path counts exactly what the exact path counts."""

    @pytest.mark.parametrize("system", experiments.SYSTEM_ORDER)
    def test_threshold_at_a_frames_exact_papr(self, monkeypatch, system):
        """Thresholds at one frame's exact PAPR and 1e-12 dB either side:
        the fast ratio cannot decide them, so the guard recomputes that
        frame and the counts equal the exact path's."""
        cfg, n, seed, k = _systems()[system], 24, 3, 17
        values = _exact_paprs(cfg, QPSK, n, seed)
        thresholds = values[k] + np.array([-1e-12, 0.0, 1e-12])
        assert np.all(np.diff(thresholds) > 0)
        calls = _recorded_modulations(monkeypatch)
        curve = metrics.papr_ccdf(cfg, QPSK, n, thresholds, seed)
        expected = np.sum(values[:, None] > thresholds, axis=0)
        assert np.array_equal(curve.exceed_counts, expected)
        assert expected[0] == expected[1] + 1  # frame k lies between them
        bits = metrics.TrialSeeds.grid([seed], [n])[k:k + 1].bits(128)
        assert any(np.array_equal(call, modem.map_bits(bits, QPSK)[0]) for call in calls)

    def test_guard_is_quiet_away_from_the_thresholds(self, monkeypatch):
        calls = _recorded_modulations(monkeypatch)
        thresholds = parse_float_list(ExperimentConfig().papr_thresholds_db)
        for cfg in _systems().values():
            metrics.papr_ccdf(cfg, QPSK, 130, thresholds, seed=9)
        assert calls == []

    @pytest.mark.parametrize("overrides", [
        {"modem_tx_rolloff": 0.25},
        {"modem_wpm_interp": "fft"},
        {"modem_sc_precoder": "dwt"},
        {"modem_cp_fraction": 0.0},
        {"modem_oversampling": 1},
        {"modem_constellation": "bpsk"},
        {"modem_constellation": "qam16"},
        {"perturbed": True},
    ])
    def test_non_default_configs_match_the_exact_path(self, overrides):
        """130 frames cross a block boundary at oversampling 4."""
        if overrides.pop("perturbed", False):
            systems = _perturbed_systems()
        else:
            systems = _systems(**overrides)
        spec = modem.constellation(overrides.get("modem_constellation", "qpsk"))
        thresholds = parse_float_list(ExperimentConfig().papr_thresholds_db)
        for seed, cfg in enumerate(systems.values()):
            values = _exact_paprs(cfg, spec, 130, seed)
            curve = metrics.papr_ccdf(cfg, spec, 130, thresholds, seed)
            expected = np.sum(values[:, None] > thresholds, axis=0)
            assert np.array_equal(curve.exceed_counts, expected)

    @pytest.mark.parametrize("system", experiments.SYSTEM_ORDER)
    def test_extreme_thresholds(self, system):
        """Thresholds far outside [0, 10 log10(frame_length)] dB count as
        they do on the exact path, with no overflow."""
        cfg = _systems()[system]
        top = 10.0 * np.log10(cfg.frame_length)
        thresholds = [-np.inf, -1e300, 0.0, top, 1e300, np.inf]
        curve = metrics.papr_ccdf(cfg, QPSK, 20, thresholds, seed=4)
        expected = np.sum(_exact_paprs(cfg, QPSK, 20, 4)[:, None] > thresholds, axis=0)
        assert np.array_equal(curve.exceed_counts, expected)
        assert expected.tolist() == [20, 20, 20, 0, 0, 0]

    def test_silent_frame_raises(self):
        """Symbols of 0 give a silent frame, as on the exact path."""
        zero = modem.ConstellationSpec("zero", 2, np.zeros(4, dtype=complex))
        for cfg in _systems().values():
            with pytest.raises(ConfigError, match="PAPR undefined"):
                metrics.papr_ccdf(cfg, zero, 2, [3.0], seed=1)

    @pytest.mark.parametrize("thresholds", [
        [3.0, 2.0], [2.0, 2.0], [2.0, np.nan], [np.nan], [[2.0, 3.0]], 5.0, ["x"],
    ])
    def test_bad_thresholds_rejected_before_the_first_trial(self, monkeypatch, thresholds):
        def transmit(*args, **kwargs):
            raise AssertionError("a frame was transmitted")

        monkeypatch.setattr(metrics, "_transmit_body", transmit)
        monkeypatch.setattr(metrics, "ofdm_modulate", transmit)
        with pytest.raises(ConfigError, match="thresholds"):
            metrics.papr_ccdf(modem.OfdmConfig(64), QPSK, 3000, thresholds, seed=1)

    def test_descending_config_thresholds_fail_before_any_trial(self, monkeypatch):
        def transmit(*args, **kwargs):
            raise AssertionError("a frame was transmitted")

        monkeypatch.setattr(metrics, "_transmit_body", transmit)
        cfg = ExperimentConfig(experiment="papr-ccdf", n_trials=3000,
                               papr_thresholds_db="3,2")
        with pytest.raises(ConfigError, match="ascending"):
            experiments.run_experiment(cfg)


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
        with pytest.raises(ConfigError, match="reference symbols must be nonzero"):
            metrics.evm(np.ones(3), np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("received, reference", [
        ([np.nan], [1.0]), ([1.0], [np.inf]), ([1e200], [1.0]),
        ([[1.0], [np.nan]], [1.0]),
    ])
    def test_non_finite_values_raise(self, received, reference):
        with pytest.raises(NumericalError):
            metrics.evm(received, reference)

    @pytest.mark.parametrize("received", ["ab", [[1.0], [1.0, 2.0]]])
    def test_non_numbers_rejected(self, received):
        with pytest.raises(ConfigError):
            metrics.evm(received, [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="symbol counts differ"):
            metrics.evm(np.ones(3), np.ones(4))
        with pytest.raises(ConfigError, match="symbol counts differ"):
            metrics.evm(np.ones((2, 3)), np.ones((3, 3)))


class TestPsd:
    def test_runs_without_scipy(self):
        """wavemod needs numpy only: with scipy blocked from import, the CLI
        module loads and se-table, the study that estimates PSDs, runs."""
        src = str(Path(wavemod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys; sys.modules['scipy'] = None\n"
            "import wavemod.cli\n"
            "sys.exit(wavemod.cli.main(['se-table']))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        assert ("system,bit_rate,bandwidth_99,spectral_efficiency,ordering_rank"
                in out.stdout.splitlines())


def periodogram(x):
    """Boxcar periodogram |fft(x)|**2 / n of x, sampled at rate 1, on the
    ascending fftfreq grid."""
    n = len(x)
    density = np.fft.fftshift(np.abs(np.fft.fft(x)) ** 2 / n)
    return metrics.PsdEstimate(
        freqs=np.fft.fftshift(np.fft.fftfreq(n)),
        power_db=10.0 * np.log10(np.maximum(density, 1e-300)),
        resolution_bw=1.0 / n,
    )


class TestOccupiedBandwidth:
    def test_single_tone_one_bin(self):
        n = 4096
        est = periodogram(np.exp(2j * np.pi * 0.25 * np.arange(n)))
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
        est = periodogram(x)
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
        with pytest.raises(NumericalError, match="spectrum carries no power"):
            metrics.occupied_bandwidth(metrics.PsdEstimate(
                freqs=est.freqs, power_db=np.full(11, np.nan), resolution_bw=0.1,
            ))

    def test_overflowing_power_raises(self):
        """A finite dB level whose linear power leaves the float range."""
        with pytest.raises(NumericalError, match="occupied_bandwidth: overflow"):
            metrics.occupied_bandwidth(metrics.PsdEstimate([0, 1], [1e308, 0], 1.0))

    @pytest.mark.parametrize("freqs, resolution_bw, match", [
        ([1, 0], 1.0, "strictly ascending"),  # a width of 0.0 unchecked
        ([0, 2, 1, 3], 1.0, "strictly ascending"),  # 5.0 unchecked
        ([0, 0], 1.0, "strictly ascending"),
        ([0, np.nan], 1.0, "strictly ascending"),
        ([0.0], -1.0, "resolution bandwidth"),  # -1.0 unchecked
        ([0.0], 0.0, "resolution bandwidth"),
        ([0.0], np.nan, "resolution bandwidth"),
        ([0.0, 1.0], np.inf, "resolution bandwidth"),
        ([0.0], [1.0], "resolution bandwidth"),
        ([0.0], "1", "resolution bandwidth"),
    ])
    def test_grid_it_cannot_measure_is_rejected(self, freqs, resolution_bw, match):
        with pytest.raises(ConfigError, match=match):
            metrics.PsdEstimate(freqs, np.zeros(len(freqs)), resolution_bw)


class TestSpectralEfficiency:
    def test_ratio(self):
        assert metrics.spectral_efficiency(2.0, 4.0) == 0.5

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NumericalError, match="bandwidth must be positive"):
            metrics.spectral_efficiency(1.0, 0.0)
        with pytest.raises(NumericalError, match="bandwidth must be positive"):
            metrics.spectral_efficiency(1.0, np.nan)

    @pytest.mark.parametrize("bit_rate, bandwidth", [
        (np.nan, 1.0), (np.inf, 1.0), (1e308, 1e-308),
    ])
    def test_non_finite_ratio_raises(self, bit_rate, bandwidth):
        with pytest.raises(NumericalError):
            metrics.spectral_efficiency(bit_rate, bandwidth)
