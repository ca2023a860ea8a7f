"""AWGN statistics, multipath convolution and zero-forcing equalization."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wavemod import channel as ch
from wavemod import configio, experiments, metrics, modem
from wavemod import filterbank as fb
from wavemod.errors import ConfigError, NumericalError

HAAR = fb.make_filter("haar")


def frame_of(samples, rate=1.0):
    return modem.BasebandFrame(np.asarray(samples, dtype=complex), rate)


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        frame = frame_of(np.arange(16))
        out = ch.awgn(frame, ch.AwgnSpec(snr_db=math.inf, seed=1))
        assert np.array_equal(out.samples, frame.samples)

    def test_variance_calibration(self):
        """Sample-statistics oracle at Es/N0 = 10 dB on a unit-power frame."""
        n = 1_000_000
        frame = frame_of(np.ones(n))
        out = ch.awgn(frame, ch.AwgnSpec(snr_db=10.0, seed=2))
        noise = out.samples - frame.samples
        assert abs(np.mean(np.abs(noise) ** 2) - 0.1) < 0.001
        # mean within 3 sigma/sqrt(n) of zero per rail
        rail_sigma = np.sqrt(0.05 / n)
        assert abs(np.mean(noise.real)) < 3 * rail_sigma
        assert abs(np.mean(noise.imag)) < 3 * rail_sigma

    def test_seed_determinism(self):
        frame = frame_of(np.ones(256))
        spec = ch.AwgnSpec(snr_db=3.0, seed=77)
        a = ch.awgn(frame, spec).samples
        b = ch.awgn(frame, spec).samples
        assert np.array_equal(a, b)
        c = ch.awgn(frame, ch.AwgnSpec(snr_db=3.0, seed=78)).samples
        assert not np.array_equal(a, c)

    def test_eb_per_bit_reference(self):
        """Eb/N0 mode scales the variance by samples-per-bit."""
        n = 200_000
        frame = frame_of(np.ones(n))
        out = ch.awgn(frame, ch.AwgnSpec(
            snr_db=0.0, seed=3, reference=ch.EB_PER_BIT, samples_per_bit=4.0,
        ))
        measured = np.mean(np.abs(out.samples - frame.samples) ** 2)
        assert abs(measured - 4.0) < 0.05
        with pytest.raises(ConfigError):  # NaN fails `<= 0` but not `> 0`
            ch.AwgnSpec(snr_db=0.0, reference=ch.EB_PER_BIT,
                        samples_per_bit=math.nan)

    def test_noise_follows_each_rows_own_power(self):
        """A row with 10x the power of another gets 10x the noise variance,
        not a share of the block-wide mean."""
        x = np.exp(2j * np.pi * np.arange(4096) / 7.0)
        block = frame_of(np.stack([x, np.sqrt(10.0) * x]))
        # both rows draw the same unit noise, seed [21, 0], so only the
        # scaling differs
        seeds = metrics.TrialSeeds.grid([21], (1,))[[0, 0]]
        out = ch.awgn(block, ch.AwgnSpec(snr_db=5.0, seed=seeds))
        noise = out.samples - block.samples
        assert_allclose(np.abs(noise[1]) ** 2, 10.0 * np.abs(noise[0]) ** 2,
                        rtol=1e-9)
        assert abs(np.mean(np.abs(noise[0]) ** 2) - 10 ** -0.5) < 0.02
        rng = np.random.default_rng([21, 0])
        unit = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        assert_allclose(noise[0], np.sqrt(10 ** -0.5 / 2) * unit, rtol=1e-12)

    def test_per_row_seeds_must_match_the_rows(self):
        block = frame_of(np.ones((3, 64)))
        with pytest.raises(ConfigError, match="per-row seeds"):
            ch.awgn(block, ch.AwgnSpec(snr_db=5.0, seed=metrics.TrialSeeds.grid([1], (2,))))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, [7, -1], [[1, 2], [3, -4]],
                                      [[1], [2, 3]], [2**70, -1]])
    def test_negative_or_non_integer_seed_rejected(self, seed):
        """Ints, 1-D sequences and 2-D arrays (never a valid seed) fail at
        construction with a ConfigError, not in numpy's generator."""
        with pytest.raises(ConfigError):
            ch.AwgnSpec(snr_db=10.0, seed=seed)

    def test_empty_frame_rejected(self):
        with pytest.raises(ConfigError, match="cannot add noise to an empty frame"):
            ch.awgn(frame_of([]), ch.AwgnSpec(snr_db=10.0))

    @pytest.mark.parametrize("samples, snr_db", [([1.7e308], 10.0), ([1e150], -100.0)])
    def test_overflowing_power_or_noise_raises(self, samples, snr_db):
        """A finite frame whose power, or noise, leaves the float range."""
        with pytest.raises(NumericalError):
            ch.awgn(frame_of(samples), ch.AwgnSpec(snr_db=snr_db))

    def test_bad_reference(self):
        with pytest.raises(ConfigError):
            ch.AwgnSpec(snr_db=1.0, reference="snr-per-baud")

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf"),
                                        1e308, -1e308, 3100.0, -3100.0])
    def test_nan_and_infinite_noise_rejected(self, snr_db):
        """NaN, -inf, and levels whose 10**(snr_db/10) leaves the normal
        floats (an OverflowError, or noise of infinite variance)."""
        with pytest.raises(ConfigError):
            ch.AwgnSpec(snr_db=snr_db)

    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 2, 16)])
    def test_one_seed_draws_real_rails_then_imaginary_rails(self, shape):
        """One generator for the whole block: the bits of
        scale * (standard_normal(shape) + 1j * standard_normal(shape))."""
        scale = np.linspace(0.5, 2.0, math.prod(shape[:-1])).reshape(shape[:-1])
        rng = np.random.default_rng([4, 2])
        want = scale[..., None] * (rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))
        assert_array_equal(ch._draw_noise([4, 2], shape, scale), want)

    @pytest.mark.parametrize("prefix, suffix", [
        ([9], [1]),
        ([2**32], [1]),
        ([7, 2**40], [2**32 + 5]),
    ])
    def test_row_seeds_draw_each_row_alone(self, prefix, suffix):
        """Per-row seeds, hashed once as a TrialSeeds grid: row b has the
        bits of its own generator's standard_normal(n) + 1j *
        standard_normal(n), times its scale.  Entries of 2**32 and more
        span several uint32 entropy words."""
        seeds = [prefix + [i, j] + suffix for i in range(2) for j in range(2)]
        hashed = metrics.TrialSeeds.grid(prefix, (2, 2), suffix)
        assert hashed.words.shape == (2, 2, 4) and hashed.words.dtype == np.uint64
        for row, seed in enumerate(seeds):
            assert_array_equal(hashed.words.reshape(4, 4)[row],
                               np.random.SeedSequence(seed).generate_state(4, np.uint64))
        scale = np.array([1.0, 0.25, 3.0, 1e-3])
        got = ch._draw_noise(hashed, (2, 2, 32), scale.reshape(2, 2))
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            want = scale[row] * (rng.standard_normal(32)
                                 + 1j * rng.standard_normal(32))
            assert_array_equal(got.reshape(4, 32)[row], want)

    def test_hashed_row_seeds_through_awgn(self):
        """A TrialSeeds sub-grid is a valid AwgnSpec seed: each row gets the
        bytes of awgn on that frame alone with its own seed sequence, and
        of its own generator; the grid must match the block's rows."""
        block = frame_of(np.ones((3, 64)))
        grid = metrics.TrialSeeds.grid([5, 2], (4, 6), [1])
        spec = ch.AwgnSpec(snr_db=3.0, seed=grid[1, 2:5])
        got = ch.awgn(block, spec).samples
        scale = np.sqrt(spec.noise_variance(1.0) / 2.0)
        for row, trial in enumerate(range(2, 5)):
            seed = [5, 2, 1, trial, 1]
            alone = ch.awgn(frame_of(np.ones(64)),
                            dataclasses.replace(spec, seed=seed)).samples
            rng = np.random.default_rng(seed)
            want = 1.0 + scale * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
            assert got[row].tobytes() == alone.tobytes() == want.tobytes()
        with pytest.raises(ConfigError, match="per-row seeds"):
            ch.awgn(block, dataclasses.replace(spec, seed=grid[1, :2]))


class TestMultipath:
    def test_single_unit_tap_is_identity(self):
        spec = ch.MultipathSpec(tap_delays=[0], tap_gains=[1.0], normalize=False)
        frame = frame_of(np.arange(8))
        assert_allclose(ch.apply_multipath(frame, spec).samples, frame.samples)

    def test_impulse_reproduces_response(self):
        spec = ch.MultipathSpec.ten_path(seed=5)
        impulse = np.zeros(16, dtype=complex)
        impulse[0] = 1.0
        out = ch.apply_multipath(frame_of(impulse), spec)
        assert_allclose(out.samples[:10], spec.impulse_response(), atol=1e-15)

    def test_matches_dense_convolution_oracle(self):
        """O(n L) direct convolution over the dense impulse response."""
        spec = ch.MultipathSpec.ten_path(seed=6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        mine = ch.apply_multipath(frame_of(x), spec).samples
        oracle = np.convolve(x, spec.impulse_response())
        assert np.max(np.abs(mine - oracle)) < 1e-12

    def test_linearity(self):
        spec = ch.MultipathSpec.ten_path(seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        combined = ch.apply_multipath(frame_of(2.0 * x + 3j * y), spec).samples
        parts = (
            2.0 * ch.apply_multipath(frame_of(x), spec).samples
            + 3j * ch.apply_multipath(frame_of(y), spec).samples
        )
        assert np.max(np.abs(combined - parts)) < 1e-12

    def test_block_equals_sum_of_fresh_tap_products(self):
        """Each tap's product is formed in one reused buffer; the bytes are
        those of adding a fresh gain * x per tap, in tap order."""
        spec = ch.MultipathSpec.ten_path(seed=10)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 96)) + 1j * rng.standard_normal((3, 96))
        want = np.zeros((3, 96 + spec.max_delay), dtype=complex)
        for delay, gain in zip(spec.tap_delays, spec.tap_gains):
            want[..., delay:delay + 96] += gain * x
        assert_array_equal(ch.apply_multipath(frame_of(x), spec).samples, want)

    @pytest.mark.parametrize("spec", [
        ch.MultipathSpec.ten_path(seed=11),
        ch.MultipathSpec(tap_delays=[0, 3, 7], tap_gains=[1.0, 0.5j, -0.25]),
    ], ids=["ten-path", "sparse"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_tiled_block_equals_row_calls_bytes(self, rows, spec):
        """Rows of ber-fading's length fill tiles of _MULTIPATH_TILE_BYTES
        unevenly; every row keeps the bytes of a call on it alone."""
        n = 2304
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        got = ch.apply_multipath(frame_of(x), spec).samples
        want = np.stack([ch.apply_multipath(frame_of(row), spec).samples for row in x])
        assert got.tobytes() == want.tobytes()

    def test_output_length(self):
        spec = ch.MultipathSpec.ten_path(seed=8)
        out = ch.apply_multipath(frame_of(np.ones(64)), spec)
        assert len(out.samples) == 64 + spec.max_delay

    def test_overflowing_output_raises(self):
        """Finite samples whose tap sum leaves the float range: a numerical
        failure (exit 3), not a frame of non-finite samples (exit 2)."""
        spec = ch.MultipathSpec([0, 1], [1.0, 1.0], normalize=False)
        with pytest.raises(NumericalError, match="apply_multipath: overflow"):
            ch.apply_multipath(frame_of(np.full(16, 1.7e308)), spec)

    def test_delay_exceeds_frame(self):
        spec = ch.MultipathSpec.ten_path(seed=9)
        with pytest.raises(ConfigError, match="max delay 9 >= frame length 5"):
            ch.apply_multipath(frame_of(np.ones(5)), spec)

    def test_default_profile_unit_power_and_decay(self):
        spec = ch.MultipathSpec.ten_path()
        power = np.abs(spec.tap_gains) ** 2
        assert abs(np.sum(power) - 1.0) < 1e-12
        ratios = power[1:] / power[:-1]
        assert_allclose(ratios, 10.0 ** (-0.3), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 424242, 2**32 + 5])
    def test_ten_path_phases_are_default_rng_draws(self, seed):
        """The taps are built from default_rng(seed).uniform phases; a seed
        of 2**32 or more spans two entropy words."""
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 10)
        amplitude = 10.0 ** (-3.0 * np.arange(10) / 20.0)
        want = ch.MultipathSpec(np.arange(10), amplitude * np.exp(1j * phases))
        got = ch.MultipathSpec.ten_path(seed=seed)
        assert got.tap_gains.tobytes() == want.tap_gains.tobytes()

    @pytest.mark.parametrize("n_taps", [0, -1, 1.5, True, "10", None])
    def test_ten_path_needs_a_whole_tap_count(self, n_taps):
        with pytest.raises(ConfigError):
            ch.MultipathSpec.ten_path(n_taps=n_taps)

    @pytest.mark.parametrize("decay_db, n_taps", [
        (float("nan"), 10), (float("inf"), 1), (1e308, 10), (-400.0, 10),
        (400.0, 10), (1.0, 5000),
    ])
    def test_profile_beyond_float_range_rejected(self, decay_db, n_taps):
        """First and last tap powers must differ by a ratio a float holds,
        or the profile overflows (with numpy warnings) or is NaN."""
        with pytest.raises(ConfigError):
            ch.MultipathSpec.ten_path(n_taps=n_taps, decay_db_per_tap=decay_db)

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            ch.MultipathSpec(tap_delays=[1, 2], tap_gains=[1.0, 0.5])
        with pytest.raises(ConfigError, match="tap delay and gain counts differ"):
            ch.MultipathSpec(tap_delays=[0], tap_gains=[1.0, 0.5])
        with pytest.raises(ConfigError):  # before normalizing warns
            ch.MultipathSpec(tap_delays=[0], tap_gains=[math.nan])

    def test_profile_file_roundtrip(self, tmp_path):
        spec = ch.MultipathSpec.ten_path(seed=10)
        path = tmp_path / "taps.txt"
        lines = ["# delay_samples gain_re gain_im"]
        for d, g in zip(spec.tap_delays, spec.tap_gains):
            lines.append(f"{d} {float(g.real)!r} {float(g.imag)!r}")
        path.write_text("\n".join(lines) + "\n")
        loaded = ch.MultipathSpec.from_file(path)
        assert np.array_equal(loaded.tap_delays, spec.tap_delays)
        assert np.max(np.abs(loaded.tap_gains - spec.tap_gains)) < 1e-15

    def test_profile_file_bad_line(self, tmp_path):
        path = tmp_path / "taps.txt"
        path.write_text("0 1.0\n")
        with pytest.raises(ConfigError):
            ch.MultipathSpec.from_file(path)


class TestEqualize:
    def test_identity_channel_is_plain_demodulation(self):
        cfg = modem.OfdmConfig(128, oversampling=2, cp_fraction=1 / 8)
        rng = np.random.default_rng(11)
        symbols = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        frame = modem.ofdm_modulate(symbols, cfg)
        est = ch.equalize(frame, ch.MultipathSpec.identity(), cfg)
        assert np.max(np.abs(est - symbols)) < 1e-9

    def test_fourier_one_tap_zf_exact(self):
        """CP covers the channel memory, so per-bin division is exact."""
        cfg = modem.OfdmConfig(512, oversampling=1, cp_fraction=1 / 8,
                               precoder=modem.PRECODER_DFT)
        spec = ch.MultipathSpec.ten_path(seed=12)
        rng = np.random.default_rng(12)
        symbols = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        frame = modem.ofdm_modulate(symbols, cfg)
        received = ch.apply_multipath(frame, spec)
        est = ch.equalize(received, spec, cfg)
        assert np.max(np.abs(est - symbols)) < 1e-8

    def test_wavelet_packet_deconvolution(self):
        cfg = modem.OfdmConfig(512, modem.WAVELET_PACKET, HAAR, 9)
        spec = ch.MultipathSpec.ten_path(seed=13)
        rng = np.random.default_rng(13)
        symbols = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        frame = modem.ofdm_modulate(symbols, cfg)
        received = ch.apply_multipath(frame, spec)
        est = ch.equalize(received, spec, cfg)
        assert np.max(np.abs(est - symbols)) < 1e-6

    def test_singular_channel_raises(self):
        cfg = modem.OfdmConfig(64, oversampling=1, cp_fraction=1 / 4)
        # equal taps null the subcarriers where their phases oppose
        nulled = ch.MultipathSpec(
            tap_delays=[0, 32], tap_gains=[1.0, 1.0], normalize=True
        )
        # unequal taps keep |H| bounded away from zero everywhere
        benign = ch.MultipathSpec(
            tap_delays=[0, 2], tap_gains=[1.0, 0.3], normalize=False
        )
        rng = np.random.default_rng(14)
        symbols = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        frame = modem.ofdm_modulate(symbols, cfg)
        received = ch.apply_multipath(frame, nulled)
        with pytest.raises(NumericalError, match="channel response below eps"):
            ch.equalize(received, nulled, cfg)
        received = ch.apply_multipath(frame, benign)
        est = ch.equalize(received, benign, cfg)
        assert np.max(np.abs(est - symbols)) < 1e-8

    def test_shaped_chain_zero_forcing(self):
        cfg = modem.OfdmConfig(256, oversampling=2, cp_fraction=1 / 4,
                               precoder=modem.PRECODER_DFT, tx_rolloff=0.2)
        spec = ch.MultipathSpec.ten_path(seed=15)
        rng = np.random.default_rng(15)
        symbols = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        frame = modem.ofdm_modulate(symbols, cfg)
        received = ch.apply_multipath(frame, spec)
        est = ch.equalize(received, spec, cfg)
        assert np.max(np.abs(est - symbols)) < 1e-8

    @pytest.mark.parametrize("cfg", [
        modem.OfdmConfig(8, oversampling=2, cp_fraction=0.25),
        modem.OfdmConfig(8, modem.WAVELET_PACKET, fb.make_filter("haar"), 3, oversampling=2),
    ], ids=["fourier", "wavelet-packet"])
    def test_overflowing_frame_raises(self, cfg):
        """A finite frame whose spectrum leaves the float range."""
        frame = frame_of(np.full(cfg.frame_length, 1e308))
        with pytest.raises(NumericalError, match="equalize: overflow"):
            ch.equalize(frame, ch.MultipathSpec.identity(), cfg)

    def test_short_frame_rejected(self):
        cfg = modem.OfdmConfig(128, oversampling=1, cp_fraction=1 / 8)
        with pytest.raises(ConfigError, match="frame shorter than cyclic prefix"):
            ch.equalize(frame_of(np.ones(64)), ch.MultipathSpec.identity(), cfg)

    def test_cyclic_prefix_must_cover_channel(self):
        spec = ch.MultipathSpec(tap_delays=[0, 5], tap_gains=[1.0, 0.3])
        short = modem.OfdmConfig(64, oversampling=1, cp_fraction=4 / 64)
        frame = ch.apply_multipath(modem.ofdm_modulate(np.ones(64), short), spec)
        with pytest.raises(ConfigError):
            ch.equalize(frame, spec, short)
        covering = modem.OfdmConfig(64, oversampling=1, cp_fraction=5 / 64)
        frame = ch.apply_multipath(modem.ofdm_modulate(np.ones(64), covering), spec)
        assert np.max(np.abs(ch.equalize(frame, spec, covering) - 1.0)) < 1e-9


def _block_cases():
    systems = experiments.system_configs(configio.ExperimentConfig())
    cases = [pytest.param(cfg, id=name) for name, cfg in systems.items()]
    for name in ("wpm", "sc_wpm"):
        cfg = dataclasses.replace(systems[name], wpm_interp=modem.INTERP_FFT)
        cases.append(pytest.param(cfg, id=f"{name}-fft"))
    shaped = dataclasses.replace(systems["sc_ofdm"], tx_rolloff=0.25)
    cases.append(pytest.param(shaped, id="sc_ofdm-rolloff"))
    return cases


@pytest.mark.parametrize("cfg", _block_cases())
def test_block_equals_row_by_row_bit_for_bit(cfg):
    """modulate -> multipath -> awgn -> equalize -> demap on a (B, n) block
    gives exactly the bytes of B separate one-frame calls."""
    qpsk = modem.constellation("qpsk")
    profile = ch.MultipathSpec.ten_path()
    seeds = metrics.TrialSeeds.grid([5], (3,), [1])
    bits = np.random.default_rng(5).integers(0, 2, (3, 2 * cfg.n_subcarriers))

    def link(bits, seed):
        frame = modem.ofdm_modulate(modem.map_bits(bits, qpsk), cfg)
        noisy = ch.awgn(ch.apply_multipath(frame, profile), ch.AwgnSpec(
            snr_db=4.0, seed=seed, reference=ch.EB_PER_BIT,
            samples_per_bit=cfg.oversampling / qpsk.bits_per_symbol,
        ))
        estimate = ch.equalize(noisy, profile, cfg)
        return (frame.samples, metrics.papr_db(frame), noisy.samples,
                estimate, modem.demap_symbols(estimate, qpsk))

    block = link(bits, seeds)
    for row in range(3):
        single = link(bits[row], [5, row, 1])  # default_rng([5, row, 1])
        for got, want in zip(block, single):
            assert_array_equal(got[row], want)
    assert block[-1].shape == bits.shape


@pytest.mark.parametrize("cfg", _block_cases())
def test_chain_stages_leave_their_inputs_unchanged(cfg):
    """A stage writes only into arrays it allocated: read-only inputs
    raise on any write, and each input keeps its bytes."""
    profile = ch.MultipathSpec.ten_path()
    rng = np.random.default_rng(17)
    symbols = rng.standard_normal((3, cfg.n_subcarriers)) * (1 + 1j)

    def frozen(array):
        array = np.array(array)
        array.flags.writeable = False
        return array

    def unchanged(fn, array, *args):
        before = array.copy()
        out = fn(array, *args)
        assert_array_equal(array, before)
        return out

    def framed(fn):
        return lambda samples, *args: fn(
            modem.BasebandFrame(samples, float(cfg.body_length)), *args
        )

    sent = unchanged(modem.ofdm_modulate, frozen(symbols), cfg).samples
    unchanged(framed(modem.ofdm_demodulate), frozen(sent), cfg)
    faded = unchanged(framed(ch.apply_multipath), frozen(sent), profile).samples
    spec = ch.AwgnSpec(snr_db=6.0, seed=metrics.TrialSeeds.grid([17], (3,)))
    noisy = unchanged(framed(ch.awgn), frozen(faded), spec).samples
    unchanged(framed(ch.equalize), frozen(noisy), profile, cfg)


@pytest.mark.parametrize("rolloff", [None, 0.0, 0.35])
def test_zero_forcing_bins_are_the_weighted_bins(rolloff):
    """The equalizer inverts the channel on the bins the modulator weights;
    without roll-off those are the 32 lowest positive and negative bins."""
    response = ch.MultipathSpec.ten_path().impulse_response().tobytes()
    occupied, _ = ch._zero_forcing_bins(response, 256, 64, rolloff)
    weights = modem._grid_weights(64, 256, rolloff)
    assert_array_equal(occupied, np.nonzero(weights > 1e-12)[0])
    if rolloff is None:
        assert_array_equal(occupied, np.r_[0:32, 224:256])


@pytest.mark.parametrize("name", ["ofdm", "wpm"])
def test_channel_response_is_computed_once_per_taps_and_length(name):
    """Later blocks reuse the response-derived arrays, which are read-only
    because every caller shares them."""
    cfg = experiments.system_configs(configio.ExperimentConfig())[name]
    profile = ch.MultipathSpec.ten_path()
    frame = ch.apply_multipath(modem.ofdm_modulate(np.ones(512), cfg), profile)
    response = profile.impulse_response().tobytes()
    if name == "ofdm":
        cache = ch._zero_forcing_bins
        key = (response, cfg.body_length, cfg.n_subcarriers, None)
    else:
        cache = ch._deconvolution_filter
        key = (response, frame.samples.shape[-1])
    cache.cache_clear()
    for _ in range(3):
        ch.equalize(frame, profile, cfg)
    assert cache.cache_info().hits == 2
    assert cache.cache_info().misses == 1
    for array in cache(*key):
        assert not array.flags.writeable
    assert cache.cache_info().misses == 1
