"""Orthonormalized Gaussian design, cascade sampling and pulse sets."""

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavemod import filterbank as fb
from wavemod import waveletdesign as wd
from wavemod.errors import ConfigError, NumericalError

SQRT2 = np.sqrt(2.0)


def mp_amplitude(sigma_t, f, l_max=40):
    """Extended-precision direct-summation oracle for the amplitude spectrum."""
    mp.mp.dps = 40
    s2 = mp.mpf(sigma_t) ** 2
    fm = mp.mpf(f)
    num = mp.e ** (-4 * mp.pi**2 * s2 * fm**2)
    den = mp.sqrt(
        sum(
            mp.e ** (-8 * mp.pi**2 * s2 * (fm + l) ** 2)
            for l in range(-l_max, l_max + 1)
        )
    )
    return float(num / den)


class TestAmplitudeSpectrum:
    def test_params_validation(self):
        with pytest.raises(ConfigError):
            wd.ModifiedGaussianParams(sigma=-1.0)
        with pytest.raises(ConfigError):
            wd.ModifiedGaussianParams(sigma=0.5, symbol_period=0.0)
        with pytest.raises(ConfigError):
            wd.ModifiedGaussianParams(sigma=0.5, l_max=0)

    @pytest.mark.parametrize("sigma, period", [(6.0, 1.0), (3.0, 2.0),
                                               (1e308, 1.0), (1e200, 1e200)])
    def test_width_beyond_the_lattice_float_range_rejected(self, sigma, period):
        """sigma * T above 5.99 puts the band-edge lattice term below the
        normal floats: a 1.3e-5 residual at 6.1, 0/0 from 6.15 on."""
        with pytest.raises(ConfigError):
            wd.ModifiedGaussianParams(sigma=sigma, symbol_period=period)
        params = wd.ModifiedGaussianParams(sigma=wd._MAX_SIGMA_T)
        assert wd.lattice_orthonormality_residual(params, 2_000) < 1e-12

    def test_tail_bound_reported(self):
        params = wd.ModifiedGaussianParams(sigma=0.25, l_max=8)
        assert params.tail_bound < 1e-14

    @pytest.mark.parametrize("sigma_t", [0.25, 0.5, 1.0])
    def test_lattice_orthonormality(self, sigma_t):
        params = wd.ModifiedGaussianParams(sigma=sigma_t, l_max=8)
        assert wd.lattice_orthonormality_residual(params, 10_000) < 1e-9

    def test_even_symmetry_exact(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        grid = (np.arange(801) - 400) * 0.01
        values = wd.mod_gauss_amplitude(params, grid)
        assert np.array_equal(values, values[::-1])

    def test_values_positive_and_bounded(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        values = wd.mod_gauss_amplitude(params, np.linspace(-6, 6, 2001))
        assert np.all(values > 0.0)
        assert np.max(values) <= 1.0 + 1e-12

    @pytest.mark.parametrize("sigma_t", [0.25, 0.5, 1.0])
    def test_nonincreasing_beyond_half_band(self, sigma_t):
        """Past the lattice-dominated region the amplitude decays
        monotonically in |f| (no sidelobes by construction)."""
        params = wd.ModifiedGaussianParams(sigma=sigma_t)
        f = np.linspace(0.5, 4.0, 3001)
        values = wd.mod_gauss_amplitude(params, f)
        assert np.all(np.diff(values) <= 0.0)

    def test_against_extended_precision_oracle(self):
        params = wd.ModifiedGaussianParams(sigma=0.5, l_max=8)
        for f in (0.0, 0.2, 0.5, 1.3):
            mine = float(wd.mod_gauss_amplitude(params, f))
            assert abs(mine - mp_amplitude(0.5, f)) < 1e-12

    def test_spectrum_grid(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        spec = wd.mod_gauss_spectrum(params, -2.0, 0.01, 401)
        assert len(spec.values) == 401
        assert spec.freqs()[0] == -2.0


@pytest.fixture(scope="module")
def phi():
    params = wd.ModifiedGaussianParams(sigma=0.5)
    return params, wd.mod_gauss_time(params, n_samples=1537, dt=1 / 32)


@pytest.fixture(scope="module")
def derived():
    params = wd.ModifiedGaussianParams(sigma=0.5)
    wave = wd.mod_gauss_time(params, n_samples=3073, dt=1 / 32)
    return wd.derive_scaling_filter(wave, params)


class TestTimeDomain:
    def test_span_precondition(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        with pytest.raises(ConfigError, match="shorter than 16 sigma T"):
            wd.mod_gauss_time(params, n_samples=64, dt=1 / 32)

    def test_real_and_symmetric(self, phi):
        _, wave = phi
        assert np.max(np.abs(wave.samples.imag)) < 1e-9
        real = wave.samples.real
        assert np.max(np.abs(real - real[::-1])) < 1e-9

    def test_unit_norm(self, phi):
        _, wave = phi
        assert abs(wave.energy() - 1.0) < 1e-6

    def test_integer_shift_orthonormality(self, phi):
        """Quadrature oracle: <phi(t), phi(t - nT)> ~ delta[n], |n| <= 4."""
        params, wave = phi
        real = wave.samples.real
        shift = int(round(params.symbol_period / wave.dt))
        for n in range(5):
            inner = np.sum(real[: len(real) - n * shift] * real[n * shift:]) * wave.dt
            target = 1.0 if n == 0 else 0.0
            assert abs(inner - target) < 1e-6, f"n={n}: {inner}"

    def test_forward_transform_matches_spectrum(self, phi):
        """Time-frequency consistency: numerically Fourier transforming the
        sampled waveform recovers the analytic spectrum."""
        params, wave = phi
        t = wave.times()
        for f in (0.0, 0.35, 0.5, 1.0):
            forward = np.sum(wave.samples * np.exp(-2j * np.pi * f * t)) * wave.dt
            reference = float(wd.mod_gauss_amplitude(params, f)) * np.sqrt(
                params.symbol_period
            )
            assert abs(forward - reference) < 1e-6


class TestDerivedScalingFilter:
    def test_sum_close_to_sqrt2(self, derived):
        assert abs(derived.sum() - SQRT2) < 1e-4

    def test_unit_norm(self, derived):
        assert abs(np.sum(derived.taps**2) - 1.0) < 1e-4

    def test_symmetric(self, derived):
        assert np.max(np.abs(derived.taps - derived.taps[::-1])) < 1e-6

    def test_window_metadata(self, derived):
        assert derived.n_min == -(len(derived.taps) // 2)

    def test_not_converged_on_miscalibrated_input(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        phi = wd.mod_gauss_time(params, n_samples=3073, dt=1 / 32)
        broken = wd.SampledWaveform(
            samples=phi.samples * 1.5, dt=phi.dt, t0=phi.t0
        )
        with pytest.raises(NumericalError, match="differs from sqrt"):
            wd.derive_scaling_filter(broken, params)


class TestSidelobeLevel:
    def test_monotone_gaussian_reports_no_sidelobe(self):
        params = wd.ModifiedGaussianParams(sigma=0.5)
        spec = wd.mod_gauss_spectrum(params, -4.0, 0.002, 4001)
        assert wd.sidelobe_level(spec) == float("-inf")

    def test_sinc_first_sidelobe(self):
        """Dense-scan oracle: the rectangular pulse's first sidelobe sits
        13.26 dB below the peak in power."""
        f = np.linspace(-8.0, 8.0, 100_001)
        spec = wd.SpectrumSamples(values=np.abs(np.sinc(f)), df=f[1] - f[0],
                                  f0=f[0])
        assert abs(wd.sidelobe_level(spec) - (-13.2615)) < 0.02

    def test_single_nonzero_sample(self):
        values = np.zeros(15)
        values[7] = 2.0
        spec = wd.SpectrumSamples(values=values, df=1.0)
        assert wd.sidelobe_level(spec) == float("-inf")

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ConfigError, match="no nonzero spectrum samples"):
            wd.sidelobe_level(wd.SpectrumSamples(values=np.zeros(5), df=1.0))

    def test_flat_top_ripple_does_not_count(self):
        pulse = wd.root_raised_cosine_pulse(0.5)
        nfft = 1 << 16
        spectrum = np.abs(np.fft.fftshift(np.fft.fft(pulse.samples, nfft)))
        freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=pulse.dt))
        level = wd.sidelobe_level(
            wd.SpectrumSamples(values=spectrum, df=freqs[1] - freqs[0],
                               f0=freqs[0])
        )
        assert -80.0 < level < -20.0


class TestCascade:
    def test_haar_scaling_function_is_indicator(self):
        phi = wd.scaling_function(fb.make_filter("haar"), iterations=6)
        assert_allclose(phi.samples, 1.0, atol=1e-12)
        assert abs(phi.energy() - 1.0) < 1e-12

    def test_haar_mother_wavelet(self):
        psi = wd.mother_wavelet(fb.make_filter("haar"), iterations=6)
        n = len(psi.samples)
        assert_allclose(psi.samples[: n // 2], 1.0, atol=1e-12)
        assert_allclose(psi.samples[n // 2:], -1.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["db4", "db10", "sym5", "coif2"])
    def test_cascade_normalizations(self, name):
        pair = fb.make_filter(name)
        phi = wd.scaling_function(pair, iterations=8)
        psi = wd.mother_wavelet(pair, iterations=8)
        # father integrates to one, mother to zero, both unit energy
        assert abs(np.sum(phi.samples) * phi.dt - 1.0) < 1e-3
        assert abs(np.sum(psi.samples) * psi.dt) < 1e-3
        assert abs(phi.energy() - 1.0) < 1e-3
        assert abs(psi.energy() - 1.0) < 1e-3


class TestDyadicPulses:
    def test_zero_dyadics_returns_the_mother(self):
        psi = wd.mother_wavelet(fb.make_filter("haar"), 6)
        pulses = wd.dyadic_pulse_set(psi, 0)
        assert len(pulses) == 1
        assert_allclose(pulses[0].samples, psi.samples, atol=1e-12)

    @pytest.mark.parametrize("n_dyadics", [0, 1, 2])
    def test_pulse_count_and_unit_energy(self, n_dyadics):
        psi = wd.mother_wavelet(fb.make_filter("db4"), 8)
        pulses = wd.dyadic_pulse_set(psi, n_dyadics)
        assert len(pulses) == n_dyadics + 1
        for pulse in pulses:
            assert abs(pulse.energy() - 1.0) < 1e-9

    def test_haar_compressions_are_orthogonal_exactly(self):
        """Closed form: the Haar mother integrates +1/-1 over half periods,
        so <psi(t), sqrt2 psi(2t)> telescopes to zero."""
        psi = wd.mother_wavelet(fb.make_filter("haar"), 6)
        pulses = wd.dyadic_pulse_set(psi, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = pulses[i].samples, pulses[j].samples
                n = min(len(a), len(b))
                inner = np.sum(a[:n] * b[:n]) * psi.dt
                assert abs(inner) < 1e-12

    def test_db_compressions_nearly_orthogonal(self):
        # discretization error of the cross-scale inner product shrinks
        # roughly 4x per extra cascade iteration; 12 is comfortably inside
        # the 1e-6 target for db6
        psi = wd.mother_wavelet(fb.make_filter("db6"), 12)
        pulses = wd.dyadic_pulse_set(psi, 2)
        a, b = pulses[0].samples, pulses[1].samples
        n = min(len(a), len(b))
        assert abs(np.sum(a[:n] * b[:n]) * psi.dt) < 1e-6

    def test_undersampled_mother_rejected(self):
        psi = wd.mother_wavelet(fb.make_filter("haar"), 5)
        with pytest.raises(ConfigError, match="fewer than 16 in the fastest"):
            wd.dyadic_pulse_set(psi, 2)

    def test_bad_dyadic_count(self):
        psi = wd.mother_wavelet(fb.make_filter("haar"), 6)
        with pytest.raises(ConfigError):
            wd.dyadic_pulse_set(psi, 3)


class TestReferencePulses:
    def test_raised_cosine_unit_energy(self):
        pulse = wd.raised_cosine_pulse(0.22)
        assert abs(pulse.energy() - 1.0) < 1e-12

    def test_srrc_unit_energy_and_nyquist_value(self):
        pulse = wd.root_raised_cosine_pulse(0.5)
        assert abs(pulse.energy() - 1.0) < 1e-12
        # time-zero sample is the known closed-form maximum
        peak = np.max(pulse.samples)
        t0_index = int(np.argmax(pulse.samples))
        assert abs(pulse.times()[t0_index]) < pulse.dt / 2

    def test_srrc_rolloff_range(self):
        with pytest.raises(ConfigError):
            wd.root_raised_cosine_pulse(0.0)
        with pytest.raises(ConfigError):
            wd.raised_cosine_pulse(1.5)
