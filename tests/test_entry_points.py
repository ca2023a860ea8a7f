"""Public entry points under generated bad arguments: every call returns
finite values or raises a WavemodError (never another exception, and never a
numpy warning, which the suite turns into an error)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavemod import channel, filterbank, metrics, modem
from wavemod.errors import WavemodError

N = 8
HAAR = filterbank.make_filter("haar")
CONFIGS = [
    modem.OfdmConfig(N, oversampling=2, cp_fraction=0.25),
    modem.OfdmConfig(N, oversampling=2, tx_rolloff=0.5, precoder=modem.PRECODER_DFT),
    modem.OfdmConfig(N, modem.WAVELET_PACKET, HAAR, 3, oversampling=2),
    modem.OfdmConfig(N, modem.WAVELET_PACKET, HAAR, 3, oversampling=2,
                     precoder=modem.PRECODER_WPT),
    modem.OfdmConfig(N, modem.WAVELET_PACKET, filterbank.make_filter("db2"), 3,
                     wpm_interp=modem.INTERP_FFT, oversampling=2,
                     precoder=modem.PRECODER_DWT),
]
SPECS = [modem.constellation(kind) for kind in ("bpsk", "qpsk", "qam16")]

DTYPES = st.sampled_from([np.bool_, np.uint8, np.int64, np.float64, np.complex128])
# N symbols, and the frame lengths of the configs (16 and 20 samples)
LENGTHS = st.sampled_from(sorted({N} | {cfg.frame_length for cfg in CONFIGS}))
SHAPES = st.one_of(
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=N + 1),
    st.tuples(st.integers(0, 3), LENGTHS),
    LENGTHS.map(lambda n: (n,)),
)
# finite values near the float limit, where a power, sum or transform
# overflows, among small ones; default elements rarely draw them
LIMITS = st.one_of(st.sampled_from([1.7e308, -1.7e308, 1e308, 5e-324]), st.floats(-2, 2))
NEAR_LIMIT = hnp.arrays(np.float64, SHAPES, elements=LIMITS)
REAL_ARRAYS = st.one_of(hnp.arrays(np.float64, SHAPES), NEAR_LIMIT)
# default elements: nan, infinities, subnormals and the largest floats
# included; then text and ragged lists, which are not arrays of numbers
ARRAYS = st.one_of(
    hnp.arrays(DTYPES, SHAPES),
    NEAR_LIMIT,
    hnp.arrays(np.complex128, SHAPES, elements=st.builds(complex, LIMITS, LIMITS)),
    st.text(max_size=3),
    st.lists(st.lists(st.integers(0, 1), max_size=3), min_size=2, max_size=3),
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
COUNTS = st.one_of(st.integers(-3, 3), FLOATS, st.booleans())
# negative, wider than 64 bits, floats, bools, nested lists
SEEDS = st.one_of(st.integers(-3, 2**70), FLOATS, st.booleans(),
                  st.lists(st.one_of(st.integers(-2, 2**70), FLOATS, st.booleans(),
                                     st.lists(st.integers(0, 3), max_size=2)),
                           max_size=3))
# per-row seeds of 0 to 3 rows, which must match the frame's rows
ROW_SEEDS = st.integers(0, 3).map(lambda rows: metrics.TrialSeeds.grid([1], (rows,)))
THRESHOLDS = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)),
)
# unit identity, a two-tap echo, a ten-tap fade, and a DC null (singular)
PROFILES = st.sampled_from([
    channel.MultipathSpec.identity(),
    channel.MultipathSpec([0, 2], [1.0, 0.5j]),
    channel.MultipathSpec.ten_path(seed=3),
    channel.MultipathSpec([0, 1], [1.0, -1.0]),
])
# shipped pairs (the two-tap Haar butterfly, windowed products), a two-tap
# rotation off the Haar path, and pairs of finite taps near the float
# limit, whose transforms overflow
LIMIT_TAPS = st.sampled_from([2, 4]).flatmap(
    lambda n: st.tuples(*[hnp.arrays(np.float64, n, elements=LIMITS)] * 2))
PAIRS = st.one_of(
    st.sampled_from([HAAR, filterbank.make_filter("db2"), filterbank.make_filter("db4"),
                     filterbank.WaveletFilterPair([0.6, 0.8], [0.8, -0.6], "rotation")]),
    LIMIT_TAPS.map(lambda taps: filterbank.WaveletFilterPair(*taps, "near-limit")),
)
# huge levels too: the layout check must fail without building 2**levels
LEVELS = st.one_of(st.integers(-1, 4), st.integers(2**62, 2**70), FLOATS, st.booleans(),
                   st.text(max_size=2))
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _values(result):
    if isinstance(result, modem.BasebandFrame):
        return result.samples
    if isinstance(result, metrics.CcdfCurve):
        return result.probabilities
    if isinstance(result, filterbank.SubbandSet):
        return result.coeffs
    if isinstance(result, filterbank.WaveletFilterPair):
        return np.concatenate([result.h, result.g])
    return result


def returns_finite_or_raises(call, *args):
    try:
        result = call(*args)
    except WavemodError:
        return
    assert np.all(np.isfinite(_values(result)))


@FUZZ
@given(samples=ARRAYS)
def test_papr_db(samples):
    returns_finite_or_raises(lambda: metrics.papr_db(modem.BasebandFrame(samples, 1.0)))


@FUZZ
@given(bits=ARRAYS, spec=st.sampled_from(SPECS))
def test_map_bits(bits, spec):
    returns_finite_or_raises(modem.map_bits, bits, spec)


@FUZZ
@given(symbols=ARRAYS, spec=st.sampled_from(SPECS))
def test_demap_symbols(symbols, spec):
    returns_finite_or_raises(modem.demap_symbols, symbols, spec)


@FUZZ
@given(symbols=ARRAYS, cfg=st.sampled_from(CONFIGS))
def test_ofdm_modulate(symbols, cfg):
    returns_finite_or_raises(modem.ofdm_modulate, symbols, cfg)


@FUZZ
@given(samples=ARRAYS, cfg=st.sampled_from(CONFIGS))
def test_ofdm_demodulate(samples, cfg):
    returns_finite_or_raises(
        lambda: modem.ofdm_demodulate(modem.BasebandFrame(samples, 1.0), cfg))


@FUZZ
@given(samples=ARRAYS, profile=PROFILES)
def test_apply_multipath(samples, profile):
    returns_finite_or_raises(
        lambda: channel.apply_multipath(modem.BasebandFrame(samples, 1.0), profile))


@FUZZ
@given(samples=ARRAYS, profile=PROFILES, cfg=st.sampled_from(CONFIGS))
def test_equalize(samples, profile, cfg):
    returns_finite_or_raises(
        lambda: channel.equalize(modem.BasebandFrame(samples, 1.0), profile, cfg))


@FUZZ
@given(cfg=st.sampled_from(CONFIGS), spec=st.sampled_from(SPECS), n_symbols=COUNTS,
       thresholds=THRESHOLDS, seed=SEEDS)
def test_papr_ccdf(cfg, spec, n_symbols, thresholds, seed):
    returns_finite_or_raises(metrics.papr_ccdf, cfg, spec, n_symbols, thresholds, seed)


@FUZZ
@given(samples=ARRAYS, snr_db=st.one_of(st.floats(-60, 60), FLOATS),
       seed=st.one_of(st.integers(0, 2**70), SEEDS, ROW_SEEDS),
       reference=st.sampled_from([channel.ES_PER_SAMPLE, channel.EB_PER_BIT, "snr"]),
       samples_per_bit=st.one_of(st.floats(0.1, 10), FLOATS))
def test_awgn(samples, snr_db, seed, reference, samples_per_bit):
    returns_finite_or_raises(lambda: channel.awgn(
        modem.BasebandFrame(samples, 1.0),
        channel.AwgnSpec(snr_db, seed, reference, samples_per_bit),
    ))


@FUZZ
@given(seed=SEEDS, n_taps=st.one_of(st.integers(-2, 64), FLOATS, st.booleans()),
       decay_db=FLOATS)
def test_ten_path(seed, n_taps, decay_db):
    try:
        profile = channel.MultipathSpec.ten_path(seed, n_taps, decay_db)
    except WavemodError:
        return
    assert np.all(np.isfinite(profile.tap_gains))


@FUZZ
@given(received=ARRAYS, reference=ARRAYS)
def test_evm(received, reference):
    returns_finite_or_raises(metrics.evm, received, reference)


@FUZZ
@given(bit_rate=st.one_of(FLOATS, st.integers(-2**64, 2**64)),
       bandwidth=st.one_of(FLOATS, st.integers(-2**64, 2**64)))
def test_spectral_efficiency(bit_rate, bandwidth):
    returns_finite_or_raises(metrics.spectral_efficiency, bit_rate, bandwidth)


@FUZZ
@given(freqs=REAL_ARRAYS, power_db=REAL_ARRAYS, resolution_bw=st.one_of(LIMITS, FLOATS),
       containment=st.one_of(st.floats(0.5, 0.999), FLOATS))
def test_occupied_bandwidth(freqs, power_db, resolution_bw, containment):
    try:
        width = metrics.occupied_bandwidth(
            metrics.PsdEstimate(freqs, power_db, resolution_bw), containment)
    except WavemodError:
        return
    assert math.isfinite(width) and width > 0.0


@FUZZ
@given(family=st.one_of(st.sampled_from(["haar", "db4", " Sym5", "coif3", "db", "db21",
                                         "haar2", "meyer"]), st.text(max_size=4)),
       order=st.one_of(st.none(), COUNTS, st.text(max_size=2),
                       st.lists(st.integers(0, 3), max_size=2)))
def test_make_filter(family, order):
    returns_finite_or_raises(filterbank.make_filter, family, order)


@FUZZ
@given(h=ARRAYS, g=ARRAYS)
def test_wavelet_filter_pair(h, g):
    returns_finite_or_raises(filterbank.WaveletFilterPair, h, g, "fuzz")


@FUZZ
@given(x=ARRAYS, pair=PAIRS)
def test_analysis_step(x, pair):
    returns_finite_or_raises(filterbank.analysis_step, x, pair)


@FUZZ
@given(a=ARRAYS, d=ARRAYS, pair=PAIRS)
def test_synthesis_step(a, d, pair):
    returns_finite_or_raises(filterbank.synthesis_step, a, d, pair)


@FUZZ
@given(x=ARRAYS, pair=PAIRS, levels=LEVELS)
def test_dwt(x, pair, levels):
    returns_finite_or_raises(filterbank.dwt, x, pair, levels)


@FUZZ
@given(x=ARRAYS, pair=PAIRS, levels=LEVELS)
def test_wpt(x, pair, levels):
    returns_finite_or_raises(filterbank.wpt, x, pair, levels)


@FUZZ
@given(coeffs=ARRAYS, pair=PAIRS, levels=LEVELS)
def test_idwt(coeffs, pair, levels):
    returns_finite_or_raises(lambda: filterbank.idwt(
        filterbank.SubbandSet(coeffs, filterbank.DWT_PRUNED, levels), pair))


@FUZZ
@given(coeffs=ARRAYS, pair=PAIRS, levels=LEVELS)
def test_iwpt(coeffs, pair, levels):
    returns_finite_or_raises(lambda: filterbank.iwpt(
        filterbank.SubbandSet(coeffs, filterbank.WPT_FULL, levels), pair))


# grid sizes stay small: a grid too large to allocate is not checked and
# raises numpy's own error
@FUZZ
@given(pair=PAIRS, grid_size=st.one_of(st.integers(-2, 64), FLOATS, st.booleans(),
                                       st.text(max_size=2)))
def test_verify_pr(pair, grid_size):
    returns_finite_or_raises(filterbank.verify_pr, pair, grid_size)
