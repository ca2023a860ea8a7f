"""Public entry points under generated bad arguments: every call returns
finite values or raises a WavemodError (never another exception, and never a
numpy warning, which the suite turns into an error)."""

import math
import os
import tempfile

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
    if isinstance(result, metrics.CcdfCurve):
        return result.probabilities
    if isinstance(result, channel.MultipathSpec):
        return result.tap_gains
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
    returns_finite_or_raises(metrics.papr_db, samples)


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
    returns_finite_or_raises(modem.ofdm_demodulate, samples, cfg)


@FUZZ
@given(samples=ARRAYS, profile=PROFILES)
def test_apply_multipath(samples, profile):
    returns_finite_or_raises(channel.apply_multipath, samples, profile)


@FUZZ
@given(samples=ARRAYS, profile=PROFILES, cfg=st.sampled_from(CONFIGS))
def test_equalize(samples, profile, cfg):
    returns_finite_or_raises(channel.equalize, samples, profile, cfg)


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
        samples, channel.AwgnSpec(snr_db, seed, reference, samples_per_bit)))


@FUZZ
@given(seed=SEEDS, n_taps=st.one_of(st.integers(-2, 64), FLOATS, st.booleans()),
       decay_db=FLOATS)
def test_ten_path(seed, n_taps, decay_db):
    returns_finite_or_raises(channel.MultipathSpec.ten_path, seed, n_taps, decay_db)


# delays that rise from 0, small or past 64 bits
RISING_DELAYS = st.one_of(*[st.lists(taps, max_size=3).map(lambda rest: [0, *sorted(rest)])
                            for taps in (st.integers(0, 3), st.integers(0, 2**70))])
# moderate gains, and gains near the float limit, whose total power overflows
GAINS = st.one_of(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
                  st.builds(complex, LIMITS, LIMITS))


@FUZZ
@given(data=st.data(), case=st.integers(0, 2), normalize=st.booleans())
def test_multipath_spec(data, case, normalize):
    # Drawn arrays seldom hold rising integer delays and seldom share a
    # length, so each case draws one more argument valid: case 0 none (lists
    # of small integers and floats among the arrays), case 1 rising delays,
    # case 2 also one complex gain a delay.
    delays = data.draw(RISING_DELAYS if case else st.one_of(
        st.lists(st.one_of(st.integers(-2, 3), st.floats(0, 3)), max_size=3), ARRAYS))
    gains = data.draw(hnp.arrays(np.complex128, len(delays), elements=GAINS)
                      if case == 2 else ARRAYS)
    returns_finite_or_raises(channel.MultipathSpec, delays, gains, normalize)


def _profile_lines(taps):
    """`delay gain_re gain_im` lines with the delays sorted up from 0."""
    delays = [0, *sorted(delay for delay, _, _ in taps[1:])]
    return [f"{delay} {re!r} {im!r}" for delay, (_, re, im) in zip(delays, taps)]


PROFILES_TEXT = st.lists(st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 2**70)),
                                   LIMITS, st.one_of(LIMITS, FLOATS)),
                         min_size=1, max_size=4).map(_profile_lines)
# a line of integer, float and text fields, or of any text
BAD_LINES = st.one_of(
    st.lists(st.one_of(st.integers(-2, 2**70).map(str), FLOATS.map(repr),
                       st.text(max_size=3)), max_size=4).map(" ".join),
    st.text(max_size=8),
)


@FUZZ
@given(data=st.data(), lines=PROFILES_TEXT, normalize=st.booleans())
def test_multipath_from_file(data, lines, normalize):
    if data.draw(st.booleans()):  # one line replaced by another
        lines[data.draw(st.integers(0, len(lines) - 1))] = data.draw(BAD_LINES)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "taps.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        returns_finite_or_raises(channel.MultipathSpec.from_file, path, normalize)


@FUZZ
@given(received=ARRAYS, reference=ARRAYS)
def test_evm(received, reference):
    returns_finite_or_raises(metrics.evm, received, reference)


@FUZZ
@given(bit_rate=st.one_of(FLOATS, st.integers(-2**64, 2**64)),
       bandwidth=st.one_of(FLOATS, st.integers(-2**64, 2**64)))
def test_spectral_efficiency(bit_rate, bandwidth):
    returns_finite_or_raises(metrics.spectral_efficiency, bit_rate, bandwidth)


# grids of up to N + 1 distinct frequencies in ascending order, the
# moderate and the infinite among them
ASCENDING = hnp.arrays(np.float64, st.integers(0, N + 1), elements=st.one_of(
    st.floats(-100, 100), st.floats(allow_nan=False))).map(np.unique)


@FUZZ
@given(data=st.data(), case=st.integers(0, 3))
def test_occupied_bandwidth(data, case):
    # Drawn arrays are seldom 1-D and ascending, two drawn on their own seldom
    # share a shape, and a drawn float is seldom a fraction, so each case
    # draws one more argument valid: case 0 none, case 1 power_db with
    # freqs' shape, case 2 also an ascending grid, case 3 also a containment
    # in (0, 1) and a positive resolution_bw, which reaches the width.
    freqs = data.draw(ASCENDING if case >= 2 else REAL_ARRAYS)
    power_db = data.draw(REAL_ARRAYS if case == 0 else hnp.arrays(
        np.float64, freqs.shape, elements=st.one_of(st.floats(-100, 100), st.floats())))
    resolution_bw = data.draw(st.floats(1e-300, 1e300) if case == 3
                              else st.one_of(LIMITS, FLOATS))
    containment = data.draw(st.floats(0.01, 0.999) if case == 3
                            else st.one_of(st.floats(0.5, 0.999), FLOATS))
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


# small grid sizes, and two past the 2**22-entry bound on grid_size * L:
# 2**21 + 1 points is just past it for the 2-tap pairs, 2**70 is wider than
# 64 bits; both must raise before allocating
@FUZZ
@given(pair=PAIRS, grid_size=st.one_of(st.integers(-2, 64), FLOATS, st.booleans(),
                                       st.text(max_size=2),
                                       st.sampled_from([2**21 + 1, 2**70])))
def test_verify_pr(pair, grid_size):
    returns_finite_or_raises(filterbank.verify_pr, pair, grid_size)
