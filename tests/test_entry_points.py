"""Public entry points under generated bad arguments: every call returns
finite values or raises a WavemodError (never another exception, and never a
numpy warning, which the suite turns into an error)."""

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
SHAPES = st.one_of(
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=N + 1),
    st.integers(0, 3).map(lambda rows: (rows, N)),
    st.just((N,)),
)
# default elements: nan, infinities, subnormals and the largest floats
# included; then text and ragged lists, which are not arrays of numbers
ARRAYS = st.one_of(
    hnp.arrays(DTYPES, SHAPES),
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
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _values(result):
    if isinstance(result, modem.BasebandFrame):
        return result.samples
    if isinstance(result, metrics.CcdfCurve):
        return result.probabilities
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
@given(symbols=ARRAYS, cfg=st.sampled_from(CONFIGS))
def test_ofdm_modulate(symbols, cfg):
    returns_finite_or_raises(modem.ofdm_modulate, symbols, cfg)


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
