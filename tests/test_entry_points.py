"""Public entry points under generated bad arguments: every call returns
finite values or raises a WavemodError (never another exception, and never a
numpy warning, which the suite turns into an error)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavemod import filterbank, metrics, modem
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
COUNTS = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True))
SEEDS = st.one_of(st.integers(-3, 2**70), st.floats(allow_nan=True, allow_infinity=True))
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
