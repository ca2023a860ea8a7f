"""Wavelet-based single-carrier and multicarrier modulation toolkit.

Orthogonal filter banks and wavelet-packet transforms, an orthonormalized
Gaussian pulse design, FT/WT multicarrier chains with DFT or wavelet
precoding, AWGN and static multipath channels, and the PAPR / EVM / BER /
spectral-efficiency metrics used to compare them.  The `wavemod` CLI runs
the packaged comparison experiments and writes deterministic CSV tables.
"""

from .channel import AwgnSpec, MultipathSpec, apply_multipath, awgn, equalize
from .configio import ExperimentConfig, ResultTable, load_config
from .errors import ConfigError, NumericalError, WavemodError
from .filterbank import (
    SubbandSet,
    WaveletFilterPair,
    analysis_step,
    dwt,
    idwt,
    iwpt,
    list_families,
    make_filter,
    synthesis_step,
    verify_pr,
    wpt,
)
from .metrics import (
    CcdfCurve,
    PsdEstimate,
    evm,
    occupied_bandwidth,
    papr_ccdf,
    papr_db,
    spectral_efficiency,
)
from .modem import (
    ConstellationSpec,
    OfdmConfig,
    constellation,
    demap_symbols,
    map_bits,
    ofdm_demodulate,
    ofdm_modulate,
    rrc_bin_weights,
)
from .waveletdesign import (
    ModifiedGaussianParams,
    SampledWaveform,
    SpectrumSamples,
    dyadic_pulse_set,
    lattice_orthonormality_residual,
    mod_gauss_amplitude,
    mod_gauss_spectrum,
    mother_wavelet,
    raised_cosine_pulse,
    root_raised_cosine_pulse,
    sidelobe_level,
)

__all__ = [
    "AwgnSpec", "MultipathSpec", "apply_multipath", "awgn", "equalize",
    "ExperimentConfig", "ResultTable", "load_config",
    "ConfigError", "NumericalError", "WavemodError",
    "SubbandSet", "WaveletFilterPair", "analysis_step", "dwt", "idwt", "iwpt",
    "list_families", "make_filter", "synthesis_step", "verify_pr", "wpt",
    "CcdfCurve", "PsdEstimate", "evm", "occupied_bandwidth", "papr_ccdf",
    "papr_db", "spectral_efficiency",
    "ConstellationSpec", "OfdmConfig", "constellation", "demap_symbols",
    "map_bits", "ofdm_demodulate", "ofdm_modulate", "rrc_bin_weights",
    "ModifiedGaussianParams", "SampledWaveform", "SpectrumSamples",
    "dyadic_pulse_set", "lattice_orthonormality_residual",
    "mod_gauss_amplitude", "mod_gauss_spectrum", "mother_wavelet",
    "raised_cosine_pulse", "root_raised_cosine_pulse", "sidelobe_level",
]

__version__ = "0.1.0"
