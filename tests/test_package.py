"""The package's public surface and the README's library tour."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import wavemod

_README = Path(__file__).resolve().parents[1] / "README.md"

# Every name `import wavemod` makes public.  A name added to or dropped from
# the package's exports must be added to or dropped from this list too.
PUBLIC = [
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


def test_all_is_the_pinned_public_surface():
    """__all__, the non-module public names bound on the package, and what
    a star import binds are all exactly PUBLIC."""
    assert wavemod.__all__ == PUBLIC
    bound = {name for name, value in vars(wavemod).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(PUBLIC)
    namespace = {}
    exec("from wavemod import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(PUBLIC)


def test_readme_library_tour_runs(capsys):
    """The README's one python block runs as printed, and its print line
    prints one positive PAPR in dB."""
    blocks = re.findall(r"^```python\n(.*?)^```$", _README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(_README), "exec"), {})
    assert float(capsys.readouterr().out) > 0.0


def test_import_leaves_numpy_random_unloaded():
    """`import wavemod` does not load numpy.random: the first
    TrialSeeds.bit_generators() call does, after run_experiment has set the
    allocator thresholds.  A fresh interpreter, because this one has loaded
    it already."""
    src = str(Path(wavemod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, wavemod; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
