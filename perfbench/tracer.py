"""In-memory span tracer for the wavemod layers, installed from outside the package.

`install` wraps the public functions each study calls in every ``wavemod``
module namespace that binds them (``filterbank.wpt`` and ``modem.wpt`` are the
same function, for example), plus the ``SubbandSet.from_flat`` classmethod.
Each call records one span ``[name, system, start, end, parent, macs]``:

* ``name`` is ``<layer>.<function>``, the layer being the defining module;
* ``system`` is wpm / ofdm / sc_wpm / sc_ofdm, taken from the call's
  ``OfdmConfig`` where it has one and inherited from the parent span otherwise;
* ``parent`` is the index of the enclosing span, -1 for none;
* ``macs`` is the computed direct-form multiply-add count of a filter-bank
  step, from its input shape and tap count (0 for every other span).

The caller wraps the whole study as the root span ``experiments.run``, so the
time no traced call covers is the orchestration layer's own.  Spans stay in
memory; the caller writes them out when the study ends.
"""

from __future__ import annotations

import sys
import time

import numpy as np

LAYERS = ("filterbank", "modem", "channel", "metrics", "experiments")
ROOT = "experiments.run"


def _analysis_macs(x, pair):
    # two branches, x.size / 2 outputs each, pair.length taps per output
    return int(np.size(x)) * pair.length


def _synthesis_macs(a, d, pair):
    # 2 * a.size outputs, each pair.length / 2 taps on a and on d
    return 2 * int(np.size(a)) * pair.length


# (defining module, function, position of the OfdmConfig argument, mac counter).
# metrics.papr_ccdf is the papr-ccdf study's trial loop (per-trial generator,
# bit draws); it stays unwrapped so that its own time counts as orchestration.
TRACED = (
    ("wavemod.filterbank", "analysis_step", None, _analysis_macs),
    ("wavemod.filterbank", "synthesis_step", None, _synthesis_macs),
    ("wavemod.filterbank", "wpt", None, None),
    ("wavemod.filterbank", "iwpt", None, None),
    ("wavemod.modem", "map_bits", None, None),
    ("wavemod.modem", "demap_symbols", None, None),
    ("wavemod.modem", "ofdm_modulate", 1, None),
    ("wavemod.modem", "ofdm_demodulate", 1, None),
    ("wavemod.channel", "apply_multipath", None, None),
    ("wavemod.channel", "awgn", None, None),
    ("wavemod.channel", "equalize", 2, None),
    ("wavemod.metrics", "papr_db", None, None),
    ("wavemod.metrics", "evm", None, None),
)


class Tracer:
    def __init__(self):
        from wavemod import modem

        self.spans = []
        self._open = []
        self._wavelet = modem.WAVELET_PACKET
        self._no_precoder = modem.PRECODER_NONE

    def system_of(self, cfg) -> str:
        """wpm / ofdm / sc_wpm / sc_ofdm from the config's (transform, precoder)."""
        base = "wpm" if cfg.transform == self._wavelet else "ofdm"
        return base if cfg.precoder == self._no_precoder else "sc_" + base

    def wrap(self, name, fn, cfg_pos=None, macs=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        system_of = self.system_of

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            if cfg_pos is not None:
                cfg = args[cfg_pos] if len(args) > cfg_pos else kwargs["cfg"]
                system = system_of(cfg)
            else:
                system = spans[parent][1] if parent >= 0 else None
            record = [name, system, 0.0, 0.0, parent,
                      macs(*args, **kwargs) if macs else 0]
            open_.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Replace every binding of the traced functions in loaded wavemod modules."""
    from wavemod import filterbank  # loads the whole package

    modules = [m for n, m in sys.modules.items()
               if n == "wavemod" or n.startswith("wavemod.")]
    for module_name, attr, cfg_pos, macs in TRACED:
        original = getattr(sys.modules[module_name], attr)
        layer = module_name.rsplit(".", 1)[1]
        wrapped = tracer.wrap(f"{layer}.{attr}", original, cfg_pos, macs)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapped)
    from_flat = filterbank.SubbandSet.from_flat.__func__
    filterbank.SubbandSet.from_flat = classmethod(
        tracer.wrap("filterbank.from_flat", from_flat)
    )


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(s[3] - s[2]) - c for s, c in zip(spans, children)]
