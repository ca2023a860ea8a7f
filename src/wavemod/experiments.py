"""Declarative experiment runners behind the command-line interface.

Five studies are available:

* papr-ccdf        PAPR CCDF of WPM / OFDM and their precoded SC variants
* evm-sweep        EVM vs normalized receiver-filter bandwidth, FT vs WT
* ber-fading       BER vs Eb/N0 through the static multipath profile
* se-table         baseband spectral efficiency of dyadic pulse systems
* modgauss-report  orthonormality, sidelobe and bandwidth of the
                   orthonormalized Gaussian, with truncated-SRRC references

Every Monte-Carlo trial draws its randomness from a generator seeded with
[master_seed, ...indices].  papr-ccdf, ber-fading and evm-sweep push blocks
of trials through the chain functions, which act on the last axis of
(..., n) arrays; each block is a sub-grid of one metrics.TrialSeeds grid,
sized by the bytes of a block (metrics.TrialSeeds.blocks), and per-trial
seeding keeps every CSV byte independent of the size.  evm-sweep filters
each frame of a block once per cutoff into a (frames, cutoffs, samples)
receive block and demodulates it in one call per chain: the db10 analysis
gives every row of a block of any size the bits of a call on that row
alone (see filterbank.analysis_step), so each cutoff's round-off-level EVM
depends neither on the other cutoffs nor on the other frames, and
metrics.evm scores all the rows in one call with the bits of a call per
row.  The EVM totals are summed frame by frame in trial order.  A block
draws its trials' bits from the raw PCG64 output of their seeds;
papr-ccdf and evm-sweep take them as symbols (TrialSeeds.symbols), and
only ber-fading, which counts bit errors, takes the bits
(TrialSeeds.bits).  Its noise rows come from a second grid of the same
seed hash, cut into the same blocks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

from . import channel as channelmod
from . import filterbank, metrics, modem, waveletdesign
from .configio import (
    ExperimentConfig,
    ResultTable,
    parse_float_list,
    parse_str_list,
    provenance_for,
)
from .errors import ConfigError, numerical_errors

SYSTEM_ORDER = ("wpm", "ofdm", "sc_wpm", "sc_ofdm")


def _levels(cfg: ExperimentConfig) -> int:
    if cfg.modem_levels > 0:
        return cfg.modem_levels
    return int(round(math.log2(cfg.modem_n_subcarriers)))


def system_configs(cfg: ExperimentConfig) -> dict:
    """The four compared transmitters, keyed wpm / ofdm / sc_wpm / sc_ofdm;
    each single-carrier system is its multicarrier one with a precoder."""
    n, os_ = cfg.modem_n_subcarriers, cfg.modem_oversampling
    wpm = modem.OfdmConfig(
        n, modem.WAVELET_PACKET, filterbank.make_filter(cfg.modem_wavelet),
        _levels(cfg), oversampling=os_, wpm_interp=cfg.modem_wpm_interp,
    )
    rolloff = cfg.modem_tx_rolloff if cfg.modem_tx_rolloff >= 0.0 else None
    ofdm = modem.OfdmConfig(
        n, modem.FOURIER, oversampling=os_, cp_fraction=cfg.modem_cp_fraction,
        tx_rolloff=rolloff,
    )
    return {
        "wpm": wpm,
        "ofdm": ofdm,
        "sc_wpm": dataclasses.replace(wpm, precoder=cfg.modem_sc_precoder),
        "sc_ofdm": dataclasses.replace(ofdm, precoder=modem.PRECODER_DFT),
    }


def _channel_profile(cfg: ExperimentConfig) -> channelmod.MultipathSpec:
    profile = cfg.channel_profile.strip()
    if profile == "identity":
        return channelmod.MultipathSpec.identity()
    if profile == "ten-path":
        return channelmod.MultipathSpec.ten_path(
            seed=cfg.channel_seed,
            n_taps=cfg.channel_taps,
            decay_db_per_tap=cfg.channel_decay_db,
        )
    return channelmod.MultipathSpec.from_file(profile)


# --- PAPR CCDF comparison -------------------------------------------------------


def run_papr_ccdf_compare(cfg: ExperimentConfig) -> ResultTable:
    """CCDF of per-symbol PAPR for the four compared systems."""
    spec = modem.constellation(cfg.modem_constellation)
    thresholds = np.asarray(parse_float_list(cfg.papr_thresholds_db))
    n_trials = cfg.n_trials or 10_000
    systems = system_configs(cfg)
    curves = {
        name: metrics.papr_ccdf(systems[name], spec, n_trials, thresholds,
                                seed=cfg.seed * 8 + index)
        for index, name in enumerate(SYSTEM_ORDER)
    }
    table = ResultTable(
        columns=["threshold_db"] + [f"ccdf_{name}" for name in SYSTEM_ORDER],
        provenance=provenance_for(cfg, "papr-ccdf"),
    )
    table.provenance["n_trials"] = str(n_trials)
    for i, threshold in enumerate(thresholds):
        table.add_row(
            float(threshold),
            *(float(curves[name].probabilities[i]) for name in SYSTEM_ORDER),
        )
    return table


# --- EVM vs receiver bandwidth ----------------------------------------------------


def _brickwall(samples: np.ndarray, cutoffs) -> np.ndarray:
    """Ideal lowpass in each frame's DFT domain: (..., m) frames give a
    (..., cutoffs, m) block, a row per cutoff; cutoff 1.0 keeps everything.
    Each frame is transformed once for all cutoffs, and every frame of a
    block gets the bytes of a call on that frame alone."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    low = cutoffs < 1.0
    m = samples.shape[-1]
    freqs = np.abs(np.fft.fftfreq(m))
    block = np.empty(samples.shape[:-1] + (len(cutoffs), m), dtype=complex)
    block[..., ~low, :] = samples[..., None, :]
    block[..., low, :] = np.fft.ifft(
        np.fft.fft(samples)[..., None, :] * (freqs <= 0.5 * cutoffs[low, None] + 1e-12),
        axis=-1,
    )
    return block


def run_evm_bandwidth_sweep(cfg: ExperimentConfig) -> ResultTable:
    """EVM against normalized brickwall receiver bandwidth, FT vs WT chains.

    Both chains run at the same oversampling; the wavelet chain uses
    spectral-zero-pad interpolation here so that its transmit spectrum is
    exactly confined and the receiver cutoff is the only distortion.
    """
    spec = modem.constellation(cfg.modem_constellation)
    cutoffs = parse_float_list(cfg.evm_cutoffs)
    n_frames = cfg.n_trials or 100
    n = cfg.modem_n_subcarriers
    levels = int(round(math.log2(n)))
    ft = modem.OfdmConfig(
        n, modem.FOURIER, oversampling=cfg.evm_oversampling, cp_fraction=0.0
    )
    wt = modem.OfdmConfig(
        n, modem.WAVELET_PACKET, filterbank.make_filter(cfg.evm_wavelet), levels,
        oversampling=cfg.evm_oversampling, wpm_interp=modem.INTERP_FFT,
    )

    total = np.zeros((len(cutoffs), 2))
    payloads = metrics.TrialSeeds.grid([cfg.seed], [n_frames])
    # blocks of 3 frames at the defaults (a receive block of 9 cutoffs x 1024
    # samples a frame).  Against one frame per step, on 2 vCPUs, a 64-frame
    # study took 17% less CPU in one interpreter (faster in 59 of 60 pairs),
    # and the evm-rx benchmark ran 1160 against 969 frames/s (10 of 10
    # pairs) for +0.5 MB (+1.3%) peak RSS
    for block in payloads.blocks(len(cutoffs) * ft.frame_length):
        symbols = block.symbols(spec, n * spec.bits_per_symbol)
        for column, chain in enumerate((ft, wt)):
            frame = _brickwall(modem.ofdm_modulate(symbols, chain), cutoffs)
            estimates = modem.ofdm_demodulate(frame, chain)
            del frame
            scores = metrics.evm(estimates, np.broadcast_to(symbols[:, None, :],
                                                            estimates.shape))
            del estimates  # freed before the next chain modulates
            for row in scores:  # frame by frame, in trial order
                total[:, column] += row
    table = ResultTable(
        columns=["cutoff", "evm_ft", "evm_wt"],
        provenance=provenance_for(cfg, "evm-sweep"),
    )
    table.provenance["n_frames"] = str(n_frames)
    table.provenance["wt_wavelet"] = cfg.evm_wavelet
    for i, cutoff in enumerate(cutoffs):
        table.add_row(float(cutoff), total[i, 0] / n_frames, total[i, 1] / n_frames)
    return table


# --- BER through the fading profile ------------------------------------------------


def run_ber_fading(cfg: ExperimentConfig) -> ResultTable:
    """BER vs Eb/N0 for the four systems over the static multipath profile.

    Perfect channel knowledge, zero-forcing equalization.  The Eb/N0 axis
    excludes cyclic-prefix overhead (conversion documented in the CSV
    header): noise variance per sample is
    power * oversampling / (bits_per_symbol * 10**(ebn0/10)).
    """
    spec = modem.constellation(cfg.modem_constellation)
    ebn0_grid = parse_float_list(cfg.ber_ebn0_db)
    n_frames = cfg.n_trials or 50
    systems = system_configs(cfg)
    # BER runs want every block unitary so the Eb/N0 axis means the same
    # thing for all four systems; the FIR interpolator's plain decimation
    # receiver would cost the wavelet chains ~10 log10(os)/2 dB.
    for name in ("wpm", "sc_wpm"):
        systems[name] = dataclasses.replace(
            systems[name], wpm_interp=cfg.ber_wpm_interp
        )
    profile = _channel_profile(cfg)
    for chain in systems.values():
        channelmod.check_cyclic_prefix(profile, chain)
    # every Eb/N0 point is checked before the first trial
    noise_levels = [
        channelmod.AwgnSpec(
            snr_db=ebn0, reference=channelmod.EB_PER_BIT,
            samples_per_bit=cfg.modem_oversampling / spec.bits_per_symbol,
        )
        for ebn0 in ebn0_grid
    ]
    bits_per_frame = cfg.modem_n_subcarriers * spec.bits_per_symbol

    results = {}
    for s_index, name in enumerate(SYSTEM_ORDER):
        chain = systems[name]
        # bits row [seed, s, e, trial], noise row [seed, s, e, trial, 1],
        # each hashed once per system
        grid = [len(ebn0_grid), n_frames]
        payloads = metrics.TrialSeeds.grid([cfg.seed, s_index], grid)
        noise_seeds = metrics.TrialSeeds.grid([cfg.seed, s_index], grid, [1])
        for e_index, noise in enumerate(noise_levels):
            errors = 0
            for block, noise_block in zip(payloads[e_index].blocks(chain.frame_length),
                                          noise_seeds[e_index].blocks(chain.frame_length)):
                bits = block.bits(bits_per_frame)
                # one name, so each stage's input is freed once it is done,
                # and the last is freed before the next block is modulated
                frame = modem.ofdm_modulate(modem.map_bits(bits, spec), chain)
                frame = channelmod.apply_multipath(frame, profile)
                frame = channelmod.awgn(frame, dataclasses.replace(noise, seed=noise_block))
                estimate = channelmod.equalize(frame, profile, chain)
                del frame
                errors += int(np.sum(modem.demap_symbols(estimate, spec) != bits))
            results[(name, e_index)] = errors

    table_columns = ["ebn0_db"]
    for name in SYSTEM_ORDER:
        table_columns += [f"ber_{name}", f"stderr_{name}"]
    table = ResultTable(
        columns=table_columns, provenance=provenance_for(cfg, "ber-fading")
    )
    table.provenance["n_frames"] = str(n_frames)
    table.provenance["bits_per_point"] = str(n_frames * bits_per_frame)
    table.provenance["snr_axis"] = (
        "EbN0_dB; noise_var_per_sample = power*oversampling"
        "/(bits_per_symbol*10^(ebn0/10)); CP overhead excluded"
    )
    total_bits = n_frames * bits_per_frame
    for e_index, ebn0 in enumerate(ebn0_grid):
        row = [float(ebn0)]
        for name in SYSTEM_ORDER:
            p = results[(name, e_index)] / total_bits
            row += [p, math.sqrt(max(p * (1.0 - p), 0.0) / total_bits)]
        table.add_row(*row)
    return table


# --- spectral efficiency table ------------------------------------------------------


def pulse_set_psd(pulses, rates, nfft: int = 1 << 18) -> metrics.PsdEstimate:
    """Deterministic average transmit PSD of independent unit-power streams:
    sum_m rate_m |P_m(f)|^2 on a dense grid."""
    dt = pulses[0].dt
    density = np.zeros(nfft)
    for rate, pulse in zip(rates, pulses):
        spectrum = np.fft.fft(np.asarray(pulse.samples), nfft) * dt
        density += rate * np.abs(spectrum) ** 2
    freqs = np.fft.fftfreq(nfft, d=dt)
    order = np.argsort(freqs)
    return metrics.PsdEstimate(
        freqs=freqs[order],
        power_db=10.0 * np.log10(np.maximum(density[order], 1e-300)),
        resolution_bw=1.0 / (nfft * dt),
    )


def _dyadic_system_se(family: str, n_dyadics: int, iterations: int):
    pair = filterbank.make_filter(family)
    mother = waveletdesign.mother_wavelet(pair, iterations)
    pulses = waveletdesign.dyadic_pulse_set(mother, n_dyadics)
    rates = [2.0**m for m in range(n_dyadics + 1)]
    estimate = pulse_set_psd(pulses, rates)
    bandwidth = metrics.occupied_bandwidth(estimate, 0.99)
    bit_rate = sum(rates)  # one bit per symbol (antipodal streams)
    return bit_rate, bandwidth, metrics.spectral_efficiency(bit_rate, bandwidth)


def run_spectral_efficiency_table(cfg: ExperimentConfig) -> ResultTable:
    """Baseband spectral efficiency of dyadic wavelet systems and RC.

    The first configured family is swept over dyadic counts 0..se.dyadics
    (the wavelet 1 / 1.5 / 1.75 ladder: stream m signals at rate 2**m per
    period); remaining families are reported at the full dyadic count.
    Bandwidth is 99% power containment of the deterministic pulse-set PSD.
    """
    families = parse_str_list(cfg.se_families)
    ladder = {0: "wavelet-1", 1: "wavelet-1.5", 2: "wavelet-1.75"}
    entries = []
    primary = families[0]
    for nd in range(cfg.se_dyadics + 1):
        rate, bw, se = _dyadic_system_se(primary, nd, cfg.se_cascade_iterations)
        entries.append((f"{ladder[nd]}({primary})", rate, bw, se))
    for family in families[1:]:
        rate, bw, se = _dyadic_system_se(
            family, cfg.se_dyadics, cfg.se_cascade_iterations
        )
        entries.append((f"{ladder[cfg.se_dyadics]}({family})", rate, bw, se))
    rc = waveletdesign.raised_cosine_pulse(cfg.se_rc_rolloff)
    estimate = pulse_set_psd([rc], [1.0])
    bw = metrics.occupied_bandwidth(estimate, 0.99)
    entries.append(
        (f"rc({cfg.se_rc_rolloff:g})", 1.0, bw, metrics.spectral_efficiency(1.0, bw))
    )
    ranking = sorted(range(len(entries)), key=lambda i: -entries[i][3])
    rank_of = {i: r + 1 for r, i in enumerate(ranking)}
    table = ResultTable(
        columns=["system", "bit_rate", "bandwidth_99", "spectral_efficiency",
                 "ordering_rank"],
        provenance=provenance_for(cfg, "se-table"),
    )
    for i, (label, rate, bw, se) in enumerate(entries):
        table.add_row(label, rate, bw, se, rank_of[i])
    return table


# --- orthonormalized Gaussian report --------------------------------------------------


def run_modgauss_report(cfg: ExperimentConfig) -> ResultTable:
    """Orthonormality residual, sidelobe level and 99% bandwidth per sigma*T,
    with truncated root-raised-cosine reference rows."""
    # every width is checked before the first row is computed
    widths = [
        waveletdesign.ModifiedGaussianParams(
            sigma=sigma_t, symbol_period=1.0, l_max=cfg.mg_l_max
        )
        for sigma_t in parse_float_list(cfg.mg_sigma_t)
    ]
    table = ResultTable(
        columns=["system", "parameter", "orthonormality_residual",
                 "sidelobe_db", "occupied_bw_99"],
        provenance=provenance_for(cfg, "modgauss-report"),
    )
    for params in widths:
        residual = waveletdesign.lattice_orthonormality_residual(
            params, cfg.mg_grid_points
        )
        n_grid = 16001
        df = 8.0 / (n_grid - 1)
        spectrum = waveletdesign.mod_gauss_spectrum(params, -4.0, df, n_grid)
        sidelobe = waveletdesign.sidelobe_level(spectrum)
        estimate = metrics.PsdEstimate(
            freqs=spectrum.freqs(),
            power_db=10.0 * np.log10(
                np.maximum(np.abs(spectrum.values) ** 2, 1e-300)
            ),
            resolution_bw=df,
        )
        bandwidth = metrics.occupied_bandwidth(estimate, 0.99)
        table.add_row("modgauss", params.sigma, residual, sidelobe, bandwidth)
    for rolloff in parse_float_list(cfg.mg_srrc_rolloffs):
        pulse = waveletdesign.root_raised_cosine_pulse(rolloff)
        estimate = pulse_set_psd([pulse], [1.0])
        amplitude = waveletdesign.SpectrumSamples(
            values=np.sqrt(estimate.power_linear()),
            df=estimate.freqs[1] - estimate.freqs[0],
            f0=estimate.freqs[0],
        )
        sidelobe = waveletdesign.sidelobe_level(amplitude)
        bandwidth = metrics.occupied_bandwidth(estimate, 0.99)
        table.add_row("srrc", rolloff, "", sidelobe, bandwidth)
    return table


RUNNERS = {
    "papr-ccdf": run_papr_ccdf_compare,
    "evm-sweep": run_evm_bandwidth_sweep,
    "ber-fading": run_ber_fading,
    "se-table": run_spectral_efficiency_table,
    "modgauss-report": run_modgauss_report,
}


# glibc mallopt parameters (mallopt(3)): M_TRIM_THRESHOLD = -1,
# M_MMAP_THRESHOLD = -3.  Under glibc's dynamic thresholds every block of a
# study handed its freed buffers back to the kernel and faulted them in again,
# zero-filled: a warm 32-trial papr-ccdf took ~2400 minor faults, the default
# papr-ccdf CLI ~750k and a quarter of its wall time in the kernel.  Fixed
# values switch the dynamic adjustment off, so every block buffer (all well
# under 4 MiB) comes from the heap, and up to 8 MiB of freed heap top is kept
# for the next block; the warm study then takes no faults.  (4 MiB trim,
# 2 MiB mmap) was the smallest pair that did so for papr-ccdf, evm-sweep and
# ber-fading alike; these values double it.
_MALLOPT = ((-1, 8 << 20), (-3, 4 << 20))


@functools.cache
def _keep_block_buffers() -> None:
    """Set glibc's trim and mmap thresholds once per process (Linux only;
    nothing happens where libc has no mallopt).  No output byte depends on it."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Dispatch on cfg.experiment; names match the CLI subcommands.  The
    study runs with numpy's overflow, invalid and divide warnings raised,
    and such a failure is re-raised as NumericalError, so no inf or NaN
    reaches a table.  The first call in a process fixes the allocator's
    thresholds (see _keep_block_buffers); a plain import leaves them alone."""
    _keep_block_buffers()
    name = cfg.experiment.strip()
    if name not in RUNNERS:
        raise ConfigError(
            f"unknown experiment {name!r} (choose from {sorted(RUNNERS)})"
        )
    with numerical_errors(name):
        return RUNNERS[name](cfg)
