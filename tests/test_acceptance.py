"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with `pytest -s` to see the
lines on success).

The headline comparisons are property-based: published numbers for the
spectral-efficiency tables and fading curves depend on undisclosed
bandwidth definitions and channel profiles, so the suite pins closed-form
quantities exactly and asserts orderings elsewhere.
"""

import math
import time

import numpy as np
import pytest

from wavemod import channel as ch
from wavemod import cli, configio, experiments, filterbank as fb, metrics, modem
from wavemod import waveletdesign as wd

QPSK = modem.constellation("qpsk")


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_perfect_reconstruction():
    """All families, 100 random length-1024 frames, roundtrips < 1e-9,
    under 5 seconds."""
    start = time.time()
    rng = np.random.default_rng(1001)
    frames = rng.standard_normal((100, 1024)) + 1j * rng.standard_normal((100, 1024))
    worst = 0.0
    for name in fb.list_families():
        pair = fb.make_filter(name)
        levels = 5
        err_dwt = np.max(np.abs(fb.idwt(fb.dwt(frames, pair, levels), pair) - frames))
        err_wpt = np.max(np.abs(fb.iwpt(fb.wpt(frames, pair, levels), pair) - frames))
        worst = max(worst, float(err_dwt), float(err_wpt))
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"roundtrip max error {worst:.2e} over {len(fb.list_families())} "
        f"families, 100x1024 frames, {elapsed:.1f} s",
    )


def test_criterion_2_qmf_verification():
    """Alias and amplitude residuals < 1e-8 on a 4096-point grid for every
    shipped pair."""
    worst_alias = worst_amp = 0.0
    for name in fb.list_families():
        alias, amplitude = fb.verify_pr(fb.make_filter(name), 4096)
        worst_alias = max(worst_alias, alias)
        worst_amp = max(worst_amp, amplitude)
    report(
        2,
        worst_alias < 1e-8 and worst_amp < 1e-8,
        f"max alias residual {worst_alias:.2e}, max amplitude residual "
        f"{worst_amp:.2e} across {len(fb.list_families())} pairs",
    )


def test_criterion_3_papr_bound():
    """Coherent worst case at N=128 gives 10 log10(128) +- 0.01 dB and
    10^4 random QPSK symbols never exceed it (oversampling 1), < 30 s."""
    start = time.time()
    cfg = modem.OfdmConfig(128)
    bound = 10.0 * np.log10(128.0)
    coherent = metrics.papr_db(
        modem.ofdm_modulate(np.full(128, QPSK.alphabet[0]), cfg)
    )
    worst = 0.0
    for trial in range(10_000):
        rng = np.random.default_rng([1003, trial])
        frame = modem.ofdm_modulate(
            modem.map_bits(rng.integers(0, 2, 256), QPSK), cfg
        )
        worst = max(worst, metrics.papr_db(frame))
    elapsed = time.time() - start
    report(
        3,
        abs(coherent - bound) < 0.01 and worst <= bound + 1e-9 and elapsed < 30.0,
        f"coherent case {coherent:.4f} dB (bound {bound:.4f}), max over 1e4 "
        f"random {worst:.2f} dB, {elapsed:.1f} s",
    )


def test_criterion_4_modified_gaussian_orthonormality():
    """Lattice power sum within 1e-9 of one for sigma T in {.25, .5, 1},
    l_max 8, 10^4-point grid, < 5 s."""
    start = time.time()
    worst = 0.0
    for sigma_t in (0.25, 0.5, 1.0):
        params = wd.ModifiedGaussianParams(sigma=sigma_t, l_max=8)
        worst = max(worst, wd.lattice_orthonormality_residual(params, 10_000))
    elapsed = time.time() - start
    report(
        4,
        worst < 1e-9 and elapsed < 5.0,
        f"max orthonormality residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_awgn_calibration():
    """SC-OFDM/QPSK BER at Eb/N0 = 4 dB within 3 binomial sigma of the
    Q-function oracle over 10^5 bits, < 60 s."""
    start = time.time()
    cfg = modem.OfdmConfig(512, oversampling=4, cp_fraction=1 / 8,
                           precoder=modem.PRECODER_DFT)
    identity = ch.MultipathSpec.identity()
    samples_per_bit = cfg.oversampling / QPSK.bits_per_symbol
    n_frames = 100
    n_bits = n_frames * 1024
    errors = 0
    for trial in range(n_frames):
        rng = np.random.default_rng([1005, trial])
        bits = rng.integers(0, 2, 1024)
        frame = modem.ofdm_modulate(modem.map_bits(bits, QPSK), cfg)
        noisy = ch.awgn(frame, ch.AwgnSpec(
            snr_db=4.0, seed=[1005, trial, 1], reference=ch.EB_PER_BIT,
            samples_per_bit=samples_per_bit,
        ))
        estimate = ch.equalize(noisy, identity, cfg)
        errors += int(np.sum(modem.demap_symbols(estimate, QPSK) != bits))
    measured = errors / n_bits
    expected = 0.5 * math.erfc(np.sqrt(2.0 * 10.0 ** 0.4) / np.sqrt(2.0))
    sigma = np.sqrt(expected * (1.0 - expected) / n_bits)
    elapsed = time.time() - start
    report(
        5,
        abs(measured - expected) < 3.0 * sigma and elapsed < 60.0,
        f"BER {measured:.5f} vs Q-oracle {expected:.5f} "
        f"(3 sigma = {3 * sigma:.5f}, {n_bits} bits), {elapsed:.1f} s",
    )


def test_criterion_6_papr_orderings():
    """At CCDF 1e-3 with 10^4 seed-fixed symbols: the precoded variants
    beat their multicarrier parents by at least 0.1 dB; the SC-WPM vs
    SC-OFDM margin is reported without a hard assertion (profile
    sensitive).  Doubles as the runtime smoke check: the full four-system
    10^4-trial study must finish within a desk-scale minute."""
    start = time.time()
    cfg = configio.ExperimentConfig(experiment="papr-ccdf", n_trials=10_000)
    table = experiments.run_papr_ccdf_compare(cfg)
    elapsed = time.time() - start
    thresholds = np.asarray(table.column("threshold_db"))
    levels = {}
    for name in experiments.SYSTEM_ORDER:
        curve = metrics.CcdfCurve(
            thresholds_db=thresholds,
            probabilities=np.asarray(table.column(f"ccdf_{name}")),
            n_trials=10_000,
        )
        levels[name] = curve.level_at(1e-3)
    margin_wpm = levels["wpm"] - levels["sc_wpm"]
    margin_ofdm = levels["ofdm"] - levels["sc_ofdm"]
    cross = levels["sc_ofdm"] - levels["sc_wpm"]
    print(
        "ACCEPTANCE 6 REPORT: PAPR at CCDF 1e-3 [dB]: "
        + ", ".join(f"{k}={v:.2f}" for k, v in levels.items())
        + f"; SC-WPM beats SC-OFDM by {cross:+.2f} dB (reported, not asserted)"
    )
    report(
        6,
        margin_wpm >= 0.1 and margin_ofdm >= 0.1 and elapsed < 60.0,
        f"SC-WPM gain {margin_wpm:.2f} dB, SC-OFDM gain {margin_ofdm:.2f} dB "
        f"(both need >= 0.1 dB), 4x10^4 trials in {elapsed:.0f} s",
    )


def test_criterion_7_evm_ordering():
    """EVM(WT, db10) <= EVM(FT) at cutoffs 0.6..0.9, N=512, oversampling 2,
    100 frames; both lossless at cutoff 1.0."""
    cfg = configio.ExperimentConfig(
        experiment="evm-sweep", n_trials=100,
        evm_cutoffs="0.6,0.7,0.8,0.9,1.0",
    )
    table = experiments.run_evm_bandwidth_sweep(cfg)
    rows = {row[0]: (row[1], row[2]) for row in table.rows}
    lossless = rows[1.0][0] < 1e-6 and rows[1.0][1] < 1e-6
    ordering = all(
        rows[c][1] <= rows[c][0] + 1e-12 for c in (0.6, 0.7, 0.8, 0.9)
    )
    detail = ", ".join(
        f"c={c}: ft={rows[c][0]:.2e} wt={rows[c][1]:.2e}"
        for c in (0.6, 0.7, 0.8, 0.9, 1.0)
    )
    report(7, lossless and ordering, detail)


def test_criterion_8_spectral_efficiency_trends():
    """SE(1.75) > SE(1.5) > SE(1) for the Daubechies ladder and
    SE(db) >= SE(sym) >= SE(coif) at three dyadics, 99% containment."""
    table = experiments.run_spectral_efficiency_table(
        configio.ExperimentConfig(experiment="se-table")
    )
    se = dict(zip(table.column("system"), table.column("spectral_efficiency")))
    ladder = (
        se["wavelet-1.75(db10)"] > se["wavelet-1.5(db10)"] > se["wavelet-1(db10)"]
    )
    families = (
        se["wavelet-1.75(db10)"] >= se["wavelet-1.75(sym8)"] - 1e-12
        and se["wavelet-1.75(sym8)"] >= se["wavelet-1.75(coif3)"] - 1e-12
    )
    report(
        8,
        ladder and families,
        "SE ladder "
        f"{se['wavelet-1(db10)']:.3f} < {se['wavelet-1.5(db10)']:.3f} < "
        f"{se['wavelet-1.75(db10)']:.3f}; families db10 "
        f"{se['wavelet-1.75(db10)']:.3f} >= sym8 {se['wavelet-1.75(sym8)']:.3f} "
        f">= coif3 {se['wavelet-1.75(coif3)']:.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    """Identical (config, seed) reruns emit byte-identical CSV files."""
    pairs = []
    for experiment, trials in (("papr-ccdf", "300"), ("ber-fading", "4"),
                               ("modgauss-report", "1")):
        a = tmp_path / f"{experiment}-a.csv"
        b = tmp_path / f"{experiment}-b.csv"
        assert cli.main([experiment, "--trials", trials, "--out", str(a)]) == 0
        assert cli.main([experiment, "--trials", trials, "--out", str(b)]) == 0
        pairs.append((experiment, a.read_bytes() == b.read_bytes()))
    report(
        9,
        all(ok for _, ok in pairs),
        "byte-identical reruns: "
        + ", ".join(f"{name}={'yes' if ok else 'NO'}" for name, ok in pairs),
    )
