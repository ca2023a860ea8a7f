"""Experiment runners, configuration parsing and the CLI."""

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavemod
from wavemod import cli, configio, experiments, metrics, modem
from wavemod.errors import ConfigError


_README = Path(__file__).resolve().parents[1] / "README.md"


def cfg_with(**kw):
    return dataclasses.replace(configio.ExperimentConfig(), **kw)


@pytest.fixture(scope="module")
def papr_table():
    return experiments.run_papr_ccdf_compare(
        cfg_with(experiment="papr-ccdf", n_trials=200)
    )


@pytest.fixture(scope="module")
def evm_table():
    return experiments.run_evm_bandwidth_sweep(
        cfg_with(experiment="evm-sweep", n_trials=10)
    )


@pytest.fixture(scope="module")
def se_table():
    return experiments.run_spectral_efficiency_table(
        cfg_with(experiment="se-table")
    )


@pytest.fixture(scope="module")
def modgauss_table():
    return experiments.run_modgauss_report(
        cfg_with(experiment="modgauss-report")
    )


class TestConfigParsing:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "modem.n_subcarriers = 256   # trailing comment\n"
            "modem.constellation = qam16\n"
            "seed = 99\n"
            "channel.decay_db = 2.5\n"
        )
        cfg = configio.load_config(path)
        assert cfg.modem_n_subcarriers == 256
        assert cfg.modem_constellation == "qam16"
        assert cfg.seed == 99
        assert cfg.channel_decay_db == 2.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("modem.subcarriers = 256\n")
        with pytest.raises(ConfigError):
            configio.load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("modem.n_subcarriers 256\n")
        with pytest.raises(ConfigError):
            configio.load_config(path)

    def test_float_list_parsing(self):
        assert configio.parse_float_list("1, 2.5, 3") == [1.0, 2.5, 3.0]
        assert configio.parse_float_list("4:6:0.5") == [4.0, 4.5, 5.0, 5.5, 6.0]
        assert configio.parse_float_list("inf") == [float("inf")]
        with pytest.raises(ConfigError):
            configio.parse_float_list("1:2:0")
        for text in ("nan", "1, -inf", "1e999", "-Infinity"):
            with pytest.raises(ConfigError):
                configio.parse_float_list(text)

    def test_range_value_count_is_bounded(self):
        """A range's count is checked before any value is built, so huge
        ranges fail at once instead of filling memory."""
        limit = configio.MAX_RANGE_VALUES
        assert len(configio.parse_float_list(f"1:{limit}:1")) == limit
        for text in (f"0:{limit}:1", "0:1e308:1", "-1e308:1e308:1e300",
                     "0:0:1e-300", "1e300:1e300:1", "1e20:1e20:1"):
            with pytest.raises(ConfigError):
                configio.parse_float_list(text)

    @pytest.mark.parametrize("key", ["papr.thresholds_db", "evm.cutoffs",
                                     "modgauss.sigma_t", "modgauss.srrc_rolloffs"])
    def test_only_ebn0_list_takes_inf(self, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
            configio.config_from_mapping({key: "0.5,inf"})
        assert configio.config_from_mapping({"ber.ebn0_db": "0,inf"}).ber_ebn0_db == "0,inf"

    def test_every_key_at_its_default_text_gives_the_default_config(self, tmp_path):
        """The schema names every field once, and each parser reads back
        the text of its field's default."""
        default = configio.ExperimentConfig()
        assert sorted(name for name, _, _ in configio.SCHEMA.values()) == sorted(
            f.name for f in dataclasses.fields(default))
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{key} = {getattr(default, name)}\n"
                                for key, (name, _, _) in configio.SCHEMA.items()))
        loaded = configio.load_config(path)
        assert loaded == default
        assert configio.config_hash(loaded) == configio.config_hash(default)

    def test_readme_key_table_follows_the_schema(self):
        """One README row per schema key, in schema order; its bounds cell
        is the rule's text, and its default cell, read with the key's
        parser, is the field default (experiment and out keep words)."""
        rows = [line.strip("|").split("|") for line in _README.read_text().splitlines()
                if line.startswith("| `")]
        default = configio.ExperimentConfig()
        assert [key.strip().strip("`") for key, *_ in rows] == list(configio.SCHEMA)
        for key, cell, bounds, _ in rows:
            name, parse, rule = configio.SCHEMA[key.strip().strip("`")]
            assert bounds.strip() == (rule.text if rule else ""), key
            if name in ("experiment", "output_path"):
                continue
            cell = cell.strip()
            assert cell.startswith("`") and cell.endswith("`"), key
            assert parse(cell.strip("`")) == getattr(default, name), key

    def test_config_hash_ignores_output_path(self):
        a = cfg_with(output_path="a.csv")
        b = cfg_with(output_path="b.csv")
        assert configio.config_hash(a) == configio.config_hash(b)
        c = cfg_with(seed=1)
        assert configio.config_hash(a) != configio.config_hash(c)


class TestResultTable:
    def test_header_and_rows(self):
        table = configio.ResultTable(
            columns=["a", "b"], provenance={"seed": "1", "x": "y"}
        )
        table.add_row(1, 2.5)
        lines = table.to_csv().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "# x=y"
        assert lines[2] == "a,b"
        assert lines[3] == "1,2.5"

    def test_row_width_checked(self):
        table = configio.ResultTable(columns=["a", "b"])
        with pytest.raises(ConfigError):
            table.add_row(1)

    def test_infinity_formatting(self):
        assert configio.format_cell(float("-inf")) == "-inf"
        assert configio.format_cell(float("inf")) == "inf"


class TestPaprExperiment:
    def test_columns(self, papr_table):
        assert papr_table.columns == [
            "threshold_db", "ccdf_wpm", "ccdf_ofdm", "ccdf_sc_wpm",
            "ccdf_sc_ofdm",
        ]

    def test_curves_monotone(self, papr_table):
        for name in ("ccdf_wpm", "ccdf_ofdm", "ccdf_sc_wpm", "ccdf_sc_ofdm"):
            values = np.asarray(papr_table.column(name))
            assert np.all(np.diff(values) <= 0.0)
            assert np.all((0.0 <= values) & (values <= 1.0))

    def test_probability_zero_beyond_bound(self, papr_table):
        thresholds = np.asarray(papr_table.column("threshold_db"))
        beyond = thresholds > 10.0 * np.log10(512.0)
        if np.any(beyond):
            for name in ("ccdf_wpm", "ccdf_ofdm"):
                assert np.all(np.asarray(papr_table.column(name))[beyond] == 0.0)

    def test_deterministic_rerun(self, papr_table):
        again = experiments.run_papr_ccdf_compare(
            cfg_with(experiment="papr-ccdf", n_trials=200)
        )
        assert again.to_csv() == papr_table.to_csv()

    def test_block_size_does_not_change_results(self, papr_table, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)  # one trial per block
        single = experiments.run_papr_ccdf_compare(
            cfg_with(experiment="papr-ccdf", n_trials=200)
        )
        assert single.to_csv() == papr_table.to_csv()


class TestEvmExperiment:
    def test_lossless_at_full_bandwidth(self, evm_table):
        cutoffs = evm_table.column("cutoff")
        row = cutoffs.index(1.0)
        assert evm_table.rows[row][1] < 1e-6
        assert evm_table.rows[row][2] < 1e-6

    def test_evm_nonincreasing_in_cutoff(self, evm_table):
        for name in ("evm_ft", "evm_wt"):
            values = np.asarray(evm_table.column(name))
            assert np.all(np.diff(values) <= 1e-9)

    @pytest.mark.parametrize("cutoff, subcarriers", [
        pytest.param("1.0", 512, id="1.0"),
        pytest.param("0.5", 512, id="0.5"),
        pytest.param("0.5", 2048, id="0.5-2048"),
    ])
    def test_cutoff_alone_gives_its_row_of_the_full_sweep(self, evm_table, cutoff,
                                                          subcarriers):
        """A frame's cutoffs are demodulated as one block; each row's EVM,
        round-off level at 1.0, does not depend on the rows beside it.  At
        2048 subcarriers the nine-cutoff db10 receive block is 9 x 2048 x 20
        multiply-adds per analysis level."""
        sweep = {"n_trials": 10}
        full = evm_table
        if subcarriers != 512:
            sweep = {"n_trials": 3, "modem_n_subcarriers": subcarriers}
            full = experiments.run_evm_bandwidth_sweep(
                cfg_with(experiment="evm-sweep", **sweep)
            )
        alone = experiments.run_evm_bandwidth_sweep(
            cfg_with(experiment="evm-sweep", evm_cutoffs=cutoff, **sweep)
        )
        row = full.column("cutoff").index(float(cutoff))
        assert alone.rows == [full.rows[row]]

    def test_block_size_does_not_change_results(self, monkeypatch):
        """7 frames: two full blocks of 3 and a partial one at the default
        size.  Each frame's EVMs are added to the totals in trial order."""
        cfg = cfg_with(experiment="evm-sweep", n_trials=7)
        blocked = experiments.run_evm_bandwidth_sweep(cfg).to_csv()
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)  # one frame per block
        assert experiments.run_evm_bandwidth_sweep(cfg).to_csv() == blocked

    def test_brickwall_block_equals_frame_calls(self):
        rng = np.random.default_rng(34)
        frames = rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
        cutoffs = configio.parse_float_list(configio.ExperimentConfig().evm_cutoffs)
        block = experiments._brickwall(frames, cutoffs)
        assert block.shape == (4, len(cutoffs), 256)
        np.testing.assert_array_equal(
            block, np.stack([experiments._brickwall(f, cutoffs) for f in frames])
        )

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(ConfigError):
            experiments.run_evm_bandwidth_sweep(
                cfg_with(experiment="evm-sweep", evm_cutoffs="0.0,0.5")
            )


class TestBerExperiment:
    def test_awgn_point_and_monotone_fading(self):
        table = experiments.run_ber_fading(
            cfg_with(
                experiment="ber-fading", n_trials=6,
                ber_ebn0_db="0,6,12,inf",
            )
        )
        assert table.columns[0] == "ebn0_db"
        for name in ("ber_wpm", "ber_ofdm", "ber_sc_wpm", "ber_sc_ofdm"):
            values = np.asarray(table.column(name))
            # noiseless sentinel row decodes perfectly under perfect CSI
            assert values[-1] == 0.0
            # broad monotone trend within Monte-Carlo noise
            assert values[0] >= values[-2] - 0.02

    def test_block_size_does_not_change_results(self, monkeypatch):
        # 11 frames: one full block and a partial one at the default size
        cfg = cfg_with(experiment="ber-fading", n_trials=11, ber_ebn0_db="0,8")
        blocked = experiments.run_ber_fading(cfg).to_csv()
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)  # one trial per block
        assert experiments.run_ber_fading(cfg).to_csv() == blocked

    def test_identity_channel_noiseless(self):
        table = experiments.run_ber_fading(
            cfg_with(
                experiment="ber-fading", n_trials=3,
                channel_profile="identity", ber_ebn0_db="inf",
            )
        )
        for name in ("ber_wpm", "ber_ofdm", "ber_sc_wpm", "ber_sc_ofdm"):
            assert table.column(name) == [0.0]

    def test_channel_profile_from_file(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("0 1.0 0.0\n1 0.2 0.1\n")
        table = experiments.run_ber_fading(
            cfg_with(
                experiment="ber-fading", n_trials=2,
                channel_profile=str(path), ber_ebn0_db="inf",
            )
        )
        assert table.column("ber_sc_ofdm") == [0.0]


class TestSeExperiment:
    def test_dyadic_ladder_increases(self, se_table):
        se = dict(zip(se_table.column("system"),
                      se_table.column("spectral_efficiency")))
        assert (
            se["wavelet-1.75(db10)"] > se["wavelet-1.5(db10)"]
            > se["wavelet-1(db10)"]
        )

    def test_family_ordering(self, se_table):
        se = dict(zip(se_table.column("system"),
                      se_table.column("spectral_efficiency")))
        assert se["wavelet-1.75(db10)"] >= se["wavelet-1.75(sym8)"]
        assert se["wavelet-1.75(sym8)"] >= se["wavelet-1.75(coif3)"]

    def test_rc_reference_present(self, se_table):
        labels = se_table.column("system")
        assert "rc(0.22)" in labels
        idx = labels.index("rc(0.22)")
        assert se_table.rows[idx][3] > 0.0

    def test_ranks_are_a_permutation(self, se_table):
        ranks = sorted(se_table.column("ordering_rank"))
        assert ranks == list(range(1, len(se_table.rows) + 1))


class TestModgaussExperiment:
    def test_orthonormality_column(self, modgauss_table):
        for row in modgauss_table.rows:
            if row[0] == "modgauss":
                assert row[2] < 1e-9

    def test_gaussian_rows_have_no_sidelobe(self, modgauss_table):
        for row in modgauss_table.rows:
            if row[0] == "modgauss":
                assert row[3] == float("-inf")

    def test_srrc_rows_have_finite_sidelobes(self, modgauss_table):
        srrc_rows = [row for row in modgauss_table.rows if row[0] == "srrc"]
        assert {row[1] for row in srrc_rows} == {0.22, 0.5}
        for row in srrc_rows:
            assert np.isfinite(row[3])


class TestCli:
    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        assert cli.main(["se-table", "--config", str(bad)]) == 2

    def test_negative_trials_is_config_error(self, capsys):
        assert cli.main(["ber-fading", "--trials", "-5"]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("args, line", [
        (["papr-ccdf", "--seed", "-1"], None),
        (["evm-sweep", "--seed", "-1"], None),
        (["papr-ccdf"], "modem.n_subcarriers = 0"),
        (["ber-fading"], "channel.seed = -1"),
        (["modgauss-report"], "modgauss.grid_points = 0"),
        (["evm-sweep"], "evm.cutoffs ="),
        (["ber-fading"], "ber.ebn0_db ="),
        (["papr-ccdf"], "papr.thresholds_db = 2:1:0.5"),
        (["papr-ccdf"], "papr.thresholds_db = nan"),
        (["evm-sweep"], "evm.cutoffs = nan"),
        (["ber-fading"], "ber.ebn0_db = -inf"),
        (["ber-fading", "--trials", "1"], "modem.cp_fraction = 0"),
        (["papr-ccdf"], "modem.tx_rolloff = nan"),
        (["ber-fading"], "channel.taps = -1"),
        (["papr-ccdf"], "papr.thresholds_db = 0:1e308:1"),
        (["papr-ccdf"], "papr.thresholds_db = 1e20:1e20:1"),
        (["ber-fading"], "ber.ebn0_db = 1e308"),
        (["ber-fading"], "ber.ebn0_db = 0,-1e308"),
        (["modgauss-report"], "modgauss.sigma_t = 1e308"),
        (["modgauss-report"], "modgauss.sigma_t = 0.5,7"),
        (["ber-fading"], "channel.decay_db = 1e308"),
        (["ber-fading"], "channel.decay_db = -400"),
        (["ber-fading"], "channel.decay_db = nan"),
        # a key's rule holds whichever study runs
        (["papr-ccdf"], "evm.cutoffs = 2"),
        (["papr-ccdf"], "se.dyadics = 5"),
        (["papr-ccdf"], "seed = x"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, args, line):
        """Exit 2 with one error line; a numpy warning on the way is an
        error here, so the value must be rejected before it reaches numpy."""
        if line is not None:
            path = tmp_path / "range.cfg"
            path.write_text(line + "\n")
            args = args + ["--config", str(path)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavemod: config error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["papr.thresholds_db = nan", "seed = x"])
    def test_parse_error_names_its_key(self, tmp_path, capsys, line):
        path = tmp_path / "parse.cfg"
        path.write_text(line + "\n")
        assert cli.main(["papr-ccdf", "--config", str(path)]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err.startswith(f"wavemod: config error: {key}: ")

    def test_short_cyclic_prefix_fails_before_any_trial(self, tmp_path,
                                                         monkeypatch, capsys):
        """The Fourier chains' CP is checked against the channel before the
        wpm system, which has no CP and runs first, simulates anything."""
        calls = []
        modulate = modem.ofdm_modulate

        def counted(*args, **kwargs):
            calls.append(1)
            return modulate(*args, **kwargs)

        monkeypatch.setattr(modem, "ofdm_modulate", counted)
        path = tmp_path / "cp.cfg"
        path.write_text("modem.cp_fraction = 0\n")
        assert cli.main(["ber-fading", "--config", str(path)]) == 2
        assert "cyclic prefix" in capsys.readouterr().err
        assert calls == []

    def test_unexpected_exception_is_one_line_exit_3(self, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(experiments.RUNNERS, "se-table", broken)
        assert cli.main(["se-table"]) == 3
        assert capsys.readouterr().err == "wavemod: internal error: RuntimeError: boom\n"

    def test_numpy_overflow_is_one_line_exit_3(self, monkeypatch, capsys):
        """A study's overflow, invalid or divide warning is a numerical
        failure, not a table with inf or NaN in it."""
        def overflowing(cfg):
            return np.exp(np.array([1e3]))

        monkeypatch.setitem(experiments.RUNNERS, "se-table", overflowing)
        assert cli.main(["se-table"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("wavemod: numerical failure: se-table: overflow")
        assert err.count("\n") == 1

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli.main(["se-table", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(["modgauss-report", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# ")
        assert "orthonormality_residual" in text

    def test_stdout_output(self, capsys):
        assert cli.main(["se-table"]) == 0
        out = capsys.readouterr().out
        assert "spectral_efficiency" in out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["papr-ccdf", "--trials", "60", "--out", str(a)]) == 0
        assert cli.main(["papr-ccdf", "--trials", "60", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["papr-ccdf", "--trials", "60", "--out", str(a)])
        cli.main(["papr-ccdf", "--trials", "60", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _bundled_openblas() -> tuple[str, str]:
    """(core name, config string) of numpy's bundled OpenBLAS, read through
    ctypes as perfbench/child.py reads the config; "unknown" without it."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        lib = ctypes.CDLL(str(path))  # already mapped by numpy: same handle
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if corename is not None and config is not None:
            corename.restype = config.restype = ctypes.c_char_p
            return corename().decode(), config().decode()
    return "unknown", "unknown"


# The evm-sweep CSV prints round-off-level EVM, whose bits follow the BLAS
# kernel: its references were recorded on OpenBLAS 0.3.31's SkylakeX kernels.
_CORENAME, _OPENBLAS_CONFIG = _bundled_openblas()
_EVM_REFERENCE_BLAS = (_CORENAME == "SkylakeX"
                       and re.match(r"OpenBLAS 0\.3\.31\b", _OPENBLAS_CONFIG) is not None)


@pytest.mark.parametrize("study, prefix", [
    ("papr-ccdf", "68ef5bb503d8931d"),
    ("se-table", "bf3e265290a5702c"),
    ("modgauss-report", "a096cc57786e6b4e"),
    ("ber-fading", "4f77ae341ee0a667"),
])
def test_default_csv_matches_its_published_hash(study, prefix):
    """The default CSVs whose published sha256 does not depend on the BLAS
    kernel, so a change that moves config_sha256 or a row fails."""
    csv = experiments.run_experiment(cfg_with(experiment=study)).to_csv().encode()
    assert hashlib.sha256(csv).hexdigest()[:16] == prefix


@pytest.mark.skipif(not _REFERENCES.exists(), reason="no benchmark references")
@pytest.mark.parametrize("study, trials", [
    ("papr-ccdf", "250"),
    ("ber-fading", "16"),
    pytest.param("evm-sweep", "64", marks=pytest.mark.skipif(
        not _EVM_REFERENCE_BLAS,
        reason=f"OpenBLAS {_CORENAME} ({_OPENBLAS_CONFIG}) is not the SkylakeX "
               "0.3.31 build the evm-sweep references were recorded on")),
])
@pytest.mark.parametrize("seed", ["20110223", "1"])
def test_benchmark_studies_match_their_recorded_hashes(study, trials, seed):
    """The benchmark's recorded CSV sha256 (read-only here), so a change
    that moves a byte of the block-sized chains fails in the suite."""
    digest = json.loads(_REFERENCES.read_text())[study][trials][seed]
    cfg = cfg_with(experiment=study, n_trials=int(trials), seed=int(seed))
    csv = experiments.run_experiment(cfg).to_csv().encode()
    assert hashlib.sha256(csv).hexdigest() == digest


@pytest.mark.parametrize("study, trials, bound", [
    ("papr-ccdf", 32, 3.0),
    ("ber-fading", 16, 5.0),
    ("evm-sweep", 6, 3.0),
])
def test_block_working_set_is_bounded(study, trials, bound):
    """Peak traced bytes of a warm study, whose blocks are the largest
    allocations, stay under bound * _BLOCK_BYTES (2.5 for papr-ccdf, 4.0
    for ber-fading and 2.8 for evm-sweep, measured with numpy 2.4).  A
    stage that keeps more block-sized temporaries alive at its peak, such
    as the FIR interpolator's tiled spectrum next to its product, or a
    filter-bank copy of a whole receive block (6.4 for evm-sweep), crosses
    it.  The
    first run fills the caches (filter spectra, the channel response) that
    later runs share."""
    cfg = cfg_with(experiment=study, n_trials=trials)
    experiments.run_experiment(cfg)
    tracemalloc.start()
    try:
        experiments.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * metrics._BLOCK_BYTES


class TestAllocatorThresholds:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="mallopt thresholds are set on Linux only")
    def test_warm_study_takes_no_page_faults(self):
        """After one study, the next reuses the freed block buffers instead
        of faulting fresh pages in (about 2400 faults per 32-trial study
        under glibc's dynamic thresholds).  A fresh interpreter, because this
        one may have set the thresholds already."""
        src = str(Path(wavemod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            "import dataclasses, resource\n"
            "from wavemod import configio, experiments\n"
            "print(experiments._keep_block_buffers.cache_info().currsize)\n"
            "cfg = dataclasses.replace(configio.ExperimentConfig(),\n"
            "                          experiment='papr-ccdf', n_trials=32)\n"
            "experiments.run_experiment(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "experiments.run_experiment(dataclasses.replace(cfg, seed=1))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        imported, faults = (int(v) for v in out.stdout.split())
        assert imported == 0  # importing wavemod leaves the allocator alone
        assert faults < 100

    @pytest.mark.parametrize("platform, libc", [
        ("win32", None),
        ("darwin", None),
        ("linux", OSError("no libc")),
        ("linux", AttributeError("mallopt")),
    ])
    def test_no_op_without_glibc_mallopt(self, monkeypatch, platform, libc):
        import ctypes

        def cdll(name):
            if libc is None:
                raise AssertionError("libc loaded off Linux")
            raise libc

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        experiments._keep_block_buffers.cache_clear()
        try:
            assert experiments._keep_block_buffers() is None
        finally:
            experiments._keep_block_buffers.cache_clear()


# Values per key for the config fuzz.  A key the schema bounds takes its
# rule's edges, each bound and one step past it.  Hand-written values probe
# the bounds that library classes own (OfdmConfig, AwgnSpec, make_filter,
# MultipathSpec.ten_path, ModifiedGaussianParams, constellation, wide seeds):
# non-finite, negative, empty, malformed and extreme, with every size
# bounded so that no example allocates much.
_NASTY = ["nan", "inf", "-inf", "-1", "0", "", "x", "1e308", "-1e308", "1e-308"]
_LIBRARY_VALUES = {
    "seed": ["99999999999999999999999", "", "nan"],
    "modem.n_subcarriers": ["-4", "2", "3", "8", "64", "4096", "nan"],
    "modem.levels": ["-1", "0", "1", "3", "64", ""],
    "modem.oversampling": ["-1", "0", "1", "2", "16", "1e3"],
    "modem.cp_fraction": _NASTY + ["0.5", "0.99"],
    "modem.tx_rolloff": _NASTY + ["0.5", "1"],
    "modem.wavelet": ["haar", "db2", "db10", "nope", ""],
    "modem.constellation": ["qpsk", "bpsk", "qam16", "nope", ""],
    "modem.wpm_interp": ["fir", "fft", ""],
    "evm.wavelet": ["db10", "haar", "nope"],
    "evm.oversampling": ["-1", "0", "1", "4"],
    "channel.profile": ["ten-path", "identity", ""],
    "channel.seed": ["99999999999999999999999"],
    "channel.taps": ["-1", "0", "1", "100"],
    "channel.decay_db": _NASTY,
    "ber.ebn0_db": _NASTY + ["inf,0", "-20:20:20"],
    "ber.wpm_interp": ["fir", "fft", ""],
    "se.families": ["db10", "haar,db2", "nope"],
    "se.rc_rolloff": _NASTY + ["0.22", "1"],
    "se.cascade_iterations": ["-1", "0", "1", "4"],
    "modgauss.sigma_t": _NASTY + ["0.5"],
    "modgauss.l_max": ["-1", "0", "1", "3"],
    "modgauss.srrc_rolloffs": _NASTY + ["0.5"],
}
_FUZZ_VALUES = {
    key: list(dict.fromkeys((rule.edges if rule else ()) + tuple(_LIBRARY_VALUES.get(key, ()))))
    for key, (name, _, rule) in configio.SCHEMA.items()
    if name not in ("experiment", "output_path")
}


@st.composite
def _fuzz_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=4,
                         unique=True))
    return {key: draw(st.sampled_from(_FUZZ_VALUES[key])) for key in keys}


@settings(max_examples=40, deadline=None)
@given(study=st.sampled_from(sorted(experiments.RUNNERS)), mapping=_fuzz_configs())
def test_config_fuzz_exits_cleanly(tmp_path_factory, study, mapping):
    """Any config file gives exit 0, 2 or 3 without a traceback, and an
    exit-0 table holds no NaN."""
    folder = tmp_path_factory.mktemp("fuzz")
    config, out = folder / "fuzz.cfg", folder / "out.csv"
    config.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([study, "--trials", "2", "--config", str(config),
                         "--out", str(out)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert not math.isnan(value), (mapping, line)
