"""Experiment runners, configuration parsing and the CLI."""

import dataclasses

import numpy as np
import pytest

from wavemod import cli, configio, experiments, metrics, modem
from wavemod.errors import ConfigError


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

    @pytest.mark.parametrize("key", ["papr.thresholds_db", "evm.cutoffs",
                                     "modgauss.sigma_t", "modgauss.srrc_rolloffs"])
    def test_only_ebn0_list_takes_inf(self, key):
        with pytest.raises(ConfigError, match="must be finite"):
            configio.config_from_mapping({key: "0.5,inf"})
        assert configio.config_from_mapping({"ber.ebn0_db": "0,inf"}).ber_ebn0_db == "0,inf"

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

    @pytest.mark.parametrize("cutoff", ["1.0", "0.5"])
    def test_cutoff_alone_gives_its_row_of_the_full_sweep(self, evm_table, cutoff):
        """A frame's cutoffs are demodulated as one block; each row's EVM,
        round-off level at 1.0, does not depend on the rows beside it."""
        alone = experiments.run_evm_bandwidth_sweep(
            cfg_with(experiment="evm-sweep", n_trials=10, evm_cutoffs=cutoff)
        )
        row = evm_table.column("cutoff").index(float(cutoff))
        assert alone.rows == [evm_table.rows[row]]

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
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, args, line):
        if line is not None:
            path = tmp_path / "range.cfg"
            path.write_text(line + "\n")
            args = args + ["--config", str(path)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavemod: config error:")
        assert err.count("\n") == 1

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
