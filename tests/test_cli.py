"""Command-line interface: parsing, config files, CSV output, exit codes."""

import pytest

from coopoutage.cli import _OPTIONS, _flag, db_to_linear, load_config, main
from coopoutage.exact_metrics import Protocol
from coopoutage.numerics import ConvergenceError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment manifest\n"
            "snr_db = 20      # transmit SNR\n"
            "rate = 0.5\n"
            "omega = 1,1,1\n"
            "\n"
            "normalize = block\n"
            "fm_t = 1e-3\n"
        )
        cfg = load_config(path)
        assert cfg == {
            "snr_db": "20",
            "rate": "0.5",
            "omega": "1,1,1",
            "normalize": "block",
            "fm_t": "1e-3",
        }

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db : 20\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_config_drives_run_and_flags_override(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("snr_db = 20\nnormalize = block\nfm_t = 1e-3\nprotocols = df\n")
        code, out, _ = run_cli(["metrics", "--config", str(path)], capsys)
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.startswith("df")][0]
        assert float(row.split()[3]) == pytest.approx(28.21, abs=0.02)
        # override the normalisation from the command line
        code, out, _ = run_cli(["metrics", "--config", str(path), "--normalize", "hz"], capsys)
        row = [ln for ln in out.splitlines() if ln.startswith("df")][0]
        assert float(row.split()[3]) == pytest.approx(0.0282, abs=1e-4)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("snr = 20\n")
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--config", str(path)])
        assert info.value.code == 2

    BAD_CONFIGS = [
        ("metrics", "snr_db = 20\nnormalize = fn\nfm_t = 1e-3\n", "bad.cfg: normalize = fn: expected hz"),
        ("metrics", "snr_db = 10\nmc = maybe\n", "bad.cfg: mc = maybe: expected true or false"),
        ("metrics", "snr_db = 10\nsnr_db_range = 0:40:20\n", "bad.cfg: set snr_db or snr_db_range"),
        ("metrics", "snr_db_range = 10:20:5\n", "this command takes one SNR"),
        # table1 has no --y0 flag, so the error must name the file and key
        ("table1", "snr_db = 20\ny0 = x\n", "bad.cfg: y0 = x: could not convert"),
    ]

    @pytest.mark.parametrize("command, text, message", BAD_CONFIGS, ids=[text for _, text, _ in BAD_CONFIGS])
    def test_bad_config_value_is_usage_error(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(path)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_snr_flag_replaces_the_config_snr_selection(self, tmp_path, capsys):
        path = tmp_path / "r.cfg"
        path.write_text("snr_db_range = 0:40:20\nprotocols = direct\n")
        _, out, _ = run_cli(
            ["validate", "--config", str(path), "--snr-db", "10", "--samples", "65536"], capsys
        )
        assert [ln for ln in out.splitlines() if ln.startswith("#")] == [
            "# snr_db=10 samples=65536 realizations=1"
        ]

    def test_keys_of_other_commands_are_checked_not_used(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"snr_db = 20\nout = {tmp_path / 'x.csv'}\ntol_op = 0.2\n")
        code, out, _ = run_cli(["metrics", "--config", str(path)], capsys)
        assert code == 0 and out.startswith("# snr_db=20 ")
        assert not (tmp_path / "x.csv").exists()
        path.write_text("snr_db = 20\ntol_op = x\n")
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--config", str(path)])
        assert info.value.code == 2


# For each option: the command it is checked on and a valid value that
# differs from both the default and that command's base option below.
NON_DEFAULT = {
    "snr_db": ("metrics", "20"),
    "snr_db_range": ("sweep", "0:6:3"),
    "rate": ("metrics", "2"),
    "omega": ("metrics", "1,2,3"),
    "doppler": ("metrics", "1,2,3"),
    "y0": ("metrics", "0.5"),
    "protocols": ("metrics", "df,sr"),
    "normalize": ("metrics", "fm"),
    "fm_t": ("metrics", "2e-3"),
    "seed": ("validate", "7"),
    "samples": ("validate", "32768"),
    "oversampling": ("validate", "32"),
    "sinusoids": ("validate", "16"),
    "realizations": ("validate", "2"),
    "out": ("sweep", "{tmp}/out.csv"),
    "tol_op": ("validate", "1e-9"),
    "tol_aor": ("validate", "1e-9"),
    "tol_aod": ("validate", "1e-9"),
    "mc": ("metrics", "true"),
}
BASE = {
    "metrics": {"snr_db": "10", "normalize": "block", "fm_t": "1e-3", "samples": "65536"},
    "sweep": {"snr_db_range": "0:4:2"},
    "validate": {"snr_db": "10", "protocols": "direct", "samples": "65536"},
}


@pytest.mark.parametrize("key", list(_OPTIONS))
def test_flag_and_config_value_take_one_path(key, tmp_path, capsys):
    command, value = NON_DEFAULT[key]
    assert command in _OPTIONS[key].commands
    value = value.format(tmp=tmp_path)
    written = tmp_path / "out.csv"
    config = tmp_path / "run.cfg"

    def run(base, extra, config_text=""):
        config.write_text(config_text)
        argv = [command, "--config", str(config)]
        argv += [a for k, v in base.items() for a in (_flag(k), v)]
        code = main(argv + extra)
        text = written.read_text() if written.exists() else None
        written.unlink(missing_ok=True)
        return code, capsys.readouterr().out, text

    base = BASE[command]
    others = {k: v for k, v in base.items() if k != key}
    by_flag = run(others, [_flag(key)] if key == "mc" else [_flag(key), value])
    by_config = run(others, [], f"{key} = {value}\n")
    assert by_flag == by_config
    assert by_flag != run(base, [])


class TestMetricsCommand:
    def test_block_normalised_durations(self, capsys):
        code, out, _ = run_cli(
            ["metrics", "--snr-db", "20", "--normalize", "block", "--fm-t", "1e-3"], capsys
        )
        assert code == 0
        values = {ln.split()[0]: ln.split() for ln in out.splitlines()[2:]}
        assert float(values["df"][3]) == pytest.approx(28.21, abs=0.02)
        assert float(values["sr"][3]) == pytest.approx(12.83, abs=0.02)

    def test_strong_direct_link_spacing_in_coherence_times(self, capsys):
        code, out, _ = run_cli(
            [
                "metrics",
                "--snr-db", "20",
                "--omega", "10,1,1",
                "--protocols", "sr",
                "--normalize", "fm",
            ],
            capsys,
        )
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.startswith("sr")][0]
        spacing = float(row.split()[7])
        assert spacing == pytest.approx(569.7, rel=1e-3)

    def test_zero_rate_flags_duration(self, capsys):
        code, out, _ = run_cli(["metrics", "--snr-db", "10", "--rate", "0"], capsys)
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.startswith("direct")][0]
        assert row.split()[1] == "0" and row.split()[3] == "nan"

    def test_static_direct_link_with_moving_relay(self, capsys):
        # --doppler 0,1,0: the S-D link is static, so DF and SR cross g0 only
        # through the relay-to-destination link
        code, out, _ = run_cli(["metrics", "--snr-db", "20", "--doppler", "0,1,0"], capsys)
        assert code == 0
        for row in out.splitlines()[2:]:
            if row.split()[0] in ("df", "sr"):
                p_out, aor, aod = (float(v) for v in row.split()[1:4])
                assert aor > 0.0 and aod == pytest.approx(p_out / aor, rel=1e-8)

    def test_one_point_range_is_one_snr(self, capsys):
        by_range = run_cli(["metrics", "--snr-db-range", "10:10:1"], capsys)
        assert by_range == run_cli(["metrics", "--snr-db", "10"], capsys)

    def test_requires_an_snr(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["metrics"])
        assert info.value.code == 2

    def test_af_threshold_beyond_panel_range_is_usage_error(self, capsys):
        # g0^2 ~ 1e301: direct, DF and SR give OP 1, AF has no finite panel count
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--snr-db", "0", "--rate", "500", "--protocols", "af"])
        assert info.value.code == 2
        assert "r0 = 500 b/s/Hz at gamma0 = 1 " in capsys.readouterr().err

    def test_mc_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "metrics",
                "--snr-db", "10",
                "--protocols", "df",
                "--mc",
                "--samples", "400000",
                "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[1].split()
        assert header[-3:] == ["p_out_mc", "aor_mc", "aod_mc"]
        row = [ln for ln in out.splitlines() if ln.startswith("df")][0].split()
        assert float(row[-3]) == pytest.approx(float(row[1]), rel=0.10)


class TestSweepCommand:
    def test_csv_structure_and_byte_stability(self, tmp_path, capsys):
        args = [
            "sweep",
            "--snr-db-range", "0:20:10",
            "--protocols", "sr,direct",
            "--out", str(tmp_path / "a.csv"),
        ]
        assert main(args) == 0
        again = args[:-1] + [str(tmp_path / "b.csv")]
        assert main(again) == 0
        a = (tmp_path / "a.csv").read_text()
        assert a == (tmp_path / "b.csv").read_text()
        lines = a.strip().splitlines()
        assert lines[0] == "snr_db,protocol,p_out_exact,aor_exact,aod_exact,p_out_asym,aor_asym,aod_asym"
        assert len(lines) == 1 + 3 * 2
        # deterministic (snr, protocol) ordering
        assert [ln.split(",")[1] for ln in lines[1:3]] == ["direct", "sr"]
        capsys.readouterr()

    def test_normalisation_is_pure_relabeling(self, tmp_path, capsys):
        base = ["sweep", "--snr-db-range", "10:20:5", "--doppler", "2,2,2"]
        main(base + ["--normalize", "hz", "--out", str(tmp_path / "hz.csv")])
        main(base + ["--normalize", "fm", "--out", str(tmp_path / "fm.csv")])
        capsys.readouterr()
        rows_hz = (tmp_path / "hz.csv").read_text().strip().splitlines()[1:]
        rows_fm = (tmp_path / "fm.csv").read_text().strip().splitlines()[1:]
        for hz, fm in zip(rows_hz, rows_fm):
            # the factors are exact internally; 1e-8 is the print-parse floor
            # of the 9-significant-digit CSV representation
            hz_v, fm_v = hz.split(","), fm.split(",")
            assert float(fm_v[3]) * 2.0 == pytest.approx(float(hz_v[3]), rel=1e-8)
            assert float(fm_v[4]) / 2.0 == pytest.approx(float(hz_v[4]), rel=1e-8)
            assert fm_v[2] == hz_v[2]

    def test_empty_protocol_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--snr-db-range", "0:10:5", "--protocols", ""])
        assert info.value.code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--snr-db-range", "0:10:5", "--out", "/nosuchdir/x.csv"], capsys
        )
        assert code == 2
        assert "cannot write" in err

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--snr-db-range", "0:6:3", "--protocols", "df"], capsys
        )
        assert code == 0
        assert out.startswith("snr_db,")

    def test_rates_decay_monotonically_past_the_crossing_peak(self, capsys):
        # the outage rate peaks where the threshold meets the crossing-rate
        # maximum (a few dB here); past that every curve decays monotonically
        code, out, _ = run_cli(
            ["sweep", "--snr-db-range", "10:40:5", "--normalize", "fm"], capsys
        )
        assert code == 0
        series = {}
        for line in out.strip().splitlines()[1:]:
            v = line.split(",")
            series.setdefault(v[1], []).append(float(v[3]))
        assert len(series) == 4
        for name, aors in series.items():
            assert all(b < a for a, b in zip(aors, aors[1:])), name


class TestValidateCommand:
    def test_passes_and_exit_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "validate",
                "--snr-db", "10",
                "--protocols", "df",
                "--samples", "2000000",
                "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        assert "pass" in out

    def test_tolerance_failure_exit_one(self, capsys):
        code, out, _ = run_cli(
            [
                "validate",
                "--snr-db", "10",
                "--protocols", "direct",
                "--samples", "200000",
                "--tol-op", "1e-9",
            ],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out


    def test_static_relay_fails_after_the_direct_lines(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "validate",
                    "--snr-db", "10",
                    "--samples", "65536",
                    "--realizations", "2",
                    "--doppler", "0,0,1",
                    "--protocols", "direct,af",
                ]
            )
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert [ln.split()[0] for ln in captured.out.splitlines()[1:]] == ["direct"] * 3
        assert "Dopplers are zero" in captured.err


class TestSlopeCommand:
    def test_reports_diversity_exponents(self, capsys):
        code, out, _ = run_cli(
            ["slope", "--snr-db-range", "30:40:2", "--protocols", "direct,af,df,sr"], capsys
        )
        assert code == 0
        got = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            got[(parts[0], parts[1])] = float(parts[2])
        for name, d in [("direct", 1), ("af", 2), ("df", 1), ("sr", 2)]:
            assert got[(name, "aor")] == pytest.approx(-(d - 0.5), abs=0.05)
            assert got[(name, "aod")] == pytest.approx(-0.5, abs=0.05)
            assert got[(name, "op")] == pytest.approx(-d, abs=0.1)

    def test_narrow_window_refused(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["slope", "--snr-db-range", "30:34:2"])
        assert info.value.code == 2


class TestTable1Command:
    def test_symmetric_rows(self, capsys):
        code, out, _ = run_cli(
            ["table1", "--snr-db", "20", "--normalize", "block", "--fm-t", "1e-3"], capsys
        )
        assert code == 0
        rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[2:]}
        assert float(rows["sr"][3]) == pytest.approx(12.78, abs=0.01)
        assert float(rows["af"][3]) == pytest.approx(14.10, abs=0.01)
        assert float(rows["simo-1x2"][3]) == pytest.approx(float(rows["af"][3]), rel=1e-9)
        assert float(rows["direct"][3]) == pytest.approx(18.16, abs=0.01)

    def test_asymmetric_network_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table1", "--snr-db", "20", "--omega", "2,1,1"])
        assert info.value.code == 2


class TestNormalisationGuards:
    def test_block_mode_needs_fm_t_in_unit_interval(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--snr-db", "10", "--normalize", "block", "--fm-t", "1.5"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["metrics", "--snr-db", "10", "--normalize", "block"])
        assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "--snr-db", "10", "--doppler", "0,0,0"],
        ["slope", "--snr-db-range", "30:40:2", "--doppler", "0,0,0"],
        ["validate", "--snr-db", "10", "--doppler", "0,0,0"],
        ["sweep", "--snr-db-range", "0:inf:2"],
        ["sweep", "--snr-db-range", "0:1e300:1e-300"],
        ["table1", "--snr-db", "20", "--omega", "1,1"],
        ["table1", "--snr-db", "20", "--doppler", "1,x"],
        ["table1", "--snr-db", "20", "--omega=-1,-1,-1"],
        ["table1", "--snr-db", "20", "--rate", "-1"],
        ["metrics", "--snr-db", "4000"],
        ["table1", "--snr-db", "4000"],
        ["slope", "--snr-db-range", "4000:4010:2"],
        ["validate", "--snr-db", "10", "--samples", "65536", "--doppler", "0,0,1", "--protocols", "af"],
        ["metrics", "--snr-db", "10", "--snr-db-range", "30:30:1"],
        ["metrics", "--snr-db-range", "10:20:5"],
        ["table1", "--snr-db-range", "10:20:5"],
        ["metrics", "--snr-db", "10", "--out", "x.csv"],
        ["table1", "--snr-db", "20", "--samples", "1", "--seed", "-5", "--protocols", "df", "--y0", "3"],
        ["sweep", "--snr-db-range", "0:4:2", "--samples", "1"],
    ],
)
def test_bad_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_duration_overflow_is_usage_error(capsys):
    # domain_grid seed-1 edge row 239: the DF outage rate is 1.0189e-319 Hz
    with pytest.raises(SystemExit) as info:
        main(
            [
                "metrics",
                "--snr-db=18.315538255850498",
                "--rate=7.069362126254593",
                "--omega=6.30367787817034,0.38063019462127684,0.28477033895565684",
                "--doppler=0,4.862880506459804,5.242090176308804",
                "--protocols=df",
            ]
        )
    assert info.value.code == 2
    assert "df: outage duration OP/AOR overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "--snr-db", "20", "--rate", "600", "--protocols", "df"],
        ["table1", "--snr-db", "20", "--rate", "600"],
    ],
)
def test_rate_overflow_names_r0(argv, capsys):
    # 2^(2 r0) overflows a float; table1 must not print any row first
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r0 = 600" in captured.err


def test_snr_overflow_names_the_snr():
    with pytest.raises(ValueError, match="4000 dB"):
        db_to_linear(4000.0)


WEAK_SD_MINUS_8DB = ["metrics", "--snr-db", "-8", "--rate", "2", "--omega", "0.1,1,1", "--protocols", "af"]


def test_convergence_failure_is_usage_error(monkeypatch, capsys):
    # an AF outage-rate quadrature that runs out of orders
    def no_convergence(scenario, tol=1e-7):
        raise ConvergenceError("AF outage rate integral did not converge by order (96, 512): 1.0, 2.0", (1.0, 2.0))

    monkeypatch.setattr(Protocol.AF, "aor", no_convergence)
    with pytest.raises(SystemExit) as info:
        main(WEAK_SD_MINUS_8DB)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "AF outage rate integral did not converge" in err


@pytest.mark.parametrize(
    "argv, p_out",
    [
        # ox far above the relayed-path scale, whose CDF rises in a 1e-4
        # sliver of the outer range (QUADPACK: 0.25917553983)
        (["--snr-db", "-10", "--rate", "1", "--omega", "100,0.01,1"], "0.25917554"),
        # QUADPACK: 0.66864285346
        (["--snr-db", "-11.9", "--rate", "0.156", "--omega", "3.385,0.3852,0.0143"], "0.668642853"),
    ],
)
def test_af_outage_probability_on_outer_panels(argv, p_out, capsys):
    code, out, _ = run_cli(["metrics", *argv, "--protocols", "af"], capsys)
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("af")][0]
    assert row.split()[1] == p_out


def test_deep_outage_af_rate_converges(capsys):
    # weak S-D link at -8 dB: the merged inner peak lies below 1/(psi*oy);
    # an uncut trapezoid grid (af_rate_brute in test_exact_metrics) gives
    # 1.5829989177e-164 Hz
    code, out, _ = run_cli(WEAK_SD_MINUS_8DB, capsys)
    assert code == 0
    assert "1.58299892e-164" in out
