import json
import warnings

import numpy as np
import pytest

from vacuumlab import cli
from vacuumlab.cli import build_parser, load_config, main
from vacuumlab.errors import ConfigError


def run(args):
    return main(args)


class TestCasimirCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["casimir", "--alpha", "20", "--gap", "1.0",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("p_em24" in c for c in comments)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",") == ["alpha", "L", "p_series", "p_quad",
                                     "p_comb16", "p_em24"]
        row = lines[-1].split(",")
        assert float(row[0]) == 20.0
        assert float(row[2]) == pytest.approx(float(row[3]), rel=1e-8)

    def test_large_alpha_L_routes_agree(self, capsys):
        # alpha L = 1e9: the quadrature grades 24 peaks, not 1e8 of them
        assert run(["casimir", "--alpha", "1e9", "--gap", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(float(row[2]), rel=1e-11)

    def test_reproducible_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["casimir", "--alpha", "15", "--gap", "0.8", "--out", str(a)])
        run(["casimir", "--alpha", "15", "--gap", "0.8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["casimir", "--sweep", "alpha", "--values", "10,100,1000",
             "--gap", "1.0", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 3
        assert [float(r.split(",")[0]) for r in rows] == [10.0, 100.0, 1000.0]

    def test_empty_sweep_rejected(self, tmp_path):
        rc = run(["casimir", "--sweep", "alpha", "--values", "",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_sweep_parameter_rejected(self, tmp_path):
        rc = run(["casimir", "--sweep", "nonsense", "--values", "1,2",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_standalone_sweep_command(self, tmp_path):
        out = tmp_path / "sw.csv"
        rc = run(["sweep", "--command", "casimir", "--parameter", "alpha",
                  "--values", "10,100", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 2

    def test_standalone_sweep_reads_the_commands_config(self, tmp_path):
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("nmax = 3\n")
        out = tmp_path / "sw.csv"
        rc = run(["sweep", "--command", "stats", "--parameter", "N",
                  "--values", "10,20", "--config", str(cfg),
                  "--out", str(out)])
        direct = tmp_path / "direct.csv"
        run(["stats", "--sweep", "N", "--values", "10,20", "--nmax", "3",
             "--out", str(direct)])
        assert rc == 0
        assert out.read_bytes() == direct.read_bytes()


class TestUnsupportedSweep:
    def test_delta_sweep_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = run(["delta", "--sweep", "n", "--values", "2,4,8",
                  "--out", str(out)])
        assert rc == 2
        assert "delta cannot sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command_on_shift_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = run(["sweep", "--command", "shift", "--parameter", "q",
                  "--values", "1,2", "--out", str(out)])
        assert rc == 2
        assert "shift cannot sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_from_config_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep = alpha\nvalues = 1,2\n")
        rc = run(["cavity", "--config", str(cfg),
                  "--out", str(tmp_path / "c.csv")])
        assert rc == 2


    def test_values_without_sweep_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = run(["casimir", "--alpha", "10", "--values", "1,2,3",
                  "--out", str(out)])
        assert rc == 2
        assert "--sweep is not" in capsys.readouterr().err
        assert not out.exists()

    def test_values_from_config_without_sweep_rejected(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "values.cfg"
        cfg.write_text("values = 1,2\n")
        out = tmp_path / "c.csv"
        rc = run(["casimir", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "--sweep is not" in capsys.readouterr().err
        assert not out.exists()

class TestParserReuse:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()

    def test_outputs_match_a_fresh_parser(self, tmp_path, capsys,
                                          monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 40\ngap = 2.0\n")
        stats_cfg = tmp_path / "stats.cfg"
        stats_cfg.write_text("nmax = 3\n")
        calls = [
            ["casimir", "--config", str(cfg)],
            ["casimir"],
            ["coulomb", "--profile", "box", "--k1", "1.0", "--k2", "50",
             "--samples", "9", "--summary", str(tmp_path / "s.json")],
            ["delta", "--n", "4", "--samples", "11"],
            ["sweep", "--command", "stats", "--parameter", "N",
             "--values", "10,20", "--config", str(stats_cfg)],
            ["stats", "--N", "20", "--nmax", "3"],
            ["cavity", "--alpha", "1.0", "--branches", "2"],
            ["delta", "--sweep", "n", "--values", "2,4"],
        ]

        def outputs():
            got = []
            for argv in calls:
                rc = main(argv)
                captured = capsys.readouterr()
                summary = b""
                if "--summary" in argv:
                    summary = (tmp_path / "s.json").read_bytes()
                    (tmp_path / "s.json").unlink()
                got.append((rc, captured.out, captured.err, summary))
            return got

        cached = outputs()
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = outputs()
        assert cached == fresh
        assert [rc for rc, *_ in cached] == [0] * 7 + [2]
        # the config's values did not outlive their run
        assert cached[0][1].splitlines()[-1].startswith("40,2,")
        assert cached[1][1].splitlines()[-1].startswith("100,1,")


class TestCoulombCommand:
    def test_curve_and_summary(self, tmp_path):
        out = tmp_path / "curve.csv"
        summary = tmp_path / "summary.json"
        assert run(["coulomb", "--profile", "box", "--k1", "1.0",
                    "--k2", "10000", "--rmin", "0.5", "--rmax", "10",
                    "--samples", "50", "--out", str(out),
                    "--summary", str(summary)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 50
        payload = json.loads(summary.read_text())
        assert payload["sign_change_radius"] == pytest.approx(1.92645,
                                                              abs=1e-3)

    def test_unrepresentable_lorentz_profile_rejected(self, tmp_path, capsys):
        rc = run(["coulomb", "--profile", "lorentz", "--lambda2", "2e5",
                  "--y0", "1", "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "lambda2" in capsys.readouterr().err


class TestStatsCommand:
    def test_pmf_table(self, tmp_path):
        out = tmp_path / "stats.csv"
        run(["stats", "--N", "50", "--nmax", "4", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 5
        total = sum(float(r.split(",")[1]) for r in rows)
        assert 0.99 < total <= 1.0 + 1e-9

    def test_sweep_gap_monotone(self, tmp_path):
        out = tmp_path / "gap.csv"
        run(["stats", "--sweep", "N", "--values", "10,100,1000",
             "--nmax", "5", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        gaps = [float(r.split(",")[1]) for r in rows]
        assert gaps == sorted(gaps, reverse=True)


class TestShiftAndCavity:
    def test_shift_json(self, tmp_path):
        out = tmp_path / "shift.json"
        run(["shift", "--profile", "box", "--k1", "1", "--k2", "3",
             "--gap", "2.0", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) >= {"free", "plane", "mirror_term"}
        assert payload["plane"] - payload["free"] == pytest.approx(
            payload["mirror_term"])

    def test_cavity_table(self, tmp_path):
        out = tmp_path / "res.csv"
        run(["cavity", "--alpha", "1.0", "--gap", "1.0", "--branches", "3",
             "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 6
        assert all(float(r.split(",")[4]) < 1e-8 for r in rows)


class TestConfig:
    def test_file_seeds_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 40\ngap = 2.0  # separation\n")
        out = tmp_path / "r.csv"
        run(["casimir", "--config", str(cfg), "--gap", "1.0",
             "--out", str(out)])
        row = [l for l in out.read_text().splitlines()
               if l and not l.startswith("#")][1].split(",")
        assert float(row[0]) == 40.0   # from config
        assert float(row[1]) == 1.0    # flag overrides config

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        rc = run(["casimir", "--config", str(cfg),
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_parse_errors(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_delta_command(self, tmp_path):
        out = tmp_path / "delta.csv"
        run(["delta", "--shape", "shifted_pair", "--n", "4", "--j", "1",
             "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 401

    def test_profile_roundtrip_through_config(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("profile = lorentz\nlambda2 = 0.04\ny0 = 0.5\n"
                       "q = 2.0\nrmin = 0.5\nrmax = 5.0\nsamples = 7\n")
        out = tmp_path / "c.csv"
        run(["coulomb", "--config", str(cfg), "--out", str(out)])
        text = out.read_text()
        assert "lorentz(lambda2=0.04,y0=0.5)" in text
        rows = [l for l in text.splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 7


def exit_code(argv):
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_INPUTS = {
    # config values convert by the option's declared type
    "config_alpha_abc": (["casimir"], "alpha = abc\n"),
    "config_N_not_int": (["stats"], "N = 2.5\n"),
    "config_nan": (["casimir"], "gap = nan\n"),
    # only numeric options of casimir and stats sweep
    "sweep_out": (["casimir", "--sweep", "out", "--values", "1,2"], None),
    "sweep_func": (["casimir", "--sweep", "func", "--values", "1,2"], None),
    "sweep_command": (["casimir", "--sweep", "command", "--values", "1,2"],
                      None),
    "sweep_probs": (["stats", "--sweep", "probs", "--values", "0.5,0.9"],
                    None),
    # sweep values convert by the swept option's declared type
    "sweep_N_not_int": (["stats", "--sweep", "N", "--values", "2.5"], None),
    "sweep_nan": (["casimir", "--sweep", "alpha", "--values", "10,nan"],
                  None),
    # non-finite flags
    "alpha_nan": (["casimir", "--alpha", "nan"], None),
    "gap_inf": (["casimir", "--gap", "inf"], None),
    "k1_nan": (["coulomb", "--k1", "nan"], None),
    "rmax_inf": (["coulomb", "--rmax", "inf"], None),
    "q_nan": (["shift", "--q", "nan"], None),
    "a_nan": (["delta", "--a", "nan"], None),
    "probs_not_float": (["stats", "--probs", "0.5,x"], None),
    # counts below their least value
    "samples_negative": (["coulomb", "--samples", "-1"], None),
    "samples_zero": (["coulomb", "--samples", "0"], None),
    "delta_samples_negative": (["delta", "--samples", "-1"], None),
    "branches_zero": (["cavity", "--branches", "0"], None),
    "nmax_negative": (["stats", "--nmax", "-1"], None),
    "j_negative": (["delta", "--j", "-1"], None),
    "config_samples_zero": (["coulomb"], "samples = 0\n"),
    "sweep_N_zero": (["stats", "--sweep", "N", "--values", "2,0"], None),
    # past the alpha L = 1e76 end of pressure_1p1_quad's domain
    "alpha_L_past_domain": (["casimir", "--alpha", "1e80", "--gap", "1"],
                            None),
    # alpha L = 1, but the pressure scale 1/L^2 = 1e600 is no double
    "pressure_scale_past_double_range": (
        ["casimir", "--alpha", "1e300", "--gap", "1e-300"], None),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_one_error_line(self, case, tmp_path, capsys):
        argv, config = BAD_INPUTS[case]
        out = tmp_path / "out.txt"
        argv = argv + ["--out", str(out)]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_unrepresentable_pressure_prints_only_the_error(self, capsys):
        # no numpy warning on the way to the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["casimir", "--alpha", "1e300", "--gap", "1e-300"]) \
                == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("config, flags, same_as", [
        # a None default does not leave the config value a string
        ("gap = 2\n", ["shift"], ["shift", "--gap", "2"]),
        # an abbreviated flag still wins over the config
        ("alpha = 40\n", ["casimir", "--alph", "10"],
         ["casimir", "--alpha", "10"]),
    ], ids=["shift_gap", "abbreviated_flag"])
    def test_config_value_converts_like_the_flag(self, config, flags,
                                                 same_as, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(flags + ["--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(same_as) == 0
        assert from_config == capsys.readouterr().out


class TestDriver:
    @pytest.mark.parametrize("argv", [
        ["casimir", "--alpha", "20", "--out"],
        ["casimir3", "--out"],
        ["coulomb", "--samples", "9", "--summary"],
    ], ids=["csv", "json", "coulomb_summary"])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "out"
        assert main(argv + [str(path)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not path.exists()

    def test_failed_validation_exits_1_and_writes_the_report(
            self, tmp_path, monkeypatch):
        from vacuumlab import validation

        failed = validation.CriterionResult("broken", 0.0, 1.0, 1e-9, False)
        monkeypatch.setattr(validation, "run_validation", lambda: [failed])
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["criteria"] == [failed.as_dict()]


class TestDeltaCommand:
    @pytest.mark.parametrize("shape",
                             ["lambda_triangle", "m_shape", "shifted_pair"])
    def test_rows_match_the_scalar_functions(self, shape, capsys):
        # the table is built from one array call per column; numpy's vector
        # sin/cos may round the transform differently from the scalar calls
        from vacuumlab.deltaseq import (DeltaFamily, DeltaShape, eval_family,
                                        fourier)

        assert main(["delta", "--shape", shape, "--n", "8", "--j", "1",
                     "--a", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        fam = DeltaFamily(DeltaShape(shape), n=8, j=1, a=0.5)
        assert len(rows) == 401
        for k, value, transform in ((float(x) for x in r) for r in rows):
            assert value == eval_family(fam, k)
            assert transform == pytest.approx(
                fourier(fam, k), rel=4 * np.finfo(float).eps, abs=0)


class TestValidateCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run(["validate", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["passed"]
        for entry in payload["criteria"]:
            assert set(entry) == {"criterion", "expected", "measured",
                                  "tolerance", "pass"}
