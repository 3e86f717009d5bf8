import csv
import json
import math
import warnings

import numpy as np
import pytest

from seeded import cases, draw_modes, draws, log_uniform
from vacuumlab import cli
from vacuumlab.cli import build_parser, load_config, main
from vacuumlab.constants import PRESSURE_UNIT_PA
from vacuumlab.coulomb import potential, potential_box
from vacuumlab.errors import ConfigError
from vacuumlab.vacuum import (make_box_profile, make_lorentz_profile,
                              physical_charge)


class TestCasimirCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["casimir", "--alpha", "20", "--gap", "1.0",
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
        # alpha L = 1e9: the quadrature grades one peak, not 1e8 of them
        assert main(["casimir", "--alpha", "1e9", "--gap", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(float(row[2]), rel=2e-14)

    def test_reproducible_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["casimir", "--alpha", "15", "--gap", "0.8", "--out", str(a)])
        main(["casimir", "--alpha", "15", "--gap", "0.8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["casimir", "--sweep", "alpha", "--values", "10,100,1000",
              "--gap", "1.0", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 3
        assert [float(r.split(",")[0]) for r in rows] == [10.0, 100.0, 1000.0]

    def test_empty_sweep_rejected(self, tmp_path):
        rc = main(["casimir", "--sweep", "alpha", "--values", "",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_sweep_parameter_rejected(self, tmp_path):
        rc = main(["casimir", "--sweep", "nonsense", "--values", "1,2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_standalone_sweep_reads_the_commands_config(self, tmp_path):
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("nmax = 3\n")
        out = tmp_path / "sw.csv"
        rc = main(["stats", "--sweep", "N", "--values", "10,20",
                   "--config", str(cfg), "--out", str(out)])
        direct = tmp_path / "direct.csv"
        main(["stats", "--sweep", "N", "--values", "10,20", "--nmax", "3",
              "--out", str(direct)])
        assert rc == 0
        assert out.read_bytes() == direct.read_bytes()


class TestUnsupportedSweep:
    def test_delta_sweep_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["delta", "--sweep", "n", "--values", "2,4,8",
                   "--out", str(out)])
        assert rc == 2
        assert "unrecognized arguments: --sweep n" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command_on_shift_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["shift", "--sweep", "q", "--values", "1,2",
                   "--out", str(out)])
        assert rc == 2
        assert "unrecognized arguments: --sweep q" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_from_config_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep = alpha\nvalues = 1,2\n")
        rc = main(["cavity", "--config", str(cfg),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2


    def test_values_without_sweep_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["casimir", "--alpha", "10", "--values", "1,2,3",
                   "--out", str(out)])
        assert rc == 2
        assert "--sweep is not" in capsys.readouterr().err
        assert not out.exists()

    def test_values_from_config_without_sweep_rejected(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "values.cfg"
        cfg.write_text("values = 1,2\n")
        out = tmp_path / "c.csv"
        rc = main(["casimir", "--config", str(cfg), "--out", str(out)])
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
            ["stats", "--sweep", "N", "--values", "10,20",
             "--config", str(stats_cfg)],
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
        assert main(["coulomb", "--profile", "box", "--k1", "1.0",
                     "--k2", "10000", "--rmin", "0.5", "--rmax", "10",
                     "--samples", "50", "--out", str(out),
                     "--summary", str(summary)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 50
        payload = json.loads(summary.read_text())
        assert payload["sign_change_radius"] == pytest.approx(1.92645,
                                                              abs=1e-3)

    def test_subnormal_rmin_gives_the_origin_limit(self, tmp_path):
        # 1/r overflows at r = 1e-320: the first rows hold the r -> 0 limit
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coulomb", "--rmin", "1e-320", "--samples", "4",
                         "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        values = [float(row.split(",")[1]) for row in rows]
        assert all(np.isfinite(values))
        k1, k2 = 1.0, 100.0                 # the box defaults
        q_ph = physical_charge(1.0, make_box_profile(k1, k2))
        assert values[:3] == [potential_box(q_ph, k1, k2, 0.0)] * 3

    @pytest.mark.parametrize("argv", [
        ["coulomb", "--profile", "lorentz", "--lambda2", "1e-2", "--y0", "1",
         "--rmin", "1e20", "--rmax", "1e21"],
        ["shift", "--profile", "lorentz", "--gap", "1e300"],
        ["coulomb", "--profile", "lorentz", "--y0", "1e-100",
         "--rmax", "1e300"],
    ], ids=["coulomb_far", "shift_far", "coulomb_r_over_y0_overflows"])
    def test_past_the_kernels_argument_limit(self, argv, capsys):
        # past |w| = 2^30 scipy's kve returned NaN with exit 0, and r/y0
        # overflowed on the way there; e^{2 lambda - w} and V are 0 by then
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "shift":
            payload = json.loads(out)
            assert payload["mirror_term"] == 0.0
            assert payload["plane"] == payload["free"]
            assert all(math.isfinite(v) for v in payload.values()
                       if isinstance(v, float))
        else:
            rows = [l.split(",") for l in out.splitlines()
                    if not l.startswith("#")][1:]
            assert [float(r[1]) for r in rows] == [0.0] * len(rows)

    @pytest.mark.parametrize("argv, note", [
        (["--lambda2", "1e-2", "--y0", "1", "--rmin", "3.375e7",
          "--rmax", "1e9"], "no sign flip"),
        (["--lambda2", "1e-300", "--y0", "1e-150", "--rmin", "1e150",
          "--rmax", "1e157"], "potential_lorentz: r/y0"),
    ], ids=["mixed_signed_zeros", "underflowed_everywhere"])
    def test_underflowed_potential_has_no_sign_change(self, argv, note,
                                                      tmp_path, capsys):
        # V is +0.0 or -0.0 on every rung of the bracket search: no sign
        # change, where comparing sign bits had reported the first rung.
        # The second ladder's top rungs put r/y0 past the double range
        # (V was NaN there, with a RuntimeWarning); that is a DomainError
        summary = tmp_path / "s.json"
        assert main(["coulomb", "--profile", "lorentz", *argv,
                     "--samples", "3", "--summary", str(summary)]) == 0
        capsys.readouterr()
        payload = json.loads(summary.read_text())
        assert payload["sign_change_radius"] is None
        assert payload["note"].startswith(note)

    def test_ratio_past_the_double_range_exits_2(self, capsys):
        # r/y0 overflows on every row; the rows printed V = nan with exit 0
        assert main(["coulomb", "--profile", "lorentz", "--lambda2", "1e-300",
                     "--y0", "1e-150", "--rmin", "1e160",
                     "--rmax", "1e165"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: potential_lorentz")

    @pytest.mark.parametrize("argv", [
        ["--rmin", "-1", "--samples", "3"],
        ["--profile", "lorentz", "--q", "1e83", "--rmax", "7.3e-273",
         "--samples", "3"],
        ["--rmin", "10", "--rmax", "1"],
    ], ids=["negative_rmin", "rmax_below_rmin_overflows", "reversed"])
    def test_radii_checked_before_the_grid(self, argv, tmp_path, capsys):
        # checked before the grid and the potential: geomspace's log10 of a
        # negative radius, and V's prefactor at a tiny one, would warn first
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coulomb", *argv, "--out", str(out),
                         "--summary", str(summary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists() and not summary.exists()

    def test_unrepresentable_lorentz_profile_rejected(self, tmp_path, capsys):
        rc = main(["coulomb", "--profile", "lorentz", "--lambda2", "2e5",
                   "--y0", "1", "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "lambda2" in capsys.readouterr().err


class TestStatsCommand:
    def test_pmf_table(self, tmp_path):
        out = tmp_path / "stats.csv"
        main(["stats", "--N", "50", "--nmax", "4", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 5
        total = sum(float(r.split(",")[1]) for r in rows)
        assert 0.99 < total <= 1.0 + 1e-9

    def test_sweep_gap_monotone(self, tmp_path):
        out = tmp_path / "gap.csv"
        main(["stats", "--sweep", "N", "--values", "10,100,1000",
              "--nmax", "5", "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        gaps = [float(r.split(",")[1]) for r in rows]
        assert gaps == sorted(gaps, reverse=True)


class TestShiftAndCavity:
    def test_shift_json(self, tmp_path):
        out = tmp_path / "shift.json"
        main(["shift", "--profile", "box", "--k1", "1", "--k2", "3",
              "--gap", "2.0", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) >= {"free", "plane", "mirror_term"}
        assert payload["plane"] - payload["free"] == pytest.approx(
            payload["mirror_term"])

    @pytest.mark.parametrize("lambda2, y0, gap", [(1e-12, 1e-4, 0.5),
                                                  (1.0, 1e-4, 0.05)])
    def test_shift_mirror_term_is_half_potential(self, tmp_path, lambda2,
                                                 y0, gap):
        # method of images: the plane adds half the averaged potential of
        # the charge at its image distance 2L, here far out in units of y0
        out = tmp_path / "shift.json"
        assert main(["shift", "--profile", "lorentz", "--lambda2",
                     repr(lambda2), "--y0", repr(y0), "--gap", repr(gap),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        prof = make_lorentz_profile(lambda2, y0)
        expect = 0.5 * potential(prof, physical_charge(1.0, prof), 2 * gap)
        assert expect < 0.0
        assert payload["mirror_term"] == pytest.approx(expect, rel=1e-12,
                                                       abs=0.0)

    def test_casimir3_pascal_is_the_unit_times_the_total(self, tmp_path):
        out = tmp_path / "c3.json"
        assert main(["casimir3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["total"] < 0.0
        assert payload["total_pascal"] == payload["total"] * PRESSURE_UNIT_PA

    def test_cavity_table(self, tmp_path):
        out = tmp_path / "res.csv"
        main(["cavity", "--alpha", "1.0", "--gap", "1.0", "--branches", "3",
              "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 6
        assert all(float(r.split(",")[4]) < 1e-8 for r in rows)

    def test_cavity_table_at_small_alpha_L(self, tmp_path):
        # alpha L = 1e-12: the roots on the branches n >= 1 have |k| ~ 64,
        # and every one passes the residual test
        out = tmp_path / "res.csv"
        assert main(["cavity", "--alpha", "1e-12", "--gap", "1",
                     "--branches", "3", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 6
        values = [float(x) for r in rows for x in r.split(",")[2:]]
        assert np.all(np.isfinite(values))

    def test_cavity_roots_at_a_large_gap(self, capsys):
        # alpha L = 965 at L = 1e100: k L is the root at L = 1; the Lambert
        # argument's e^(alpha L/2) times L overflowed, and the residual was
        # NaN (exit 2)
        def roots(argv):
            assert main(["cavity", "--branches", "1", *argv]) == 0
            rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                    if not l.startswith("#")][1:]
            return [complex(float(r[2]), float(r[3])) for r in rows]

        far = roots(["--alpha", "9.65e-98", "--gap", "1e100"])
        near = roots(["--alpha", "965", "--gap", "1"])
        assert [k * 1e100 for k in far] == near


class TestConfig:
    def test_file_seeds_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 40\ngap = 2.0  # separation\n")
        out = tmp_path / "r.csv"
        main(["casimir", "--config", str(cfg), "--gap", "1.0",
              "--out", str(out)])
        row = [l for l in out.read_text().splitlines()
               if l and not l.startswith("#")][1].split(",")
        assert float(row[0]) == 40.0   # from config
        assert float(row[1]) == 1.0    # flag overrides config

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        rc = main(["casimir", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_parse_errors(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_delta_command(self, tmp_path):
        out = tmp_path / "delta.csv"
        main(["delta", "--shape", "shifted_pair", "--n", "4", "--j", "1",
              "--out", str(out)])
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 401

    def test_profile_roundtrip_through_config(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("profile = lorentz\nlambda2 = 0.04\ny0 = 0.5\n"
                       "q = 2.0\nrmin = 0.5\nrmax = 5.0\nsamples = 7\n")
        out = tmp_path / "c.csv"
        main(["coulomb", "--config", str(cfg), "--out", str(out)])
        text = out.read_text()
        assert "lorentz(lambda2=0.04,y0=0.5)" in text
        rows = [l for l in text.splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 7


def _signed(rng):
    """A float of either sign, log-uniform in magnitude in [1e-300, 1e300]."""
    return (-1.0 if rng.integers(2) else 1.0) \
        * log_uniform(rng, 1e-300, 1e300)


def _count(rng, most):
    """An int log-uniform over [1, most], less 1: 0 is one of its values."""
    return int(log_uniform(rng, 1.0, most)) - 1


def _flags(names, values):
    """--name value for each option; a None value leaves its flag out."""
    return [arg for name, value in zip(names, values) if value is not None
            for arg in (f"--{name}", str(value))]


def _draw_casimir3_domain(rng):
    """(lambda2, y0, gap): lambda2 log-uniform in [1e-300, 1], y0 in
    [1e-70, 1e70] and gap/y0 in [10.5, 1e20]."""
    y0 = log_uniform(rng, 1e-70, 1e70)
    return (log_uniform(rng, 1e-300, 1.0), y0,
            y0 * log_uniform(rng, 10.5, 1e20))


_PROFILE = ("q", "k1", "k2", "lambda2", "y0")


def _draw_profile_domain(rng):
    """(profile, (q, k1, k2, lambda2, y0), scale) inside the profile
    constructors' domains, each value log-uniform: q in [1e-3, 1e3], k2 in
    [1e-150, 1e150] with k1/k2 in [1e-10, 0.99], lambda2 in [1e-300, 1e5],
    y0 in [1e-150, 1e150].  The length scale is 1/k2 or y0."""
    profile = ("box", "lorentz")[rng.integers(2)]
    k2 = log_uniform(rng, 1e-150, 1e150)
    floats = (log_uniform(rng, 1e-3, 1e3), k2 * log_uniform(rng, 1e-10, 0.99),
              k2, log_uniform(rng, 1e-300, 1e5),
              log_uniform(rng, 1e-150, 1e150))
    return profile, floats, 1.0 / k2 if profile == "box" else floats[4]


def _draw_coulomb_domain(rng):
    """(profile, profile floats + (rmin, rmax), samples): rmin/scale in
    [1e-6, 1e6], rmax/rmin in [1.01, 1e6], samples in [1, 50]."""
    profile, floats, scale = _draw_profile_domain(rng)
    rmin = scale * log_uniform(rng, 1e-6, 1e6)
    return (profile, floats + (rmin, rmin * log_uniform(rng, 1.01, 1e6)),
            int(rng.integers(1, 50, endpoint=True)))


def _draw_shift_domain(rng):
    """(profile, profile floats + (gap,)): gap/scale in [1e-3, 1e6], or no
    gap (free space) with probability 1/2."""
    profile, floats, scale = _draw_profile_domain(rng)
    gap = None if rng.integers(2) else scale * log_uniform(rng, 1e-3, 1e6)
    return profile, floats + (gap,)


def _draw_cavity_domain(rng):
    """(alpha, gap, branches): gap in [1e-150, 1e150], alpha gap in
    [1e-140, 1e3] with alpha >= 1e-150, branches in [1, 20]."""
    gap = log_uniform(rng, 1e-150, 1e150)
    return (log_uniform(rng, max(1e-140, 1e-150 * gap), 1e3) / gap, gap,
            int(rng.integers(1, 20, endpoint=True)))


_DELTA_SHAPES = ("lambda_triangle", "m_shape", "shifted_pair")


def _draw_delta_domain(rng):
    """(shape, (n, j, samples), (a, kmin, kmax)): n in [1, 1e12], j in
    [0, 1e6], samples in [1, 50], a in [1e-300, 1e300], kmin and kmax of
    either sign over [1e-300, 1e300]."""
    return (_DELTA_SHAPES[rng.integers(3)],
            (_count(rng, 1e12) + 1, _count(rng, 1e6),
             int(rng.integers(1, 50, endpoint=True))),
            (log_uniform(rng, 1e-300, 1e300), _signed(rng), _signed(rng)))


def _draw_casimir_domain(rng):
    """(alpha, gap): gap in [1e-150, 1e150], alpha gap in [1e-70, 1e76]."""
    gap = log_uniform(rng, 1e-150, 1e150)
    return log_uniform(rng, 1e-70, 1e76) / gap, gap


def _numbers(value):
    """Every number in a JSON value, at any depth; text and null are not."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if type(value) in (int, float) else []


def _written_numbers(text):
    """Every number in a CSV table or a JSON payload that main wrote: each
    cell of a CSV column but the text columns sign and profile_tag.  Every
    CSV row has as many fields as the header, as csv.reader reads them."""
    if not text.startswith("#"):
        return _numbers(json.loads(text))
    header, *rows = csv.reader(l for l in text.splitlines()
                               if not l.startswith("#"))
    assert all(len(row) == len(header) for row in rows)
    return [float(v) for row in rows for c, v in zip(header, row)
            if c not in ("sign", "profile_tag")]


def _exits_0_with_finite_numbers_or_2(argv, capsys, *paths):
    """main(argv) returns 0 or 2 and raises nothing.  On 2 it wrote nothing
    and one error: line; on 0 every number it wrote, to stdout and to
    paths, is finite.  Returns stdout."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == "" and not any(p.exists() for p in paths)
        assert err.startswith("error:") and err.count("\n") == 1
        return out
    for text in [out, *(p.read_text() for p in paths)]:
        assert all(math.isfinite(v) for v in _written_numbers(text))
    return out


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
    # outside resonance_roots' and pressure_3p1's domains, checked before
    # any arithmetic: each of these overflowed or divided by zero first
    "cavity_alpha_past_domain": (["cavity", "--alpha", "1e300", "--gap", "1"],
                                 None),
    "cavity_gap_past_domain": (["cavity", "--alpha", "1", "--gap", "1e300"],
                               None),
    "cavity_alpha_below_domain": (
        ["cavity", "--alpha", "1e-300", "--gap", "1"], None),
    "cavity_alpha_negative": (["cavity", "--alpha", "-1"], None),
    "cavity_gap_negative": (["cavity", "--gap", "-1"], None),
    # 1.5 a, a factor of the M profile's inner piece, is no double
    "delta_a_past_double_range": (
        ["delta", "--shape", "m_shape", "--a", "1.3e308"], None),
    # n^2 is no double: the profile's int-to-float conversion raised
    # OverflowError, a traceback
    "delta_n_square_past_double_range": (["delta", "--n", "1" + "0" * 160],
                                         None),
    # j/n is no double: the int division raised OverflowError
    "delta_j_past_double_range": (
        ["delta", "--shape", "shifted_pair", "--j", "1" + "0" * 400], None),
    # the shifted pair's phase j x overflowed, with a RuntimeWarning
    "delta_phase_past_double_range": (
        ["delta", "--shape", "shifted_pair", "--j", "1000",
         "--kmax", "1e306"], None),
    "casimir3_y0_below_domain": (
        ["casimir3", "--lambda2", "1e-300", "--y0", "1e-300", "--gap", "1"],
        None),
    "casimir3_gap_past_domain": (
        ["casimir3", "--lambda2", "1e-12", "--y0", "1e-4", "--gap", "1e300"],
        None),
    # x = 0.04: the mode sum cancels against the continuum past 1e9 times
    # the total, which came out -4.5e-13 where the true value is positive
    "casimir3_cancellation_past_rounding": (
        ["casimir3", "--lambda2", "3", "--y0", "0.01",
         "--gap", "0.7853981633974483"], None),
    # outside the profile constructors' domains, checked before any
    # arithmetic: y0^2 overflowed, k2^2 - k1^2 underflowed to 0
    "casimir3_y0_past_domain": (
        ["casimir3", "--lambda2", "1e-12", "--y0", "1e200", "--gap", "1e300"],
        None),
    "coulomb_lorentz_y0_past_domain": (
        ["coulomb", "--profile", "lorentz", "--y0", "1e300"], None),
    "shift_box_below_domain": (["shift", "--k1", "1e-200", "--k2", "2e-200"],
                               None),
    # q^2 or q_ph^2 out of double range: each overflowed first
    "coulomb_q_past_double_range": (["coulomb", "--q", "1e200"], None),
    "shift_q_past_double_range": (["shift", "--q", "1e300"], None),
    # e^(-2 lambda) underflows, and the residual's factor overflowed
    "coulomb_lorentz_lambda2_past_domain": (
        ["coulomb", "--profile", "lorentz", "--lambda2", "1e236"], None),
    # alpha L underflows; the series' grid divided by it
    "casimir_alpha_L_underflows": (
        ["casimir", "--alpha", "1.1e-289", "--gap", "1.1e-91"], None),
    # p(0, N) = e^-800 is no normal double
    "stats_p0_below_normal_range": (
        ["stats", "--N", "1", "--probs", "1", "--intensities", "800"], None),
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
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_unrepresentable_pressure_prints_only_the_error(self, capsys):
        # no numpy warning on the way to the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["casimir", "--alpha", "1e300", "--gap", "1e-300"]) \
                == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("N, modes, nmax", cases(
        [# three modes past the old occupation-pattern cap
         (10 ** 4, ([0.2, 0.3, 0.5], [0.4, 0.9, 0.1]), 8),
         # one mode's e^-w underflows, the other's does not
         (1, ([1.0, 1.0], [1e3, 1e-3]), 40),
         # p(0, N) = e^-800 is no normal double: exit 2
         (1, ([1.0], [800.0]), 3),
         # the ends of the ranges
         (1, ([1e-3], [1e-3]), 0), (10 ** 6, ([1.0] * 5, [1e3] * 5), 40)],
        draws(1415, 200, lambda rng: (
            int(rng.integers(1, 10 ** 6, endpoint=True)),
            draw_modes(rng, 1e3), int(rng.integers(0, 40, endpoint=True))))))
    def test_stats_exits_0_with_finite_numbers_or_2(self, N, modes, nmax,
                                                    capsys):
        # over the accepted range: N up to 1e6, 1 to 5 modes, intensities
        # log-uniform in [1e-3, 1e3] or 0, nmax <= 40
        weights, intensities = modes
        total = math.fsum(weights)
        out = _exits_0_with_finite_numbers_or_2([
            "stats", "--N", str(N), "--nmax", str(nmax),
            "--probs", ",".join(repr(w / total) for w in weights),
            "--intensities", ",".join(map(repr, intensities))], capsys)
        if out:
            rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
            assert len(rows) == nmax + 1

    @pytest.mark.parametrize("lambda2, y0, gap", cases(
        [# the analytic path at a Planck-scale y0 and a vast gap
         (1e-49, 6.19e-4, 6.19e22),
         # the fine-spacing path past its lambda^2 <= 1e-6: exit 2
         (1e-4, 1e-4, 1.0),
         # the ends of the ranges
         (1e-300, 1e-300, 1e-300), (-1e300, -1e300, -1e300),
         (1e-300, 1e-70, 1.05e-69), (1.0, 1e70, 1e90)],
        draws(1416, 100, lambda rng: tuple(_signed(rng) for _ in range(3)))
        + draws(1417, 100, _draw_casimir3_domain)))
    def test_casimir3_exits_0_with_finite_numbers_or_2(self, lambda2, y0,
                                                       gap, capsys):
        # half the draws over +-[1e-300, 1e300], half inside the accepted
        # domain: lambda^2 <= 1, y0 in [1e-70, 1e70], L/y0 in [10.5, 1e20]
        _exits_0_with_finite_numbers_or_2(
            ["casimir3",
             *_flags(("lambda2", "y0", "gap"), (lambda2, y0, gap))], capsys)

    @pytest.mark.parametrize("profile, floats, samples", cases(
        [# rmax = inf: argparse ended the run with SystemExit
         ("box", (1.0, 1.0, 100.0, 1e-6, 1e-3, 0.1, math.inf), 200),
         # the ends of the ranges
         ("box", (1e-300,) * 7, -1), ("lorentz", (-1e300,) * 7, 50),
         ("box", (1e-3, 1e-160, 1e-150, 1e-300, 1e-150, 1e144, 1.01e144), 1),
         ("lorentz", (1e3, 9.9e149, 1e150, 1e5, 1e150, 1e156, 1e162), 50)],
        draws(1418, 100, lambda rng: (
            ("box", "lorentz")[rng.integers(2)],
            tuple(_signed(rng) for _ in range(7)),
            int(rng.integers(-1, 50, endpoint=True))))
        + draws(1419, 100, _draw_coulomb_domain)))
    def test_coulomb_exits_0_with_finite_numbers_or_2(self, profile, floats,
                                                      samples, tmp_path,
                                                      capsys):
        # the summary's sign-change radius is null, with a note, where the
        # search finds none
        summary = tmp_path / "s.json"
        _exits_0_with_finite_numbers_or_2(
            ["coulomb", "--profile", profile, "--samples", str(samples),
             "--summary", str(summary),
             *_flags(_PROFILE + ("rmin", "rmax"), floats)], capsys, summary)

    @pytest.mark.parametrize("profile, floats", cases(
        [# q_ph^2/(pi^2 r) overflowed at r = 2 gap: mirror_term was -inf
         ("lorentz", (4.36e32, 1.0, 100.0, 7672.75, 1.08e7, 1.6e-268)),
         # r/y0 underflowed to 0, and inf * 0 gave NaN
         ("lorentz", (1665.0, 1.0, 100.0, 3.8e-3, 9.1e89, 2.2e-298)),
         # the ends of the ranges
         ("box", (1e-300,) * 6), ("lorentz", (-1e300,) * 6),
         ("box", (1e-3, 1e-160, 1e-150, 1e-300, 1e-150, 1e147)),
         ("lorentz", (1e3, 9.9e149, 1e150, 1e5, 1e150, 1e156))],
        draws(1420, 100, lambda rng: (
            ("box", "lorentz")[rng.integers(2)],
            tuple(_signed(rng) for _ in range(6))))
        + draws(1421, 100, _draw_shift_domain)))
    def test_shift_exits_0_with_finite_numbers_or_2(self, profile, floats,
                                                    capsys):
        _exits_0_with_finite_numbers_or_2(
            ["shift", "--profile", profile, *_flags(_PROFILE + ("gap",),
                                                     floats)], capsys)

    @pytest.mark.parametrize("alpha, gap, branches", cases(
        [# the ends of the ranges
         (1e-300, 1e-300, -1), (-1e300, -1e300, 20), (1e10, 1e-150, 1),
         (1e-147, 1e150, 20)],
        draws(1422, 100, lambda rng: (
            _signed(rng), _signed(rng),
            int(rng.integers(-1, 20, endpoint=True))))
        + draws(1423, 100, _draw_cavity_domain)))
    def test_cavity_exits_0_with_finite_numbers_or_2(self, alpha, gap,
                                                     branches, capsys):
        _exits_0_with_finite_numbers_or_2(
            ["cavity", "--branches", str(branches),
             *_flags(("alpha", "gap"), (alpha, gap))], capsys)

    @pytest.mark.parametrize("shape, counts, floats", cases(
        [# the ends of the ranges
         ("lambda_triangle", (0, 0, -1), (1e-300,) * 3),
         ("shifted_pair", (10 ** 18, 10 ** 18, 50), (-1e300,) * 3),
         ("m_shape", (1, 0, 1), (1e-300, -1e300, 1e300)),
         ("shifted_pair", (10 ** 12, 10 ** 6, 50), (1e300, 1e-300, -1e-300))],
        draws(1424, 100, lambda rng: (
            _DELTA_SHAPES[rng.integers(3)],
            (_count(rng, 1e18), _count(rng, 1e18),
             int(rng.integers(-1, 50, endpoint=True))),
            tuple(_signed(rng) for _ in range(3))))
        + draws(1425, 100, _draw_delta_domain)))
    def test_delta_exits_0_with_finite_numbers_or_2(self, shape, counts,
                                                    floats, capsys):
        _exits_0_with_finite_numbers_or_2(
            ["delta", "--shape", shape,
             *_flags(("n", "j", "samples", "a", "kmin", "kmax"),
                     counts + floats)], capsys)

    @pytest.mark.parametrize("alpha, gap", cases(
        [# the ends of the ranges
         (1e-300, 1e-300), (-1e300, -1e300), (1e80, 1e-150),
         (1e-74, 1e150)],
        draws(1426, 100, lambda rng: (_signed(rng), _signed(rng)))
        + draws(1427, 100, _draw_casimir_domain)))
    def test_casimir_exits_0_with_finite_numbers_or_2(self, alpha, gap,
                                                      capsys):
        _exits_0_with_finite_numbers_or_2(
            ["casimir", *_flags(("alpha", "gap"), (alpha, gap))], capsys)

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
    @pytest.mark.parametrize("argv", [["--help"], ["casimir", "--help"],
                                      ["--version"]],
                             ids=["help", "casimir_help", "version"])
    def test_help_and_version_exit_0(self, argv, capsys):
        # the only runs that leave main through SystemExit
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0
        assert out and err == ""

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

    def test_huge_arguments_without_warnings(self, capsys):
        # (sin u/u)^2 at u up to 1e227: no branch squares a u it discards
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["delta", "--shape", "shifted_pair", "--a", "8.7e107",
                         "--kmin", "1.1e112", "--kmax", "3.3e227"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 401
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    @pytest.mark.parametrize("argv", [
        ["--kmin=-1e307", "--kmax", "1e307", "--samples", "3"],
        ["--shape", "shifted_pair", "--j", "3", "--kmin=-1e307",
         "--kmax", "1e307", "--samples", "3"],
        ["--n", "1000000000", "--kmin=-1e300", "--kmax", "1e300",
         "--samples", "3"],
        ["--shape", "m_shape", "--kmin=-1e306", "--kmax", "1e306",
         "--samples", "3"],
        ["--shape", "m_shape", "--a", "1e307", "--samples", "5"]])
    def test_far_outside_the_support_without_warnings(self, argv, capsys):
        # every profile piece is evaluated on |k| clipped at its own end,
        # so none overflows where it is thrown away
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["delta", *argv]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")][1:]
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_m_shape_huge_height_transform_at_the_origin(self, capsys):
        # the transform at k = 0 is 1/(2 pi) for every height; it printed 0
        assert main(["delta", "--shape", "m_shape", "--a", "1e307",
                     "--samples", "5"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")][1:]
        assert float(rows[2][0]) == 0.0
        assert float(rows[2][2]) == pytest.approx(1 / (2 * math.pi),
                                                  rel=1e-15)


class TestNegativeValues:
    def test_exponent_form_after_a_space(self, tmp_path, capsys):
        assert main(["coulomb", "--q", "-1e-3", "--samples", "2"]) == 0
        assert "q=-0.001 " in capsys.readouterr().out
        assert main(["delta", "--kmin", "-5E-1", "--samples", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-2].startswith("-0.5,")

    def test_sweep_values_starting_negative(self, capsys):
        # parsed: the error is pressure_1p1_series' domain, not argparse's
        assert main(["casimir", "--sweep", "alpha", "--values",
                     "-1e-3,2"]) == 2
        assert "pressure_1p1_series requires" in capsys.readouterr().err

    def test_dash_without_a_digit_is_an_option(self, capsys):
        assert main(["coulomb", "--q", "-x"]) == 2
        assert "expected one argument" in capsys.readouterr().err


class TestValidateCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["validate", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["passed"]
        for entry in payload["criteria"]:
            assert set(entry) == {"criterion", "expected", "measured",
                                  "tolerance", "pass"}
            assert type(entry["expected"]) is float
            assert type(entry["measured"]) is float


class TestCsvWriter:
    @staticmethod
    def written(capsys, rows):
        cli._write(None, cli.Table(["note"], ["a", "b"], rows))
        return capsys.readouterr().out.splitlines()[3:]

    def test_lines_match_per_value_formatting(self, capsys):
        nan, inf = float("nan"), float("inf")
        rows = [
            # float, int, str, float, text with a comma or a quote
            (0.1, 10 ** 20, "box", 1.5, "a,b"),
            (nan, -3, "", -0.0, 'say "x"'),
            (inf, 0, "a b", 5e-324, '"'),
            (-inf, 1, "lorentz", 1e300, "box(k1=1,k2=100)"),
            (1.7976931348623157e308, True, "-", 2.5e-8, ","),
        ]
        expect = [",".join(format(v, ".17g") if isinstance(v, float)
                           else str(v) for v in row[:4]) for row in rows]
        quoted = ['"a,b"', '"say ""x"""', '""""', '"box(k1=1,k2=100)"',
                  '","']
        assert self.written(capsys, rows) == [
            f"{line},{cell}" for line, cell in zip(expect, quoted)]
        assert expect[0] == "0.10000000000000001,100000000000000000000," \
                            "box,1.5"
        assert [line[4] for line in csv.reader(self.written(capsys, rows))] \
            == [row[4] for row in rows]

    @pytest.mark.parametrize("tag", ["box", "box(k1=1,k2=100)", "100%",
                                     '"%s", 50%'])
    def test_constant_text_column(self, capsys, tag):
        # one text throughout, as coulomb's tag column: quoted as any other
        # cell, and a % in it stays a %
        rows = [(0.5, tag), (2.0, tag), (1e300, tag)]
        lines = self.written(capsys, rows)
        assert [row[1] for row in csv.reader(lines)] == [tag] * 3
        assert lines[0] == f"0.5,{cli._quoted(tag)}"

    @pytest.mark.parametrize("other", [
        "x", 7, 10 ** 20, 1 + 2j, None, True, np.float64(0.1)],
        ids=["str", "int", "bigint", "complex", "None", "bool", "float64"])
    def test_mixed_column_raises(self, capsys, other):
        # no CLI table mixes floats with other types in one column
        with pytest.raises(ValueError):
            cli._write(None, cli.Table([], ["a", "b"],
                                       [(1.0, 2.0), (3.0, other)]))
        assert capsys.readouterr().out == ""

    def test_empty_table_has_no_data_lines(self, capsys):
        assert self.written(capsys, []) == []

    def test_ragged_row_raises(self, capsys):
        with pytest.raises(ValueError):
            cli._write(None, cli.Table([], ["a", "b"],
                                       [(1.0, 2.0), (3.0,), (4.0, 5.0)]))
        assert capsys.readouterr().out == ""


# CSV text of small runs as the per-value formatter wrote it; any change to
# an artifact's bytes fails here
GOLDEN_CSV = {
    ("coulomb", "--samples", "5"): (
        "# vacuumlab 0.1.0\n"
        "# V(r) = -q_ph^2/(4 pi r) * (2/pi)(Si(k2 r) - Si(k1 r)) "
        "for the box shell\n"
        "# V(r) = q_ph^2 e^{2 lam}/(pi^2 r) Im K0(2 lam sqrt(1 + i r/y0)) "
        "for the lorentz profile\n"
        "# q=1.0 q_ph=0.08886210197934946\n"
        "r,V,profile_tag\n"
        "0.10000000000000001,-0.0062342359560379895,\"box(k1=1,k2=100)\"\n"
        "0.56234132519034907,-0.00071240660984403395,\"box(k1=1,k2=100)\"\n"
        "3.1622776601683795,3.5366913622240544e-05,\"box(k1=1,k2=100)\"\n"
        "17.782794100389228,-5.335285770448007e-07,\"box(k1=1,k2=100)\"\n"
        "100,-3.466778076569938e-08,\"box(k1=1,k2=100)\"\n"),
    ("coulomb", "--samples", "5", "--profile", "lorentz"): (
        "# vacuumlab 0.1.0\n"
        "# V(r) = -q_ph^2/(4 pi r) * (2/pi)(Si(k2 r) - Si(k1 r)) "
        "for the box shell\n"
        "# V(r) = q_ph^2 e^{2 lam}/(pi^2 r) Im K0(2 lam sqrt(1 + i r/y0)) "
        "for the lorentz profile\n"
        "# q=1.0 q_ph=0.006276908400850887\n"
        "r,V,profile_tag\n"
        "0.10000000000000001,-3.1195883806589988e-05,"
        "\"lorentz(lambda2=1e-06,y0=0.001)\"\n"
        "0.56234132519034907,-5.5636577382813712e-06,"
        "\"lorentz(lambda2=1e-06,y0=0.001)\"\n"
        "3.1622776601683795,-9.8005425103126664e-07,"
        "\"lorentz(lambda2=1e-06,y0=0.001)\"\n"
        "17.782794100389228,-1.6689471444077748e-07,"
        "\"lorentz(lambda2=1e-06,y0=0.001)\"\n"
        "100,-2.5043612253775814e-08,\"lorentz(lambda2=1e-06,y0=0.001)\"\n"),
    ("stats", "--nmax", "3"): (
        "# vacuumlab 0.1.0\n"
        "# p_renyi: (1/n!) d^n/dl^n (sum p e^{l w/N})^N at l=-1\n"
        "# p_shannon: Poisson with parameter sum p w\n"
        "# N=100 probs=[0.35, 0.65] intensities=[0.7, 0.3]\n"
        "n,p_renyi,p_shannon,gap\n"
        "0,0.64415359942758321,0.64403642108314141,0.00011717834444180397\n"
        "1,0.28319325274898571,0.28337602527658218,-0.00018277252759646423\n"
        "2,0.062368100337845303,0.062342725560848078,2.5374776997225124e-05\n"
        "3,0.0091741251713336087,0.0091435997489243831,"
        "3.052542240922565e-05\n"),
    # the (0, -) root correctly rounded: 50-digit mpmath agrees to the bit
    ("cavity", "--branches", "1"): (
        "# vacuumlab 0.1.0\n"
        "# roots of k^2 + 2 i alpha k + (exp(ikL) - 1) alpha^2 = 0\n"
        "# alpha=1.0 L=1.0\n"
        "branch,sign,re_k,im_k,residual\n"
        "0,+,0,-0,0\n"
        "0,-,-2.4285478120983641,-1.9044828738912079,8.8817841970012523e-16\n"),
    ("delta", "--samples", "5"): (
        "# vacuumlab 0.1.0\n"
        "# family lambda_triangle n=8 j=0 a=0.0\n"
        "# value: piecewise-linear profile delta_n(k)\n"
        "# transform: (1/2pi) int delta_n(k') exp(i k' x) dk' at x=k\n"
        "k,value,transform\n"
        "-2,0,0.15832773611222947\n"
        "-1,0,0.15894781799682109\n"
        "0,8,0.15915494309189535\n"
        "1,0,0.15894781799682109\n"
        "2,0,0.15832773611222947\n"),
    # both 1+1 routes, p_series and p_quad, to the bit
    ("casimir", "--sweep", "alpha", "--values", "10,100,1000,10000"): (
        "# vacuumlab 0.1.0\n"
        "# p_series: (1/2pi) sum_n int k r^n e^{2nikL} dk + c.c.\n"
        "# p_quad:   (1/2pi) int k [(1-|r|^2)/|1-r e^{2ikL}|^2 - 1] dk\n"
        "# p_comb16: -pi/(16 L^2) comb endpoint at kappa = pi/(2L)\n"
        "# p_em24:   -pi/(24 L^2) Euler-Maclaurin endpoint\n"
        "alpha,L,p_series,p_quad,p_comb16,p_em24\n"
        "10,1,-0.093348335185337347,-0.093348335185337417,"
        "-0.19634954084936207,-0.1308996938995747\n"
        "100,1,-0.1258685590413936,-0.12586855904139374,"
        "-0.19634954084936207,-0.1308996938995747\n"
        "1000,1,-0.13037822975877897,-0.130378229758779,"
        "-0.19634954084936207,-0.1308996938995747\n"
        "10000,1,-0.13084735545922446,-0.13084735545922466,"
        "-0.19634954084936207,-0.1308996938995747\n"),
}


@pytest.mark.parametrize("argv", list(GOLDEN_CSV), ids=[
    "coulomb_box", "coulomb_lorentz", "stats", "cavity", "delta",
    "casimir_alpha_sweep"])
def test_golden_csv_bytes(argv, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == GOLDEN_CSV[argv]


# --summary JSON of small runs as the array-only potentials wrote it; the
# sign_change_radius digits pin the root search's path to the bit
GOLDEN_SUMMARY = {
    ("coulomb", "--samples", "5"): (
        '{\n  "profile": "box(k1=1,k2=100)",\n  "q": 1.0,\n'
        '  "q_ph": 0.08886210197934946,\n'
        '  "sign_change_radius": 1.9293627333504866,\n'
        '  "sign_change_radius_au": 2.084482987625432e-46\n}\n'),
    ("coulomb", "--samples", "5", "--profile", "lorentz"): (
        '{\n  "profile": "lorentz(lambda2=1e-06,y0=0.001)",\n  "q": 1.0,\n'
        '  "q_ph": 0.006276908400850887,\n'
        '  "sign_change_radius": 3831.1567840147086,\n'
        '  "sign_change_radius_au": 4.1391807777566805e-43\n}\n'),
    # the flip lies past the bracket search's first slice of 32 steps
    ("coulomb", "--samples", "5", "--profile", "lorentz", "--rmin", "1e-4"): (
        '{\n  "profile": "lorentz(lambda2=1e-06,y0=0.001)",\n  "q": 1.0,\n'
        '  "q_ph": 0.006276908400850887,\n'
        '  "sign_change_radius": 3831.15678401357,\n'
        '  "sign_change_radius_au": 4.139180777755451e-43\n}\n'),
}


@pytest.mark.parametrize("argv", list(GOLDEN_SUMMARY), ids=[
    "box", "lorentz", "lorentz_late_flip"])
def test_golden_summary_bytes(argv, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    assert main([*argv, "--summary", str(summary)]) == 0
    capsys.readouterr()
    assert summary.read_text() == GOLDEN_SUMMARY[argv]
