"""Command-line front end.

Subcommands run named experiments and write deterministic CSV/JSON
artifacts; `#`-prefixed header rows document each numeric column by its
defining formula.  Each subcommand maps its parsed options to its outputs;
`main` alone parses, applies the config file, sweeps, writes and reports
errors.  A flat key=value config file can seed any run; command-line flags,
even abbreviated, override file values.  Only `casimir` and `stats` take
--sweep, one of their numeric options, and --values, a comma-separated list
with one output row per value.  Flag, config and sweep values are converted
by the type their option declares.  All bad input exits 2 with one `error:`
line, no usage text and nothing written: a value that does not convert, a
float that is not finite (nan, inf), a count below its least value (1 for
--samples, --branches, --N and --n; 0 for --nmax and --j), an unknown flag,
choice or config key, --values without --sweep, and a value outside a
route's domain; only --help and --version leave through SystemExit.  A
negative value may follow its flag after a space in any form, -0.5, -.5 or
-5e-1 (so may a --values list that starts with one); a value that starts
with a dash and no digit, such as -x, is read as an option.

    vacuumlab casimir --alpha 100 --gap 1.0 --out out.csv
    vacuumlab casimir --sweep alpha --values 10,100,1000 --out sweep.csv
    vacuumlab coulomb --profile lorentz --lambda2 1e-49 --y0 1e-6 \
        --rmin 0.1 --rmax 100 --out curve.csv
    vacuumlab validate --out report.json
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, casimir, cavity, coulomb, oscillator, vacuum
from .constants import AU_KM, PLANCK_LENGTH_KM, PRESSURE_UNIT_PA
from .errors import ConfigError, IoError, VacuumlabError


class Table(NamedTuple):
    """A CSV output: `#` comment lines, the header row and the data rows."""

    comments: list[str]
    columns: list[str]
    rows: list[tuple]


def _quoted(text: str) -> str:
    """A text cell as RFC 4180 has it: in double quotes, with each quote
    doubled, where it holds a comma or a quote; as it is otherwise."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows: list[tuple]) -> str:
    """The rows as CSV lines, each ending in a newline.  A column of floats
    is written by %.17g, which gives the bytes of format(x, ".17g") for
    every float, and a column without floats as str(x), quoted
    (_quoted) once per distinct cell; a column that mixes floats with
    other types, or a ragged row, raises ValueError."""
    specs, columns = [], []
    for column in zip(*rows, strict=True):
        types = set(map(type, column))
        if types == {float}:
            specs.append("%.17g")
        elif any(issubclass(t, float) for t in types):
            raise ValueError(f"a CSV column mixes floats with {types}")
        else:
            specs.append("%s")
            texts = list(map(str, column))
            quoted = {text: _quoted(text) for text in set(texts)}
            column = list(map(quoted.__getitem__, texts))
        columns.append(column)
    line = ",".join(specs) + "\n"
    return (line * len(rows)) \
        % tuple(itertools.chain.from_iterable(zip(*columns)))


def _write(path: str | None, output: Table | dict):
    """A Table as CSV or a payload as JSON, to path or else to stdout."""
    if isinstance(output, Table):
        lines = [f"# vacuumlab {__version__}"]
        lines += [f"# {c}" for c in output.comments]
        lines.append(",".join(output.columns))
        text = "\n".join(lines) + "\n" + _csv_lines(output.rows)
    else:
        text = json.dumps(output, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _finite(text: str) -> float:
    """The type of every float option: a float that is neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _count(minimum: int):
    """The type of a count option: an int no smaller than minimum."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{text!r} is less than {minimum}")
        return value
    return count


_positive = _count(1)
_nonnegative = _count(0)


def _finite_list(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",")]


def _profile_from_args(args) -> vacuum.VacuumProfile:
    if args.profile == "box":
        return vacuum.make_box_profile(args.k1, args.k2)
    return vacuum.make_lorentz_profile(args.lambda2, args.y0)


# ------------------------------------------------------------- subcommands
# Each returns its outputs as (path, Table or JSON payload) pairs, path None
# for stdout; a sweepable one also has a row function in _SWEEPS.

def cmd_delta(args):
    from .deltaseq import DeltaFamily, DeltaShape, eval_family, fourier

    shape = DeltaShape(args.shape)
    fam = DeltaFamily(shape, n=args.n, j=args.j, a=args.a)
    ks = np.linspace(args.kmin, args.kmax, args.samples)
    rows = list(zip(ks.tolist(), eval_family(fam, ks).tolist(),
                    fourier(fam, ks).tolist()))
    return [(args.out, Table(
        [f"family {shape.value} n={args.n} j={args.j} a={args.a}",
         "value: piecewise-linear profile delta_n(k)",
         "transform: (1/2pi) int delta_n(k') exp(i k' x) dk' at x=k"],
        ["k", "value", "transform"], rows))]


def cmd_coulomb(args):
    if not 0 < args.rmin < args.rmax:
        raise ConfigError("radii must satisfy 0 < --rmin < --rmax")
    profile = _profile_from_args(args)
    q_ph = vacuum.physical_charge(args.q, profile)
    rs = np.geomspace(args.rmin, args.rmax, args.samples)
    v = coulomb.potential(profile, q_ph, rs)
    rows = list(zip(rs.tolist(), v.tolist(), [profile.tag] * len(rs)))
    outputs = [(args.out, Table(
        ["V(r) = -q_ph^2/(4 pi r) * (2/pi)(Si(k2 r) - Si(k1 r)) "
         "for the box shell",
         "V(r) = q_ph^2 e^{2 lam}/(pi^2 r) Im K0(2 lam "
         "sqrt(1 + i r/y0)) for the lorentz profile",
         f"q={args.q} q_ph={q_ph}"],
        ["r", "V", "profile_tag"], rows))]
    if not args.summary:
        return outputs

    summary = {"profile": profile.tag, "q": args.q, "q_ph": q_ph}
    try:
        pot = lambda r: coulomb.potential(profile, q_ph, r)
        bracket = coulomb.expand_bracket(pot, args.rmin)
        r0 = coulomb.sign_change_radius(pot, bracket)
        summary["sign_change_radius"] = r0
        summary["sign_change_radius_au"] = r0 * PLANCK_LENGTH_KM / AU_KM
    except VacuumlabError as exc:
        summary["sign_change_radius"] = None
        summary["note"] = str(exc)
    return outputs + [(args.summary, summary)]


def cmd_cavity(args):
    rows = []
    branches = range(0, args.branches)
    roots = cavity.resonance_roots(args.alpha, args.gap, branches=branches)
    for i, root in enumerate(roots):
        n, sign = divmod(i, 2)
        resid = abs(cavity.resonance_equation(root, args.alpha, args.gap))
        rows.append((n, "+" if sign == 0 else "-", root.real, root.imag,
                     resid))
    return [(args.out, Table(
        ["roots of k^2 + 2 i alpha k + (exp(ikL) - 1) alpha^2 = 0",
         f"alpha={args.alpha} L={args.gap}"],
        ["branch", "sign", "re_k", "im_k", "residual"], rows))]


def _casimir_row(a):
    p_series = casimir.pressure_1p1_series(a.alpha, a.gap)
    p_quad = casimir.pressure_1p1_quad(a.alpha, a.gap)
    p_comb = casimir.pressure_dirichlet_comb(a.gap, math.pi / (2 * a.gap), 50)
    p_em = casimir.pressure_euler_maclaurin(a.gap)
    return (a.alpha, a.gap, p_series, p_quad, p_comb, p_em)


def cmd_casimir(args):
    row, comments, columns = _SWEEPS["casimir"]
    return [(args.out, Table(comments, columns, [row(args)]))]


def cmd_casimir3(args):
    profile = vacuum.make_lorentz_profile(args.lambda2, args.y0)
    bd = casimir.pressure_3p1(profile.Z, args.lambda2, args.y0, args.gap)
    return [(args.out, {
        "total": bd.total,
        "leading": bd.leading,
        "y0_corrections": bd.y0_corrections,
        "lambda2_correction": bd.lambda2_correction,
        "terms_used": bd.terms_used,
        "total_pascal": bd.total * PRESSURE_UNIT_PA,
        "parameters": {"lambda2": args.lambda2, "y0": args.y0, "L": args.gap,
                       "Z": profile.Z},
    })]


def _pmf_rows(a):
    """(n, p_renyi, p_shannon, gap) for n = 0..nmax."""
    ns = range(a.nmax + 1)
    renyi = oscillator.renyi_poisson_pmf(a.probs, a.intensities, a.N,
                                         ns).tolist()
    rows = []
    for n, pr in zip(ns, renyi):
        ps = oscillator.shannon_poisson_pmf(a.probs, a.intensities, n)
        rows.append((n, pr, ps, pr - ps))
    return rows


def _shannon_gap_row(a):
    return (a.N, max((abs(gap) for *_, gap in _pmf_rows(a)), default=0.0))


def cmd_stats(args):
    return [(args.out, Table(
        ["p_renyi: (1/n!) d^n/dl^n (sum p e^{l w/N})^N at l=-1",
         "p_shannon: Poisson with parameter sum p w",
         f"N={args.N} probs={args.probs} intensities={args.intensities}"],
        ["n", "p_renyi", "p_shannon", "gap"], _pmf_rows(args)))]


def cmd_shift(args):
    profile = _profile_from_args(args)
    free = oscillator.radiative_shift(profile, args.q)
    payload = {"profile": profile.tag, "q": args.q, "free": free}
    if args.gap is not None:
        # taken on its own: next to free it can fall below free's last digit
        mirror = oscillator.mirror_term(profile, args.q, args.gap)
        payload["plane"] = free + mirror
        payload["mirror_term"] = mirror
    return [(args.out, payload)]


def cmd_validate(args):
    """The acceptance report; its `passed` key decides the exit code."""
    from .validation import run_validation

    results = run_validation()
    return [(args.out, {
        "version": __version__,
        "passed": all(r.passed for r in results),
        "criteria": [r.as_dict() for r in results],
    })]


# the sweepable subcommands: the row of one run, the table's comments and
# its columns
_SWEEPS = {
    "casimir": (_casimir_row, [
        "p_series: (1/2pi) sum_n int k r^n e^{2nikL} dk + c.c.",
        "p_quad:   (1/2pi) int k [(1-|r|^2)/|1-r e^{2ikL}|^2 - 1] dk",
        "p_comb16: -pi/(16 L^2) comb endpoint at kappa = pi/(2L)",
        "p_em24:   -pi/(24 L^2) Euler-Maclaurin endpoint"],
        ["alpha", "L", "p_series", "p_quad", "p_comb16", "p_em24"]),
    "stats": (_shannon_gap_row, ["gap: max_n |p(n, N) - poisson(n)|"],
              ["N", "shannon_gap"]),
}


# ----------------------------------------------------------- configuration

def load_config(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key.replace("-", "_")] = value
    return out


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, its subparsers' too, are
    ConfigErrors, which main reports like every other bad input."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vacuumlab",
        description="Regularized-vacuum numerics: delta-sequence calculus, "
                    "cavity modes, Casimir pressure, generalized Coulomb "
                    "potentials, deformed excitation statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default: stdout)")

    def options(p, type, **defaults):
        for name, default in defaults.items():
            p.add_argument(f"--{name}", type=type, default=default)
        return list(defaults)

    def sweep(p, names):
        p.add_argument("--sweep", choices=names,
                       help="numeric option to sweep")
        p.add_argument("--values", help="comma-separated sweep values")

    profiles = ["box", "lorentz"]

    p = sub.add_parser("delta", help="delta-sequence profiles and transforms")
    common(p)
    p.add_argument("--shape", default="lambda_triangle",
                   choices=["lambda_triangle", "m_shape", "shifted_pair"])
    options(p, _positive, n=8)
    options(p, _nonnegative, j=0)
    options(p, _finite, a=0.0, kmin=-2.0, kmax=2.0)
    options(p, _positive, samples=401)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("coulomb", help="averaged potential curves")
    common(p)
    p.add_argument("--profile", default="box", choices=profiles)
    options(p, _finite, q=1.0, k1=1.0, k2=100.0, lambda2=1e-6, y0=1e-3,
            rmin=0.1, rmax=100.0)
    options(p, _positive, samples=200)
    p.add_argument("--summary", help="JSON summary path")
    p.set_defaults(func=cmd_coulomb)

    p = sub.add_parser("cavity", help="complex resonance table")
    common(p)
    options(p, _finite, alpha=1.0, gap=1.0)
    options(p, _positive, branches=3)
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("casimir", help="1+1 pressure, all routes")
    common(p)
    sweep(p, options(p, _finite, alpha=100.0, gap=1.0))
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("casimir3", help="3+1 pressure breakdown (JSON)")
    common(p)
    options(p, _finite, lambda2=1e-12, y0=1e-4, gap=1.0)
    p.set_defaults(func=cmd_casimir3)

    p = sub.add_parser("stats", help="deformed excitation statistics")
    common(p)
    sweep(p, options(p, _positive, N=100)
          + options(p, _nonnegative, nmax=8))
    options(p, _finite_list, probs="0.35,0.65", intensities="0.7,0.3")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("shift", help="radiative self-energy shifts (JSON)")
    common(p)
    p.add_argument("--profile", default="box", choices=profiles)
    options(p, _finite, q=1.0, k1=1.0, k2=100.0, lambda2=1e-2, y0=0.5)
    p.add_argument("--gap", type=_finite, default=None,
                   help="plane distance (omit for free space)")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("validate", help="run the acceptance criteria (JSON)")
    common(p)
    p.set_defaults(func=cmd_validate)

    # a value that starts like a negative number (-1e-3, -.5, -1e-3,2) is
    # one, not an option: argparse's own pattern takes only -1 and -.5, and
    # no option here starts with a digit; the pattern is a private attribute
    negative = re.compile(r"^-\.?\d")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = negative
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use.  It keeps no state between
    calls: each parse_args returns a new namespace."""
    return build_parser()


# ------------------------------------------------------------------ driver

def _config_argv(args, argv: list[str]) -> list[str]:
    """argv with the config file's values put in front as --key=value flags:
    the parser converts them like any flag, and a flag given on the command
    line comes later, so it wins."""
    cfg = load_config(args.config)
    unknown = set(cfg) - (set(vars(args)) - {"func", "command", "config"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return argv[:1] + [f"--{k}={v}" for k, v in cfg.items()] + argv[1:]


def _outputs(parser, args, argv: list[str]) -> list[tuple]:
    """The command's outputs; a sweep runs it once per value of --values,
    each parsed as the swept option's flag after argv, so that it converts
    by the option's declared type."""
    sweep, values = vars(args).get("sweep"), vars(args).get("values")
    if sweep is None:
        if values is not None:
            raise ConfigError("--values is given but --sweep is not")
        return args.func(args)
    runs = [parser.parse_args([*argv, f"--{sweep}={v}"])
            for v in (values or "").split(",") if v.strip()]
    if not runs:
        raise ConfigError("sweep requested but --values list is empty")
    row, comments, columns = _SWEEPS[args.command]
    return [(args.out, Table(comments, columns, [row(a) for a in runs]))]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            argv = _config_argv(args, argv)
            args = parser.parse_args(argv)
        outputs = _outputs(parser, args, argv)
        for path, output in outputs:
            _write(path, output)
    except VacuumlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a failed report (validate's) is written, then exits 1
    failed = any(isinstance(out, dict) and out.get("passed") is False
                 for _, out in outputs)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
