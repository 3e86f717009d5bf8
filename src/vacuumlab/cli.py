"""Command-line front end.

Subcommands run named experiments and write deterministic CSV/JSON
artifacts; `#`-prefixed header rows document each numeric column by its
defining formula.  Each subcommand maps its parsed options to its outputs;
`main` alone applies the config file, sweeps, writes and reports errors.
A flat key=value config file can seed any run; command-line flags, even
abbreviated, override file values.  Any numeric option of `casimir` and
`stats` can be swept over a comma-separated value list (one output row per
value); the other subcommands reject --sweep, and all of them reject
--values without --sweep.  Flag, config and sweep values are converted by
the type their option declares: a value that does not convert, a float that
is not finite (nan, inf), a count below its least value (1 for --samples,
--branches, --N and --n; 0 for --nmax and --j), and an unknown config key,
exit 2 with one `error:` line and write nothing.

    vacuumlab casimir --alpha 100 --gap 1.0 --out out.csv
    vacuumlab casimir --sweep alpha --values 10,100,1000 --out sweep.csv
    vacuumlab coulomb --profile lorentz --lambda2 1e-49 --y0 1e-6 \
        --rmin 0.1 --rmax 100 --out curve.csv
    vacuumlab validate --out report.json
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, casimir, cavity, coulomb, oscillator, vacuum
from .constants import AU_KM, PLANCK_LENGTH_KM
from .errors import ConfigError, IoError, VacuumlabError


class Table(NamedTuple):
    """A CSV output: `#` comment lines, the header row and the data rows."""

    comments: list[str]
    columns: list[str]
    rows: list[tuple]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(path: str | None, output: Table | dict):
    """A Table as CSV or a payload as JSON, to path or else to stdout."""
    if isinstance(output, Table):
        lines = [f"# vacuumlab {__version__}"]
        lines += [f"# {c}" for c in output.comments]
        lines.append(",".join(output.columns))
        lines += [",".join(_fmt(v) for v in row) for row in output.rows]
        text = "\n".join(lines) + "\n"
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
    rows = list(zip(ks.tolist(), np.real(eval_family(fam, ks)).tolist(),
                    fourier(fam, ks).tolist()))
    return [(args.out, Table(
        [f"family {shape.value} n={args.n} j={args.j} a={args.a}",
         "value: piecewise-linear profile delta_n(k)",
         "transform: (1/2pi) int delta_n(k') exp(i k' x) dk' at x=k"],
        ["k", "value", "transform"], rows))]


def cmd_coulomb(args):
    profile = _profile_from_args(args)
    q_ph = vacuum.physical_charge(args.q, profile)
    rs = np.geomspace(args.rmin, args.rmax, args.samples)
    curve = coulomb.potential_curve(profile, args.q, rs)
    rows = list(zip(curve.r_values, curve.v_values,
                    [curve.profile_tag] * len(rs)))
    outputs = [(args.out, Table(
        ["V(r) = -q_ph^2/(4 pi r) * (2/pi)(Si(k2 r) - Si(k1 r)) "
         "for the box shell",
         "V(r) = q_ph^2 e^{2 lam}/(pi^2 r) Im K0(2 lam "
         "sqrt(1 + i r/y0)) for the lorentz profile",
         f"q={args.q} q_ph={q_ph}"],
        ["r", "V", "profile_tag"], rows))]
    if not args.summary:
        return outputs

    summary = {"profile": curve.profile_tag, "q": args.q, "q_ph": q_ph}
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
    cfg = cavity.CavityConfig(args.alpha, args.alpha, args.gap)
    rows = []
    branches = range(0, args.branches)
    roots = cavity.resonance_roots(cfg, branches=branches)
    for i, root in enumerate(roots):
        n, sign = divmod(i, 2)
        resid = abs(cavity.resonance_equation(root, cfg))
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
    bd = casimir.pressure_3p1(profile, args.gap)
    return [(args.out, {
        "total": bd.total,
        "leading": bd.leading,
        "y0_corrections": bd.y0_corrections,
        "lambda2_correction": bd.lambda2_correction,
        "terms_used": bd.terms_used,
        "total_pascal": casimir.to_physical_pressure(bd.total),
        "parameters": {"lambda2": args.lambda2, "y0": args.y0, "L": args.gap,
                       "Z": profile.Z},
    })]


def _pmf_rows(a):
    """(n, p_renyi, p_shannon, gap) for n = 0..nmax."""
    rows = []
    for n in range(a.nmax + 1):
        pr = oscillator.renyi_poisson_pmf(a.probs, a.intensities, a.N, n)
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
        plane = oscillator.radiative_shift(profile, args.q,
                                           plane_gap=args.gap)
        payload["plane"] = plane
        payload["mirror_term"] = plane - free
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumlab",
        description="Regularized-vacuum numerics: delta-sequence calculus, "
                    "cavity modes, Casimir pressure, generalized Coulomb "
                    "potentials, deformed excitation statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--sweep", help="parameter name to sweep")
        p.add_argument("--values", help="comma-separated sweep values")

    def options(p, type, **defaults):
        for name, default in defaults.items():
            p.add_argument(f"--{name}", type=type, default=default)

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
    options(p, _finite, alpha=100.0, gap=1.0)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("casimir3", help="3+1 pressure breakdown (JSON)")
    common(p)
    options(p, _finite, lambda2=1e-12, y0=1e-4, gap=1.0)
    p.set_defaults(func=cmd_casimir3)

    p = sub.add_parser("stats", help="deformed excitation statistics")
    common(p)
    options(p, _positive, N=100)
    options(p, _nonnegative, nmax=8)
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

    # `sweep --command C --parameter P ...` is another spelling of
    # `C --sweep P ...`; main rewrites the one into the other
    p = sub.add_parser("sweep", help="sweep a parameter of another command")
    p.add_argument("--command", dest="swept_command", required=True,
                   choices=["delta", "coulomb", "cavity", "casimir",
                            "casimir3", "stats", "shift"])
    p.add_argument("--parameter", required=True)
    p.add_argument("--values", required=True)
    # the file configures the swept command, so only that command reads it
    p.add_argument("--config", dest="forward_config",
                   help="flat key=value config file of the swept command")
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use.  It keeps no state between
    calls: each parse_args returns a new namespace."""
    return build_parser()


# ------------------------------------------------------------------ driver

def _sweep_argv(args) -> list[str]:
    """The `COMMAND --sweep` spelling of a `sweep` command line."""
    argv = [args.swept_command, f"--sweep={args.parameter}",
            f"--values={args.values}"]
    if args.forward_config:
        argv.append(f"--config={args.forward_config}")
    if args.out:
        argv.append(f"--out={args.out}")
    return argv


def _config_argv(args, argv: list[str]) -> list[str]:
    """argv with the config file's values put in front as --key=value flags:
    the parser converts them like any flag, and a flag given on the command
    line comes later, so it wins."""
    cfg = load_config(args.config)
    unknown = set(cfg) - (set(vars(args)) - {"func", "command", "config"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return argv[:1] + [f"--{k}={v}" for k, v in cfg.items()] + argv[1:]


def _option_types(parser, command: str) -> dict:
    """The type that the subcommand declares for each option, by dest;
    argparse keeps the declarations only in private attributes."""
    (subcommands,) = parser._subparsers._group_actions
    return {a.dest: a.type for a in subcommands.choices[command]._actions}


def _outputs(parser, args) -> list[tuple]:
    """The command's outputs; a sweep runs it once per value of --values,
    each converted by the swept option's declared type."""
    if args.sweep is None:
        if args.values is not None:
            raise ConfigError("--values is given but --sweep is not")
        return args.func(args)
    if args.command not in _SWEEPS:
        raise ConfigError(f"{args.command} cannot sweep; only "
                          f"{' and '.join(_SWEEPS)} take --sweep")
    types = _option_types(parser, args.command)
    if args.sweep not in types:
        raise ConfigError(f"swept parameter {args.sweep!r} does not belong "
                          "to this command")
    convert = types[args.sweep]
    if convert not in (_positive, _nonnegative, _finite):
        raise ConfigError(f"swept parameter {args.sweep!r} is not numeric")
    try:
        values = [convert(v) for v in (args.values or "").split(",")
                  if v.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep requested but --values list is empty")
    row, comments, columns = _SWEEPS[args.command]
    return [(args.out, Table(comments, columns, [
        row(argparse.Namespace(**{**vars(args), args.sweep: v}))
        for v in values]))]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            argv = _sweep_argv(args)
            args = parser.parse_args(argv)
        if args.config is not None:
            argv = _config_argv(args, argv)
            args = parser.parse_args(argv)
        outputs = _outputs(parser, args)
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
