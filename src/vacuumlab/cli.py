"""Command-line front end.

Subcommands run named experiments and write deterministic CSV/JSON
artifacts; `#`-prefixed header rows document each numeric column by its
defining formula.  A flat key=value config file can seed any run, with
command-line flags overriding file values.  Any numeric option of `casimir`
and `stats` can be swept over a comma-separated value list (one output row
per value); the other subcommands reject --sweep, and all of them reject
--values without --sweep.

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

import numpy as np

from . import __version__, casimir, cavity, coulomb, oscillator, vacuum
from .constants import AU_KM, PLANCK_LENGTH_KM
from .errors import ConfigError, IoError, VacuumlabError


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_rows(path: str | None, header_comments: list[str],
                columns: list[str], rows: list[tuple]):
    lines = [f"# vacuumlab {__version__}"]
    lines += [f"# {c}" for c in header_comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str | None, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc


def _profile_from_args(args) -> vacuum.VacuumProfile:
    if args.profile == "box":
        return vacuum.make_box_profile(args.k1, args.k2)
    if args.profile == "lorentz":
        return vacuum.make_lorentz_profile(args.lambda2, args.y0)
    raise ConfigError(f"unknown profile kind {args.profile!r}")


_SWEEPABLE = ("casimir", "stats")


def _check_sweepable(args):
    sweep = getattr(args, "sweep", None)
    if sweep is not None and args.command not in _SWEEPABLE:
        raise ConfigError(f"{args.command} cannot sweep; only "
                          f"{' and '.join(_SWEEPABLE)} take --sweep")
    # the sweep subcommand has --values and no --sweep: it forwards both
    if sweep is None and args.values is not None and hasattr(args, "sweep"):
        raise ConfigError("--values is given but --sweep is not")


def _sweep_values(args) -> list[float] | None:
    if args.sweep is None:
        return None
    if not args.values:
        raise ConfigError("sweep requested but --values list is empty")
    try:
        return [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}") from exc


def _apply_sweep(args, parameter: str, value: float):
    if not hasattr(args, parameter):
        raise ConfigError(f"swept parameter {parameter!r} does not belong "
                          "to this command")
    setattr(args, parameter, type(getattr(args, parameter))(value))


def _run_sweepable(args, one_row, columns, comments):
    values = _sweep_values(args)
    rows = []
    if values is None:
        rows.append(one_row(args))
    else:
        for v in values:
            _apply_sweep(args, args.sweep, v)
            rows.append(one_row(args))
    _write_rows(args.out, comments, columns, rows)


# ------------------------------------------------------------- subcommands

def cmd_delta(args):
    from .deltaseq import DeltaFamily, DeltaShape, eval_family, fourier

    shape = DeltaShape(args.shape)
    fam = DeltaFamily(shape, n=args.n, j=args.j, a=args.a)
    ks = np.linspace(args.kmin, args.kmax, args.samples)
    rows = [(float(k), float(np.real(eval_family(fam, float(k)))),
             float(fourier(fam, float(k)))) for k in ks]
    _write_rows(args.out,
                [f"family {shape.value} n={args.n} j={args.j} a={args.a}",
                 "value: piecewise-linear profile delta_n(k)",
                 "transform: (1/2pi) int delta_n(k') exp(i k' x) dk' at x=k"],
                ["k", "value", "transform"], rows)
    return 0


def cmd_coulomb(args):
    profile = _profile_from_args(args)
    q_ph = vacuum.physical_charge(args.q, profile)
    rs = np.geomspace(args.rmin, args.rmax, args.samples)
    curve = coulomb.potential_curve(profile, args.q, rs)
    rows = list(zip(curve.r_values, curve.v_values,
                    [curve.profile_tag] * len(rs)))
    _write_rows(args.out,
                ["V(r) = -q_ph^2/(4 pi r) * (2/pi)(Si(k2 r) - Si(k1 r)) "
                 "for the box shell",
                 "V(r) = q_ph^2 e^{2 lam}/(pi^2 r) Im K0(2 lam "
                 "sqrt(1 + i r/y0)) for the lorentz profile",
                 f"q={args.q} q_ph={q_ph}"],
                ["r", "V", "profile_tag"], rows)

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
    if args.summary:
        _write_json(args.summary, summary)
    return 0


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
    _write_rows(args.out,
                ["roots of k^2 + 2 i alpha k + (exp(ikL) - 1) alpha^2 = 0",
                 f"alpha={args.alpha} L={args.gap}"],
                ["branch", "sign", "re_k", "im_k", "residual"], rows)
    return 0


def cmd_casimir(args):
    def one_row(a):
        p_series = casimir.pressure_1p1_series(a.alpha, a.gap)
        p_quad = casimir.pressure_1p1_quad(a.alpha, a.gap)
        p_comb = casimir.pressure_dirichlet_comb(a.gap,
                                                 math.pi / (2 * a.gap), 50)
        p_em = casimir.pressure_euler_maclaurin(a.gap)
        return (a.alpha, a.gap, p_series, p_quad, p_comb, p_em)

    _run_sweepable(
        args, one_row,
        ["alpha", "L", "p_series", "p_quad", "p_comb16", "p_em24"],
        ["p_series: (1/2pi) sum_n int k r^n e^{2nikL} dk + c.c.",
         "p_quad:   (1/2pi) int k [(1-|r|^2)/|1-r e^{2ikL}|^2 - 1] dk",
         "p_comb16: -pi/(16 L^2) comb endpoint at kappa = pi/(2L)",
         "p_em24:   -pi/(24 L^2) Euler-Maclaurin endpoint"])
    return 0


def cmd_casimir3(args):
    profile = vacuum.make_lorentz_profile(args.lambda2, args.y0)
    bd = casimir.pressure_3p1(profile, args.gap)
    payload = {
        "total": bd.total,
        "leading": bd.leading,
        "y0_corrections": bd.y0_corrections,
        "lambda2_correction": bd.lambda2_correction,
        "terms_used": bd.terms_used,
        "total_pascal": casimir.to_physical_pressure(bd.total),
        "parameters": {"lambda2": args.lambda2, "y0": args.y0, "L": args.gap,
                       "Z": profile.Z},
    }
    _write_json(args.out, payload)
    return 0


def cmd_stats(args):
    probs = [float(p) for p in args.probs.split(",")]
    ws = [float(w) for w in args.intensities.split(",")]

    def one_row(a):
        gap = 0.0
        for n in range(a.nmax + 1):
            gap = max(gap, abs(
                oscillator.renyi_poisson_pmf(probs, ws, a.N, n)
                - oscillator.shannon_poisson_pmf(probs, ws, n)))
        return (a.N, gap)

    if args.sweep:
        _run_sweepable(args, one_row, ["N", "shannon_gap"],
                       ["gap: max_n |p(n, N) - poisson(n)|"])
        return 0
    rows = []
    for n in range(args.nmax + 1):
        pr = oscillator.renyi_poisson_pmf(probs, ws, args.N, n)
        ps = oscillator.shannon_poisson_pmf(probs, ws, n)
        rows.append((n, pr, ps, pr - ps))
    _write_rows(args.out,
                ["p_renyi: (1/n!) d^n/dl^n (sum p e^{l w/N})^N at l=-1",
                 "p_shannon: Poisson with parameter sum p w",
                 f"N={args.N} probs={probs} intensities={ws}"],
                ["n", "p_renyi", "p_shannon", "gap"], rows)
    return 0


def cmd_shift(args):
    profile = _profile_from_args(args)
    free = oscillator.radiative_shift(profile, args.q)
    payload = {"profile": profile.tag, "q": args.q, "free": free}
    if args.gap is not None:
        plane = oscillator.radiative_shift(profile, args.q,
                                           plane_gap=args.gap)
        payload["plane"] = plane
        payload["mirror_term"] = plane - free
    _write_json(args.out, payload)
    return 0


def cmd_validate(args):
    from .validation import run_validation

    results = run_validation()
    payload = {
        "version": __version__,
        "passed": all(r.passed for r in results),
        "criteria": [r.as_dict() for r in results],
    }
    _write_json(args.out, payload)
    return 0 if payload["passed"] else 1


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


def _apply_config(parser, args, argv):
    if args.config is None:
        return args
    cfg = load_config(args.config)
    known = set(vars(args)) - {"func", "command", "config"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # config seeds defaults; explicit flags win
    given = {a.split("=")[0].lstrip("-").replace("-", "_")
             for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        if key in given:
            continue
        current = getattr(args, key, None)
        caster = type(current) if current is not None else str
        if caster is bool:
            setattr(args, key, value.lower() in ("1", "true", "yes"))
        else:
            setattr(args, key, caster(value))
    return args


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

    p = sub.add_parser("delta", help="delta-sequence profiles and transforms")
    common(p)
    p.add_argument("--shape", default="lambda_triangle",
                   choices=["lambda_triangle", "m_shape", "shifted_pair"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--kmin", type=float, default=-2.0)
    p.add_argument("--kmax", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=401)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("coulomb", help="averaged potential curves")
    common(p)
    p.add_argument("--profile", default="box", choices=["box", "lorentz"])
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--k1", type=float, default=1.0)
    p.add_argument("--k2", type=float, default=100.0)
    p.add_argument("--lambda2", type=float, default=1e-6)
    p.add_argument("--y0", type=float, default=1e-3)
    p.add_argument("--rmin", type=float, default=0.1)
    p.add_argument("--rmax", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--summary", help="JSON summary path")
    p.set_defaults(func=cmd_coulomb)

    p = sub.add_parser("cavity", help="complex resonance table")
    common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--branches", type=int, default=3)
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("casimir", help="1+1 pressure, all routes")
    common(p)
    p.add_argument("--alpha", type=float, default=100.0)
    p.add_argument("--gap", type=float, default=1.0)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("casimir3", help="3+1 pressure breakdown (JSON)")
    common(p)
    p.add_argument("--lambda2", type=float, default=1e-12)
    p.add_argument("--y0", type=float, default=1e-4)
    p.add_argument("--gap", type=float, default=1.0)
    p.set_defaults(func=cmd_casimir3)

    p = sub.add_parser("stats", help="deformed excitation statistics")
    common(p)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--probs", default="0.35,0.65")
    p.add_argument("--intensities", default="0.7,0.3")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("shift", help="radiative self-energy shifts (JSON)")
    common(p)
    p.add_argument("--profile", default="box", choices=["box", "lorentz"])
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--k1", type=float, default=1.0)
    p.add_argument("--k2", type=float, default=100.0)
    p.add_argument("--lambda2", type=float, default=1e-2)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--gap", type=float, default=None,
                   help="plane distance (omit for free space)")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("validate", help="run the acceptance criteria (JSON)")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="sweep a parameter of another command")
    p.add_argument("--command", required=True,
                   choices=["delta", "coulomb", "cavity", "casimir",
                            "casimir3", "stats", "shift"])
    p.add_argument("--parameter", required=True)
    p.add_argument("--values", required=True)
    # the file configures the swept command, so only that command reads it
    p.add_argument("--config", dest="forward_config",
                   help="flat key=value config file of the swept command")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_sweep, config=None)
    return parser


def cmd_sweep(args):
    forwarded = [args.command, "--sweep", args.parameter,
                 "--values", args.values]
    if args.forward_config:
        forwarded += ["--config", args.forward_config]
    if args.out:
        forwarded += ["--out", args.out]
    return main(forwarded)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use.  It keeps no state between
    calls: each parse_args returns a new namespace, and only that namespace
    is changed by config and sweep handling."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        _check_sweepable(args)
        return args.func(args)
    except VacuumlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
