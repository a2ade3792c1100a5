"""Command-line front end.

Subcommands reproduce the package's tables and curves with machine-readable
output: ``constants`` (one flat JSON record), ``period-map``, ``be-scan``
and ``quartic`` (CSV curves), and ``verify`` (invariant suites with a
pass/fail table). All numeric output is produced by exactly one library
call per number and rendered at 17 significant digits, so reruns with the
same seed and config are byte-identical. Exit codes: 0 success, 1
verification failure or internal inconsistency, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import cylinder, stability, verify, zonal
from .errors import (
    ComputationError,
    DegenerateInputError,
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from .zonal import SphereParams

__all__ = ["build_parser", "main"]

_SUITE_NAMES = (*verify.SUITES, "all")


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def render_json(record: dict) -> str:
    parts = []
    for key, val in record.items():
        if isinstance(val, bool):
            txt = "true" if val else "false"
        elif isinstance(val, (int, np.integer)):
            txt = str(int(val))
        elif isinstance(val, (float, np.floating)):
            txt = _fmt_float(val)
        else:
            txt = '"%s"' % str(val)
        parts.append('  "%s": %s' % (key, txt))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def render_csv(header: tuple, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_float(x) for x in row))
    return "\n".join(lines) + "\n"


def _parse_grid(text: str) -> tuple:
    items = [tok for tok in text.split(",") if tok.strip()]
    try:
        return tuple(float(tok) for tok in items)
    except ValueError as exc:
        raise DomainError("bad grid value in %r" % text) from exc


_FLAGS = {
    "d": dict(type=int, help="ambient dimension"),
    "s": dict(type=float, help="smoothness order"),
    "T": dict(type=float, help="cylinder period"),
    "bandlimit": dict(type=int, help="zonal bandlimit L"),
    "quad-order": dict(type=int, help="quadrature order N"),
    "modes": dict(type=int, help="fourier modes K"),
    "eps-grid": dict(type=str, help="comma-separated eps values"),
    "alpha-grid": dict(type=str, help="comma-separated amplitudes"),
    "seed": dict(type=int, help="rng seed"),
    "family": dict(type=str, choices=("degree2", "degree3"), help="perturbation family"),
    "out": dict(type=str, help="output file (default stdout)"),
}

# the flags each subcommand reads besides --out and --config; its config
# file may set these keys and out, with dashes read as underscores
_COMMAND_FLAGS = {
    "constants": ("d", "s", "modes"),
    "verify": ("d", "s", "T", "bandlimit", "quad-order", "modes", "seed"),
    "period-map": ("d", "alpha-grid"),
    "be-scan": ("d", "s", "bandlimit", "quad-order", "eps-grid", "family"),
    "quartic": ("d", "eps-grid"),
}

# the flags each subcommand cannot run without, given by flag or config
_REQUIRED_FLAGS = {
    "constants": ("d", "s"),
    "verify": (),
    "period-map": ("d", "alpha-grid"),
    "be-scan": ("d", "s", "family"),
    "quartic": ("d",),
}

# the flags whose library parameter has another name
_LIBRARY_NAMES = {"quad_order": "order", "modes": "n_modes"}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_FLAGS[command] + ("out",):
        p.add_argument("--" + name, default=None, **_FLAGS[name])
    p.add_argument("--config", type=str, default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="sharp Sobolev constants, stability quotients, cylinder curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp/stability constants for (d, s)")
    _add_flags(p, "constants")

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=_SUITE_NAMES)
    _add_flags(p, "verify")

    p = sub.add_parser("period-map", help="period map alpha -> tau(alpha) as CSV")
    _add_flags(p, "period-map")

    p = sub.add_parser("be-scan", help="stability quotient curve for a zonal family")
    _add_flags(p, "be-scan")

    p = sub.add_parser("quartic", help="degenerate quotient curve at the bifurcation")
    _add_flags(p, "quartic")
    return parser


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError("config line without '=': %r" % raw.strip())
            key, val = (tok.strip() for tok in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill each flag left unset from the config file, then parse the grids.

    A config value is cast and checked as its flag is, so a bad one is a
    usage error even where the flag wins.
    """
    if args.config:
        names = _COMMAND_FLAGS[args.command] + ("out",)
        flags = {name.replace("-", "_"): _FLAGS[name] for name in names}
        for key, raw in _read_config(args.config).items():
            if key not in flags:
                raise DomainError("unknown config key %r" % key)
            try:
                value = flags[key]["type"](raw)
            except ValueError as exc:
                raise DomainError("bad config value for %r: %r" % (key, raw)) from exc
            choices = flags[key].get("choices")
            if choices is not None and value not in choices:
                raise DomainError("bad config value for %r: %r" % (key, raw))
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key in ("eps_grid", "alpha_grid"):
        if getattr(args, key, None) is not None:
            setattr(args, key, _parse_grid(getattr(args, key)))


def _given(args: argparse.Namespace, *flags) -> dict:
    """The values of ``flags`` set by flag or config, keyed by library name.

    A flag left unset is left out, so the library's own default applies.
    """
    given = {}
    for flag in flags:
        key = flag.replace("-", "_")
        if getattr(args, key) is not None:
            given[_LIBRARY_NAMES.get(key, key)] = getattr(args, key)
    return given


def cmd_constants(args: argparse.Namespace) -> str:
    d, s = args.d, args.s
    params = SphereParams(d, s)
    record = {
        "d": d,
        "s": s,
        "q": params.q,
        "s_ds": zonal.sharp_constant(params),
        "be_upper": stability.upper_bound_constant(d, s),
    }
    if d >= 3:
        ts = cylinder.t_star(d)
        record["t_star"] = ts
        for frac in (25, 50, 75, 100):
            record["c_t_formula_frac_%d" % frac] = cylinder.c_T_formula(d, ts * frac / 100.0)
        record["quartic_constant"] = cylinder.quartic_constants(
            d, **_given(args, "modes")
        ).limit_constant
    return render_json(record)


def cmd_verify(args: argparse.Namespace) -> tuple:
    results = verify.run_suite(args.suite, **_given(args, *_COMMAND_FLAGS["verify"]))
    ok = all(r.passed for r in results)
    return verify.format_report(results), 0 if ok else 1


def cmd_period_map(args: argparse.Namespace) -> str:
    rows = [(alpha, cylinder.period(args.d, alpha)) for alpha in args.alpha_grid]
    return render_csv(("alpha", "tau"), rows)


def cmd_be_scan(args: argparse.Namespace) -> str:
    params = SphereParams(args.d, args.s)
    bandlimit = zonal.DEFAULT_BANDLIMIT if args.bandlimit is None else args.bandlimit
    degree = 2 if args.family == "degree2" else 3
    if bandlimit < degree:
        raise DomainError(
            "be-scan --family %s needs --bandlimit >= %d" % (args.family, degree)
        )
    coeffs = np.zeros(bandlimit + 1)
    coeffs[degree] = 1.0
    rfn = zonal.from_coeffs(coeffs, params, **_given(args, "quad-order"))
    curve = stability.quotient_curve(rfn, **_given(args, "eps-grid"))
    rows = [
        (e, qv, curve.extrapolated_limit)
        for e, qv in zip(curve.eps, curve.quotient)
    ]
    return render_csv(("eps", "quotient", "extrapolated_limit"), rows)


def cmd_quartic(args: argparse.Namespace) -> str:
    curve = cylinder.degenerate_quotient_curve(args.d, **_given(args, "eps-grid"))
    rows = [
        (e, qv, curve.extrapolated_limit)
        for e, qv in zip(curve.eps, curve.quotient)
    ]
    return render_csv(("eps", "quotient", "extrapolated_limit"), rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as files:
        try:
            _merge_config(args)
            for flag in _REQUIRED_FLAGS[args.command]:
                if getattr(args, flag.replace("-", "_")) in (None, ()):
                    parser.error("%s needs --%s, by flag or config" % (args.command, flag))
            # --out is opened before the work, as a shell redirect is: a path
            # that cannot be opened is a usage error, found at once
            sink = sys.stdout
            if args.out:
                sink = files.enter_context(open(args.out, "w", encoding="utf-8"))
            code = 0
            if args.command == "constants":
                text = cmd_constants(args)
            elif args.command == "verify":
                text, code = cmd_verify(args)
            elif args.command == "period-map":
                text = cmd_period_map(args)
            elif args.command == "be-scan":
                text = cmd_be_scan(args)
            else:
                text = cmd_quartic(args)
        except (DomainError, PreconditionError, OSError) as exc:
            sys.stderr.write("error: %s\n" % exc)
            sys.stderr.write("run with --help for usage\n")
            return 2
        except (ComputationError, InconsistencyError, DegenerateInputError) as exc:
            sys.stderr.write("verification failure: %s\n" % exc)
            return 1
        sink.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
