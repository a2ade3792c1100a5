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
import sys
from dataclasses import dataclass

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

__all__ = ["RunConfig", "build_parser", "main"]

_SUITE_NAMES = ("sphere", "conformal", "stability", "cylinder", "duality", "all")


@dataclass(frozen=True)
class RunConfig:
    """Merged flag/config values steering one CLI invocation."""

    d: int | None = None
    s: float | None = None
    T: float | None = None
    bandlimit: int = 64
    quad_order: int = 256
    modes: int = 128
    eps_grid: tuple = (0.02, 0.01, 0.005)
    alpha_grid: tuple = ()
    seed: int = 0
    out: str | None = None


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=None, help="ambient dimension")
    p.add_argument("--s", type=float, default=None, help="smoothness order")
    p.add_argument("--T", type=float, default=None, help="cylinder period")
    p.add_argument("--bandlimit", type=int, default=None, help="zonal bandlimit L")
    p.add_argument("--quad-order", type=int, default=None, help="quadrature order N")
    p.add_argument("--modes", type=int, default=None, help="fourier modes K")
    p.add_argument("--eps-grid", type=str, default=None, help="comma-separated eps values")
    p.add_argument("--alpha-grid", type=str, default=None, help="comma-separated amplitudes")
    p.add_argument("--seed", type=int, default=None, help="rng seed")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--config", type=str, default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="sharp Sobolev constants, stability quotients, cylinder curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp/stability constants for (d, s)")
    _add_common(p)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=_SUITE_NAMES)
    _add_common(p)

    p = sub.add_parser("period-map", help="period map alpha -> tau(alpha) as CSV")
    _add_common(p)

    p = sub.add_parser("be-scan", help="stability quotient curve for a zonal family")
    p.add_argument(
        "--family", choices=("degree2", "degree3"), default=None, help="perturbation family"
    )
    _add_common(p)

    p = sub.add_parser("quartic", help="degenerate quotient curve at the bifurcation")
    _add_common(p)
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


_CONFIG_CASTS = {
    "d": int,
    "s": float,
    "T": float,
    "bandlimit": int,
    "quad_order": int,
    "modes": int,
    "eps_grid": str,
    "alpha_grid": str,
    "seed": int,
    "out": str,
    "family": str,
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags win over config values, which win over defaults."""
    cfg = {}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            if key not in _CONFIG_CASTS:
                raise DomainError("unknown config key %r" % key)
            try:
                cfg[key] = _CONFIG_CASTS[key](raw)
            except ValueError as exc:
                raise DomainError("bad config value for %r: %r" % (key, raw)) from exc

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in cfg:
            return cfg[name]
        return default

    eps_text = pick("eps_grid", None)
    alpha_text = pick("alpha_grid", None)
    config = RunConfig(
        d=pick("d", None),
        s=pick("s", None),
        T=pick("T", None),
        bandlimit=pick("bandlimit", 64),
        quad_order=pick("quad_order", 256),
        modes=pick("modes", 128),
        eps_grid=_parse_grid(eps_text) if eps_text is not None else (0.02, 0.01, 0.005),
        alpha_grid=_parse_grid(alpha_text) if alpha_text is not None else (),
        seed=pick("seed", 0),
        out=pick("out", None),
    )
    if getattr(args, "family", None) is None and "family" in cfg:
        args.family = cfg["family"]
    return config


def _require(parser, cfg: RunConfig, **fields) -> None:
    for name, value in fields.items():
        if value is None:
            parser.error("the flag --%s is required for this command" % name)


def cmd_constants(cfg: RunConfig) -> str:
    params = SphereParams(cfg.d, cfg.s)
    record = {
        "d": cfg.d,
        "s": cfg.s,
        "q": params.q,
        "s_ds": zonal.sharp_constant(params),
        "be_upper": stability.upper_bound_constant(cfg.d, cfg.s),
    }
    if cfg.d >= 3:
        ts = cylinder.t_star(cfg.d)
        record["t_star"] = ts
        for frac in (25, 50, 75, 100):
            record["c_t_formula_frac_%d" % frac] = cylinder.c_T_formula(
                cfg.d, ts * frac / 100.0
            )
        record["quartic_constant"] = cylinder.quartic_constants(
            cfg.d, n_modes=cfg.modes
        ).limit_constant
    return render_json(record)


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> tuple:
    results = verify.run_suite(
        args.suite,
        d=cfg.d if cfg.d is not None else 3,
        s=cfg.s if cfg.s is not None else 1.0,
        T=cfg.T if cfg.T is not None else 9.0,
        bandlimit=cfg.bandlimit,
        order=cfg.quad_order,
        n_modes=cfg.modes,
        seed=cfg.seed,
    )
    ok = all(r.passed for r in results)
    return verify.format_report(results), 0 if ok else 1


def cmd_period_map(parser, cfg: RunConfig) -> str:
    if not cfg.alpha_grid:
        parser.error("period-map needs a nonempty --alpha-grid")
    rows = []
    for alpha in cfg.alpha_grid:
        rows.append((alpha, cylinder.period(cfg.d, alpha)))
    return render_csv(("alpha", "tau"), rows)


def cmd_be_scan(parser, args, cfg: RunConfig) -> str:
    if getattr(args, "family", None) is None:
        parser.error("be-scan needs --family degree2|degree3")
    params = SphereParams(cfg.d, cfg.s)
    degree = 2 if args.family == "degree2" else 3
    coeffs = np.zeros(cfg.bandlimit + 1)
    coeffs[degree] = 1.0
    rfn = zonal.from_coeffs(coeffs, params, order=cfg.quad_order)
    curve = stability.quotient_curve(rfn, eps_grid=cfg.eps_grid)
    rows = [
        (e, qv, curve.extrapolated_limit)
        for e, qv in zip(curve.eps, curve.quotient)
    ]
    return render_csv(("eps", "quotient", "extrapolated_limit"), rows)


def cmd_quartic(cfg: RunConfig) -> str:
    curve = cylinder.degenerate_quotient_curve(cfg.d, eps_grid=cfg.eps_grid)
    rows = [
        (e, qv, curve.extrapolated_limit)
        for e, qv in zip(curve.eps, curve.quotient)
    ]
    return render_csv(("eps", "quotient", "extrapolated_limit"), rows)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        code = 0
        if args.command == "constants":
            _require(parser, cfg, d=cfg.d, s=cfg.s)
            text = cmd_constants(cfg)
        elif args.command == "verify":
            text, code = cmd_verify(args, cfg)
        elif args.command == "period-map":
            _require(parser, cfg, d=cfg.d)
            text = cmd_period_map(parser, cfg)
        elif args.command == "be-scan":
            _require(parser, cfg, d=cfg.d, s=cfg.s)
            text = cmd_be_scan(parser, args, cfg)
        else:
            _require(parser, cfg, d=cfg.d)
            text = cmd_quartic(cfg)
    except (DomainError, PreconditionError, FileNotFoundError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.stderr.write("run with --help for usage\n")
        return 2
    except (ComputationError, InconsistencyError, DegenerateInputError) as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return 1
    _emit(text, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
