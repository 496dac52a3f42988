"""Command-line scenario runner.

One subcommand per scenario kind, plus ``verify`` (the seeded invariant
suite) and ``sweep`` (Cartesian parameter grids over a base scenario). Every
run cross-checks its results against an independent oracle route and exits
non-zero when a residual exceeds its documented tolerance.

Exit codes: 0 success, 1 validation error, 2 oracle-residual failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .scenarios import (
    KINDS,
    VERIFY_COLUMNS,
    ConfigError,
    emit_results,
    parse_config,
    parse_config_mapping,
    parse_sweep_document,
    run_scenario,
    run_sweep,
    scenario_template,
    verification_suite,
    within_tolerance,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESIDUAL = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potentops",
        description="Pre/post-selected quantum measurement scenarios with "
                    "built-in oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_common_flags(sub.add_parser(kind, help=f"run the {kind} scenario"))
    _add_common_flags(sub.add_parser(
        "verify", help="run the full seeded invariant suite"))
    _add_common_flags(sub.add_parser(
        "sweep", help="run a Cartesian parameter grid over a base scenario"))
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="YAML scenario configuration")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--tolerance-override", type=float, metavar="X",
                   help="replace every documented residual tolerance (testing only)")


def _read_config_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _residual_exit_code(rows, tolerance) -> int:
    """EXIT_RESIDUAL (with a stderr count) when any row fails
    :func:`within_tolerance`; EXIT_OK otherwise."""
    failures = sum(not within_tolerance(r["residual"], tolerance) for r in rows)
    if failures:
        print(f"potentops: {failures}/{len(rows)} rows exceed the residual "
              f"tolerance {tolerance:g}", file=sys.stderr)
        return EXIT_RESIDUAL
    return EXIT_OK


def _tolerance(args, documented: float) -> float:
    return documented if args.tolerance_override is None else args.tolerance_override


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"'seed' must be a non-negative integer, got {args.seed}")
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sweep":
            return _run_sweep_command(args)
        return _run_scenario_command(args)
    except ConfigError as exc:
        print(f"potentops: configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"potentops: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"potentops: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def _run_scenario_command(args) -> int:
    if args.config:
        cfg = parse_config(_read_config_text(args.config))
        if cfg.kind != args.command:
            raise ConfigError(
                f"config is a {cfg.kind!r} scenario but the subcommand is {args.command!r}")
    else:
        cfg = parse_config_mapping(scenario_template(args.command))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rows = run_scenario(cfg)
    fmt = args.format or cfg.output_format or "csv"
    out = args.out or cfg.output_path
    emit_results(rows, fmt, out, KINDS[cfg.kind].columns)
    return _residual_exit_code(rows, _tolerance(args, KINDS[cfg.kind].tolerance))


def _run_sweep_command(args) -> int:
    if not args.config:
        raise ConfigError("sweep needs --config with 'base' and 'sweep' sections")
    base, sweep = parse_sweep_document(_read_config_text(args.config))
    rows, kind = run_sweep(base, sweep, seed=args.seed)
    columns = ("point", *KINDS[kind].columns)
    emit_results(rows, args.format or "csv", args.out, columns)
    return _residual_exit_code(rows, _tolerance(args, KINDS[kind].tolerance))


def _run_verify(args) -> int:
    if args.config:
        raise ConfigError("verify runs its seeded suite and reads no --config")
    rows = verification_suite(seed=args.seed if args.seed is not None else 0)
    failures = 0
    for row in rows:
        tolerance = _tolerance(args, row["tolerance"])
        ok = within_tolerance(row["residual"], tolerance)
        failures += not ok
        status = "ok " if ok else "FAIL"
        print(f"{status} {row['check']:40s} residual={row['residual']:.3e} "
              f"tol={tolerance:g}")
    if args.out:
        emit_results(rows, args.format or "csv", args.out, VERIFY_COLUMNS)
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_RESIDUAL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
