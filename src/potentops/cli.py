"""Command-line scenario runner.

One subcommand per scenario kind, plus ``verify`` (the seeded invariant
suite) and ``sweep`` (Cartesian parameter grids over a base scenario). Every
run cross-checks its results against an independent oracle route and exits
non-zero when a residual exceeds its documented tolerance.

Exit codes: 0 success, 1 validation error, malformed command line or an
allocation that fails (MemoryError), 2 oracle-residual failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

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
    """Each subcommand takes only the flags it reads: verify runs its seeded
    suite and takes no --config, and sweep requires one."""
    parser = argparse.ArgumentParser(
        prog="potentops",
        description="Pre/post-selected quantum measurement scenarios with "
                    "built-in oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} scenario")
        p.add_argument("--config", metavar="PATH", help="YAML scenario configuration")
        _add_run_flags(p)
    _add_run_flags(sub.add_parser("verify", help="run the full seeded invariant suite"))
    p = sub.add_parser("sweep", help="run a Cartesian parameter grid over a base scenario")
    p.add_argument("--config", metavar="PATH", required=True,
                   help="YAML sweep configuration with 'base' and 'sweep' sections")
    _add_run_flags(p)
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--tolerance-override", type=float, metavar="X",
                   help="replace every documented residual tolerance (testing only)")


def _exit_code(args, rows, tolerance) -> int:
    """Every command's verdict: a row passes :func:`within_tolerance` of
    --tolerance-override, else of its own 'tolerance' (verify) or the kind's.
    verify prints each check and the count; a failing scenario or sweep counts
    its failures on stderr."""
    override = args.tolerance_override
    tolerances = [row.get("tolerance", tolerance) if override is None else override
                  for row in rows]
    passed = [within_tolerance(row["residual"], tol) for row, tol in zip(rows, tolerances)]
    failures = passed.count(False)
    if args.command == "verify":
        for row, tol, ok in zip(rows, tolerances, passed):
            print(f"{'ok ' if ok else 'FAIL'} {row['check']:40s} "
                  f"residual={row['residual']:.3e} tol={tol:g}")
        print(f"{len(rows) - failures}/{len(rows)} checks passed")
    elif failures:
        print(f"potentops: {failures}/{len(rows)} rows exceed the residual "
              f"tolerance {tolerances[0]:g}", file=sys.stderr)
    return EXIT_RESIDUAL if failures else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help, or usage and an error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"'seed' must be a non-negative integer, got {args.seed}")
        run = {"verify": _run_verify, "sweep": _run_sweep_command}.get(
            args.command, _run_scenario_command)
        return _exit_code(args, *run(args))
    except ConfigError as exc:
        print(f"potentops: configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"potentops: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # an allocation no check refused in advance
        print(f"potentops: memory error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"potentops: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def _run_scenario_command(args) -> tuple[list[dict], float]:
    if args.config:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if cfg.kind != args.command:
            raise ConfigError(
                f"config is a {cfg.kind!r} scenario but the subcommand is {args.command!r}")
    else:
        cfg = parse_config_mapping(scenario_template(args.command))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rows = run_scenario(cfg)
    emit_results(rows, args.format or cfg.output_format or "csv", args.out or cfg.output_path,
                 KINDS[cfg.kind].columns)
    return rows, KINDS[cfg.kind].tolerance


def _run_sweep_command(args) -> tuple[list[dict], float]:
    base, sweep = parse_sweep_document(Path(args.config).read_text(encoding="utf-8"))
    rows, kind = run_sweep(base, sweep, seed=args.seed)
    emit_results(rows, args.format or "csv", args.out, ("point", *KINDS[kind].columns))
    return rows, KINDS[kind].tolerance


def _run_verify(args) -> tuple[list[dict], None]:
    if args.format and not args.out:
        raise ConfigError("verify prints a text report; --format needs --out")
    rows = verification_suite(seed=args.seed if args.seed is not None else 0)
    if args.out:
        emit_results(rows, args.format or "csv", args.out, VERIFY_COLUMNS)
    return rows, None  # each verify row carries its own tolerance


if __name__ == "__main__":
    sys.exit(main())
