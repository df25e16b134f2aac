"""Command-line driver.

    gkw <verify|deform|reduce|sweep|catalog>
        [--case NAME | --scenario FILE] [--samples N] [--seed S]
        [--tol X] [--format json|csv|text] [--out PATH]

Exit codes: 0 pass, 1 fail, 2 config error, 3 scenario validation error,
4 tolerance indeterminacy (flagged rows in the report).
"""
from __future__ import annotations

import argparse
import sys

from .linear import RANK_TOL
from .report import ConfigError, RunConfig, emit, run, run_sweep


def build_parser():
    p = argparse.ArgumentParser(prog="gkw", description=__doc__)
    p.add_argument("command", choices=["verify", "deform", "reduce", "sweep", "catalog"])
    p.add_argument("--case", help="catalog case name (see `gkw catalog`)")
    p.add_argument("--scenario", help="scenario json file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=RANK_TOL)
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.samples < 1:
            parser.error(f"argument --samples: must be at least 1, got {args.samples}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = RunConfig(command=args.command, case=args.case,
                       scenario_file=args.scenario, samples=args.samples,
                       seed=args.seed, tol=args.tol, fmt=args.fmt, out=args.out)
    try:
        report = run_sweep(config) if args.command == "sweep" else run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    try:
        payload = emit(report, config.fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.out:
        with open(config.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return report["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
