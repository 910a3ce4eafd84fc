"""Command-line entry point.

    shc-lab run <config-file> [--set k=v]... [--workers N] [--out DIR]
    shc-lab list-experiments

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ShcLabError, ValidationError
from .experiments import EXPERIMENTS, parse_config_file, run_experiment, write_outputs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shc-lab",
        description="Spectral heat content laboratory for time-changed stable processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a key=value config file")
    run.add_argument("config", help="path to the config file")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    run.add_argument("--workers", type=int, default=1, help="Monte Carlo worker processes")
    run.add_argument("--out", default=None, help="output directory (default: config 'out')")

    sub.add_parser("list-experiments", help="list the available experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name in sorted(EXPERIMENTS):
            print(f"{name:24s} {EXPERIMENTS[name]}")
        return EXIT_OK
    try:
        config = parse_config_file(args.config, args.overrides)
        if args.out is not None:
            config = dataclasses.replace(config, out=args.out)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        result = run_experiment(config, workers=args.workers)
        csv_path, json_path = write_outputs(result, config.out)
    except ValidationError as exc:
        print(f"shc-lab: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ShcLabError, ArithmeticError) as exc:
        print(f"shc-lab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path} and {json_path}")
    for key, val in sorted(result.summary.items()):
        print(f"  {key}: {val}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
