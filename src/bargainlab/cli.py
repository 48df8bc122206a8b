"""Command-line entry point.

    bargainlab run --scenario <path-or-preset> [--out <path>]
                   [--format csv|json] [--seed <u64>] [--quiet]
    bargainlab presets

``python -m bargainlab`` and ``python -m bargainlab.cli`` run the same.

Exit codes: 0 success (a negotiation breakdown or missing power chain is a
recorded outcome, not an error), 1 scenario errors (missing file, parse,
schema, invariant or work-budget failures, and engine errors during a run
that name the field at fault, each naming the field's path), 2 runtime
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import BargainError, ScenarioError
from .report import report_to_json, run_scenario
from .scenario import parse_scenario, preset_names, preset_text


def _read_scenario_text(spec: str) -> str:
    path = Path(spec)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    # fall back to a bundled preset name (with or without .json)
    try:
        return preset_text(spec)
    except FileNotFoundError:
        raise FileNotFoundError(f"no scenario file or bundled preset at {spec!r}") from None


def main(argv: list[str] | None = None) -> int:
    # no engine calls BLAS, so OpenBLAS's thread pool only costs start-up
    # time; a user's own setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(prog="bargainlab",
                                     description="bilateral-exchange simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file or bundled preset")
    run_parser.add_argument("--scenario", required=True,
                            help="path to a scenario JSON file, or a preset name")
    run_parser.add_argument("--out", help="write output here instead of stdout")
    run_parser.add_argument("--format", choices=("csv", "json"), default="json",
                            help="output format (default json)")
    run_parser.add_argument("--seed", type=int,
                            help="override the seed of a society scenario")
    run_parser.add_argument("--quiet", action="store_true",
                            help="suppress diagnostics on stderr")

    sub.add_parser("presets", help="list bundled preset names")

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in preset_names():
            print(name)
        return 0

    def diag(message: str) -> None:
        if not args.quiet:
            print(f"bargainlab: {message}", file=sys.stderr)

    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        diag("scenario error: --seed must be a 64-bit unsigned integer")
        return 1

    try:
        text = _read_scenario_text(args.scenario)
        scenario = parse_scenario(text)
    except OSError as exc:
        diag(str(exc))
        return 1
    except ScenarioError as exc:
        diag(f"scenario error: {exc}")
        return 1

    try:
        report = run_scenario(scenario, seed_override=args.seed)
        output = report.csv_text if args.format == "csv" else report_to_json(report)
    except Exception as exc:
        if isinstance(exc, BargainError) and exc.field:
            diag(f"scenario error: {exc}")  # the run traced the failure to a field
            return 1
        diag(f"runtime error: {exc}")  # anything else past validation
        return 2

    if args.out:
        try:
            Path(args.out).write_text(output, encoding="utf-8")
        except OSError as exc:
            diag(f"runtime error: {exc}")
            return 2
    else:
        sys.stdout.write(output)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
