"""Command line front end: run, validate, or oracle-check scenario files.

Exit codes: 0 on success, 1 for scenario (file or document) errors and for
an ``--out`` path that cannot be written, 2 for a step that failed at run time.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import DEFAULT_TOL
from .oracle import ORACLE_MAX_QUBITS
from .runner import RunError, run
from .scenario import Options, Scenario, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 1
EXIT_STEP_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Simulate unitary measurement scenarios and report branches, "
        "correlation ledgers and observer agreement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="scenario JSON file")
        p.add_argument(
            "--tol", type=float, default=None,
            help="detection tolerance (overrides the scenario's option; default "
            f"{DEFAULT_TOL:.0e})".replace("e-0", "e-"),
        )
        p.add_argument(
            "--relabel", choices=("on", "off"), default=None,
            help="count anticorrelated clusters in the ledger (default on)",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format"
        )
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    add_common(sub.add_parser("run", help="execute a scenario and print its report"))
    sub.add_parser("validate", help="parse and validate a scenario without running it") \
        .add_argument("file", help="scenario JSON file")
    add_common(
        sub.add_parser(
            "oracle",
            help=f"execute through the dense-matrix oracle (max {ORACLE_MAX_QUBITS} qubits)",
        )
    )
    return parser


def _load(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("bad-structure", f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError("syntax", f"{path!r} is not UTF-8 text (byte {exc.start})") from None
    return parse_scenario(text)


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    options: Options = scenario.options
    if args.tol is not None:
        if not 0 < args.tol < 1:
            raise ScenarioError("bad-structure", f"--tol must be in (0, 1), got {args.tol}")
        options = options._replace(tolerance=args.tol)
    if args.relabel is not None:
        options = options._replace(relabel=args.relabel == "on")
    return scenario._replace(options=options)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _load(args.file)
        if args.command != "validate":
            scenario = _apply_overrides(scenario, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR

    if args.command == "validate":
        print(f"scenario valid: {len(scenario.register)} subsystems, {len(scenario.script)} steps")
        return EXIT_OK

    engine = "oracle" if args.command == "oracle" else "gates"
    try:
        report = run(scenario, engine=engine)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP_ERROR

    text = report.render_text() if args.format == "text" else report.render_json()
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
