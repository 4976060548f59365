"""Batch command-line surface.

Subcommands: gauge-scalar | cartan | lts-check | spectrum-matrix | jc |
point-angle | point-spectrum | phase-diagram | verify-all.

Each flag is a field of the subcommand's params dataclass in
`verification.COMMANDS` (n_low is --n-low, typed by its default); only
--config, --out-dir and --format are written here.  A flat key=value file
(--config FILE) takes the flag names as keys; explicit flags win.  The
default output directory is $PTGAUGE_REPORT_DIR, else ./reports.  Exit
codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
which includes every out-of-domain or non-finite value.  All sampling is
seeded, so an identical config reproduces byte-identical output files.

Standard error gets what varies from run to run or only helps to read
one: the wall time of each check (verify-all) and the TIGHTEST records
nearest their bound, by residual / tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .reporting import Report, emit
from .verification import COMMANDS, UsageError

TIGHTEST = 5   # records listed on stderr after a run, nearest their bound first


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgauge",
        description="Gauge factorizations, Krein metrics, and point "
                    "interactions for PT-symmetric Schrodinger operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # each subparser owns its --format action: one shared through
        # `parents` would take the default last set on any subcommand
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None,
                       help="flat key=value file; explicit flags win")
        p.add_argument("--out-dir", default=None,
                       help="report directory (default: $PTGAUGE_REPORT_DIR "
                            "or ./reports)")
        p.add_argument("--format", choices=["json", "csv", "both"],
                       default=command.format, help="report serialization format")
        for f in dataclasses.fields(command.params):
            # string fields (complex entries, ranges) are parsed by the params
            typed = {} if isinstance(f.default, str) else {"type": type(f.default)}
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                           help=f.metadata.get("help"), **typed)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args) -> None:
    """Load the --config file and install it as the subcommand's defaults."""
    path = args.config
    sp = next(a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    known = {opt[2:]: action for action in sp._actions
             for opt in action.option_strings if opt.startswith("--")}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{ln}: unknown parameter {key!r} "
                             f"for command {args.command!r}")
        action = known[key]
        if action.type is not None:
            try:
                val = action.type(val)
            except ValueError:
                raise UsageError(f"{path}:{ln}: malformed value for {key!r}: "
                                 f"{val!r}")
        elif action.choices is not None and val not in action.choices:
            raise UsageError(f"{path}:{ln}: invalid choice for {key!r}: "
                             f"{val!r}")
        sp.set_defaults(**{action.dest: val})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # explicit flags win: parse again over the file's defaults
            _apply_config_file(parser, args)
            args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        params = command.params(**{f.name: getattr(args, f.name)
                                   for f in dataclasses.fields(command.params)})
    except ValueError as exc:   # UsageError, or a domain error of the params
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)

    out_dir = (args.out_dir or os.environ.get("PTGAUGE_REPORT_DIR")
               or "reports")
    t0 = time.perf_counter()
    report = command.run(params)
    report.wall_time = time.perf_counter() - t0

    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"[{status}] {rec.name}: residual {rec.residual:.3e} "
              f"(tol {rec.tolerance:.3e})")
    formats = ["json", "csv"] if args.format == "both" else [args.format]
    for fmt in formats:
        if fmt == "csv" and not report.tables:
            continue
        for path in emit(report, fmt, out_dir):
            print(f"wrote {path}")
    overall = "PASS" if report.passed else "FAIL"
    print(f"{report.command}: {overall} "
          f"({len(report.records)} checks, {report.wall_time:.2f} s)")
    _log_summary(report)
    return 0 if report.passed else 1


def _log_summary(report: Report) -> None:
    """Per-check wall times and the tightest records, on stderr only."""
    for name, seconds in report.timings.items():
        print(f"time {name}: {seconds:.3f} s", file=sys.stderr)
    tightest = sorted(report.records, key=lambda r: r.margin,
                      reverse=True)[:TIGHTEST]
    for rec in tightest:
        print(f"margin {rec.margin:.3e} {rec.name}: residual "
              f"{rec.residual:.3e} (tol {rec.tolerance:.3e})", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
