"""Batch command-line surface.

Subcommands: gauge-scalar | cartan | lts-check | spectrum-matrix | jc |
point-angle | point-spectrum | phase-diagram | verify-all.

Each flag is a field of the subcommand's params dataclass in
`verification.COMMANDS` (n_low is --n-low, typed by its default); only
--config, --out-dir and --format are written here.  The lines of a flat
key=value file (--config FILE), whose keys are whole flag names, act as
--key=value flags placed before the explicit ones, which win.  The report
directory (--out-dir, else $PTGAUGE_REPORT_DIR, else ./reports) is made
before any check runs.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 usage error (one stderr line, naming path:line for a bad
config line): every flag argparse rejects, every out-of-domain or
non-finite value and an unusable report directory.  All sampling is
seeded, so an identical config reproduces byte-identical output files.

Standard error gets what varies from run to run or only helps to read
one: the wall time of each record function that verification.run ran and
the TIGHTEST records nearest their bound, by residual / tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .reporting import Report, emit
from .verification import COMMANDS, UsageError, run

TIGHTEST = 5   # records listed on stderr after a run, nearest their bound first


class _Parser(argparse.ArgumentParser):
    """Raises argparse's one-line message as a UsageError (subparsers too)."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _config_flags(parser, path: str, name: str) -> list:
    """The --config file's key = value lines as --key=value tokens; a key
    must be one of command name's flag names in full, other than --config,
    and parser must take its value (an error names path:line)."""
    fields = dataclasses.fields(COMMANDS[name].params)
    flags = {"out-dir", "format"} | {f.name.replace("_", "-") for f in fields}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    tokens = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in flags:
            raise UsageError(f"{path}:{ln}: unknown parameter {key!r} "
                             f"for command {name!r}")
        tokens.append(f"--{key}={val}")
        try:
            parser.parse_args([name, tokens[-1]])
        except UsageError as exc:
            raise UsageError(f"{path}:{ln}: {exc}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        if args.config is not None:
            # the file's lines, each already taken by argparse, act as flags
            # placed before the explicit ones, which win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(parser, args.config, args.command)
            args = parser.parse_args(argv)
        params = command.params(**{f.name: getattr(args, f.name)
                                   for f in dataclasses.fields(command.params)})
        out_dir = (args.out_dir or os.environ.get("PTGAUGE_REPORT_DIR")
                   or "reports")
        os.makedirs(out_dir, exist_ok=True)   # before any check runs
    except (ValueError, OSError) as exc:   # bad flags, params or out_dir
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)

    report = run(args.command, params)
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"[{status}] {rec.name}: residual {rec.residual:.3e} "
              f"(tol {rec.tolerance:.3e})")
    formats = ["json", "csv"] if args.format == "both" else [args.format]
    try:
        for fmt in formats:
            for path in emit(report, fmt, out_dir):
                print(f"wrote {path}")
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
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
