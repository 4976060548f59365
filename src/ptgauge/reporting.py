"""Machine-readable reports: per-check records, tables, JSON/CSV emission.

Serialization rules, chosen so that re-running an identical config yields
byte-identical files:
  * JSON keys are written in fixed insertion order;
  * all floats use 17-significant-digit scientific notation;
  * in a table row, a complex value gives two cells, its real and imaginary
    parts, and an array one per entry; both formats write rows as read;
  * wall times (total, and of each record function in verification.run)
    are kept on the in-memory report for logging, on stderr, but excluded
    from the serialized output.

CheckRecord.passed is the one pass/fail rule of the package: a record
passes only if its residual is finite and at most its tolerance.  The
library's check functions return residuals and leave the verdict here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tolerance

    @property
    def margin(self) -> float:
        """residual / tolerance, so a record passes at margin <= 1; inf for a
        non-finite residual, or a nonzero one at tolerance 0."""
        if not math.isfinite(self.residual):
            return math.inf
        if self.tolerance > 0:
            return self.residual / self.tolerance
        return 0.0 if self.residual == 0 else math.inf


@dataclass(frozen=True)
class Table:
    name: str
    columns: Sequence[str]
    rows: Iterable[Sequence]   # read once by each emit


@dataclass
class Report:
    command: str
    config: dict
    records: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0
    timings: dict = field(default_factory=dict)   # function -> wall seconds

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name: str, residual: float, tolerance: float) -> CheckRecord:
        rec = CheckRecord(name=name, residual=float(residual),
                          tolerance=float(tolerance))
        self.records.append(rec)
        return rec


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17e")
    return str(x)


def _cells(row):
    """A row's cells: a complex value's two parts, an array's entries."""
    for x in row:
        if isinstance(x, np.ndarray):
            yield from _cells(x.ravel().tolist())
        elif isinstance(x, complex):
            yield from (_fmt(x.real), _fmt(x.imag))
        else:
            yield _fmt(x)


_ROWS, _row = "\x00", json.JSONEncoder(separators=(",\n     ", ": ")).encode


def _json(report: Report):
    """json.dump(payload, fh, indent=1) and a newline, in pieces: the payload
    with _ROWS (no report string holds a NUL) for each table's rows, then
    each row, as it is read, by _row, which puts its cells at their depth."""
    payload = {
        "command": report.command,
        "config": {k: report.config[k] for k in sorted(report.config)},
        "seed": report.seed,
        "records": [
            {"name": r.name, "residual": _fmt(r.residual),
             "tolerance": _fmt(r.tolerance), "pass": r.passed}
            for r in report.records
        ],
        "tables": [{"name": t.name, "columns": list(t.columns), "rows": _ROWS}
                   for t in report.tables],
        "pass": report.passed,
    }
    text = json.dumps(payload, indent=1) + "\n"
    head, *tails = text.split(json.dumps(_ROWS))
    yield head
    for t, tail in zip(report.tables, tails):
        sep = "["
        for row in t.rows:
            cells = _row(list(_cells(row)))[1:-1]
            yield f"{sep}\n    " + (f"[\n     {cells}\n    ]" if cells else "[]")
            sep = ","
        yield ("[]" if sep == "[" else "\n   ]") + tail


def emit(report: Report, fmt: str, out_dir: str) -> list:
    """Write the report; returns the list of paths written.

    fmt 'json' writes <command>.json with the full report, 'csv' one
    <command>_<table>.csv per table; each row is written as it is read.
    """
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, report.command)
    if fmt == "json":
        files = [(stem + ".json", _json(report))]
    elif fmt == "csv":
        files = [(f"{stem}_{t.name}.csv", (",".join(c) + "\n" for c in chain(
            [t.columns], map(_cells, t.rows)))) for t in report.tables]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    for path, pieces in files:
        try:
            with open(path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return [path for path, _ in files]
