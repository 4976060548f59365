"""Machine-readable reports: per-check records, tables, JSON/CSV emission.

Serialization rules, chosen so that re-running an identical config yields
byte-identical files:
  * JSON keys are written in fixed insertion order;
  * all floats use 17-significant-digit scientific notation;
  * complex table values are split into _re/_im columns by the producer;
  * wall time and per-check timings are kept on the in-memory report for
    logging (on stderr) but excluded from the serialized output.

CheckRecord.passed is the one pass/fail rule of the package: a record
passes only if its residual is finite and at most its tolerance.  The
library's check functions return residuals and leave the verdict here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence


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
    rows: Sequence[Sequence]


@dataclass
class Report:
    command: str
    config: dict
    records: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0
    timings: dict = field(default_factory=dict)   # check name -> wall seconds

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


def emit(report: Report, fmt: str, out_dir: str) -> list:
    """Write the report; returns the list of paths written.

    fmt 'json' writes <command>.json with the full report; fmt 'csv'
    writes one <command>_<table>.csv per table.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "json":
        payload = {
            "command": report.command,
            "config": {k: report.config[k] for k in sorted(report.config)},
            "seed": report.seed,
            "records": [
                {"name": r.name, "residual": _fmt(r.residual),
                 "tolerance": _fmt(r.tolerance), "pass": r.passed}
                for r in report.records
            ],
            "tables": [
                {"name": t.name, "columns": list(t.columns),
                 "rows": [[_fmt(v) for v in row] for row in t.rows]}
                for t in report.tables
            ],
            "pass": report.passed,
        }
        path = os.path.join(out_dir, f"{report.command}.json")
        try:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
        paths.append(path)
    elif fmt == "csv":
        for t in report.tables:
            path = os.path.join(out_dir, f"{report.command}_{t.name}.csv")
            try:
                with open(path, "w") as fh:
                    fh.write(",".join(t.columns) + "\n")
                    for row in t.rows:
                        fh.write(",".join(_fmt(v) for v in row) + "\n")
            except OSError as exc:
                raise OSError(f"cannot write table to {path}: {exc}") from exc
            paths.append(path)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return paths
