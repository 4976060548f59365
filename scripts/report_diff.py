"""Record-level diff of two directories of ptgauge JSON reports.

Pairs the <command>.json files of OLD_DIR and NEW_DIR by name (write them
with `--format json` or `--format both`) and prints, for each pair:

  * each record whose residual, tolerance or pass flag moved: old and new
    residual, the move in ulps (units in the last place of a float64)
    and the move as a fraction of the new tolerance;
  * records only in NEW (added) or only in OLD (removed), except that a
    removed and an added record are printed as one rename when each is
    the only one of its kind with their residual and tolerance (many
    records read 0.0, and a pair among several would be a guess);
  * config keys added, removed or changed, and a changed seed or pass;
  * per table, the row counts and the largest move of a numeric entry
    over the rows and columns both have, with its row and column.

Files found in one directory only are named.  Exits 0 whether or not
anything moved, 2 with a one-line usage error if a directory is missing.

    python3 scripts/report_diff.py OLD_DIR NEW_DIR
"""

import argparse
import json
import math
import struct
import sys
from pathlib import Path


def ordinal(x: float) -> int:
    """An integer that orders float64 values as they order, consecutive
    for neighbouring floats, so ulps(a, b) = |ordinal(a) - ordinal(b)|."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> str:
    if math.isnan(a) or math.isnan(b):
        return "nan" if math.isnan(a) != math.isnan(b) else "0"
    return str(abs(ordinal(b) - ordinal(a)))


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _value(record) -> tuple:
    return record["residual"], record["tolerance"]


def diff_records(old: list, new: list) -> list:
    lines = []
    before = {r["name"]: r for r in old}
    after = {r["name"]: r for r in new}
    for name, r in after.items():
        o = before.get(name)
        if o is None or o == r:
            continue
        a, b, tol = float(o["residual"]), float(r["residual"]), float(r["tolerance"])
        frac = (b - a) / tol if tol > 0 else (b - a) * math.inf if b != a else 0.0
        line = (f"  {name}: {o['residual']} -> {r['residual']}, "
                f"{ulps(a, b)} ulp, {frac:+.3g} of tolerance {r['tolerance']}")
        if o["tolerance"] != r["tolerance"]:
            line += f" (was {o['tolerance']})"
        if o["pass"] != r["pass"]:
            line += f", pass {o['pass']} -> {r['pass']}"
        lines.append(line)
    added = [r for name, r in after.items() if name not in before]
    removed = [r for name, r in before.items() if name not in after]
    for r in removed:
        match = [a for a in added if _value(a) == _value(r)]
        alone = [_value(o) for o in removed].count(_value(r)) == 1
        if alone and len(match) == 1:
            added.remove(match[0])
            lines.append(f"  renamed: {r['name']} -> {match[0]['name']} "
                         f"(equal value {r['residual']})")
        else:
            lines.append(f"  removed: {r['name']} = {r['residual']}")
    lines += [f"  added: {r['name']} = {r['residual']}" for r in added]
    unchanged = sum(before.get(name) == r for name, r in after.items())
    return lines + [f"  {unchanged} of {len(new)} records unchanged"]


def diff_config(old: dict, new: dict) -> list:
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"  config removed: {key} = {old[key]!r}")
        elif key not in old:
            lines.append(f"  config added: {key} = {new[key]!r}")
        elif old[key] != new[key]:
            a, b = _number(old[key]), _number(new[key])
            move = f", {ulps(a, b)} ulp" if None not in (a, b) else ""
            lines.append(f"  config {key}: {old[key]!r} -> {new[key]!r}{move}")
    return lines


def diff_table(name: str, old: dict, new: dict) -> str:
    worst, where, text = 0.0, None, 0
    cols = new["columns"]
    for i, (ro, rn) in enumerate(zip(old["rows"], new["rows"])):
        for j, (co, cn) in enumerate(zip(ro, rn)):
            if co == cn:
                continue
            a, b = _number(co), _number(cn)
            if None in (a, b):
                text += 1
            elif not abs(b - a) <= worst:   # a NaN move is the largest
                worst, where = abs(b - a), (i, cols[j] if j < len(cols) else j)
    line = (f"  table {name}: {len(old['rows'])} -> {len(new['rows'])} rows, "
            f"largest entry move {worst:.3g}")
    if where is not None:
        line += f" (row {where[0]}, column {where[1]})"
    if old["columns"] != cols:
        line += f", columns {old['columns']} -> {cols}"
    return line + (f", {text} text cells differ" if text else "")


def diff_report(old: dict, new: dict) -> list:
    lines = diff_records(old["records"], new["records"])
    lines += diff_config(old["config"], new["config"])
    for key in ("seed", "pass"):
        if old[key] != new[key]:
            lines.append(f"  {key}: {old[key]} -> {new[key]}")
    before = {t["name"]: t for t in old["tables"]}
    for t in new["tables"]:
        if t["name"] in before:
            lines.append(diff_table(t["name"], before.pop(t["name"]), t))
        else:
            lines.append(f"  table added: {t['name']}, {len(t['rows'])} rows")
    lines += [f"  table removed: {name}, {len(t['rows'])} rows"
              for name, t in before.items()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir", type=Path)
    ap.add_argument("new_dir", type=Path)
    args = ap.parse_args(argv)
    for d in (args.old_dir, args.new_dir):
        if not d.is_dir():
            print(f"usage error: not a directory: {d}", file=sys.stderr)
            return 2
    old = {p.name: p for p in args.old_dir.glob("*.json")}
    new = {p.name: p for p in args.new_dir.glob("*.json")}
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            print(f"== {name}: only in {'OLD' if name in old else 'NEW'}")
            continue
        print(f"== {name}")
        for line in diff_report(json.loads(old[name].read_text()),
                                json.loads(new[name].read_text())):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
