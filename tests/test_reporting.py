import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptgauge import verification
from ptgauge.reporting import CheckRecord, Report, Table, _fmt, emit


def _report():
    rep = Report(command="demo", config={"b": 2, "a": 1}, seed=11)
    rep.add("fine", 1e-12, 1e-10)
    rep.add("coarse", 0.5, 1e-3)
    rep.tables.append(Table(
        name="values",
        columns=["index", "value", "flag"],
        rows=[[0, 0.1, True], [1, float("nan"), False]],
    ))
    return rep


class TestRecords:
    def test_passed_logic(self):
        assert CheckRecord("x", 1e-12, 1e-10).passed
        assert not CheckRecord("x", 2e-10, 1e-10).passed
        assert CheckRecord("edge", 1e-10, 1e-10).passed

    @given(st.floats(), st.floats(min_value=0, exclude_min=True))
    @example(float("-inf"), 1e-10)
    @example(float("inf"), float("inf"))
    @example(float("nan"), 1.0)
    @settings(max_examples=200)
    def test_passed_iff_finite_and_within_tolerance(self, residual, tolerance):
        """The one pass rule, for every float residual (NaN and +-inf
        included) and every positive tolerance, on the record and on the
        report that holds it."""
        want = math.isfinite(residual) and residual <= tolerance
        rep = Report(command="c", config={})
        assert rep.add("r", residual, tolerance).passed is want
        assert rep.passed is want

    def test_report_passed_requires_all(self):
        rep = _report()
        assert not rep.passed
        rep.records = [r for r in rep.records if r.name == "fine"]
        assert rep.passed

    def test_add_coerces_to_float(self):
        rep = Report(command="c", config={})
        rec = rep.add("r", np.float64(0.25), np.float64(1.0))
        assert isinstance(rec.residual, float)
        assert isinstance(rec.tolerance, float)


class TestJson:
    def test_layout(self, tmp_path):
        paths = emit(_report(), "json", str(tmp_path))
        assert paths == [str(tmp_path / "demo.json")]
        payload = json.loads((tmp_path / "demo.json").read_text())
        assert list(payload["config"]) == ["a", "b"]
        assert payload["records"][0]["pass"] is True
        assert payload["records"][1]["pass"] is False
        assert payload["pass"] is False

    def test_float_formatting(self, tmp_path):
        emit(_report(), "json", str(tmp_path))
        payload = json.loads((tmp_path / "demo.json").read_text())
        res = payload["records"][0]["residual"]
        assert res == format(1e-12, ".17e")
        assert float(res) == 1e-12

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(min_value=0, max_value=1))
    @settings(max_examples=50)
    def test_seventeen_digits_round_trip(self, residual, tolerance):
        rep = Report(command="c", config={})
        rep.add("r", residual, tolerance)
        # 17 significant digits reproduce any double exactly
        payload_res = format(rep.records[0].residual, ".17e")
        assert float(payload_res) == residual

    def test_wall_time_not_serialized(self, tmp_path):
        rep = _report()
        rep.wall_time = 12.5
        emit(rep, "json", str(tmp_path))
        text = (tmp_path / "demo.json").read_text()
        assert "wall_time" not in text
        assert "12.5" not in text

    def test_byte_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit(_report(), "json", str(d1))
        emit(_report(), "json", str(d2))
        assert (d1 / "demo.json").read_bytes() == (d2 / "demo.json").read_bytes()


class TestCsv:
    def test_layout_and_bool_encoding(self, tmp_path):
        paths = emit(_report(), "csv", str(tmp_path))
        assert paths == [str(tmp_path / "demo_values.csv")]
        lines = (tmp_path / "demo_values.csv").read_text().splitlines()
        assert lines[0] == "index,value,flag"
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[2] == "1"
        assert lines[2].split(",")[2] == "0"

    def test_nan_serializes(self, tmp_path):
        emit(_report(), "csv", str(tmp_path))
        lines = (tmp_path / "demo_values.csv").read_text().splitlines()
        assert "nan" in lines[2].split(",")[1]

    def test_no_tables_writes_nothing(self, tmp_path):
        rep = Report(command="bare", config={})
        rep.add("only", 0.0, 1.0)
        assert emit(rep, "csv", str(tmp_path)) == []

    def test_byte_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit(_report(), "csv", str(d1))
        emit(_report(), "csv", str(d2))
        assert ((d1 / "demo_values.csv").read_bytes()
                == (d2 / "demo_values.csv").read_bytes())


def _split(v) -> list:
    """A value's cells, as the reports have always split them: a complex
    value into its real and imaginary parts, an array into its entries."""
    if isinstance(v, np.ndarray):
        return [c for x in v.ravel().tolist() for c in _split(x)]
    if isinstance(v, complex):
        return [_fmt(float(v.real)), _fmt(float(v.imag))]
    return [_fmt(v)]


def _reference_json(rep) -> str:
    """The report as one materialized payload, dumped at once."""
    payload = {
        "command": rep.command,
        "config": {k: rep.config[k] for k in sorted(rep.config)},
        "seed": rep.seed,
        "records": [{"name": r.name, "residual": _fmt(r.residual),
                     "tolerance": _fmt(r.tolerance), "pass": r.passed}
                    for r in rep.records],
        "tables": [{"name": t.name, "columns": list(t.columns),
                    "rows": [[c for v in row for c in _split(v)]
                             for row in t.rows]}
                   for t in rep.tables],
        "pass": rep.passed,
    }
    return json.dumps(payload, indent=1) + "\n"


_names = st.text("abcxyz_", min_size=1, max_size=6)
_cell_values = st.one_of(
    st.booleans(), st.integers(), st.text(max_size=6), st.floats(),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.lists(st.complex_numbers(), max_size=3).map(
        lambda v: np.array(v, dtype=complex)))
_tables = st.lists(
    st.builds(Table, name=_names, columns=st.lists(_names, min_size=1,
                                                      max_size=4),
              rows=st.one_of(st.just([]),
                             st.lists(st.lists(_cell_values, max_size=4),
                                      min_size=1, max_size=1),
                             st.lists(st.lists(_cell_values, max_size=4),
                                      min_size=2, max_size=8))),
    max_size=3, unique_by=lambda t: t.name)
_reports = st.builds(
    lambda config, seed, records, tables: Report(
        command="demo", config=config, seed=seed,
        records=[CheckRecord(*r) for r in records], tables=tables),
    st.dictionaries(_names, st.one_of(st.integers(), st.floats(), _names),
                    max_size=3),
    st.integers(0, 99),
    st.lists(st.tuples(_names, st.floats(), st.floats()), max_size=3),
    _tables)


@given(_reports)
@example(Report(command="demo", config={}))
@settings(max_examples=150, deadline=None)
def test_json_bytes_match_one_dump_of_the_payload(tmp_path_factory, rep):
    """Rows written one by one, as read, give the bytes of the whole payload
    dumped at once, for tables of no, one and many rows and for cells of
    every kind a producer hands over."""
    d = tmp_path_factory.mktemp("json")
    assert emit(rep, "json", str(d)) == [str(d / "demo.json")]
    assert (d / "demo.json").read_text() == _reference_json(rep)


@given(_reports)
@settings(max_examples=150, deadline=None)
def test_csv_bytes_hold_the_split_cells(tmp_path_factory, rep):
    d = tmp_path_factory.mktemp("csv")
    paths = emit(rep, "csv", str(d))
    assert paths == [str(d / f"demo_{t.name}.csv") for t in rep.tables]
    for t, path in zip(rep.tables, paths):
        want = "".join(",".join(cells) + "\n" for cells in [
            t.columns, *([c for v in row for c in _split(v)] for row in t.rows)])
        with open(path, newline="") as fh:
            assert fh.read() == want


def test_json_of_a_large_sweep_is_written_as_read(tmp_path):
    """The 20736-row phase diagram is never held as strings: the traced
    peak of writing its JSON stays under 1 MB (17 MB as one payload)."""
    axis = "-3:3:12"
    rep = verification.run("phase-diagram",
                           verification.PhaseDiagramParams(axis, axis, axis,
                                                           axis))
    tracemalloc.start()
    try:
        emit(rep, "json", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak
    assert len(json.loads((tmp_path / "phase-diagram.json").read_text())
               ["tables"][0]["rows"]) == 12**4


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        emit(_report(), "yaml", str(tmp_path))


def test_unwritable_directory(tmp_path):
    target = tmp_path / "file"
    target.write_text("not a directory")
    with pytest.raises(OSError):
        emit(_report(), "json", str(target))
