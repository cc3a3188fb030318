"""Report serialization: JSON schema, float fidelity, CSV shape."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sudfer import ExperimentReport, InvalidInput, render, render_csv, render_json, write_report
from sudfer.reports import format_float


def tiny_report(records=None):
    return ExperimentReport(
        config={"experiment": "stein-check", "seed": 3, "beta": "auto"},
        records=records if records is not None else [],
        summary={"pass": True, "verdicts": len(records or [])},
        version="0.1.0",
        duration_seconds=1.25,
    )


class TestFloatRendering:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(3)
        values = list(rng.standard_normal(200)) + [0.1, 1e-300, 1e300, -2.5e-17, 123456789.123456]
        for x in values:
            assert float(format_float(float(x))) == float(x)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.0**53 + 2.0)
    def test_json_round_trips_every_finite_float(self, x):
        (record,) = json.loads(render_json(tiny_report([{"x": x}])))["records"]
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            # The one exception: -0.0 renders as "-0", which JSON parses as the int 0.
            assert record["x"] == 0 and isinstance(record["x"], int)
        else:
            assert np.float64(float(record["x"])).view(np.uint64) == np.float64(x).view(np.uint64)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInput):
                format_float(bad)


class TestJson:
    def test_top_level_schema(self):
        doc = json.loads(render_json(tiny_report()))
        assert list(doc.keys()) == ["config", "records", "summary", "version", "duration_seconds"]
        assert doc["records"] == []
        assert doc["version"] == "0.1.0"
        assert doc["duration_seconds"] == 1.25

    def test_round_trip_structural_equality(self):
        records = [
            {"trial": 0, "value": 0.1, "flag": True, "label": "a,b \"c\"", "hole": None},
            {"trial": 1, "value": -3.75e-9, "flag": False, "label": "plain", "hole": 2},
        ]
        report = tiny_report(records)
        doc = json.loads(render_json(report))
        assert doc["config"] == report.config
        assert doc["records"] == records
        assert doc["summary"] == report.summary

    def test_unserializable_values_rejected(self):
        with pytest.raises(InvalidInput):
            render_json(tiny_report([{"x": object()}]))
        with pytest.raises(InvalidInput):
            render_json(tiny_report([{"x": math.inf}]))


class TestCsv:
    def test_constant_column_count(self):
        records = [{"a": 1, "b": 0.5, "c": True}, {"a": 2, "b": -0.25, "c": False}]
        text = render_csv(tiny_report(records))
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c"
        assert all(line.count(",") == 2 for line in lines)
        assert lines[1] == "1,0.5,true"
        assert lines[2] == "2,-0.25,false"

    def test_empty_records(self):
        assert render_csv(tiny_report()) == "\n"

    def test_quoting_and_null(self):
        records = [{"label": 'say "hi", ok', "hole": None}]
        lines = render_csv(tiny_report(records)).strip().split("\n")
        assert lines[1] == '"say ""hi"", ok",'

    def test_schema_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            render_csv(tiny_report([{"a": 1}, {"b": 2}]))


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_report(tiny_report(), str(path), "json")
        doc = json.loads(path.read_text())
        assert doc["summary"]["pass"] is True

    def test_stdout_passthrough(self, capsys):
        write_report(tiny_report(), None, "json")
        write_report(tiny_report(), "-", "csv")
        out = capsys.readouterr().out
        assert '"config"' in out
        assert out.endswith("\n")

    def test_unknown_format(self):
        with pytest.raises(InvalidInput):
            render(tiny_report(), "yaml")

    def test_body_excludes_duration(self):
        a = tiny_report()
        b = tiny_report()
        b.duration_seconds = 99.0
        assert a.body() == b.body()
        assert render_json(a) != render_json(b)
