"""Exporters: canonical JSON, JSONL round-trips, byte determinism."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.obs.bus import TraceBus
from repro.obs.config import ObsConfig
from repro.obs.events import TraceEvent
from repro.obs.export import (JsonlTraceWriter, event_to_json, read_trace,
                              record_line, timeseries_to_csv_text,
                              write_metrics_json, write_timeseries)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import SAMPLE_COLUMNS, TimeSeries


class TestEventToJson:
    def test_canonical_layout(self):
        event = TraceEvent(7, 1.5, ev.REQUEST_SUBMIT,
                           {"size_mb": 2.0, "disk": 3, "internal": False})
        line = event_to_json(event)
        # seq/t/type lead; payload keys sorted; compact separators
        assert line == ('{"seq":7,"t":1.5,"type":"request.submit",'
                        '"disk":3,"internal":false,"size_mb":2.0}')

    def test_stable_under_payload_insertion_order(self):
        a = event_to_json(TraceEvent(0, 0.0, "x", {"b": 1, "a": 2}))
        b = event_to_json(TraceEvent(0, 0.0, "x", {"a": 2, "b": 1}))
        assert a == b


#: Every scalar kind a payload can carry: bools, ints past 64 bits,
#: every float (NaN, +-inf, -0.0, subnormals), any text (non-ASCII,
#: control characters, quotes, ``%``) and ``None``.
SCALARS = st.one_of(
    st.booleans(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.text(),
    st.none(),
)


def _dumps_record(seq, t, type_, payload):
    """The reference encoding: ``json.dumps`` of the canonical dict."""
    record = {"seq": seq, "t": t, "type": type_}
    for key in sorted(payload):
        record[key] = payload[key]
    return json.dumps(record, separators=(",", ":"), allow_nan=True)


class TestRecordLine:
    @given(seq=st.integers(min_value=0, max_value=2**70),
           t=st.floats(allow_nan=True, allow_infinity=True),
           type_=st.text(), payload=st.dictionaries(st.text(), SCALARS),
           nested=st.lists(SCALARS, max_size=4))
    @settings(max_examples=400, deadline=None)
    @example(seq=0, t=float("nan"), type_="a%sb", payload={
        "%d": -0.0, "neg": float("-inf"), "sub": 5e-324, "ok": True,
        "none": None, "big": 2**70, "s": 'q"\u00e9\x01%'}, nested=[])
    @example(seq=1, t=1.0, type_="x", payload={"t": 2.0, "a": 1}, nested=[])
    def test_equals_json_dumps(self, seq, t, type_, payload, nested):
        assert record_line(seq, t, type_, payload) == \
            _dumps_record(seq, t, type_, payload)
        payload = {**payload, "nested": nested}
        assert record_line(seq, t, type_, payload) == \
            _dumps_record(seq, t, type_, payload)

    def test_same_keys_with_other_value_types(self):
        # the cached template is per key set; the values' types may vary
        lines = [record_line(0, 0.0, "x", {"file": v})
                 for v in (None, 3, "f", 1.5, [1], {"k": 1})]
        assert [json.loads(line)["file"] for line in lines] \
            == [None, 3, "f", 1.5, [1], {"k": 1}]


class TestJsonlTraceWriter:
    def test_round_trip_through_bus(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        with JsonlTraceWriter(path) as writer:
            bus.subscribe(writer)
            bus.emit(ev.ENGINE_START, 0.0, policy="read")
            bus.emit(ev.REQUEST_SUBMIT, 0.5, disk=0, size_mb=1.0)
        assert writer.events_written == 2
        records = read_trace(path)
        assert [r["type"] for r in records] == [ev.ENGINE_START,
                                                ev.REQUEST_SUBMIT]
        assert records[0]["policy"] == "read"
        assert records[1]["seq"] == 1

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer(TraceEvent(0, 0.0, "x", {}))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTraceWriter(path):
            pass
        assert path.exists()


class TestCrashSafety:
    def test_trace_invisible_until_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        assert not path.exists()  # still streaming into the tmp file
        writer.close()
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_abort_quarantines_partial_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        writer.abort()
        writer.abort()  # idempotent
        assert not path.exists()
        partial = tmp_path / "t.jsonl.partial"
        assert partial.exists()
        assert json.loads(partial.read_text())["type"] == "x"

    def test_abort_after_close_keeps_published_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        writer.close()
        writer.abort()  # must not disturb a complete trace
        assert path.exists()
        assert not (tmp_path / "t.jsonl.partial").exists()

    def test_context_exit_on_exception_aborts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlTraceWriter(path) as writer:
                writer(TraceEvent(0, 0.0, "x", {}))
                raise RuntimeError("simulated crash mid-run")
        assert not path.exists()
        assert (tmp_path / "t.jsonl.partial").exists()

    def test_dying_simulation_quarantines_its_trace(self, tmp_path, small_workload,
                                                    params):
        """run_simulation aborts the writer when the run blows up."""
        fileset, trace = small_workload
        path = tmp_path / "run.jsonl"
        obs = ObsConfig(trace_path=path)

        import repro.obs.bus as bus_mod
        original = bus_mod.TraceBus.emit

        def exploding_emit(self, type_, t, **data):
            if type_ == ev.REQUEST_SUBMIT:
                raise RuntimeError("simulated mid-run crash")
            return original(self, type_, t, **data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bus_mod.TraceBus, "emit", exploding_emit)
            with pytest.raises(RuntimeError, match="mid-run"):
                run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=4, disk_params=params, obs=obs)
        assert not path.exists()
        assert (tmp_path / "run.jsonl.partial").exists()


class TestReadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"engine.start"}\n\n')
        assert len(read_trace(path)) == 1

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"engine.start"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_trace(path)

    def test_record_without_type_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0}\n')
        with pytest.raises(ValueError, match="missing 'type'"):
            read_trace(path)


class TestByteDeterminism:
    def test_same_seed_traces_are_byte_identical(self, small_workload, params,
                                                 tmp_path):
        fileset, trace = small_workload
        paths = []
        for i in range(2):
            path = tmp_path / f"run{i}.jsonl"
            run_simulation(make_policy("maid"), fileset, trace.head(800),
                           n_disks=4, disk_params=params,
                           obs=ObsConfig(trace_path=str(path)))
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert len(first) > 0
        assert first == second


class TestTimeseriesExport:
    SERIES = TimeSeries(interval_s=5.0, rows=(
        (0.0, 0, 10.0, 38.0, "high", "active", 2, 100.0),
        (5.0, 0, 12.5, 38.25, "high", "active", 1, 180.5),
    ))

    def test_csv_text_header_and_float_repr(self):
        text = timeseries_to_csv_text(self.SERIES)
        lines = text.splitlines()
        assert lines[0] == ",".join(SAMPLE_COLUMNS)
        assert lines[1].startswith("0.0,0,10.0,38.0,high,active,2,100.0")
        assert len(lines) == 3

    def test_write_csv(self, tmp_path):
        target = write_timeseries(self.SERIES, tmp_path / "ts.csv")
        assert target.read_text() == timeseries_to_csv_text(self.SERIES)

    def test_write_json_document(self, tmp_path):
        target = write_timeseries(self.SERIES, tmp_path / "ts.json")
        doc = json.loads(target.read_text())
        assert doc["interval_s"] == 5.0
        assert doc["columns"] == list(SAMPLE_COLUMNS)
        assert doc["rows"][1][7] == 180.5

    def test_csv_writes_are_deterministic(self, tmp_path):
        a = write_timeseries(self.SERIES, tmp_path / "a.csv").read_bytes()
        b = write_timeseries(self.SERIES, tmp_path / "b.csv").read_bytes()
        assert a == b


class TestMetricsExport:
    def test_write_metrics_json_sorted_and_loadable(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("disk0.utilization_pct").set(42.0)
        reg.counter("sampler.ticks").inc(3)
        target = write_metrics_json(reg, tmp_path / "metrics.json")
        doc = json.loads(target.read_text())
        assert list(doc) == sorted(doc)
        assert doc["sampler.ticks"]["value"] == 3.0
