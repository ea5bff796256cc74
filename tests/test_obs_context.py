"""Trace context, mergeable histograms, and the flight recorder."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.context import (
    SPAN_ID_BYTES,
    TRACE_ID_BYTES,
    TraceContext,
    TraceStore,
    current_context,
    maybe_context,
    span_records,
    stitched_chrome,
    trace_roles,
    traced_execution,
    use_context,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_dump,
)
from repro.obs.hist import DEFAULT_BOUNDS, LatencyHistogram
from repro.obs.recorder import Recorder, get_recorder, recording, span


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    """Every test here must leave the process untraced and unrecorded."""
    yield
    assert get_recorder() is None
    assert current_context() is None


class TestTraceContext:
    def test_new_mints_wire_sized_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 2 * TRACE_ID_BYTES
        assert len(ctx.span_id) == 2 * SPAN_ID_BYTES
        int(ctx.trace_id, 16)  # hex or ValueError
        assert ctx.baggage == {}

    def test_child_shares_trace_but_not_span(self):
        root = TraceContext.new(baggage={"lane": "3"})
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.baggage == {"lane": "3"}
        child.baggage["lane"] = "4"  # copies, never aliases
        assert root.baggage == {"lane": "3"}

    def test_wire_round_trip(self):
        ctx = TraceContext.new(baggage={"k": "v"})
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        bare = TraceContext.new()
        assert "baggage" not in bare.to_wire()
        assert TraceContext.from_wire(bare.to_wire()) == bare

    @pytest.mark.parametrize("wire", [
        None, "a trace", 42, ["t", "s"], {}, {"span_id": "beef"},
        {"trace_id": ""}, {"trace_id": 7},
    ])
    def test_malformed_wire_degrades_to_none(self, wire):
        assert TraceContext.from_wire(wire) is None

    def test_torn_span_id_gets_a_fresh_one(self):
        # A missing/garbled span id must not lose the trace id.
        ctx = TraceContext.from_wire({"trace_id": "abc", "span_id": 9,
                                      "baggage": "not a dict"})
        assert ctx is not None
        assert ctx.trace_id == "abc"
        assert len(ctx.span_id) == 2 * SPAN_ID_BYTES
        assert ctx.baggage == {}


class TestCurrentContext:
    def test_default_is_untraced(self):
        assert current_context() is None

    def test_use_context_installs_and_restores(self):
        outer, inner = TraceContext.new(), TraceContext.new()
        with use_context(outer):
            assert current_context() is outer
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None

    def test_use_context_restores_on_exception(self):
        ctx = TraceContext.new()
        with pytest.raises(RuntimeError):
            with use_context(ctx):
                raise RuntimeError("boom")
        assert current_context() is None

    def test_context_is_thread_local(self):
        ctx = TraceContext.new()
        seen: list = []

        def peek() -> None:
            seen.append(current_context())

        with use_context(ctx):
            thread = threading.Thread(target=peek)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_maybe_context_none_is_a_noop(self):
        with maybe_context(None):
            assert current_context() is None
        ctx = TraceContext.new()
        with maybe_context(ctx):
            assert current_context() is ctx


class TestTracedExecution:
    def test_untraced_is_bare_call(self):
        result, records = traced_execution(None, "worker", "x",
                                           lambda: 41 + 1)
        assert (result, records) == (42, None)
        assert get_recorder() is None

    def test_traced_returns_stamped_records(self):
        ctx = TraceContext.new()

        def body() -> str:
            with span("inner.step"):
                pass
            return "done"

        result, records = traced_execution(ctx, "worker", "outer.job",
                                           body, request="r1")
        assert result == "done"
        assert get_recorder() is None  # private recorder uninstalled
        assert [r["name"] for r in records] == ["inner.step",
                                               "outer.job"]
        for record in records:
            assert record["trace_id"] == ctx.trace_id
            assert record["role"] == "worker"
            assert isinstance(record["pid"], int)
        outer = records[-1]
        assert outer["attrs"] == {"request": "r1"}
        assert records[0]["parent"] == outer["sid"]

    def test_traced_restores_state_on_raise(self):
        ctx = TraceContext.new()
        with pytest.raises(ValueError):
            traced_execution(ctx, "worker", "bad",
                             lambda: (_ for _ in ()).throw(
                                 ValueError("x")))
        assert get_recorder() is None
        assert current_context() is None

    def test_span_records_keep_nested_remote_stamps(self):
        # A worker that itself stitched in remote spans must not restamp
        # them with its own role/pid when shipping the batch upward.
        rec = Recorder()
        with recording(rec):
            with span("local.work"):
                pass
        rec.add_remote_spans([
            {"type": "span", "sid": 1, "parent": None, "name": "remote.op",
             "t0": 0.0, "t1": 0.1, "role": "nested", "pid": 999,
             "trace_id": "t-nested"}])
        ctx = TraceContext.new()
        records = span_records(rec, ctx, "worker")
        by_name = {r["name"]: r for r in records}
        assert by_name["local.work"]["role"] == "worker"
        assert by_name["local.work"]["trace_id"] == ctx.trace_id
        assert by_name["remote.op"]["role"] == "nested"
        assert by_name["remote.op"]["pid"] == 999
        assert by_name["remote.op"]["trace_id"] == "t-nested"


class TestAddRemoteSpans:
    def _remote(self, sid, parent, name):
        return {"type": "span", "sid": sid, "parent": parent,
                "name": name, "t0": 0.0, "t1": 1.0, "role": "worker",
                "pid": 7}

    def test_rekeys_without_collisions(self):
        rec = Recorder()
        with recording(rec):
            with span("local"):
                pass
        local_sid = rec.spans()[0]["sid"]
        rec.add_remote_spans([self._remote(local_sid, None, "remote")])
        sids = [s["sid"] for s in rec.spans()]
        assert len(sids) == len(set(sids))
        remote = rec.spans()[-1]
        assert remote["remote"] is True
        assert remote["sid"] != local_sid

    def test_parent_links_remap_children_first(self):
        # Children complete (and ship) before their parents: the batch
        # arrives child-first and the parent link must still resolve.
        rec = Recorder()
        rec.add_remote_spans([self._remote(2, 1, "child"),
                              self._remote(1, None, "parent")])
        child, parent = rec.spans()
        assert child["name"] == "child"
        assert child["parent"] == parent["sid"]
        assert parent["parent"] is None

    def test_foreign_parent_links_drop(self):
        rec = Recorder()
        rec.add_remote_spans([self._remote(5, 99, "orphan")])
        assert rec.spans()[0]["parent"] is None

    def test_open_and_non_span_records_skipped(self):
        rec = Recorder()
        rec.add_remote_spans([
            dict(self._remote(1, None, "open"), t1=None),
            {"type": "event", "name": "not a span"},
            self._remote(2, None, "kept"),
        ])
        assert [s["name"] for s in rec.spans()] == ["kept"]

    def test_none_batch_is_a_noop(self):
        rec = Recorder()
        rec.add_remote_spans(None)
        assert rec.spans() == []


class TestTraceStore:
    def test_add_get_and_append(self):
        store = TraceStore()
        store.add("t1", [{"name": "a"}])
        store.add("t1", [{"name": "b"}])
        assert [r["name"] for r in store.get("t1")] == ["a", "b"]
        assert store.get("missing") is None

    def test_empty_adds_ignored(self):
        store = TraceStore()
        store.add("", [{"name": "a"}])
        store.add("t1", [])
        store.add("t1", None)
        assert len(store) == 0

    def test_oldest_trace_evicted_at_capacity(self):
        store = TraceStore(max_traces=2)
        store.add("t1", [{"name": "a"}])
        store.add("t2", [{"name": "b"}])
        store.add("t1", [{"name": "c"}])  # touch: t1 becomes newest
        store.add("t3", [{"name": "d"}])
        assert store.get("t2") is None
        assert store.trace_ids() == ["t1", "t3"]

    def test_get_returns_a_copy(self):
        store = TraceStore()
        store.add("t1", [{"name": "a"}])
        store.get("t1").append({"name": "intruder"})
        assert len(store.get("t1")) == 1


class TestStitchedExport:
    RECORDS = [
        {"type": "span", "sid": 1, "parent": None, "name": "daemon.req",
         "t0": 100.0, "t1": 100.5, "role": "daemon", "pid": 1,
         "trace_id": "t"},
        {"type": "span", "sid": 2, "parent": None, "name": "worker.job",
         "t0": 7.0, "t1": 7.2, "role": "worker", "pid": 2,
         "trace_id": "t"},
        {"type": "span", "sid": 3, "parent": None, "name": "open.span",
         "t0": 0.0, "t1": None, "role": "worker", "pid": 2},
    ]

    def test_trace_roles_sorted_distinct(self):
        assert trace_roles(self.RECORDS) == ["daemon", "worker"]
        assert trace_roles([]) == []

    def test_stitched_chrome_tracks_per_role_pid(self):
        payload = stitched_chrome(self.RECORDS)
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        # The open span is dropped; each process track starts at 0 on
        # its own clock.
        assert {e["name"] for e in complete} == {"daemon.req",
                                                "worker.job"}
        assert all(e["ts"] == 0.0 for e in complete)
        assert len({e["pid"] for e in complete}) == 2
        assert all(e["args"]["trace_id"] == "t" for e in complete)


class TestLatencyHistogram:
    def test_observe_buckets_and_totals(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 0, 1, 1]  # <=1, <=2, <=4, +Inf
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.5)

    def test_default_bounds_cover_microseconds_to_minutes(self):
        assert DEFAULT_BOUNDS[0] == pytest.approx(0.001)
        assert DEFAULT_BOUNDS[-1] > 60_000.0
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(1.0, 1.0, 2.0))

    def test_merge_adds_elementwise(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(1.0)
        b.observe(1.0)
        b.observe(64.0)
        a.merge(b)
        assert a.count == 3
        assert a.sum == pytest.approx(66.0)
        with pytest.raises(ValueError):
            a.merge(LatencyHistogram(bounds=(1.0, 2.0)))

    def test_diff_is_the_window_view(self):
        hist = LatencyHistogram()
        hist.observe(1.0)
        baseline = LatencyHistogram.from_snapshot(hist.snapshot())
        hist.observe(8.0)
        hist.observe(8.0)
        window = hist.diff(baseline)
        assert window.count == 2
        assert window.sum == pytest.approx(16.0)
        with pytest.raises(ValueError):
            baseline.diff(hist)  # negative window

    def test_percentiles_interpolate(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        assert hist.percentile(0.5) == 0.0  # empty
        for _ in range(100):
            hist.observe(1.5)  # all in the (1, 2] bucket
        p50, p99 = hist.percentiles(0.50, 0.99)
        assert 1.0 <= p50 <= p99 <= 2.0

    def test_prometheus_round_trip(self):
        hist = LatencyHistogram()
        for value in (0.0005, 0.3, 7.0, 1e9):
            hist.observe(value)
        text = "\n".join(hist.prometheus_lines("x_ms"))
        parsed = LatencyHistogram.from_prometheus(text, "x_ms")
        assert parsed.snapshot() == hist.snapshot()

    def test_from_prometheus_rejects_bad_expositions(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0))
        hist.observe(1.5)
        lines = hist.prometheus_lines("h")
        with pytest.raises(ValueError):
            LatencyHistogram.from_prometheus("\n".join(lines), "other")
        torn = [line for line in lines if '+Inf' not in line]
        with pytest.raises(ValueError):
            LatencyHistogram.from_prometheus("\n".join(torn), "h")
        rogue = "\n".join(lines).replace("h_count 1", "h_count 5")
        with pytest.raises(ValueError):
            LatencyHistogram.from_prometheus(rogue, "h")


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        flight = FlightRecorder(capacity=3, clock=lambda: 1.0)
        for index in range(5):
            flight.record("step", index=index)
        snapshot = flight.snapshot()
        assert [r["index"] for r in snapshot] == [2, 3, 4]
        assert [r["seq"] for r in snapshot] == [3, 4, 5]
        flight.clear()
        assert flight.snapshot() == []
        flight.record("after")
        assert flight.snapshot()[0]["seq"] == 6  # seq keeps counting

    def test_dump_and_load_round_trip(self, tmp_path):
        flight = FlightRecorder(capacity=4, clock=lambda: 2.5)
        flight.record("dispatch", seq=1)
        path = flight.dump(tmp_path, "worker_crash")
        assert path.name.endswith("-worker_crash.json")
        payload = load_flight_dump(path)
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["reason"] == "worker_crash"
        assert [r["kind"] for r in payload["records"]] == ["dispatch"]

    def test_dump_reason_is_sanitized_and_unique(self, tmp_path):
        flight = FlightRecorder(clock=lambda: 0.0)
        first = flight.dump(tmp_path, "../evil reason!")
        second = flight.dump(tmp_path, "../evil reason!")
        assert first.parent == tmp_path
        assert "/" not in first.name.replace(str(tmp_path), "")
        assert first != second  # dump id keeps files distinct

    def test_load_rejects_foreign_and_torn_files(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"schema": "other", "records": []}))
        with pytest.raises(ValueError):
            load_flight_dump(foreign)
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps({"schema": FLIGHT_SCHEMA,
                                    "records": "nope"}))
        with pytest.raises(ValueError):
            load_flight_dump(torn)
