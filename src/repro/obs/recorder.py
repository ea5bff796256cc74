"""The span/event recorder behind ``syncperf --obs``.

A :class:`Recorder` collects, in memory and in order:

* **spans** — hierarchical timed sections opened with :func:`span`
  (``with span("engine.measure", spec=...)``), each carrying wall-clock
  start/end (relative to the recorder's epoch), a parent link, and
  free-form attributes;
* **events** — instant markers (:func:`event`), e.g. one per
  ``measure_robust`` escalation retry;
* **counter/gauge deltas** — forwarded from
  :mod:`repro.obs.metrics` while the recorder is installed, so the
  event log carries a replayable stream whose sums reconcile with the
  final snapshot;
* **timelines** — modeled-time interpreter traces
  (:class:`repro.cuda.trace.Trace` warp passes,
  :class:`repro.openmp.trace.CpuTrace` requests) attached through
  :func:`attach_timeline` so GPU and OpenMP activity export onto one
  Chrome/Perfetto file next to the wall-clock spans.

The default is **no recorder**: every module-level helper here reads one
global and returns immediately when it is ``None``, so instrumented
paths stay bit-identical and within noise of their uninstrumented
behaviour.  Install one for a block with::

    from repro.obs import Recorder, recording, span

    rec = Recorder()
    with recording(rec):
        with span("campaign", experiments=3):
            ...

Recorders are process-local: campaign workers (``--jobs N``) inherit a
copy at fork time and their recordings die with them — run with
``jobs=1`` when a complete span tree matters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import context as _context
from repro.obs import metrics as _metrics

#: The installed recorder (``None`` = observability off, the default).
_RECORDER: "Recorder | None" = None


class Recorder:
    """An in-memory sink for spans, events, and metric deltas.

    Args:
        clock: Monotonic seconds source (injectable for deterministic
            tests); defaults to :func:`time.perf_counter`.  The first
            reading becomes the epoch: every recorded timestamp is
            seconds since recorder creation.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        #: Every record, in completion order (spans append when closed).
        self.events: list[dict] = []
        #: Run-scoped counter totals (sums of forwarded deltas).
        self.counters: dict[str, int] = {}
        #: Run-scoped gauge levels (last forwarded value).
        self.gauges: dict[str, float] = {}
        #: Attached modeled-time timelines:
        #: ``(source, rows, unit)`` with rows ``(track, label, t0, t1)``.
        self.timelines: list[tuple[str, list[tuple], str]] = []
        self._stack: list[int] = []
        self._open: dict[int, dict] = {}
        self._next_id = 1

    # ----------------------------- spans ------------------------------- #

    def _now(self) -> float:
        return self._clock() - self.epoch

    def begin_span(self, name: str, attrs: dict | None = None) -> int:
        """Open a span; returns its id (pass to :meth:`end_span`)."""
        sid = self._next_id
        self._next_id += 1
        record = {
            "type": "span",
            "sid": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": self._now(),
            "t1": None,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        ctx = _context.current_context()
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
        self._open[sid] = record
        self._stack.append(sid)
        return sid

    def end_span(self, sid: int, **attrs: object) -> None:
        """Close an open span (extra attrs merge into the record)."""
        record = self._open.pop(sid, None)
        if record is None:
            return
        record["t1"] = self._now()
        if attrs:
            record.setdefault("attrs", {}).update(attrs)
        if self._stack and self._stack[-1] == sid:
            self._stack.pop()
        else:  # out-of-order close: drop it from wherever it sits
            try:
                self._stack.remove(sid)
            except ValueError:
                pass
        self.events.append(record)

    def spans(self) -> list[dict]:
        """Completed span records, in completion order."""
        return [e for e in self.events if e["type"] == "span"]

    def add_remote_spans(self, records: list[dict] | None) -> None:
        """Stitch in completed span records from another process.

        The records come from :func:`repro.obs.context.span_records`
        in a forked worker's reply frame.  Span ids are re-keyed into
        this recorder's id space (remote parents are remapped when the
        parent shipped in the same batch, dropped otherwise) so remote
        and local spans can never collide.  Each stitched record is
        marked ``"remote": True`` and keeps its foreign ``role``,
        ``pid``, and clock — the Chrome exporter renders each remote
        ``(role, pid)`` pair as its own normalized track.
        """
        batch = [dict(record) for record in records or ()
                 if record.get("type") == "span"
                 and record.get("t1") is not None]
        # Children complete (and therefore ship) before their parents,
        # so allocate every new sid first, then remap parent links.
        mapping: dict[object, int] = {}
        for merged in batch:
            original = merged.get("sid")
            sid = self._next_id
            self._next_id += 1
            if original is not None:
                mapping[original] = sid
            merged["sid"] = sid
        for merged in batch:
            merged["parent"] = mapping.get(merged.get("parent"))
            merged["remote"] = True
            self.events.append(merged)

    # ------------------------- events & metrics ------------------------ #

    def add_event(self, name: str, attrs: dict | None = None) -> None:
        """Record one instant event."""
        record = {"type": "event", "name": name, "t": self._now()}
        if attrs:
            record["attrs"] = dict(attrs)
        self.events.append(record)

    def on_metric(self, kind: str, name: str, value: float) -> None:
        """Metric subscriber hook (installed by :func:`set_recorder`)."""
        if kind == "count":
            self.counters[name] = self.counters.get(name, 0) + int(value)
            self.events.append({"type": "count", "name": name,
                                "delta": int(value), "t": self._now()})
        else:
            self.gauges[name] = value
            self.events.append({"type": "gauge", "name": name,
                                "value": value, "t": self._now()})

    # ---------------------------- timelines ---------------------------- #

    def add_timeline(self, source: str, rows: list[tuple],
                     unit: str) -> None:
        """Attach one modeled-time timeline.

        Args:
            source: Track-group label (``"cuda"``, ``"openmp"``).
            rows: ``(track, label, start, end)`` tuples in the modeled
                clock (see ``timeline_rows()`` on the trace classes).
            unit: The modeled clock's unit (``"cycles"``, ``"ns"``).
        """
        self.timelines.append((source, list(rows), unit))
        self.events.append({"type": "timeline", "source": source,
                            "unit": unit, "rows": len(rows),
                            "t": self._now()})


# --------------------------- module controls --------------------------- #


def get_recorder() -> Recorder | None:
    """The installed recorder, or ``None`` (observability off)."""
    return _RECORDER


def set_recorder(recorder: Recorder | None) -> None:
    """Install ``recorder`` process-wide (``None`` uninstalls).

    Also wires/unwires the :mod:`repro.obs.metrics` subscriber so
    counter deltas stream into the recorder's event log.
    """
    global _RECORDER
    _RECORDER = recorder
    _metrics.set_subscriber(
        recorder.on_metric if recorder is not None else None)


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the duration of the block."""
    previous = _RECORDER
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Recorder | None]:
    """Open a hierarchical span for the duration of the block.

    No-op (yields ``None``) when no recorder is installed; otherwise
    yields the recorder so the body can attach events to the same sink.
    """
    recorder = _RECORDER
    if recorder is None:
        yield None
        return
    sid = recorder.begin_span(name, attrs or None)
    try:
        yield recorder
    finally:
        recorder.end_span(sid)


def event(name: str, **attrs: object) -> None:
    """Record one instant event (no-op when no recorder is installed)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.add_event(name, attrs or None)


def attach_timeline(source: str, timeline: object,
                    unit: str) -> None:
    """Attach an interpreter trace to the installed recorder (no-op
    when none is installed).

    ``timeline`` is anything exposing ``timeline_rows()`` —
    :class:`repro.cuda.trace.Trace` or
    :class:`repro.openmp.trace.CpuTrace`.
    """
    recorder = _RECORDER
    if recorder is not None:
        recorder.add_timeline(source, timeline.timeline_rows(), unit)
