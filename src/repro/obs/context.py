"""Cross-process trace context: propagation, storage, and stitching.

A :class:`TraceContext` is the tiny, wire-serializable identity of one
logical request — ``trace_id`` (shared by every process that touches
the request), ``span_id`` (the caller's position in the tree), and
free-form string ``baggage``.  The service front-end mints one per
traced ``/measure`` submission (or accepts the client's via the
``"trace"`` request field), carries it through the daemon thread with
:func:`use_context`, ships it inside worker job frames, and restores it
on the far side with :func:`TraceContext.from_wire`.

Processes don't share a recorder, so remote spans travel as plain
record dicts: a forked worker runs its measurement under a private
:class:`~repro.obs.recorder.Recorder` (see :func:`traced_execution`),
converts the completed spans with :func:`span_records` — stamping
``trace_id``, ``role``, and ``pid`` — and ships the list back in its
reply frame.  The parent stitches them into its own recorder
(:meth:`Recorder.add_remote_spans`) and/or a :class:`TraceStore`, from
which ``GET /trace/<id>`` serves the whole cross-process tree and
:func:`stitched_chrome` renders it for ``chrome://tracing``.

Everything here is additive and default-off: with no context current,
:func:`current_context` returns ``None`` and every call site skips the
machinery, preserving the recorder-off byte-identity contract.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.chrome import chrome_payload, complete_event, metadata_events

#: Hex digits in a trace id (128-bit, W3C-traceparent sized).
TRACE_ID_BYTES = 16
#: Hex digits in a span id (64-bit).
SPAN_ID_BYTES = 8


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one logical request.

    Attributes:
        trace_id: Shared by every span of the request, across processes.
        span_id: The current hop's id (children record it as parent).
        baggage: Small string-keyed annotations that ride along
            (e.g. the loadgen lane); never interpreted by the service.
    """

    trace_id: str
    span_id: str
    baggage: dict = field(default_factory=dict)

    @classmethod
    def new(cls, baggage: dict | None = None) -> "TraceContext":
        """Mint a fresh root context."""
        return cls(_new_id(TRACE_ID_BYTES), _new_id(SPAN_ID_BYTES),
                   dict(baggage or {}))

    def child(self) -> "TraceContext":
        """A child hop: same trace, fresh span id, inherited baggage."""
        return TraceContext(self.trace_id, _new_id(SPAN_ID_BYTES),
                            dict(self.baggage))

    def to_wire(self) -> dict:
        """JSON/pickle-safe wire form (inverse of :meth:`from_wire`)."""
        wire = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.baggage:
            wire["baggage"] = dict(self.baggage)
        return wire

    @classmethod
    def from_wire(cls, wire: object) -> "TraceContext | None":
        """Parse a wire dict; returns ``None`` for anything malformed.

        Lenient by design: a torn or foreign ``"trace"`` field must
        degrade to "untraced", never fail the measurement.
        """
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = wire.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            span_id = _new_id(SPAN_ID_BYTES)
        baggage = wire.get("baggage")
        if not isinstance(baggage, dict):
            baggage = {}
        return cls(trace_id, span_id, dict(baggage))


# --------------------------- current context --------------------------- #

_LOCAL = threading.local()


def current_context() -> TraceContext | None:
    """The thread's current trace context, or ``None`` (untraced)."""
    return getattr(_LOCAL, "context", None)


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as the thread's current context for the block.

    Always restores the previous context on exit — including on
    exceptions — so one request's identity can never leak into the
    next request handled by the same thread or worker process.
    """
    previous = getattr(_LOCAL, "context", None)
    _LOCAL.context = ctx
    try:
        yield ctx
    finally:
        _LOCAL.context = previous


def maybe_context(ctx: TraceContext | None):
    """``use_context(ctx)`` when traced, a no-op context otherwise."""
    return use_context(ctx) if ctx is not None else nullcontext()


# ------------------------ remote span shipping ------------------------- #


def span_records(recorder, ctx: TraceContext, role: str) -> list[dict]:
    """The recorder's completed spans as shippable remote records.

    Each record is stamped with the trace id, a ``role`` (which process
    kind produced it: ``"worker"``, ``"daemon"``, …) and
    the producing ``pid``, so the stitched view can group tracks by
    origin.  Records already stamped (nested remote spans a worker
    itself stitched in) keep their original role/pid.
    """
    pid = os.getpid()
    records = []
    for span in recorder.spans():
        record = dict(span)
        record.setdefault("trace_id", ctx.trace_id)
        record.setdefault("role", role)
        record.setdefault("pid", pid)
        records.append(record)
    return records


def traced_execution(ctx: TraceContext | None, role: str, name: str,
                     fn, **attrs: object):
    """Run ``fn()`` under ``ctx`` inside a private recorder.

    The remote-side half of cross-process tracing: installs ``ctx``
    and a fresh :class:`~repro.obs.recorder.Recorder` (so every span
    the execution opens is captured without a caller-visible recorder),
    wraps the call in a root span ``name``, and returns
    ``(result, records)`` where ``records`` are shippable span dicts
    (see :func:`span_records`).

    With ``ctx is None`` this is exactly ``(fn(), None)`` — no
    recorder, no spans, byte-identical to the untraced path.  Context
    and recorder are restored even when ``fn`` raises, so a crashing
    request cannot leak its identity into the next one.
    """
    if ctx is None:
        return fn(), None
    from repro.obs.recorder import Recorder, recording, span
    recorder = Recorder()
    with use_context(ctx), recording(recorder):
        with span(name, **attrs):
            result = fn()
    return result, span_records(recorder, ctx, role)


# ----------------------------- trace store ----------------------------- #


class TraceStore:
    """Bounded in-memory store of stitched traces, by trace id.

    The backing for ``GET /trace/<id>``: the service appends every
    process's span records under the request's trace id; the oldest
    traces are evicted once ``max_traces`` distinct ids are held, so a
    long-lived daemon stays bounded.  Thread-safe.
    """

    def __init__(self, max_traces: int = 512) -> None:
        self.max_traces = max(1, max_traces)
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        self._lock = threading.Lock()

    def add(self, trace_id: str, records: list[dict] | None) -> None:
        """Append span records under ``trace_id`` (no-op when empty)."""
        if not trace_id or not records:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                self._traces[trace_id] = list(records)
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            else:
                spans.extend(records)
                self._traces.move_to_end(trace_id)

    def get(self, trace_id: str) -> list[dict] | None:
        """The stitched span records of one trace, or ``None``."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return list(spans) if spans is not None else None

    def trace_ids(self) -> list[str]:
        """Held trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# --------------------------- stitched export --------------------------- #


def trace_roles(records: list[dict]) -> list[str]:
    """The distinct producing roles in a stitched trace, sorted."""
    return sorted({record.get("role", "?") for record in records})


def stitched_chrome(records: list[dict]) -> dict:
    """A stitched cross-process trace as Chrome ``trace_events`` JSON.

    Each producing ``(role, pid)`` pair renders as its own pid track.
    Every process recorded wall-clock offsets against its *own*
    recorder epoch, so the tracks share a scale (seconds) but not a
    zero; each track is normalized to its earliest span so the viewer
    lines the hops up without pretending to cross-process clock sync.
    """
    tracks: OrderedDict[tuple[str, object], list[dict]] = OrderedDict()
    for record in records:
        if record.get("t1") is None:
            continue
        key = (record.get("role", "?"), record.get("pid", 0))
        tracks.setdefault(key, []).append(record)
    events: list[dict] = []
    for index, ((role, pid), spans) in enumerate(tracks.items(), start=1):
        epoch = min(span["t0"] for span in spans)
        events.extend(metadata_events(
            index, f"{role} (pid {pid}, own clock)", {0: role}))
        for span in spans:
            args = dict(span.get("attrs") or {})
            if span.get("trace_id"):
                args["trace_id"] = span["trace_id"]
            events.append(complete_event(
                span["name"], index, 0, (span["t0"] - epoch) * 1e6,
                (span["t1"] - span["t0"]) * 1e6, cat="trace",
                args=args or None))
    return chrome_payload(events)
