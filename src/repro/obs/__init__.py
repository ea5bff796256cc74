"""Unified observability: spans, counters, and exportable timelines.

Zero-dependency (stdlib-only) tracing/metrics layer shared by the
measurement engine, both kernel interpreters, the fault injector, and
the campaign runner.  Three pieces:

* **Counters/gauges** (:mod:`repro.obs.metrics`) — process-wide,
  always on, monotonic.  ``fast passes + scalar fallbacks == total
  passes`` style identities are part of their contract; the
  engagement tests assert on their deltas.
* **Spans/events** (:mod:`repro.obs.recorder`) — hierarchical timed
  sections and instant markers, recorded only while a
  :class:`Recorder` is installed (default: none, a strict no-op).
* **Exporters** (:mod:`repro.obs.export`) — JSONL event log,
  Chrome/Perfetto ``trace_events`` JSON (wall-clock spans plus
  attached CUDA/OpenMP modeled timelines on one file), and a
  Prometheus-style text snapshot.  ``python -m repro.obs.report``
  summarizes a JSONL log.

Surface it from the CLI with
``syncperf ... --obs out.jsonl --obs-trace out.trace.json
--obs-metrics out.prom``.  See ``docs/observability.md``.
"""

from repro.obs.context import (
    TraceContext,
    TraceStore,
    current_context,
    maybe_context,
    stitched_chrome,
    traced_execution,
    use_context,
)
from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    counter,
    counter_value,
    counters_delta,
    counters_snapshot,
    gauge,
)
from repro.obs.recorder import (
    Recorder,
    attach_timeline,
    event,
    get_recorder,
    recording,
    set_recorder,
    span,
)

__all__ = [
    "FLIGHT",
    "FlightRecorder",
    "LatencyHistogram",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Recorder",
    "TraceContext",
    "TraceStore",
    "attach_timeline",
    "count",
    "counter",
    "counter_value",
    "counters_delta",
    "counters_snapshot",
    "current_context",
    "event",
    "gauge",
    "get_recorder",
    "maybe_context",
    "recording",
    "set_recorder",
    "span",
    "stitched_chrome",
    "traced_execution",
    "use_context",
]


def count(name: str, n: int = 1) -> None:
    """Bump the process-wide counter ``name`` by ``n`` (convenience for
    call sites too cold to bind a :class:`Counter` object)."""
    REGISTRY.counter(name).add(n)
