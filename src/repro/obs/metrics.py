"""Process-wide counters and gauges.

Counters are the always-on half of the observability layer: monotonic
integers that the instrumented hot seams (engine kernels, interpreter
dispatch loops, the RNG pool, fault injection, campaign checkpointing)
bump regardless of whether a :class:`~repro.obs.recorder.Recorder` is
installed.  They are deliberately cheap — an attribute increment plus a
``None`` check — and the hot loops accumulate locally and flush one
``add`` per block/region, so disabled observability stays within noise
of the uninstrumented paths, which the untraced benchmark runs time.

Gauges are last-value-wins floats for levels rather than totals
(e.g. worker counts).

When a recorder *is* installed, every ``add``/``set`` is forwarded to it
through a one-slot subscriber hook, giving the JSONL event log a
replayable stream of deltas and the recorder its run-scoped totals.
The hook lives here (rather than the recorder importing us back) to
keep the dependency graph acyclic: this module imports nothing from
:mod:`repro`.

Naming convention: dotted lowercase paths, ``<layer>.<what>`` — e.g.
``engine.attempts``, ``interp.cuda.uniform_passes``,
``campaign.checkpoint_writes``.  See ``docs/observability.md`` for the
full taxonomy.
"""

from __future__ import annotations

from typing import Callable, Iterator

#: One-slot subscriber: ``(kind, name, value)`` with kind ``"count"``
#: (value = delta) or ``"gauge"`` (value = new level).  Installed by
#: :func:`repro.obs.recorder.set_recorder`; ``None`` keeps metric
#: updates registry-only.
_SUBSCRIBER: list[Callable[[str, str, float], None] | None] = [None]


def set_subscriber(
        callback: Callable[[str, str, float], None] | None) -> None:
    """Install (or clear, with ``None``) the metric-update subscriber."""
    _SUBSCRIBER[0] = callback


class Counter:
    """A process-wide monotonic counter.

    Obtain instances through :func:`counter` (get-or-create by name) so
    every caller shares one total; hot paths may bind the returned
    object once and call :meth:`add` directly.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (and notify an installed recorder)."""
        self.value += n
        subscriber = _SUBSCRIBER[0]
        if subscriber is not None:
            subscriber("count", self.name, n)


class Gauge:
    """A process-wide last-value-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level (and notify an installed recorder)."""
        self.value = value
        subscriber = _SUBSCRIBER[0]
        if subscriber is not None:
            subscriber("gauge", self.name, value)


class MetricsRegistry:
    """The process-wide metric table (name -> :class:`Counter`/
    :class:`Gauge`).

    One instance, :data:`REGISTRY`, serves the whole process; totals are
    monotonic for the process lifetime, so callers interested in one
    run's activity sample before/after and take deltas (what the
    engagement tests and the recorder's run-scoped totals both do).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            metric = Counter(name)
            self._counters[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = Gauge(name)
            self._gauges[name] = metric
        return metric

    def counters(self) -> dict[str, int]:
        """Snapshot of every counter total, sorted by name."""
        return {name: self._counters[name].value
                for name in sorted(self._counters)}

    def gauges(self) -> dict[str, float]:
        """Snapshot of every gauge level, sorted by name."""
        return {name: self._gauges[name].value
                for name in sorted(self._gauges)}

    def __iter__(self) -> Iterator[str]:
        """Iterate counter names, then gauge names."""
        yield from self._counters
        yield from self._gauges


#: The process-wide registry every instrumented module shares.
REGISTRY = MetricsRegistry()


def counters_snapshot(
        prefixes: tuple[str, ...] | None = None) -> dict[str, int]:
    """Snapshot counter totals, optionally filtered by name prefixes.

    The before-half of a delta window: snapshot, do work, call
    :func:`counters_delta` with the snapshot to get exactly what the
    work bumped.  Per-request attribution and the forked workers'
    shipped deltas are both built on this pair.
    """
    return {name: metric.value
            for name, metric in REGISTRY._counters.items()
            if prefixes is None or name.startswith(prefixes)}


def counters_delta(before: dict[str, int],
                   prefixes: tuple[str, ...] | None = None
                   ) -> dict[str, int]:
    """Non-zero counter movement since a :func:`counters_snapshot`."""
    deltas: dict[str, int] = {}
    for name, metric in REGISTRY._counters.items():
        if prefixes is not None and not name.startswith(prefixes):
            continue
        delta = metric.value - before.get(name, 0)
        if delta:
            deltas[name] = delta
    return deltas


def counter(name: str) -> Counter:
    """Get or create a process-wide counter (see :data:`REGISTRY`)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create a process-wide gauge (see :data:`REGISTRY`)."""
    return REGISTRY.gauge(name)


def counter_value(name: str) -> int:
    """Current total of a counter (0 if never touched)."""
    return REGISTRY.counter(name).value
