"""Execution traces for the CUDA interpreter.

When a launch is run with ``trace=True``, the interpreter records one
:class:`TraceEvent` per warp scheduling pass — which block/warp executed
what, and over which modeled cycle interval.  The trace shows *why* a
kernel costs what it costs: where barriers align warps, where atomics
serialize, and where divergence splits a warp's passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One warp scheduling pass.

    Attributes:
        block: Block index.
        warp: Warp index within the block.
        label: What the pass executed ("AtomicAdd", "Syncthreads", ...).
        start_cycles: Warp clock when the pass began.
        end_cycles: Warp clock after the pass.
    """

    block: int
    warp: int
    label: str
    start_cycles: float
    end_cycles: float

    @property
    def duration(self) -> float:
        return self.end_cycles - self.start_cycles


@dataclass
class Trace:
    """An ordered collection of trace events for one launch."""

    events: list[TraceEvent] = field(default_factory=list)

    def add(self, block: int, warp: int, label: str, start: float,
            end: float) -> None:
        """Record one warp pass."""
        self.events.append(TraceEvent(block, warp, label, start, end))

    def for_block(self, block: int) -> list[TraceEvent]:
        """Events of one block, in recording order."""
        return [e for e in self.events if e.block == block]

    def total_cycles_by_label(self) -> dict[str, float]:
        """Aggregate warp-pass durations per op label (a cost profile)."""
        totals: dict[str, float] = {}
        for event in self.events:
            totals[event.label] = totals.get(event.label, 0.0) + \
                event.duration
        return totals

    def timeline_rows(self) -> list[tuple[str, str, float, float]]:
        """Normalized ``(track, label, start, end)`` rows for the
        shared export helpers (one track per block/warp pair)."""
        return [(f"block {e.block} / warp {e.warp}", e.label,
                 e.start_cycles, e.end_cycles) for e in self.events]

    def to_chrome_trace(self, pid: int = 0) -> list[dict]:
        """Serialize as Chrome ``trace_events`` records.

        One complete event per warp pass, one tid row per warp, in the
        modeled cycle clock (1 trace-µs = 1 cycle).  Wrap the list with
        :func:`repro.obs.chrome.chrome_payload` to write a standalone
        file, or merge it with other timelines under distinct ``pid``
        values — the unification :mod:`repro.obs.export` performs.
        """
        from repro.obs.chrome import rows_to_chrome
        return rows_to_chrome(self.timeline_rows(), pid=pid,
                              unit="cycles", source="cuda")

    def render(self, block: int = 0, width: int = 64) -> str:
        """Render one block's warps as an ASCII timeline.

        Each warp is a row; time flows left to right; each event paints
        its label's initial over its cycle interval.
        """
        events = self.for_block(block)
        if not events:
            return f"block {block}: <no events>"
        end = max(e.end_cycles for e in events)
        if end <= 0:
            return f"block {block}: <zero-length trace>"
        warps = sorted({e.warp for e in events})
        lines = [f"block {block} timeline (0 .. {end:.0f} cycles)"]
        for warp in warps:
            row = [" "] * width
            for e in events:
                if e.warp != warp:
                    continue
                lo = int(e.start_cycles / end * (width - 1))
                hi = max(lo + 1, int(e.end_cycles / end * (width - 1)) + 1)
                glyph = e.label[0].upper() if e.label else "?"
                for i in range(lo, min(hi, width)):
                    row[i] = glyph
            lines.append(f"  warp {warp}: |{''.join(row)}|")
        labels = sorted({e.label for e in events})
        lines.append("  key: " + ", ".join(
            f"{label[0].upper()}={label}" for label in labels))
        return "\n".join(lines)
