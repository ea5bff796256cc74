"""Self-contained SVG/HTML service ops dashboard.

One HTML page, zero external assets: the latency histogram, the
dispatch-tier mix, the serving-path mix, and breaker/worker health
tables, all rendered through :func:`repro.analysis.svg_chart.
render_bar_svg` and inlined.  Two producers share it:

* the daemon's ``GET /dashboard`` renders straight from the live
  service object;
* ``python -m repro.obs.report --service host:port`` fetches
  ``/metrics`` + ``/healthz`` over HTTP and writes the same page
  offline (``--out``).
"""

from __future__ import annotations

import html

from repro.analysis.svg_chart import ChartLayout, render_bar_svg
from repro.obs.hist import LatencyHistogram

#: Dispatch-tier evidence counters charted in the tier-mix panel.
TIER_MIX_COUNTERS = (
    ("replay", "dispatch.hit"),
    ("fallback", "dispatch.fallback"),
)

#: Serving-path counters charted in the serving-mix panel.
SERVING_MIX_COUNTERS = (
    ("served", "service.served"),
    ("degraded", "service.degraded"),
    ("failed", "service.failed"),
    ("cache hit", "service.cache_hit"),
    ("stale", "service.cache_stale_served"),
    ("coalesced", "service.coalesced"),
)

_STYLE = """
body { font-family: sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 15px; margin-bottom: 4px; }
table { border-collapse: collapse; font-size: 13px; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
th { background: #f2f2f2; }
.panel { display: inline-block; vertical-align: top; margin: 0 18px
         18px 0; }
.muted { color: #777; font-size: 12px; }
"""


def latency_chart(hist: LatencyHistogram,
                  title: str = "latency (ms)") -> str:
    """The histogram's populated bucket range as a bar chart SVG."""
    snapshot = hist.snapshot()
    counts = snapshot["counts"]
    nonzero = [i for i, n in enumerate(counts) if n]
    if not nonzero:
        return render_bar_svg(["(empty)"], [0], title=title,
                              y_label="requests")
    lo, hi = min(nonzero), max(nonzero)
    labels, values = [], []
    for index in range(lo, hi + 1):
        if index < len(snapshot["bounds"]):
            labels.append(f"≤{snapshot['bounds'][index]:g}")
        else:
            labels.append("+Inf")
        values.append(counts[index])
    layout = ChartLayout(width=max(360, 640), height=300)
    return render_bar_svg(labels, values, title=title,
                          y_label="requests", layout=layout)


def mix_chart(counters: dict[str, float],
              mapping: tuple[tuple[str, str], ...],
              title: str, color: str = "#E69F00") -> str:
    """One labeled counter family as a bar chart SVG."""
    labels = [label for label, _ in mapping]
    values = [counters.get(name, 0) for _, name in mapping]
    layout = ChartLayout(width=420, height=300)
    return render_bar_svg(labels, values, title=title, y_label="count",
                          layout=layout, color=color)


def _table(headers: list[str], rows: list[list[object]]) -> str:
    cells = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(v))}</td>" for v in row)
        + "</tr>"
        for row in rows)
    return f"<table><tr>{cells}</tr>{body}</table>"


def render_dashboard(health: dict, counters: dict[str, float],
                     hist: LatencyHistogram,
                     title: str = "measurement service") -> str:
    """The full dashboard page as an HTML string.

    Args:
        health: A ``/healthz``-shaped dict (breakers, workers_detail,
            restart_reasons, latency percentiles).
        counters: Dotted-name counter values/deltas (``service.*``,
            ``dispatch.*``, ``cache.*``).
        hist: The served-latency histogram (whole-run or a window).
        title: Page heading.
    """
    breakers = health.get("breakers", {}) or {}
    breaker_rows = [[stream, state]
                    for stream, state in sorted(breakers.items())]
    worker_rows = [[w.get("pid"), "yes" if w.get("alive") else "NO",
                    w.get("heartbeat_age_s")]
                   for w in health.get("workers_detail", [])]
    restart_rows = [[reason, count] for reason, count in sorted(
        (health.get("restart_reasons") or {}).items())]
    parts = [
        "<!doctype html>",
        "<html><head><meta charset=\"utf-8\"/>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class=\"muted\">version {health.get('version', '?')} · "
        f"{health.get('workers', 0)} workers · "
        f"{health.get('worker_restarts', 0)} restarts · "
        f"p50 {health.get('latency_p50_ms', 0)} ms · "
        f"p99 {health.get('latency_p99_ms', 0)} ms</p>",
        f"<div class=\"panel\">{latency_chart(hist)}</div>",
        f"<div class=\"panel\">"
        f"{mix_chart(counters, TIER_MIX_COUNTERS, 'dispatch tier mix')}"
        f"</div>",
        f"<div class=\"panel\">"
        f"{mix_chart(counters, SERVING_MIX_COUNTERS, 'serving mix', color='#009E73')}"
        f"</div>",
        "<div class=\"panel\"><h2>circuit breakers</h2>",
        _table(["stream", "state"], breaker_rows)
        if breaker_rows else "<p class=\"muted\">none opened</p>",
        "</div>",
        "<div class=\"panel\"><h2>workers</h2>",
        _table(["pid", "alive", "heartbeat age (s)"], worker_rows)
        if worker_rows else "<p class=\"muted\">inline mode</p>",
        "</div>",
        "<div class=\"panel\"><h2>worker restarts</h2>",
        _table(["reason", "count"], restart_rows)
        if restart_rows else "<p class=\"muted\">none</p>",
        "</div>",
        "</body></html>",
    ]
    return "\n".join(parts)
