"""Start ``python -m repro.service serve`` with span recording installed.

Run by the service workload's traced segments as ``python
syncbench/serve_traced.py SPANS_OUT serve ARGS...``; untraced segments
start the plain daemon instead.  The daemon wraps every layer of
:func:`tracing.layer_table`, like every other traced process.  Two
wrappers carry hooks:

* ``MeasurementService.submit`` (``service.submit``) starts a new op id
  per request, so span ``op`` ids count submissions;
* ``WorkerPool.execute`` (``service.ipc``) gets a child
  ``service.worker`` span as long as the worker's own
  ``execute_request`` call, measured inside the forked worker and
  carried back on its reply.  ``service.ipc`` self time is therefore
  the dispatch's wall time minus the worker-side measurement.

Spans, wrapper call counts and the daemon's ``repro.obs.metrics``
counter deltas (worker counters are folded into them) stay in memory
and are written to ``SPANS_OUT`` when the daemon shuts down (SIGINT).
"""

from __future__ import annotations

import sys
import time

#: Reply field carrying the worker-side ``execute_request`` time, ns.
EXEC_KEY = "_syncbench_exec_ns"


def install(tracer) -> None:
    """Wrap the daemon-side and worker-side functions."""
    from tracing import layer_table
    from repro.service import workers

    def next_op() -> None:
        tracer.op_id += 1

    def add_worker_span(index: int, verdict):
        exec_ns = verdict.pop(EXEC_KEY, None) \
            if isinstance(verdict, dict) else None
        if exec_ns is not None:
            start = tracer.spans[index][1]
            tracer.spans.append(["service.worker", start, start + exec_ns,
                                 index, tracer.op_id])
        return verdict

    tracer.install(layer_table(), hooks={
        "service.submit": (next_op, None),
        "service.ipc": (None, add_worker_span)})

    # Worker side: the pool forks after this runs, so workers inherit
    # these wrappers; serve_job looks execute_request up at call time.
    execute_request = workers.execute_request
    serve_job = workers.serve_job
    last = [0]

    def timed_execute_request(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return execute_request(*args, **kwargs)
        finally:
            last[0] = time.perf_counter_ns() - start

    def timed_serve_job(job):
        last[0] = 0
        reply = serve_job(job)
        reply[EXEC_KEY] = last[0]
        return reply

    workers.execute_request = timed_execute_request
    workers.serve_job = timed_serve_job


def main() -> int:
    from tracing import Tracer
    from repro.obs.metrics import REGISTRY
    from repro.service.__main__ import main as service_main
    tracer = Tracer()
    tracer.op_id = -1
    install(tracer)
    before = REGISTRY.counters()
    try:
        return service_main(sys.argv[2:])
    finally:
        after = REGISTRY.counters()
        tracer.dump(sys.argv[1], counters={
            k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)})


if __name__ == "__main__":
    sys.exit(main())
