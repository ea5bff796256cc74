"""In-memory span recording around public simulator functions.

Only traced runs import this module.  A :class:`Tracer` replaces each
named public function or method with a wrapper that records one span —
``(name, start_ns, end_ns, parent, op)`` — and keeps every span in
memory; :meth:`Tracer.dump` writes them out when the run ends.  Self
time is a span's duration minus what its direct children cover, so the
self times of one op's spans sum exactly to the op's root duration.

Every traced process installs the same :func:`layer_table`, whatever
its workload, so a layer's zero on another workload is measured, not
assumed.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: Name of the root span each op opens; its self time is the
#: benchmark's own (unattributed) share.
ROOT = "op"


def layer_table() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped public
    function, across all layers."""
    from repro.compiler import dispatcher
    from repro.core.engine import MeasurementEngine
    from repro.cuda.interpreter import Cuda
    from repro.cuda.multigpu import MultiCuda
    from repro.experiments import base as experiments_base
    from repro.experiments import matrix as matrix_mod
    from repro.openmp.interpreter import OpenMP
    from repro.reductions import runner
    from repro.service.cache import ResultCache
    from repro.service.core import MeasurementService
    from repro.service.workers import WorkerPool
    table = [
        (MeasurementEngine, "measure_robust", "core.measure"),
        (MeasurementEngine, "measure", "core.measure"),
        (MeasurementEngine, "prime", "core.prime"),
        (matrix_mod, "run_full_matrix", "experiments.sweep"),
        (experiments_base, "sweep_omp", "experiments.sweep"),
        (experiments_base, "sweep_cuda", "experiments.sweep"),
        (Cuda, "launch", "cuda.launch"),
        (OpenMP, "parallel", "openmp.parallel"),
        (MultiCuda, "launch", "multigpu.launch"),
        (dispatcher.Dispatcher, "begin_cuda", "compiler.dispatch"),
        (dispatcher.Dispatcher, "begin_omp", "compiler.dispatch"),
        (runner, "run_reduction", "workloads.check"),
        (MeasurementService, "submit", "service.submit"),
        (ResultCache, "get", "service.cache_get"),
        (ResultCache, "put", "service.cache_put"),
        (WorkerPool, "execute", "service.ipc"),
    ]
    for ticket in (dispatcher._CudaTicket, dispatcher._OmpTicket):
        for method in ("replay", "run_lifted", "record"):
            table.append((ticket, method, "compiler.dispatch"))
    return table


class Tracer:
    """Records nested spans from wrapped functions, per op."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, op_id]`` per span.
        self.spans: list[list] = []
        #: Calls per wrapped ``Owner.attribute``.
        self.calls: dict[str, int] = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span under the current one; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.op_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index``."""
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def op(self, op_id: int):
        """Context manager: one op's root span."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op_id = op_id
                self.index = tracer.begin(ROOT)
                return self

            def __exit__(self, *exc):
                tracer.end(self.index)
                return False

        return _Op()

    def wrap(self, owner: object, attr: str, name: str,
             enter=None, leave=None) -> None:
        """Replace ``owner.attr`` (a module function or a method defined
        on the class itself) with a span-recording wrapper.

        ``enter()`` runs before the span opens; ``leave(index, result)``
        runs after it closes and its return value is returned.
        """
        raw = vars(owner)[attr]
        original = getattr(owner, attr)
        tracer = self
        key = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            if enter is not None:
                enter()
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            return result if leave is None else leave(index, result)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def install(self, table: list[tuple[object, str, str]],
                hooks: dict | None = None) -> None:
        """Wrap every ``(owner, attribute, span name)`` of ``table``;
        ``hooks`` maps a span name to its ``(enter, leave)``."""
        hooks = hooks or {}
        for owner, attr, name in table:
            self.wrap(owner, attr, name, *hooks.get(name, ()))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path, **extra) -> None:
        """Write every span, the call counts and ``extra`` out as JSON."""
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "calls": self.calls, **extra}))


def per_op(spans: list[list]) -> dict[int, tuple[int, dict[str, int]]]:
    """Per op id: (summed root-span duration, self time per span name),
    integer ns.

    A span's self time is its duration minus the durations of its
    direct children, so an op's self times sum exactly to its root
    duration.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: dict[int, tuple[int, dict[str, int]]] = {}
    for index, (name, start, end, parent, op_id) in enumerate(spans):
        wall, own = out.get(op_id, (0, {}))
        own[name] = own.get(name, 0) + end - start - child_ns[index]
        out[op_id] = (wall + (end - start if parent < 0 else 0), own)
    return out


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time per span name over every op, integer ns."""
    total: dict[str, int] = {}
    for _wall, own in per_op(spans).values():
        for name, ns in own.items():
            total[name] = total.get(name, 0) + ns
    return total
