"""The measurement engine: executes the protocol on a machine.

Device-agnostic: a *machine* is anything exposing ``name``, ``time_unit``,
``loop_overhead``, ``body_cost(body, ctx)``, ``run_noise(rng, ctx, body)``,
and ``throughput(per_op_time)`` — i.e. :class:`repro.cpu.CpuMachine` or
:class:`repro.gpu.GpuDevice`.

The engine reproduces every methodological element of Section III/IV:

* The loop bodies are first run through the compiler model's dead-code
  elimination; a spec whose measured primitive does not survive is
  reported *unrecordable* instead of yielding a bogus zero.
* Loop bookkeeping overhead is amortized over the unroll factor and —
  because it appears identically in baseline and test — cancels in the
  subtraction.  (The ``naive_per_op_time`` field records what timing the
  test loop alone would have claimed, for the ablation benchmark.)
* Each run retries up to ``max_attempts`` times while the test function
  measures faster than the baseline; per-run medians are subtracted and
  normalized by the number of extra measured ops.

Robustness extensions (beyond the paper, for fault-injected campaigns):

* Injected dropped/hung measurements
  (:class:`~repro.common.errors.FaultInjectionError`) are discarded and
  retried like the paper's faulty measurements, within optional per-spec
  attempt and wall-clock budgets.
* :meth:`MeasurementEngine.measure_robust` escalates — doubling
  ``n_runs`` — when a result has no valid runs, before declaring
  :class:`~repro.common.errors.MeasurementError`.
* When a fault scenario is active (``syncperf --faults``, or
  :func:`repro.faults.use_faults`), every engine transparently wraps its
  machine in a :class:`repro.faults.FaultyMachine`.

One kernel, four point routes
-----------------------------

:meth:`MeasurementEngine._run_protocol` is the one protocol kernel.  Each
point takes one of four routes:

* *unrecordable* — the optimizer removed every measured op;
* *closed form* — a silent point (the machine declares both bodies
  ``noise_free``) with no budget: every attempt reproduces the costs,
  so the medians are the costs themselves;
* *raw-state hot loop* — a point primed with raw-byte tokens (sweep
  drivers call :meth:`MeasurementEngine.prime` once per series), with a
  compiled noise sampler and no budget: reseeding is two byte-view
  writes into the pooled :class:`~repro.common.rng.RngStreamPool`
  generator and each attempt is one sampler call;
* *general loop* — everything else: per-run streams from the pool's
  reseed or from :func:`~repro.common.rng.make_rng`, attempt and time
  budgets, and per-sample ``run_noise`` calls where there is no
  compiled sampler (fault-wrapped machines and ``run_noise``
  overrides, where an injected fault may abort between the two draws).

A ``fast=False`` engine has no pool, never takes the closed form and
never asks for a compiled sampler, so every point runs the general loop
with one ``make_rng`` per run and one ``run_noise`` per sample: that is
the authoritative scalar semantics.  Pool streams replicate
``default_rng`` exactly (self-checked at runtime) and compiled samplers
consume the stream in the same order as scalar draws, so both settings
are bit-identical; ``tests/test_engine_fastpath.py`` asserts equality
result-by-result, and the golden corpus at ``results/reference/`` is the
end-to-end oracle.  Select the setting per engine with
``MeasurementEngine(..., fast=...)`` or per block with
:func:`reference_engine` (the tests use it to run workload helpers that
build their own runtimes on the oracle).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

from repro.common.errors import FaultInjectionError, MeasurementError
from repro.common.rng import RngStreamPool, make_rng
from repro.core.protocol import MeasurementProtocol
from repro.core.results import MeasurementResult
from repro.core.spec import MeasurementSpec
from repro.faults.machine import FaultyMachine, wrap_machine
from repro.faults.scenario import active_scenario
from repro.obs import event as obs_event
from repro.obs import get_recorder
from repro.obs import recorder as _obs_recorder
from repro.obs import span as obs_span
from repro.obs.metrics import _SUBSCRIBER as _metric_subscriber
from repro.obs.metrics import counter as _counter

_ZERO8 = b"\x00" * 8

# Observability counters (see docs/observability.md).  Process-wide and
# always on; the protocol kernel accumulates locally and flushes once per
# protocol execution through _flush_protocol_counters so its loops never
# pay per-attempt metric calls.
_C_MEASUREMENTS = _counter("engine.measurements")
_C_PATH_FAST = _counter("engine.path.fast")
_C_PATH_REFERENCE = _counter("engine.path.reference")
_C_ATTEMPTS = _counter("engine.attempts")
_C_RETRIES = _counter("engine.retries")
_C_DROPPED_RUNS = _counter("engine.dropped_runs")
_C_FAULT_DROPS = _counter("engine.fault_dropped_attempts")
_C_UNRECORDABLE = _counter("engine.unrecordable")
_C_ESCALATIONS = _counter("engine.escalations")


def _flush_protocol_counters(fast: bool, attempts: int = 0,
                             retries: int = 0, dropped: int = 0,
                             fault_drops: int = 0,
                             unrecordable: bool = False) -> None:
    """One protocol execution's worth of counter updates.

    The subscriber-less case (no recorder installed — the default)
    takes direct attribute increments: a primed closed-form point
    costs little more than this flush, so ``Counter.add``'s notify
    check would be measurable on every point of a sweep.
    """
    if _metric_subscriber[0] is None:
        _C_MEASUREMENTS.value += 1
        (_C_PATH_FAST if fast else _C_PATH_REFERENCE).value += 1
        if attempts:
            _C_ATTEMPTS.value += attempts
        if retries:
            _C_RETRIES.value += retries
        if dropped:
            _C_DROPPED_RUNS.value += dropped
        if fault_drops:
            _C_FAULT_DROPS.value += fault_drops
        if unrecordable:
            _C_UNRECORDABLE.value += 1
        return
    _C_MEASUREMENTS.add(1)
    (_C_PATH_FAST if fast else _C_PATH_REFERENCE).add(1)
    if attempts:
        _C_ATTEMPTS.add(attempts)
    if retries:
        _C_RETRIES.add(retries)
    if dropped:
        _C_DROPPED_RUNS.add(dropped)
    if fault_drops:
        _C_FAULT_DROPS.add(fault_drops)
    if unrecordable:
        _C_UNRECORDABLE.add(1)


#: Process-wide default for the engine setting; flipped temporarily by
#: :func:`reference_engine`.
_FAST_DEFAULT = True


def fast_path_default() -> bool:
    """Whether engines default to the vectorized fast path."""
    return _FAST_DEFAULT


def _median(values: list[float]) -> float:
    """``statistics.median`` bit-for-bit, without its dispatch overhead
    (the engine computes two medians per sweep point)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n & 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@contextmanager
def reference_engine():
    """Create engines and interpreters inside the block with
    ``fast=False``: the oracle the equivalence tests compare against."""
    global _FAST_DEFAULT
    previous = _FAST_DEFAULT
    _FAST_DEFAULT = False
    try:
        yield
    finally:
        _FAST_DEFAULT = previous


class MeasurementEngine:
    """Runs measurement specs on one machine under one protocol.

    Args:
        machine: CPU machine or GPU device (duck-typed).
        protocol: Measurement protocol (None = paper default).
        fast: ``False`` runs every point through the general loop with
            scalar draws (the oracle setting); ``None`` follows the
            process default (fast unless inside :func:`reference_engine`).
    """

    def __init__(self, machine: object,
                 protocol: MeasurementProtocol | None = None,
                 fast: bool | None = None) -> None:
        self.machine = wrap_machine(machine, active_scenario())
        self.protocol = protocol or MeasurementProtocol()
        self.fast = _FAST_DEFAULT if fast is None else fast
        self._pool = RngStreamPool() if self.fast else None
        # Point plans are memoized on the caller's context, keyed on the
        # machine.  A fault wrapper is built per engine, so keying on it
        # would pin one wrapper (and its fault stream) per engine in a
        # context that outlives them all; its plans are rebuilt instead.
        self._plan_memo = self.fast and \
            not isinstance(self.machine, FaultyMachine)

    def prime(self, spec: MeasurementSpec, labels: list[str],
              protocol: MeasurementProtocol | None = None) -> None:
        """Precompute the per-run RNG streams for a series of points.

        Sweep drivers call this once per (spec, point labels) series so
        the expensive part of stream seeding runs vectorized over the
        whole series (~1 µs per stream instead of ~8 µs).  Optional:
        unprimed labels (direct :meth:`measure` calls, escalation
        rounds) transparently fall back to
        :func:`~repro.common.rng.make_rng`.
        """
        if not self.fast:
            return
        machine = self.machine
        noise_free = getattr(machine, "noise_free", None)
        if noise_free is not None:
            baseline_kept, test_kept = spec.surviving_bodies()
            if noise_free(baseline_kept) and noise_free(test_kept):
                return  # no draws will happen: nothing to prime
        proto = protocol or self.protocol
        prefix = f"{machine.name}/{spec.name}/"
        self._pool.prime_points(
            [(f"{prefix}{label}/run", proto.seed, proto.n_runs)
             for label in labels])

    def measure(self, spec: MeasurementSpec, ctx: object,
                label: str = "") -> MeasurementResult:
        """Execute the full protocol for one parameter combination.

        Args:
            spec: Baseline/test pair to measure.
            ctx: Machine context (thread placement / launch occupancy).
            label: Distinguishes parameter combinations in the jitter
                stream (e.g. ``"t=8"``); results are deterministic in
                (machine, spec, label, seed).

        Returns:
            The measurement result; ``unrecordable=True`` when the
            optimizer eliminated the measured primitive.

        Raises:
            MeasurementError: When every run was dropped by injected
                faults or the attempt/time budgets ran out with no data
                at all (unreachable without fault injection or budgets).
        """
        # Hot path: one module-global read when observability is off.
        if _obs_recorder._RECORDER is None:
            return self._run_protocol(self.protocol, spec, ctx, label)
        with obs_span("engine.measure", spec=spec.name, label=label,
                      machine=self.machine.name,
                      path="fast" if self.fast else "reference"):
            return self._run_protocol(self.protocol, spec, ctx, label)

    # --------------------------- shared pieces ------------------------- #

    def _unrecordable(self, spec: MeasurementSpec,
                      eliminated: tuple[str, ...]) -> MeasurementResult:
        return MeasurementResult(
            spec_name=spec.name,
            unit=self.machine.time_unit,
            baseline_median=float("nan"),
            test_median=float("nan"),
            per_op_time=None,
            throughput=float("nan"),
            naive_per_op_time=float("nan"),
            valid_fraction=0.0,
            unrecordable=True,
            eliminated=eliminated,
        )

    @staticmethod
    def _all_dropped_error(proto: MeasurementProtocol,
                           spec: MeasurementSpec,
                           label: str) -> MeasurementError:
        budget = []
        if proto.attempt_budget is not None:
            budget.append(f"attempt_budget={proto.attempt_budget}")
        if proto.time_budget_s is not None:
            budget.append(f"time_budget_s={proto.time_budget_s:g}")
        suffix = f" within {', '.join(budget)}" if budget else ""
        return MeasurementError(
            f"spec {spec.name!r} ({label or 'no label'}): every run "
            f"was dropped — no attempt produced data{suffix}")

    def _point_costs(self, proto: MeasurementProtocol,
                     baseline_kept: tuple, test_kept: tuple,
                     ctx: object) -> tuple[float, float]:
        machine = self.machine
        loop_overhead = machine.loop_overhead / proto.unroll
        # Without a warm-up loop, the timed section pays the one-time
        # cold-start cost (first-touch faults / cold caches), smeared over
        # the measured ops.  It hits baseline and test alike, so the
        # subtraction cancels it — but naive timing does not (§III's
        # rationale for N_WARMUP).
        cold = 0.0
        if proto.n_warmup == 0:
            cold = getattr(machine, "cold_start_cost", 0.0) / \
                proto.ops_per_loop
        cost_baseline = machine.body_cost(baseline_kept, ctx) \
            + loop_overhead + cold
        cost_test = machine.body_cost(test_kept, ctx) + loop_overhead + cold
        return cost_baseline, cost_test

    # ----------------------------- the kernel -------------------------- #

    def _point_plan(self, proto: MeasurementProtocol,
                    spec: MeasurementSpec, ctx: object) -> tuple:
        """The per-point constants of the kernel: kept bodies, eliminated
        ops, costs, whether the point is provably noise-free, and the
        machine's compiled noise sampler.  Every entry is a pure function
        of (machine, spec, ctx) and the two protocol fields that affect
        costs (unroll, n_warmup), so a fast engine on an unwrapped
        machine memoizes the plan on the context.  A fault-wrapped
        engine rebuilds it per point (it never has silence or a
        sampler), and a ``fast=False`` engine recomputes it per point
        and never asks for either."""
        machine = self.machine
        fast = self.fast
        cache = getattr(ctx, "_cost_cache", None) if self._plan_memo \
            else None
        key = None
        if cache is not None:
            key = ("plan", machine, spec, proto.unroll, proto.n_warmup)
            plan = cache.get(key)
            if plan is not None:
                return plan
        baseline_kept, test_kept, removed, extra_ops = spec._analysis()
        eliminated = tuple(op.kind.value for op in removed)
        cost_baseline = cost_test = 0.0
        silent = False
        bind = None
        if extra_ops:
            cost_baseline, cost_test = self._point_costs(
                proto, baseline_kept, test_kept, ctx)
        if extra_ops and fast:
            noise_free = getattr(machine, "noise_free", None)
            silent = noise_free is not None and \
                noise_free(baseline_kept) and noise_free(test_kept)
            make_sampler = getattr(machine, "noise_sampler", None)
            if not silent and make_sampler is not None:
                bind = make_sampler(ctx, (baseline_kept, test_kept),
                                    (cost_baseline, cost_test))
        plan = (baseline_kept, test_kept, eliminated, extra_ops,
                cost_baseline, cost_test, silent, bind)
        if key is not None:
            cache[key] = plan
        return plan

    def _run_protocol(self, proto: MeasurementProtocol,
                      spec: MeasurementSpec, ctx: object,
                      label: str) -> MeasurementResult:
        """The protocol for one point, on one of the four routes of the
        module docstring."""
        machine = self.machine
        fast = self.fast
        (baseline_kept, test_kept, eliminated, extra_ops, cost_baseline,
         cost_test, silent, bind) = self._point_plan(proto, spec, ctx)

        if extra_ops == 0:
            _flush_protocol_counters(fast, unrecordable=True)
            return self._unrecordable(spec, eliminated)

        budgeted = proto.attempt_budget is not None or \
            proto.time_budget_s is not None

        if silent and not budgeted and proto.n_runs >= 1:
            # Closed form: with zero noise every run draws nothing and
            # every attempt reproduces the same (tb, tt) pair, so the
            # medians are the costs themselves.
            tb = max(cost_baseline, 0.0)
            tt = max(cost_test, 0.0)
            valid_runs = proto.n_runs if tt >= tb else 0
            if _metric_subscriber[0] is None:  # inlined counter flush
                _C_MEASUREMENTS.value += 1
                _C_PATH_FAST.value += 1
                _C_ATTEMPTS.value += proto.n_runs
            else:
                _flush_protocol_counters(True, attempts=proto.n_runs)
            return self._finalize(proto, spec, eliminated,
                                  [tb] * proto.n_runs, [tt] * proto.n_runs,
                                  valid_runs, 0, len(test_kept))

        deadline = None
        if proto.time_budget_s is not None:
            deadline = time.monotonic() + proto.time_budget_s
        attempts_left = proto.attempt_budget  # None = unlimited

        pool = self._pool
        seed = proto.seed
        prefix = f"{machine.name}/{spec.name}/{label}/run"
        # Primed points hand over one precomputed PCG64 state per run;
        # a point primed under a different n_runs (escalation widened the
        # protocol after priming) is discarded rather than half-used.
        point = pool.take_point(prefix, seed) if pool is not None else None
        if point is not None and len(point) != proto.n_runs:
            point = None

        if point and bind is not None and not budgeted and \
                type(point[0]) is bytes:
            # Raw-state hot loop.  Byte tokens come only from a pool with
            # raw views, so reseeding is two byte-view writes into the
            # one pooled generator the sampler is bound to.  No faults
            # can fire here (a compiled sampler exists only for
            # unwrapped, non-overridden machines), so every run keeps its
            # last attempt, exactly as the general loop does.
            sample = bind(pool.generator)
            state_mv, wrap_mv = pool.raw_views()
            zero8 = _ZERO8
            attempt_range = range(proto.max_attempts)
            baseline_times = []
            test_times = []
            append_b = baseline_times.append
            append_t = test_times.append
            valid_runs = 0
            n_retries = 0
            tb = tt = 0.0
            # Attempt accounting stays out of the innermost loop: every
            # run keeps its last attempt here, so total attempts is
            # n_runs + retries and retries only accrue when the first
            # attempt came back invalid (rare on quiet machines).
            for token in point:
                state_mv[:] = token
                wrap_mv[:] = zero8
                ok = False
                for _attempt in attempt_range:
                    noise_b, noise_t = sample()
                    tb = cost_baseline + noise_b
                    if tb < 0.0:
                        tb = 0.0
                    tt = cost_test + noise_t
                    if tt < 0.0:
                        tt = 0.0
                    if tt >= tb:
                        ok = True
                        break
                if _attempt:
                    n_retries += _attempt
                append_b(tb)
                append_t(tt)
                if ok:
                    valid_runs += 1
            if _metric_subscriber[0] is None:  # inlined counter flush
                _C_MEASUREMENTS.value += 1
                _C_PATH_FAST.value += 1
                _C_ATTEMPTS.value += len(point) + n_retries
                if n_retries:
                    _C_RETRIES.value += n_retries
            else:
                _flush_protocol_counters(
                    True, attempts=len(point) + n_retries,
                    retries=n_retries)
            return self._finalize(proto, spec, eliminated, baseline_times,
                                  test_times, valid_runs, 0,
                                  len(test_kept))

        # General loop.
        run_noise = machine.run_noise
        baseline_times: list[float] = []
        test_times: list[float] = []
        valid_runs = 0
        dropped_runs = 0
        n_attempts = 0
        n_retries = 0
        fault_drops = 0
        exhausted = False
        for run in range(proto.n_runs):
            if point is not None:
                rng = pool.reseed(point[run])
            else:
                rng = make_rng(f"{prefix}{run}", seed)
            sample = bind(rng) if bind is not None else None
            chosen: tuple[float, float, bool] | None = None
            for _attempt in range(proto.max_attempts):
                # Budget checks are skipped wholesale when no budget is
                # set: the common case must not poll time.monotonic().
                if budgeted:
                    if attempts_left is not None and attempts_left <= 0:
                        exhausted = True
                        break
                    if deadline is not None and \
                            time.monotonic() > deadline:
                        exhausted = True
                        break
                    if attempts_left is not None:
                        attempts_left -= 1
                n_attempts += 1
                if _attempt:
                    n_retries += 1
                try:
                    if sample is not None:
                        noise_b, noise_t = sample()
                    else:
                        # Per-sample calls: an injected fault may abort
                        # between the two draws.
                        noise_b = run_noise(rng, ctx, baseline_kept,
                                            cost_baseline)
                        noise_t = run_noise(rng, ctx, test_kept, cost_test)
                except FaultInjectionError:
                    # An injected dropped/hung measurement: no data from
                    # this attempt; retry within the remaining budget.
                    fault_drops += 1
                    continue
                tb = max(cost_baseline + noise_b, 0.0)
                tt = max(cost_test + noise_t, 0.0)
                ok = tt >= tb
                chosen = (tb, tt, ok)
                if ok:
                    break
            if chosen is None:
                dropped_runs += 1
                if exhausted:
                    break  # remaining runs count invalid via n_runs
                continue
            baseline_times.append(chosen[0])
            test_times.append(chosen[1])
            valid_runs += chosen[2]

        _flush_protocol_counters(fast, attempts=n_attempts,
                                 retries=n_retries, dropped=dropped_runs,
                                 fault_drops=fault_drops)
        if not baseline_times:
            raise self._all_dropped_error(proto, spec, label)

        return self._finalize(proto, spec, eliminated, baseline_times,
                              test_times, valid_runs, dropped_runs,
                              len(test_kept))

    def _finalize(self, proto: MeasurementProtocol, spec: MeasurementSpec,
                  eliminated: tuple[str, ...], baseline_times: list[float],
                  test_times: list[float], valid_runs: int,
                  dropped_runs: int, test_kept_len: int
                  ) -> MeasurementResult:
        machine = self.machine
        extra_ops = spec.extra_op_count()
        baseline_median = _median(baseline_times)
        test_median = _median(test_times)
        per_op = (test_median - baseline_median) / extra_ops
        naive = test_median / max(test_kept_len, 1)
        return MeasurementResult(
            spec_name=spec.name,
            unit=machine.time_unit,
            baseline_median=baseline_median,
            test_median=test_median,
            per_op_time=per_op,
            throughput=machine.throughput(per_op),
            naive_per_op_time=naive,
            valid_fraction=valid_runs / proto.n_runs,
            unrecordable=False,
            eliminated=eliminated,
            dropped_runs=dropped_runs,
        )

    def measure_robust(self, spec: MeasurementSpec, ctx: object,
                       label: str = "") -> MeasurementResult:
        """Like :meth:`measure`, with escalating retry before giving up.

        The first round is byte-identical to :meth:`measure`.  If it
        yields no valid runs (``valid_fraction`` at or below the
        protocol's ``min_valid_fraction``) or no data at all, the engine
        escalates: up to ``max_escalations`` extra rounds, each doubling
        ``n_runs`` (the paper's remedy for jitter is more samples), under
        decorrelated jitter streams.  Exhausting escalation raises.

        Escalations are not silent: every retried round bumps the
        ``engine.escalations`` counter and emits an
        ``engine.measure_robust.retry`` event (attempt index plus
        reason) on the installed :mod:`repro.obs` recorder, and the
        accepted result carries the total in
        :attr:`~repro.core.results.MeasurementResult.escalations`.

        Raises:
            MeasurementError: No round produced a result above the valid
                threshold.
        """
        proto = self.protocol
        failures: list[str] = []
        for escalation in range(proto.max_escalations + 1):
            widened = proto if escalation == 0 else replace(
                proto, n_runs=proto.n_runs * 2 ** escalation)
            esc_label = label if escalation == 0 else \
                f"{label}#esc{escalation}"
            try:
                if get_recorder() is None:
                    result = self._run_protocol(widened, spec, ctx,
                                                esc_label)
                else:
                    with obs_span("engine.measure", spec=spec.name,
                                  label=esc_label,
                                  machine=self.machine.name,
                                  path="fast" if self.fast
                                  else "reference"):
                        result = self._run_protocol(widened, spec, ctx,
                                                    esc_label)
            except MeasurementError as exc:
                failures.append(str(exc))
                if escalation < proto.max_escalations:
                    _C_ESCALATIONS.add(1)
                    obs_event("engine.measure_robust.retry",
                              spec=spec.name, label=label,
                              attempt=escalation + 1,
                              reason=f"error: {exc}")
                continue
            if result.unrecordable or \
                    result.valid_fraction > proto.min_valid_fraction:
                if escalation:
                    result = replace(result, escalations=escalation)
                return result
            failures.append(
                f"round {escalation} (n_runs={widened.n_runs}): "
                f"valid_fraction={result.valid_fraction:.3f}")
            if escalation < proto.max_escalations:
                _C_ESCALATIONS.add(1)
                obs_event("engine.measure_robust.retry", spec=spec.name,
                          label=label, attempt=escalation + 1,
                          reason="valid_fraction="
                                 f"{result.valid_fraction:.3f} <= "
                                 f"{proto.min_valid_fraction:.3f}")
        raise MeasurementError(
            f"spec {spec.name!r} ({label or 'no label'}): no valid "
            f"measurement after {proto.max_escalations + 1} round(s) "
            f"of escalating retry: " + "; ".join(failures))

    def measure_or_raise(self, spec: MeasurementSpec, ctx: object,
                         label: str = "") -> MeasurementResult:
        """Like :meth:`measure` but raises for unrecordable specs."""
        result = self.measure(spec, ctx, label)
        if result.unrecordable:
            raise MeasurementError(
                f"spec {spec.name!r} is unrecordable: the optimizer "
                f"eliminated {list(result.eliminated)}")
        return result
