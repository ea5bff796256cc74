"""The machine base: parameter parts, identity, and the memos keyed on it.

A subclass (:class:`repro.cpu.machine.CpuMachine`,
:class:`repro.gpu.device.GpuDevice`, :class:`repro.gpu.multi.MultiGpu`)
names the frozen parameter objects it holds in ``PARTS`` and implements
``_resolve(*shape)`` (build a :class:`RunContext`) and
``_price(op, ctx)``.  The current values of the parts are its
:meth:`Machine.identity`.  Contexts and cost models are memoized on it,
op and body prices on the context under ``(machine, op)`` and
``(machine, body)`` keys (one context may be priced by several
machines), and the dispatcher's replay key is ``(type qualname,
*identity())``.  Replacing a part, or flipping one of its fields in
place, therefore prices at the new values.  Each machine memo is
cleared wholesale when it reaches :attr:`Machine.MEMO_BOUND` entries.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np


@dataclass(frozen=True)
class RunContext:
    """Base of every resolved context: carries the per-context price memo
    (pricing is a pure function of the context, so each op is priced
    once per context, not once per sweep point)."""

    _cost_cache: dict = field(repr=False, compare=False, kw_only=True,
                              default_factory=dict)


def _remember(memo: dict, key: object, value: object) -> object:
    if len(memo) >= Machine.MEMO_BOUND:
        memo.clear()  # one C call: safe under threads sharing a preset
    memo[key] = value
    return value


class Machine:
    """Base of every machine: owns identity, memos and the noise guard.

    The engine trusts :meth:`noise_free` and :meth:`noise_sampler` only
    when the class defining ``run_noise`` also defines the ``_silent``
    and ``_sampler`` that describe it; a subclass overriding
    ``run_noise`` alone gets ``False`` and ``None``, so the engine calls
    its ``run_noise`` for every sample.  The base's own noise is none.
    """

    #: Attribute paths of the frozen parameter objects the machine
    #: holds; a dotted path reaches into a part that is itself a machine.
    PARTS: tuple[str, ...] = ()

    #: Most contexts, and most cost models, one machine keeps.  A full
    #: ``run_full_matrix`` resolves at most 189 contexts on one machine.
    MEMO_BOUND = 1024

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.PARTS:
            raise TypeError(f"{cls.__name__} declares no PARTS")
        # An attrgetter is not a descriptor: the class attribute is called
        # unbound, as ``self._get_parts(self)``.
        get = attrgetter(*cls.PARTS)
        cls._get_parts = get if len(cls.PARTS) > 1 else \
            staticmethod(lambda machine: (get(machine),))
        home = next(k for k in cls.__mro__ if "run_noise" in vars(k))
        cls._compiled_noise = all(
            hook in vars(home) for hook in ("_sampler", "_silent"))

    def __new__(cls, *args: object, **kwargs: object) -> "Machine":
        # The memos exist before any subclass constructor runs, so
        # constructors need not call up.
        machine = super().__new__(cls)
        machine._forget()
        return machine

    def _forget(self) -> None:
        self._contexts: dict = {}
        self._cost_models: dict = {}

    def identity(self) -> tuple:
        """The current values of ``PARTS``, in declaration order."""
        return self._get_parts(self)

    def replace_parts(self, **parts: object) -> "Machine":
        """A same-class copy with some top-level parts replaced and
        empty memos (``TypeError`` for a name that is not a part)."""
        unknown = parts.keys() - {p.partition(".")[0] for p in self.PARTS}
        if unknown:
            raise TypeError(
                f"{type(self).__name__} has no part(s) {sorted(unknown)}")
        clone = copy.copy(self)
        vars(clone).update(parts)
        clone._forget()
        return clone

    def context(self, *shape: object) -> object:
        """The resolved context of one measurement configuration."""
        key = shape + self._get_parts(self)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = _remember(self._contexts, key, self._resolve(*shape))
        return ctx

    @property
    def cost_model(self) -> object:
        """The subclass's ``_build_cost_model()`` for the current parts."""
        key = self._get_parts(self)
        model = self._cost_models.get(key)
        if model is None:
            model = _remember(self._cost_models, key,
                              self._build_cost_model())
        return model

    def op_cost(self, op: object, ctx: object) -> float:
        """Deterministic steady-state cost of one op, in ``time_unit``."""
        cache = ctx._cost_cache
        cached = cache.get((self, op))
        if cached is None:
            cached = cache[(self, op)] = self._price(op, ctx)
        return cached

    def body_cost(self, body: tuple | list, ctx: object) -> float:
        """Cost of one unrolled loop-body iteration, in ``time_unit``."""
        # Whole-body memo: the engine prices the same two kept bodies at
        # every sweep point.  Tuples only: list bodies are unhashable.
        if type(body) is tuple:
            cache = ctx._cost_cache
            cached = cache.get((self, body))
            if cached is None:
                cached = cache[(self, body)] = \
                    sum(self.op_cost(op, ctx) for op in body)
            return cached
        return sum(self.op_cost(op, ctx) for op in body)

    def run_noise(self, rng: np.random.Generator, ctx: object,
                  body: tuple = (), base_cost: float = 0.0) -> float:
        """Stochastic per-op noise for one timed run of ``body``."""
        return 0.0

    def noise_sampler(self, ctx: object, bodies: tuple[tuple, tuple],
                      base_costs: tuple[float, float]):
        """The compiled noise of one baseline/test pair: a binder
        ``bind(rng) -> sample()`` whose calls are stream-identical to two
        :meth:`run_noise` calls, or ``None`` when the engine must make
        those calls itself."""
        if not self._compiled_noise:
            return None
        return self._sampler(ctx, bodies, base_costs)

    def noise_free(self, body: tuple = ()) -> bool:
        """True when every :meth:`run_noise` sample for ``body`` is
        exactly 0.0, so the engine may skip sampling."""
        return self._compiled_noise and self._silent(body)

    def _sampler(self, ctx: object, bodies: tuple[tuple, tuple],
                 base_costs: tuple[float, float]):
        return None

    def _silent(self, body: tuple) -> bool:
        return True
