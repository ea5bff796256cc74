"""Measurement requests: the catalogue, validation, and execution.

A request names a synchronization primitive from a fixed catalogue
("cost of ``omp_atomic`` at 16 threads on the AMD preset"), a paper
system preset, a parallelism level, and a data type.  This module owns:

* :data:`CATALOG` — primitive name -> spec builder + substrate kind,
  built on the same spec builders the figure experiments use
  (:mod:`repro.experiments.base`), so a service answer and a campaign
  sweep point are the *same measurement*;
* :class:`MeasureRequest` — the validated, canonical request object
  (validation errors are :class:`~repro.common.errors.
  ConfigurationError`, i.e. permanent in the retry taxonomy);
* :func:`execute_request` — the pure measurement: deterministic in
  (request, fault scenario, protocol seed), which is what makes the
  content-addressed cache statistically honest — a cached answer is
  byte-identical to remeasuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.datatypes import DTYPES, DataType
from repro.common.errors import ConfigurationError
from repro.compiler.ops import PrimitiveKind, Scope
from repro.core.engine import MeasurementEngine
from repro.core.protocol import MeasurementProtocol
from repro.core.results import MeasurementResult
from repro.experiments import base as specs
from repro.gpu.spec import LaunchConfig

#: Data types by DSL name (``int``, ``ull``, ``float``, ``double``).
DTYPE_BY_NAME: dict[str, DataType] = {dt.name: dt for dt in DTYPES}


@dataclass(frozen=True)
class PrimitiveDef:
    """One measurable primitive of the service catalogue.

    Attributes:
        name: Catalogue key (the request's ``primitive`` field).
        substrate: ``"cpu"`` (OpenMP) or ``"gpu"`` (CUDA).
        builder: ``dtype -> MeasurementSpec``.
        description: Human-readable summary (``/healthz`` lists these).
    """

    name: str
    substrate: str
    builder: object
    description: str


def _catalog() -> dict[str, PrimitiveDef]:
    entries = [
        PrimitiveDef("omp_barrier", "cpu",
                     lambda dt: specs.omp_barrier_spec(),
                     "explicit OpenMP barrier (Fig. 1)"),
        PrimitiveDef("omp_atomic", "cpu",
                     specs.omp_atomic_update_scalar_spec,
                     "OpenMP atomic update on a shared scalar (Fig. 2)"),
        PrimitiveDef("omp_atomic_write", "cpu",
                     specs.omp_atomic_write_spec,
                     "OpenMP atomic write (Fig. 4)"),
        PrimitiveDef("omp_critical", "cpu",
                     specs.omp_critical_spec,
                     "addition under omp critical (Fig. 5)"),
        PrimitiveDef("cuda_syncthreads", "gpu",
                     lambda dt: specs.cuda_syncthreads_spec(),
                     "CUDA __syncthreads() (Fig. 7)"),
        PrimitiveDef("cuda_syncwarp", "gpu",
                     lambda dt: specs.cuda_syncwarp_spec(),
                     "CUDA __syncwarp() (Fig. 8)"),
        PrimitiveDef("cuda_atomicadd", "gpu",
                     lambda dt: specs.cuda_atomic_scalar_spec(
                         PrimitiveKind.ATOMIC_ADD, dt),
                     "CUDA atomicAdd() on a shared scalar (Fig. 9)"),
        PrimitiveDef("cuda_threadfence", "gpu",
                     lambda dt: specs.cuda_fence_spec(Scope.DEVICE, dt,
                                                      stride=8),
                     "CUDA __threadfence() (Fig. 14)"),
    ]
    return {entry.name: entry for entry in entries}


#: The service's primitive catalogue, by request name.
CATALOG: dict[str, PrimitiveDef] = _catalog()

#: Request fields accepted over the wire (anything else is rejected —
#: a typo'd field must not silently produce a different measurement).
REQUEST_FIELDS = ("primitive", "system", "threads", "blocks", "dtype",
                  "n_runs")

_VALID_SYSTEMS = (1, 2, 3)
_MAX_RUNS = 64


@dataclass(frozen=True)
class MeasureRequest:
    """One validated measurement request.

    Attributes:
        primitive: Catalogue key (see :data:`CATALOG`).
        system: Paper system preset (1-3; 3 is the AMD part).
        threads: OpenMP thread count, or CUDA threads per block.
        blocks: CUDA grid blocks (ignored on the CPU substrate).
        dtype: Data type name (``int``/``ull``/``float``/``double``).
        n_runs: Protocol runs override (None = the paper's 9).
    """

    primitive: str
    system: int = 3
    threads: int = 16
    blocks: int = 2
    dtype: str = "int"
    n_runs: int | None = None

    @classmethod
    def from_json(cls, payload: object) -> "MeasureRequest":
        """Validate a wire-format dict into a request.

        Raises:
            ConfigurationError: Unknown fields, unknown primitive or
                dtype, out-of-range system/threads/blocks/n_runs.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"measure request must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s) {unknown}; valid fields: "
                f"{list(REQUEST_FIELDS)}")
        if "primitive" not in payload:
            raise ConfigurationError(
                "measure request is missing 'primitive'; available: "
                f"{sorted(CATALOG)}")
        values = {name: payload[name] for name in REQUEST_FIELDS
                  if name in payload}
        for name in ("system", "threads", "blocks", "n_runs"):
            if name in values and values[name] is not None and \
                    not isinstance(values[name], int):
                raise ConfigurationError(
                    f"request field {name!r} must be an integer, got "
                    f"{values[name]!r}")
        request = cls(**values)
        request.resolve()  # validate eagerly, before any dispatch
        return request

    def resolve(self) -> tuple[PrimitiveDef, DataType]:
        """Look up and validate the catalogue entry and data type.

        Raises:
            ConfigurationError: Anything out of catalogue or range.
        """
        entry = CATALOG.get(self.primitive)
        if entry is None:
            raise ConfigurationError(
                f"unknown primitive {self.primitive!r}; available: "
                f"{sorted(CATALOG)}")
        dtype = DTYPE_BY_NAME.get(self.dtype)
        if dtype is None:
            raise ConfigurationError(
                f"unknown dtype {self.dtype!r}; available: "
                f"{sorted(DTYPE_BY_NAME)}")
        if self.system not in _VALID_SYSTEMS:
            raise ConfigurationError(
                f"unknown system {self.system}; the paper tests "
                f"systems {list(_VALID_SYSTEMS)}")
        if entry.substrate == "cpu":
            from repro.cpu.presets import cpu_preset
            machine = cpu_preset(self.system)
            if not 2 <= self.threads <= machine.max_threads:
                raise ConfigurationError(
                    f"threads must be in [2, {machine.max_threads}] on "
                    f"system {self.system}, got {self.threads}")
        else:
            if not 1 <= self.threads <= 1024:
                raise ConfigurationError(
                    f"CUDA threads per block must be in [1, 1024], "
                    f"got {self.threads}")
            if self.blocks < 1:
                raise ConfigurationError(
                    f"CUDA grid blocks must be >= 1, got {self.blocks}")
        if self.n_runs is not None and \
                not 1 <= self.n_runs <= _MAX_RUNS:
            raise ConfigurationError(
                f"n_runs must be in [1, {_MAX_RUNS}], got {self.n_runs}")
        return entry, dtype

    def canonical(self) -> dict:
        """The request as a canonical JSON-ready dict (cache identity).

        Equal to ``dataclasses.asdict(self)``, keys in field order, so
        cache keys stay byte-identical; a literal skips its deep copy.
        """
        return {"primitive": self.primitive, "system": self.system,
                "threads": self.threads, "blocks": self.blocks,
                "dtype": self.dtype, "n_runs": self.n_runs}

    def label(self) -> str:
        """The jitter-stream label of this request's sweep point."""
        entry = CATALOG[self.primitive]
        if entry.substrate == "cpu":
            return f"t={self.threads}"
        return f"b={self.blocks}/t={self.threads}"

    def describe(self) -> str:
        """Compact one-line id (checkpoint keys, log lines)."""
        return (f"{self.primitive}/s{self.system}/b{self.blocks}"
                f"/t{self.threads}/{self.dtype}"
                + (f"/r{self.n_runs}" if self.n_runs else ""))


def execute_request(request: MeasureRequest,
                    protocol: MeasurementProtocol | None = None) -> dict:
    """Run the measurement protocol for one request.

    Builds the machine preset, resolves the spec from the catalogue,
    and executes the engine's full baseline/test protocol.  An ambient
    fault scenario (:func:`repro.faults.scenario.use_faults`) is picked
    up by the engine exactly as in a CLI campaign.

    Returns:
        The JSON-ready measurement payload (:func:`result_to_json`).

    Raises:
        ConfigurationError: Invalid request.
        MeasurementError: Protocol exhausted by injected faults.
    """
    entry, dtype = request.resolve()
    if request.n_runs is not None:
        base = protocol or MeasurementProtocol()
        from dataclasses import replace
        protocol = replace(base, n_runs=request.n_runs)
    spec = entry.builder(dtype)
    if entry.substrate == "cpu":
        from repro.cpu.presets import cpu_preset
        machine = cpu_preset(request.system)
        ctx = machine.context(request.threads)
    else:
        from repro.gpu.presets import gpu_preset
        machine = gpu_preset(request.system)
        ctx = machine.context(
            LaunchConfig(request.blocks, request.threads))
    engine = MeasurementEngine(machine, protocol=protocol)
    result = engine.measure(spec, ctx, label=request.label())
    return result_to_json(result)


def _finite(value: float | None) -> float | None:
    """JSON-safe float: non-finite values become None."""
    if value is None or not math.isfinite(value):
        return None
    return value


def result_to_json(result: MeasurementResult) -> dict:
    """Serialize a measurement result for the wire and the cache."""
    return {
        "spec_name": result.spec_name,
        "unit": result.unit,
        "baseline_median": _finite(result.baseline_median),
        "test_median": _finite(result.test_median),
        "per_op_time": _finite(result.per_op_time),
        "throughput": _finite(result.throughput),
        "naive_per_op_time": _finite(result.naive_per_op_time),
        "valid_fraction": _finite(result.valid_fraction),
        "unrecordable": result.unrecordable,
        "eliminated": list(result.eliminated),
        "dropped_runs": result.dropped_runs,
        "escalations": result.escalations,
        "within_timer_accuracy": result.within_timer_accuracy,
    }
