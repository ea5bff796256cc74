"""syncsan — static sanitizer for synchronization primitives.

A static analysis pass over kernel programs (the Python generator
functions the interpreters execute) and over op-IR streams
(:mod:`repro.compiler.ops`).  It runs without executing a single
simulated cycle and reports five defect classes:

1. **barrier-divergence** — a block barrier reachable under
   thread-dependent control flow;
2. **sync-scope** — cross-block signalling with missing or too-narrow
   fences;
3. **lock-order** — cycles in the lock-acquisition graph (OMP locks and
   ``atomicCAS`` spinlock idioms);
4. **static-race** — plain conflicting accesses within one barrier
   epoch;
5. **redundant-sync** — back-to-back barriers/fences (advice only).

Entry points: :func:`sanitize_kernel` for live function objects (used by
the opt-in ``Cuda(lint=...)`` / ``OpenMP(lint=...)`` pre-launch check),
:func:`sanitize_source`/:func:`sanitize_paths` for files (the
``python -m repro.sanitize`` CLI), and :func:`sanitize_ops`/
:func:`sanitize_spec` for op-IR streams.  Finding counts flow through
the :mod:`repro.obs` metrics registry as ``sanitize.*`` counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.compiler.dce import redundant_sync_ops
from repro.compiler.ops import Op, PrimitiveKind
from repro.obs import metrics
from repro.sanitize.extract import (
    kernel_ir_from_function,
    kernel_irs_from_source,
)
from repro.sanitize.ir import KernelIR
from repro.sanitize.rules import (
    ALL_RULES,
    Finding,
    Report,
    Severity,
    run_rules,
)

__all__ = [
    "ALL_RULES", "Finding", "Report", "Severity", "KernelIR",
    "sanitize_kernel", "sanitize_source", "sanitize_path",
    "sanitize_paths", "sanitize_ops", "sanitize_spec", "lint_kernel",
]

#: Memo cache for :func:`sanitize_kernel`, keyed by code object (kernels
#: are re-created per launch by closure factories, but share code).
_KERNEL_CACHE: dict[tuple[object, str | None, tuple[str, ...] | None],
                    Report] = {}


def _count(report: Report) -> Report:
    """Publish a report's finding counts to the obs metrics registry."""
    metrics.counter("sanitize.kernels").add(report.kernels)
    if report.findings:
        metrics.counter("sanitize.findings").add(len(report.findings))
        for rule, n in report.by_rule().items():
            metrics.counter(f"sanitize.findings.{rule}").add(n)
    return report


def sanitize_kernel(fn: Callable, dialect: str | None = None,
                    rules: tuple[str, ...] | None = None) -> Report:
    """Lift and sanitize a live kernel function object.

    Results are memoized by code object: the pre-launch lint check calls
    this on every launch, and drivers recreate closure kernels with
    identical code each time.

    Args:
        fn: Kernel generator function.
        dialect: Force ``"cuda"``/``"openmp"``; inferred when None.
        rules: Restrict to a subset of rule ids (default: all).

    Raises:
        ValueError: when ``fn``'s source is unavailable or it is not a
            kernel (never raised for findings — inspect the report).
    """
    key = (getattr(fn, "__code__", fn), dialect, rules)
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        return cached
    report = _count(run_rules(kernel_ir_from_function(fn, dialect),
                              rules))
    _KERNEL_CACHE[key] = report
    return report


def sanitize_source(text: str, source: str = "<string>",
                    rules: tuple[str, ...] | None = None) -> Report:
    """Sanitize every kernel found in one module's source text."""
    report = Report()
    for kernel in kernel_irs_from_source(text, source):
        report.merge(run_rules(kernel, rules))
    return _count(report)


def sanitize_path(path: str | Path,
                  rules: tuple[str, ...] | None = None) -> Report:
    """Sanitize one ``.py`` file."""
    p = Path(path)
    return sanitize_source(p.read_text(), str(p), rules)


def sanitize_paths(paths: Iterable[str | Path],
                   rules: tuple[str, ...] | None = None) -> Report:
    """Sanitize files and/or directories (searched recursively).

    Non-Python files are skipped; unreadable or syntactically invalid
    files surface as ERROR findings rather than exceptions so a CLI
    sweep never dies half way.
    """
    report = Report()
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    for f in files:
        try:
            report.merge(sanitize_path(f, rules))
        except (OSError, SyntaxError) as exc:
            report.findings.append(Finding(
                rule="parse", severity=Severity.ERROR,
                kernel="<module>", message=f"cannot analyze: {exc}",
                line=getattr(exc, "lineno", 0) or 0, source=str(f)))
    return report


def lint_kernel(fn: Callable, dialect: str,
                mode: bool | str = True) -> Report | None:
    """The pre-launch lint check behind ``Cuda(lint=...)``.

    Args:
        fn: Kernel/body about to be launched.
        dialect: ``"cuda"`` or ``"openmp"``.
        mode: ``True``/``"error"`` raises
            :class:`~repro.common.errors.SanitizerError` on a non-clean
            report; ``"warn"`` emits a :class:`UserWarning` instead.

    Returns:
        The report, or None when the kernel cannot be lifted (source
        unavailable) — an unliftable kernel is not a finding.
    """
    try:
        report = sanitize_kernel(fn, dialect)
    except ValueError:
        return None
    if not report.clean:
        rendered = "\n".join(
            f.render() for f in report.errors + report.warnings)
        if mode == "warn":
            import warnings
            warnings.warn(f"syncsan findings:\n{rendered}",
                          stacklevel=3)
        else:
            from repro.common.errors import SanitizerError
            raise SanitizerError(
                "static sync sanitizer found defects "
                f"(run python -m repro.sanitize for details):\n"
                f"{rendered}")
    return report


# ----------------------------- op streams ------------------------------ #

def _op_lock_findings(body: Sequence[Op], source: str) -> list[Finding]:
    """Lock imbalance and lock-order cycles over a linear op stream.

    Op streams have no control flow, so held/order tracking is exact:
    a release of an unheld lock is an ERROR, a lock still held at the
    end of the body is a WARNING (the next iteration re-acquires it —
    self-deadlock for non-recursive locks), and an acquisition cycle
    across the stream is an ERROR.
    """
    findings: list[Finding] = []
    held: list[str] = []
    edges: dict[str, set[str]] = {}
    for i, op in enumerate(body):
        name = op.label or "lock"
        if op.kind is PrimitiveKind.OMP_LOCK_ACQUIRE:
            if name in held:
                findings.append(Finding(
                    rule="lock-order", severity=Severity.ERROR,
                    kernel="<ops>", source=source, line=i,
                    message=f"re-acquisition of held lock '{name}' "
                    "(self-deadlock for non-recursive locks)"))
            for h in held:
                if h != name:
                    edges.setdefault(h, set()).add(name)
            held.append(name)
        elif op.kind is PrimitiveKind.OMP_LOCK_RELEASE:
            if name in held:
                held.remove(name)
            else:
                findings.append(Finding(
                    rule="lock-order", severity=Severity.ERROR,
                    kernel="<ops>", source=source, line=i,
                    message=f"release of lock '{name}' that is not "
                    "held at this point"))
    if held:
        findings.append(Finding(
            rule="lock-order", severity=Severity.WARNING,
            kernel="<ops>", source=source, line=len(body),
            message="locks still held at end of body: "
            + ", ".join(f"'{h}'" for h in held)))
    from repro.sanitize.rules import _find_cycle
    cycle = _find_cycle(edges)
    if cycle is not None:
        findings.append(Finding(
            rule="lock-order", severity=Severity.ERROR,
            kernel="<ops>", source=source, line=0,
            message="lock-acquisition cycle " + " -> ".join(cycle)))
    return findings


def sanitize_ops(body: Sequence[Op], source: str = "<ops>",
                 allow_duplicates: bool = False) -> Report:
    """Sanitize a linear op-IR stream (a measurement loop body).

    Covers the rules that are meaningful without control flow:
    redundant back-to-back synchronization (via
    :func:`repro.compiler.dce.redundant_sync_ops`) and lock
    imbalance/ordering.

    Args:
        body: Ops in program order.
        source: Label used in findings.
        allow_duplicates: Suppress the redundancy advice — measurement
            specs duplicate the measured op *on purpose* (that is the
            paper's baseline-vs-test contrast).
    """
    findings = _op_lock_findings(body, source)
    if not allow_duplicates:
        for i, op in redundant_sync_ops(body):
            findings.append(Finding(
                rule="redundant-sync", severity=Severity.ADVICE,
                kernel="<ops>", source=source, line=i,
                message=f"op {i} ({op.kind.name}) is made redundant by "
                "the preceding synchronization"))
    return _count(Report(findings=findings, kernels=1))


def sanitize_spec(spec) -> Report:
    """Sanitize a :class:`repro.core.spec.MeasurementSpec`.

    Runs the op-stream checks over both bodies with the duplicate-sync
    advice suppressed: ``MeasurementSpec.single`` duplicates the
    measured primitive by construction.
    """
    report = sanitize_ops(spec.baseline_body,
                          source=f"{spec.name}:baseline",
                          allow_duplicates=True)
    report.merge(sanitize_ops(spec.test_body,
                              source=f"{spec.name}:test",
                              allow_duplicates=True))
    return report
