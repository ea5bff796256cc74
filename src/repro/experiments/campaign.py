"""The resilient campaign runner: keep-going, checkpoint, resume.

The artifact's full ``launch.py all`` campaign runs for ~72 hours; ours
is faster but faces the same failure surface once faults are injected:
one bad experiment must not kill the campaign, a kill signal must not
corrupt what was already written, and a rerun must not repeat finished
work.  Hunold & Carpen-Amarie's "MPI Benchmarking Revisited" makes the
case that benchmark campaigns must be reproducible *and* resumable; this
module is that layer.

* :func:`run_campaign` executes a list of experiment ids, optionally
  under a fault scenario, recording a structured
  :class:`ExperimentOutcome` per id.  With ``keep_going`` a failing
  experiment is logged and skipped instead of aborting.
* :class:`CampaignCheckpoint` is an atomic JSON manifest
  (:func:`repro.core.results_io.atomic_write_text`) updated after every
  experiment; resuming a campaign skips ids the manifest marks done.
  The manifest carries a fingerprint (fault scenario + protocol seed) so
  a checkpoint cannot silently resume a *different* campaign.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.common.errors import CampaignError, ConfigurationError
from repro.core.protocol import MeasurementProtocol
from repro.core.results import SweepResult
from repro.core.results_io import atomic_write_text
from repro.experiments.registry import EXPERIMENTS, ExperimentDef
from repro.faults.scenario import FaultScenario, use_faults
from repro.obs import event as obs_event
from repro.obs import span as obs_span
from repro.obs.metrics import counter as _counter

# The failure-classification layer is shared with the measurement
# daemon (docs/service.md); re-exported here because this module is
# where the CLI historically found it.
from repro.service.policy import (  # noqa: F401  (re-exports)
    BENIGN_EXCEPTIONS,
    EXIT_CLAIMS,
    EXIT_CONFIG,
    EXIT_MEASUREMENT,
    EXIT_OK,
    EXIT_OTHER,
    EXIT_SIMULATION,
    EXIT_UNAVAILABLE,
    error_exit_code,
    error_name_exit_code,
    rebuild_exception,
)

# Observability counters (docs/observability.md): per-outcome campaign
# tallies and checkpoint manifest writes.
_C_EXP_DONE = _counter("campaign.experiments_done")
_C_EXP_FAILED = _counter("campaign.experiments_failed")
_C_EXP_SKIPPED = _counter("campaign.experiments_skipped")
_C_CHECKPOINT_WRITES = _counter("campaign.checkpoint_writes")
_C_JOURNAL_RECOVERED = _counter("campaign.journal_recovered")
_C_JOURNAL_CORRUPT = _counter("campaign.journal_corrupt_lines")


@dataclass(frozen=True)
class ExperimentOutcome:
    """What happened to one experiment of a campaign.

    Attributes:
        exp_id: The experiment id.
        status: ``"done"``, ``"failed"``, or ``"skipped"`` (resume hit).
        wall_seconds: Execution time (0 for skipped).
        claims_passed: Trend checks that passed (done only).
        claims_total: Trend checks evaluated (done only).
        error: Exception class name (failed only).
        message: One-line diagnostic (failed only).
    """

    exp_id: str
    status: str
    wall_seconds: float = 0.0
    claims_passed: int = 0
    claims_total: int = 0
    error: str = ""
    message: str = ""

    def to_json(self) -> dict:
        """JSON-serializable record of this outcome."""
        record = {"experiment": self.exp_id, "status": self.status,
                  "wall_seconds": round(self.wall_seconds, 3)}
        if self.status == "done":
            record["claims_passed"] = self.claims_passed
            record["claims_total"] = self.claims_total
        if self.status == "failed":
            record["error"] = self.error
            record["message"] = self.message
        return record


class CampaignCheckpoint:
    """Atomic JSON manifest of a campaign's progress.

    Persistence is belt and braces.  Every :meth:`record` first appends
    the outcome to a write-ahead journal (``<path>.journal``, one JSON
    line, flushed and fsynced) and then rewrites the manifest with a
    durable atomic replace (fsync before rename).  A kill at any
    instant therefore leaves one of three recoverable states: journal
    and manifest agree; the journal is one record ahead (kill between
    journal append and manifest write — :meth:`open` replays it); or
    the journal's trailing line is torn (kill mid-append — the line is
    skipped and its experiment simply re-queues on resume).  Corruption
    never aborts a resume.

    Args:
        path: Manifest location (written with ``os.replace``, so a kill
            at any instant leaves either the previous or the next
            manifest, never a torn one).
        fingerprint: Identity of the campaign configuration (fault
            scenario, seed).  A resumed campaign must match it.
    """

    VERSION = 1

    def __init__(self, path: str | Path,
                 fingerprint: dict[str, object] | None = None) -> None:
        self.path = Path(path)
        self.journal_path = Path(str(self.path) + ".journal")
        #: Journal lines skipped on the last resume (torn/corrupt).
        self.corrupt_journal_lines = 0
        #: Journal records merged on the last resume (manifest was
        #: behind the journal when the previous run was killed).
        self.recovered_records = 0
        self.state: dict = {
            "version": self.VERSION,
            "fingerprint": fingerprint or {},
            "experiments": {},
        }

    @classmethod
    def open(cls, path: str | Path,
             fingerprint: dict[str, object] | None = None,
             resume: bool = False) -> "CampaignCheckpoint":
        """Create a checkpoint, loading the manifest when resuming.

        Raises:
            CampaignError: Corrupt manifest, wrong version, or a
                fingerprint mismatch (resuming a different campaign).
        """
        checkpoint = cls(path, fingerprint)
        if not resume:
            return checkpoint
        if not checkpoint.path.exists():
            return checkpoint  # nothing to resume yet: fresh campaign
        try:
            loaded = json.loads(checkpoint.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(
                f"checkpoint manifest {checkpoint.path} is unreadable: "
                f"{exc}") from exc
        if not isinstance(loaded, dict) or \
                loaded.get("version") != cls.VERSION:
            raise CampaignError(
                f"checkpoint manifest {checkpoint.path} has unsupported "
                f"version {loaded.get('version')!r} "
                f"(expected {cls.VERSION})")
        recorded = loaded.get("fingerprint", {})
        if fingerprint is not None and recorded != fingerprint:
            raise CampaignError(
                f"checkpoint manifest {checkpoint.path} belongs to a "
                f"different campaign (recorded {recorded!r}, requested "
                f"{fingerprint!r}); delete it or rerun with the same "
                f"--faults/--config")
        checkpoint.state = loaded
        checkpoint.state.setdefault("experiments", {})
        checkpoint._replay_journal()
        return checkpoint

    def _replay_journal(self) -> None:
        """Merge journal records the manifest missed (kill recovery).

        A truncated or otherwise corrupt line — the signature of a kill
        mid-append — is *skipped*, not fatal: the experiment it would
        have recorded stays absent from the manifest and therefore
        re-queues on resume.  Records carrying a different fingerprint
        (a stale journal from an earlier campaign at the same path) are
        ignored the same way.
        """
        try:
            text = self.journal_path.read_text()
        except OSError:
            return
        fingerprint = self.state.get("fingerprint", {})
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                exp_id = record["experiment"]
                status = record["status"]
            except (json.JSONDecodeError, TypeError, KeyError):
                self.corrupt_journal_lines += 1
                _C_JOURNAL_CORRUPT.add(1)
                obs_event("campaign.journal_corrupt_line",
                          path=str(self.journal_path))
                continue
            if record.get("fingerprint", fingerprint) != fingerprint:
                continue
            record.pop("fingerprint", None)
            known = self.state["experiments"].get(exp_id)
            if known != record:
                self.state["experiments"][exp_id] = record
                self.recovered_records += 1
                _C_JOURNAL_RECOVERED.add(1)
                obs_event("campaign.journal_recovered",
                          experiment=exp_id, status=status)

    def is_done(self, exp_id: str) -> bool:
        """Whether the manifest records a completed run of ``exp_id``."""
        record = self.state["experiments"].get(exp_id)
        return bool(record) and record.get("status") == "done"

    def record(self, outcome: ExperimentOutcome) -> None:
        """Record one outcome and persist it (journal, then manifest)."""
        self.state["experiments"][outcome.exp_id] = outcome.to_json()
        self.state["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        self._journal_append(outcome)
        self.save()

    def _journal_append(self, outcome: ExperimentOutcome) -> None:
        """Append one fsynced write-ahead record for ``outcome``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(outcome.to_json(),
                      fingerprint=self.state.get("fingerprint", {}))
        with open(self.journal_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def save(self) -> None:
        """Persist the manifest (durable atomic replace).

        Once the manifest is safely on disk it supersedes the journal,
        which is truncated — the journal only ever holds the records of
        the kill window, not a full history.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path,
                          json.dumps(self.state, indent=2) + "\n",
                          durable=True)
        try:
            if self.journal_path.exists():
                self.journal_path.write_text("")
        except OSError:  # pragma: no cover - journal is advisory
            pass
        _C_CHECKPOINT_WRITES.add(1)
        obs_event("campaign.checkpoint_write", path=str(self.path))


def campaign_fingerprint(scenario: FaultScenario | None,
                         protocol: MeasurementProtocol | None
                         ) -> dict[str, object]:
    """Identity of a campaign configuration for checkpoint validation.

    Targets are deliberately excluded: resuming ``syncperf all`` after
    narrowing to the remaining ids must still match.
    """
    return {
        "faults": scenario.describe() if scenario else None,
        "seed": (protocol or MeasurementProtocol()).seed,
    }


#: Presentation callback: (exp_id, definition, sweeps, checks, wall_s).
ResultHook = Callable[
    [str, ExperimentDef, list[SweepResult], list, float], None]

def _campaign_worker(exp_id: str,
                     protocol: MeasurementProtocol | None,
                     scenario: FaultScenario | None) -> dict:
    """Run one experiment in a worker process (top-level: picklable).

    Looks the experiment up in the process-global registry (the registry
    is built at import, so every start method sees the same table) and
    returns a picklable record — sweeps and checks ride back to the
    parent for presentation; exceptions come back as (name, message)
    so the parent can re-raise deterministically.
    """
    definition = EXPERIMENTS[exp_id]
    start = time.time()
    try:
        with use_faults(scenario):
            payload = definition.run(protocol)
            checks = definition.claims(payload)
            sweeps = definition.sweeps(payload)
    except Exception as exc:
        return {"exp_id": exp_id, "status": "failed",
                "wall": time.time() - start,
                "error": type(exc).__name__, "message": str(exc),
                "benign": isinstance(exc, BENIGN_EXCEPTIONS)}
    return {"exp_id": exp_id, "status": "done",
            "wall": time.time() - start,
            "sweeps": sweeps, "checks": checks}


def run_campaign(ids: list[str], *,
                 protocol: MeasurementProtocol | None = None,
                 keep_going: bool = False,
                 scenario: FaultScenario | None = None,
                 checkpoint: CampaignCheckpoint | None = None,
                 experiments: dict[str, ExperimentDef] | None = None,
                 on_result: ResultHook | None = None,
                 log: Callable[[str], None] = print,
                 jobs: int = 1
                 ) -> list[ExperimentOutcome]:
    """Run a sequence of experiments resiliently.

    Args:
        ids: Experiment ids, in execution order.
        protocol: Measurement protocol override (None = paper default).
        keep_going: Record failures and continue instead of aborting.
            Library errors (:class:`ReproError`) are always recorded;
            unexpected exceptions are swallowed only in this mode.
        scenario: Fault scenario to activate for the whole campaign.
        checkpoint: Manifest to consult (skip completed ids) and update
            after every experiment.
        experiments: Registry override for tests (default: the global
            :data:`~repro.experiments.registry.EXPERIMENTS`).
        on_result: Presentation hook called for each completed
            experiment with (exp_id, definition, sweeps, checks, wall).
        log: Sink for one-line progress/diagnostic messages.
        jobs: Worker processes.  ``1`` (default) runs in-process;
            ``N > 1`` fans experiments out over a process pool.  Every
            RNG stream is label-derived with no global state, so results
            (and ``runtimes.csv`` bytes) are identical to a serial run;
            outcomes, checkpoint records, and ``on_result`` calls are
            emitted in the deterministic id order.

    Returns:
        One :class:`ExperimentOutcome` per id, in order.

    Raises:
        ReproError: The first experiment failure, when ``keep_going`` is
            off (after recording it in the checkpoint).
        ConfigurationError: ``jobs < 1``, or a custom ``experiments``
            registry combined with ``jobs > 1`` (worker processes can
            only see the global registry).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        if experiments is not None:
            raise ConfigurationError(
                "jobs > 1 cannot run a custom experiment registry: "
                "worker processes resolve ids against the global "
                "registry only")
        return _run_campaign_parallel(
            ids, protocol=protocol, keep_going=keep_going,
            scenario=scenario, checkpoint=checkpoint,
            on_result=on_result, log=log, jobs=jobs)
    registry = experiments if experiments is not None else EXPERIMENTS
    outcomes: list[ExperimentOutcome] = []
    with use_faults(scenario):
        for exp_id in ids:
            if checkpoint is not None and checkpoint.is_done(exp_id):
                log(f"skipping {exp_id}: already completed "
                    f"(checkpoint {checkpoint.path})")
                _C_EXP_SKIPPED.add(1)
                obs_event("campaign.resume_skip", experiment=exp_id)
                outcomes.append(
                    ExperimentOutcome(exp_id=exp_id, status="skipped"))
                continue
            definition = registry[exp_id]
            start = time.time()
            try:
                with obs_span("campaign.experiment", experiment=exp_id):
                    payload = definition.run(protocol)
                    checks = definition.claims(payload)
                    sweeps = definition.sweeps(payload)
            except Exception as exc:
                wall = time.time() - start
                _C_EXP_FAILED.add(1)
                obs_event("campaign.experiment_failed", experiment=exp_id,
                          error=type(exc).__name__)
                outcome = ExperimentOutcome(
                    exp_id=exp_id, status="failed", wall_seconds=wall,
                    error=type(exc).__name__, message=str(exc))
                outcomes.append(outcome)
                if checkpoint is not None:
                    checkpoint.record(outcome)
                if not keep_going:
                    raise
                if not isinstance(exc, BENIGN_EXCEPTIONS):
                    raise  # keep-going shields benchmark errors only
                log(f"FAILED {exp_id}: {type(exc).__name__}: {exc}")
                continue
            wall = time.time() - start
            _C_EXP_DONE.add(1)
            outcome = ExperimentOutcome(
                exp_id=exp_id, status="done", wall_seconds=wall,
                claims_passed=sum(c.passed for c in checks),
                claims_total=len(checks))
            if on_result is not None:
                on_result(exp_id, definition, sweeps, checks, wall)
            outcomes.append(outcome)
            if checkpoint is not None:
                checkpoint.record(outcome)
    return outcomes


def _run_campaign_parallel(ids: list[str], *,
                           protocol: MeasurementProtocol | None,
                           keep_going: bool,
                           scenario: FaultScenario | None,
                           checkpoint: CampaignCheckpoint | None,
                           on_result: ResultHook | None,
                           log: Callable[[str], None],
                           jobs: int) -> list[ExperimentOutcome]:
    """Fan a campaign out over a process pool (``run_campaign(jobs>1)``).

    Determinism contract: outcomes and ``on_result`` presentation are
    emitted strictly in id order — a finished experiment is held back
    until every earlier id has been emitted, so logs and result files
    are byte-identical to a serial run's.  A ``done`` checkpoint record
    is written only *after* its presentation has been emitted (exactly
    like the serial path): a kill can therefore never mark an
    experiment done whose result files were still pending, and a
    resumed campaign completes the artifact set byte-for-byte.
    Failures are recorded as they occur — they have no artifacts.
    """
    outcomes_by_id: dict[str, ExperimentOutcome] = {}
    presentations: dict[str, tuple[list[SweepResult], list, float]] = {}
    to_run: list[str] = []
    for exp_id in ids:
        if checkpoint is not None and checkpoint.is_done(exp_id):
            log(f"skipping {exp_id}: already completed "
                f"(checkpoint {checkpoint.path})")
            _C_EXP_SKIPPED.add(1)
            obs_event("campaign.resume_skip", experiment=exp_id)
            outcomes_by_id[exp_id] = ExperimentOutcome(
                exp_id=exp_id, status="skipped")
        else:
            EXPERIMENTS[exp_id]  # fail fast on unknown ids, like serial
            to_run.append(exp_id)

    emit_order = list(ids)
    emitted = 0

    def emit_ready() -> None:
        """Emit every consecutive leading id that has an outcome."""
        nonlocal emitted
        while emitted < len(emit_order):
            exp_id = emit_order[emitted]
            outcome = outcomes_by_id.get(exp_id)
            if outcome is None:
                return
            if outcome.status == "done":
                sweeps, checks, wall = presentations.pop(exp_id)
                if on_result is not None:
                    on_result(exp_id, EXPERIMENTS[exp_id], sweeps,
                              checks, wall)
                if checkpoint is not None:
                    checkpoint.record(outcome)
            emitted += 1

    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        mp_context = None
    abort: BaseException | None = None
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=mp_context) as pool:
        futures = {pool.submit(_campaign_worker, exp_id, protocol,
                               scenario): exp_id for exp_id in to_run}
        for future in concurrent.futures.as_completed(futures):
            record = future.result()
            exp_id = record["exp_id"]
            if record["status"] == "failed":
                _C_EXP_FAILED.add(1)
                obs_event("campaign.experiment_failed",
                          experiment=exp_id, error=record["error"])
                outcome = ExperimentOutcome(
                    exp_id=exp_id, status="failed",
                    wall_seconds=record["wall"],
                    error=record["error"], message=record["message"])
                if checkpoint is not None:
                    checkpoint.record(outcome)
                if not keep_going or not record["benign"]:
                    abort = rebuild_exception(record["error"],
                                              record["message"])
                    for pending in futures:
                        pending.cancel()
                    break
                log(f"FAILED {exp_id}: {record['error']}: "
                    f"{record['message']}")
            else:
                _C_EXP_DONE.add(1)
                outcome = ExperimentOutcome(
                    exp_id=exp_id, status="done",
                    wall_seconds=record["wall"],
                    claims_passed=sum(c.passed
                                      for c in record["checks"]),
                    claims_total=len(record["checks"]))
                presentations[exp_id] = (record["sweeps"],
                                         record["checks"],
                                         record["wall"])
            outcomes_by_id[exp_id] = outcome
            emit_ready()
    if abort is not None:
        raise abort
    emit_ready()
    return [outcomes_by_id[exp_id] for exp_id in ids]


def write_failure_summary(outcomes: list[ExperimentOutcome],
                          path: str | Path) -> Path:
    """Write a campaign's failure summary as JSON (atomic).

    Returns:
        The path written.
    """
    failed = [o.to_json() for o in outcomes if o.status == "failed"]
    summary = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "total": len(outcomes),
        "done": sum(o.status == "done" for o in outcomes),
        "skipped": sum(o.status == "skipped" for o in outcomes),
        "failed": failed,
    }
    return atomic_write_text(Path(path),
                             json.dumps(summary, indent=2) + "\n")
