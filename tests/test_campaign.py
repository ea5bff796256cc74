"""The resilient campaign runner, checkpoint/resume, and CLI boundary."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import (
    CampaignError,
    ConfigurationError,
    MeasurementError,
    SimulationError,
)
from repro.core.results_io import atomic_write_text
from repro.experiments.campaign import (
    EXIT_CONFIG,
    EXIT_MEASUREMENT,
    EXIT_OTHER,
    EXIT_SIMULATION,
    CampaignCheckpoint,
    ExperimentOutcome,
    campaign_fingerprint,
    error_exit_code,
    error_name_exit_code,
    run_campaign,
    write_failure_summary,
)
from repro.experiments.launch import main as launch_main
from repro.experiments.registry import EXPERIMENTS, ExperimentDef


def _fake_experiment(exp_id, runner):
    return ExperimentDef(exp_id, "Fig. X", f"fake {exp_id}", "meta",
                         runner, lambda payload: [], lambda payload: [])


def _registry(**runners):
    return {exp_id: _fake_experiment(exp_id, runner)
            for exp_id, runner in runners.items()}


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        atomic_write_text(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failure_cleans_temp_and_keeps_old(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        with pytest.raises(TypeError):
            atomic_write_text(target, 12345)  # not writable as text
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, {"seed": 0})
        checkpoint.record(ExperimentOutcome("fig1", "done", 1.0, 2, 2))
        resumed = CampaignCheckpoint.open(path, {"seed": 0}, resume=True)
        assert resumed.is_done("fig1")
        assert not resumed.is_done("fig2")

    def test_failed_outcome_is_not_done(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, {"seed": 0})
        checkpoint.record(ExperimentOutcome(
            "fig1", "failed", error="MeasurementError", message="x"))
        resumed = CampaignCheckpoint.open(path, {"seed": 0}, resume=True)
        assert not resumed.is_done("fig1")

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "campaign.json"
        CampaignCheckpoint(path, {"faults": "storm", "seed": 0}).save()
        with pytest.raises(CampaignError, match="different campaign"):
            CampaignCheckpoint.open(
                path, {"faults": None, "seed": 0}, resume=True)

    def test_corrupt_manifest_raises(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError, match="unreadable"):
            CampaignCheckpoint.open(path, {}, resume=True)

    def test_without_resume_existing_manifest_ignored(self, tmp_path):
        path = tmp_path / "campaign.json"
        CampaignCheckpoint(path, {"seed": 9}).save()
        fresh = CampaignCheckpoint.open(path, {"seed": 0}, resume=False)
        assert fresh.state["fingerprint"] == {"seed": 0}

    def test_fingerprint_excludes_targets(self):
        fp = campaign_fingerprint(None, None)
        assert set(fp) == {"faults", "seed"}


class TestCheckpointJournal:
    """Kill-window recovery: the write-ahead journal behind ``record``."""

    FP = {"faults": None, "seed": 0}

    def _outcome(self, exp_id="fig1"):
        return ExperimentOutcome(exp_id, "done", 1.0, 2, 2)

    def test_journal_truncated_after_successful_save(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, dict(self.FP))
        checkpoint.record(self._outcome())
        # Manifest superseded the journal; nothing left to replay.
        assert checkpoint.journal_path.read_text() == ""
        resumed = CampaignCheckpoint.open(path, dict(self.FP),
                                          resume=True)
        assert resumed.is_done("fig1")
        assert resumed.recovered_records == 0

    def test_kill_between_journal_and_manifest_replays(self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, dict(self.FP))
        checkpoint.record(self._outcome("fig1"))
        # Simulate the kill window: the journal holds fig2 but the
        # process died before the manifest rewrite.
        checkpoint.state["experiments"]["fig2"] = \
            self._outcome("fig2").to_json()
        checkpoint._journal_append(self._outcome("fig2"))
        resumed = CampaignCheckpoint.open(path, dict(self.FP),
                                          resume=True)
        assert resumed.is_done("fig1")
        assert resumed.is_done("fig2")
        assert resumed.recovered_records == 1
        assert resumed.corrupt_journal_lines == 0

    def test_kill_mid_append_skips_torn_line_and_requeues(
            self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, dict(self.FP))
        checkpoint.record(self._outcome("fig1"))
        checkpoint._journal_append(self._outcome("fig2"))
        # Tear the trailing record mid-byte, as a kill during the
        # fsynced append would.
        text = checkpoint.journal_path.read_text()
        checkpoint.journal_path.write_text(text[:len(text) - 25])
        resumed = CampaignCheckpoint.open(path, dict(self.FP),
                                          resume=True)
        # fig1 survives via the manifest; the torn fig2 record is
        # skipped — not fatal — so fig2 simply re-queues.
        assert resumed.is_done("fig1")
        assert not resumed.is_done("fig2")
        assert resumed.corrupt_journal_lines == 1

    def test_resume_after_torn_line_reruns_and_completes(
            self, tmp_path):
        path = tmp_path / "campaign.json"
        checkpoint = CampaignCheckpoint(path, dict(self.FP))
        checkpoint._journal_append(self._outcome("fig1"))
        checkpoint.journal_path.write_text(
            checkpoint.journal_path.read_text()[:-10])
        resumed = CampaignCheckpoint.open(path, dict(self.FP),
                                          resume=True)
        assert not resumed.is_done("fig1")
        resumed.record(self._outcome("fig1"))  # the re-run lands
        final = CampaignCheckpoint.open(path, dict(self.FP),
                                        resume=True)
        assert final.is_done("fig1")

    def test_journal_with_foreign_fingerprint_is_ignored(self, tmp_path):
        path = tmp_path / "campaign.json"
        stale = CampaignCheckpoint(path, {"faults": "storm", "seed": 9})
        stale._journal_append(self._outcome("fig1"))
        checkpoint = CampaignCheckpoint.open(path, dict(self.FP),
                                             resume=True)
        assert not checkpoint.is_done("fig1")
        assert checkpoint.recovered_records == 0

    def test_garbage_journal_never_aborts_resume(self, tmp_path):
        path = tmp_path / "campaign.json"
        CampaignCheckpoint(path, dict(self.FP)).save()
        journal = tmp_path / "campaign.json.journal"
        journal.write_text('{"no": "keys"}\nutter garbage\n'
                           '{"experiment": "fig3", "status": "done", '
                           '"wall_seconds": 1.0}\n')
        resumed = CampaignCheckpoint.open(path, dict(self.FP),
                                          resume=True)
        assert resumed.corrupt_journal_lines == 2
        assert resumed.is_done("fig3")


class TestRunCampaign:
    def test_keep_going_records_failure_and_continues(self, tmp_path):
        def fail(proto=None):
            raise MeasurementError("injected")

        registry = _registry(bad=fail, good=lambda proto=None: {})
        logs = []
        outcomes = run_campaign(["bad", "good"], keep_going=True,
                                experiments=registry, log=logs.append)
        assert [o.status for o in outcomes] == ["failed", "done"]
        assert outcomes[0].error == "MeasurementError"
        assert any("FAILED bad" in line for line in logs)

    def test_without_keep_going_first_failure_raises(self, tmp_path):
        def fail(proto=None):
            raise MeasurementError("injected")

        registry = _registry(bad=fail, good=lambda proto=None: {})
        checkpoint = CampaignCheckpoint(tmp_path / "c.json")
        with pytest.raises(MeasurementError):
            run_campaign(["bad", "good"], experiments=registry,
                         checkpoint=checkpoint, log=lambda line: None)
        # The failure was still recorded before re-raising.
        state = json.loads((tmp_path / "c.json").read_text())
        assert state["experiments"]["bad"]["status"] == "failed"

    def test_keep_going_does_not_shield_programming_errors(self):
        def crash(proto=None):
            raise AttributeError("a bug, not a measurement failure")

        registry = _registry(bad=crash)
        with pytest.raises(AttributeError):
            run_campaign(["bad"], keep_going=True, experiments=registry,
                         log=lambda line: None)

    def test_resume_skips_completed(self, tmp_path):
        """Kill + rerun with --resume must not repeat finished work."""
        path = tmp_path / "c.json"
        ran = []

        def tracked(exp_id):
            def runner(proto=None):
                ran.append(exp_id)
                return {}
            return runner

        registry = _registry(one=tracked("one"), two=tracked("two"))
        fingerprint = campaign_fingerprint(None, None)
        first = CampaignCheckpoint.open(path, fingerprint)
        run_campaign(["one"], experiments=registry, checkpoint=first,
                     log=lambda line: None)
        assert ran == ["one"]
        resumed = CampaignCheckpoint.open(path, fingerprint, resume=True)
        logs = []
        outcomes = run_campaign(["one", "two"], experiments=registry,
                                checkpoint=resumed, log=logs.append)
        assert ran == ["one", "two"]  # "one" not repeated
        assert [o.status for o in outcomes] == ["skipped", "done"]
        assert any("skipping one" in line for line in logs)

    def test_resume_obs_counters_reconcile(self, tmp_path):
        """The campaign.* counters must reconcile with the outcome list
        of a resumed campaign: done/skipped/failed deltas equal the
        statuses reported, and every checkpoint record bumped a write."""
        from repro.common.errors import MeasurementError
        from repro.obs.metrics import REGISTRY

        def fail(proto=None):
            raise MeasurementError("injected")

        registry = _registry(one=lambda proto=None: {},
                             two=lambda proto=None: {}, bad=fail)
        path = tmp_path / "c.json"
        fingerprint = campaign_fingerprint(None, None)
        first = CampaignCheckpoint.open(path, fingerprint)
        run_campaign(["one"], experiments=registry, checkpoint=first,
                     log=lambda line: None)

        before = dict(REGISTRY.counters())
        resumed = CampaignCheckpoint.open(path, fingerprint, resume=True)
        outcomes = run_campaign(["one", "two", "bad"], keep_going=True,
                                experiments=registry, checkpoint=resumed,
                                log=lambda line: None)
        after = REGISTRY.counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        by_status = {status: sum(o.status == status for o in outcomes)
                     for status in ("done", "skipped", "failed")}
        assert by_status == {"done": 1, "skipped": 1, "failed": 1}
        assert delta("campaign.experiments_done") == by_status["done"]
        assert delta("campaign.experiments_skipped") == \
            by_status["skipped"]
        assert delta("campaign.experiments_failed") == by_status["failed"]
        # One checkpoint write per non-skipped outcome recorded.
        assert delta("campaign.checkpoint_writes") == \
            by_status["done"] + by_status["failed"]

    def test_failure_summary_written(self, tmp_path):
        outcomes = [
            ExperimentOutcome("a", "done", 1.0, 2, 2),
            ExperimentOutcome("b", "failed", error="MeasurementError",
                              message="boom"),
            ExperimentOutcome("c", "skipped"),
        ]
        path = write_failure_summary(outcomes, tmp_path / "failures.json")
        summary = json.loads(path.read_text())
        assert summary["total"] == 3
        assert summary["done"] == 1
        assert summary["skipped"] == 1
        assert summary["failed"][0]["experiment"] == "b"


class TestParallelCampaign:
    """``run_campaign(jobs=2)`` must be indistinguishable from a serial
    run: outcome order, sweep CSV bytes, checkpoint records and the
    order of ``on_result`` calls."""

    # Not in id order, and the slowest first, so a parallel run that
    # emitted in completion or sorted order would show.
    IDS = ["fig4", "fig1", "vote", "table1", "fig7"]

    def _run(self, tmp_path, jobs):
        presented = []

        def on_result(exp_id, definition, sweeps, checks, wall):
            presented.append((exp_id, definition.exp_id,
                              [sweep.to_csv() for sweep in sweeps],
                              [str(check) for check in checks]))

        checkpoint = CampaignCheckpoint(tmp_path / f"jobs{jobs}.json")
        outcomes = run_campaign(self.IDS, checkpoint=checkpoint,
                                on_result=on_result,
                                log=lambda line: None, jobs=jobs)
        records = json.loads(checkpoint.path.read_text())["experiments"]
        for record in records.values():
            del record["wall_seconds"]
        return ([(o.exp_id, o.status, o.claims_passed, o.claims_total)
                 for o in outcomes], presented, list(records.items()))

    def test_parallel_matches_serial(self, tmp_path):
        serial = self._run(tmp_path, jobs=1)
        parallel = self._run(tmp_path, jobs=2)
        outcomes, presented, records = serial
        assert [o[0] for o in outcomes] == self.IDS
        assert [p[0] for p in presented] == self.IDS
        assert [r[0] for r in records] == self.IDS
        assert all(p[2] for p in presented if p[0] != "table1")
        assert parallel[0] == outcomes
        assert parallel[1] == presented
        assert parallel[2] == records


class TestExitCodes:
    def test_error_exit_code_by_instance(self):
        assert error_exit_code(ConfigurationError("x")) == EXIT_CONFIG
        assert error_exit_code(MeasurementError("x")) == EXIT_MEASUREMENT
        assert error_exit_code(SimulationError("x")) == EXIT_SIMULATION
        assert error_exit_code(CampaignError("x")) == EXIT_OTHER

    def test_error_exit_code_by_name(self):
        assert error_name_exit_code("ConfigurationError") == EXIT_CONFIG
        assert error_name_exit_code("MeasurementError") == EXIT_MEASUREMENT
        assert error_name_exit_code("DataRaceError") == EXIT_SIMULATION
        assert error_name_exit_code("KeyError") == EXIT_OTHER


class TestCliRobustness:
    def test_unknown_faults_preset_exits_config(self, capsys):
        assert launch_main(["fig1", "--faults", "bogus"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "bogus" in err

    def test_bad_config_file_exits_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"n_runs": "nine"}')
        code = launch_main(["fig1", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err

    def test_resume_without_manifest_location_exits_config(self, capsys):
        assert launch_main(["fig1", "--resume"]) == EXIT_CONFIG
        assert "--resume" in capsys.readouterr().err

    def test_faults_list_mode(self, capsys):
        assert launch_main(["--faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "storm" in out and "stress-lab" in out

    def test_checkpoint_resume_cli_roundtrip(self, tmp_path, capsys):
        manifest = tmp_path / "c.json"
        assert launch_main(["table1", "--checkpoint",
                            str(manifest)]) == 0
        state = json.loads(manifest.read_text())
        assert state["experiments"]["table1"]["status"] == "done"
        assert launch_main(["table1", "--checkpoint", str(manifest),
                            "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipping table1" in out
        assert "skipped 1 completed experiment" in out

    def test_resume_fingerprint_mismatch_exits_other(
            self, tmp_path, capsys):
        manifest = tmp_path / "c.json"
        assert launch_main(["table1", "--checkpoint",
                            str(manifest)]) == 0
        capsys.readouterr()
        code = launch_main(["table1", "--checkpoint", str(manifest),
                            "--resume", "--faults", "calm"])
        assert code == EXIT_OTHER
        assert "different campaign" in capsys.readouterr().err

    def test_keep_going_writes_failure_summary(
            self, tmp_path, monkeypatch, capsys):
        def fail(proto=None):
            raise MeasurementError("injected")

        broken = dict(EXPERIMENTS)
        broken["table1"] = _fake_experiment("table1", fail)
        monkeypatch.setattr("repro.experiments.campaign.EXPERIMENTS",
                            broken)
        code = launch_main(["table1", "fig1", "--keep-going",
                            "--results", str(tmp_path)])
        assert code == EXIT_MEASUREMENT
        out = capsys.readouterr().out
        assert "FAILED table1" in out
        summary = json.loads((tmp_path / "failures.json").read_text())
        assert summary["failed"][0]["experiment"] == "table1"

    def test_without_keep_going_failure_exits_with_category(
            self, monkeypatch, capsys):
        def fail(proto=None):
            raise MeasurementError("injected")

        broken = dict(EXPERIMENTS)
        broken["table1"] = _fake_experiment("table1", fail)
        monkeypatch.setattr("repro.experiments.campaign.EXPERIMENTS",
                            broken)
        assert launch_main(["table1"]) == EXIT_MEASUREMENT
        assert "MeasurementError" in capsys.readouterr().err
