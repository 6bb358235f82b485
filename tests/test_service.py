"""Tests for the distributed survey service (repro.service).

Three layers of coverage:

* protocol units — job state machine, durable queue journal, lease
  fencing, and the checkpoint-aligned event commit log, all driven
  deterministically with a manual clock and no threads;
* the shared subnet dedupe store;
* the fault-tolerance proof — a real two-worker fleet where one worker
  dies mid-shard, asserting the job completes via re-lease + checkpoint
  resume, the merged archive matches a serial run, and the coordinator's
  streamed registry equals an offline replay of the committed event
  journal (live == replay parity across worker death).
"""

import json
import os

import pytest

from repro.core import TraceNET
from repro.events import replay_events
from repro.mapping import SubnetDedupeStore
from repro.metrics import registry_from_events, stats_from_events
from repro.netsim import Engine
from repro.parallel import ShardSpec, archives_equivalent
from repro.runner import SurveyRunner
from repro.service import (
    Coordinator,
    InvalidTransition,
    JobQueue,
    JobState,
    ServiceFleet,
    StaleLeaseError,
    SurveyJob,
    VantageWorker,
    shard_attempt_summary,
)
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:24]


@pytest.fixture(scope="module")
def spec(network):
    return ShardSpec.from_network(network.topology, network.policy,
                                  "utdallas")


@pytest.fixture(scope="module")
def serial_archive(network, targets):
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")
    runner = SurveyRunner(tool)
    runner.run(targets)
    return runner.archive


def make_job(spec, targets, **overrides):
    options = dict(job_id="job-0001", spec=spec, targets=list(targets),
                   shards=2)
    options.update(overrides)
    return SurveyJob(**options)


class TestJobQueue:
    def test_state_machine_rejects_invalid_edges(self, spec, targets):
        queue = JobQueue()
        queue.submit(make_job(spec, targets))
        with pytest.raises(InvalidTransition):
            queue.transition("job-0001", JobState.DONE)
        queue.transition("job-0001", JobState.RUNNING)
        queue.transition("job-0001", JobState.MERGING)
        queue.transition("job-0001", JobState.DONE)
        with pytest.raises(InvalidTransition):
            queue.transition("job-0001", JobState.FAILED)

    def test_duplicate_job_id_rejected(self, spec, targets):
        queue = JobQueue()
        queue.submit(make_job(spec, targets))
        with pytest.raises(ValueError):
            queue.submit(make_job(spec, targets))

    def test_journal_round_trip(self, spec, targets, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets, checkpoint_every=5,
                              tenant="probe-lab", max_attempts=7))
        queue.transition("job-0001", JobState.RUNNING)
        reopened = JobQueue(path)
        job = reopened.get("job-0001")
        assert job.state is JobState.RUNNING
        assert job.tenant == "probe-lab"
        assert job.max_attempts == 7
        assert job.checkpoint_every == 5
        assert job.targets == list(targets)
        assert job.spec == reopened.get("job-0001").spec

    def test_recover_demotes_mid_flight_jobs(self, spec, targets, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets))
        queue.transition("job-0001", JobState.RUNNING)
        reopened = JobQueue(path)
        demoted = reopened.recover()
        assert [job.job_id for job in demoted] == ["job-0001"]
        assert reopened.get("job-0001").state is JobState.QUEUED
        # recovery is journaled too: a third open sees queued directly
        assert JobQueue(path).get("job-0001").state is JobState.QUEUED

    def test_reopens_after_torn_final_record(self, spec, targets, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets))
        queue.transition("job-0001", JobState.RUNNING)
        with open(path, "rb") as fp:
            intact = fp.read()
        last_start = len(intact)
        queue.submit(make_job(spec, targets, job_id="job-0002"))
        with open(path, "rb") as fp:
            full = fp.read()
        last_len = len(full) - last_start
        for cut in (1, last_len // 2, last_len - 1):
            with open(path, "wb") as fp:
                fp.write(full[:last_start + cut])
            reopened = JobQueue(path)
            assert list(reopened.jobs) == ["job-0001"], cut
            with open(path, "rb") as fp:
                assert fp.read() == intact, cut
            demoted = reopened.recover()
            assert [job.job_id for job in demoted] == ["job-0001"]
            reopened.submit(make_job(spec, targets, job_id="job-0003"))
            with open(path, "rb") as fp:
                lines = fp.read().splitlines()
            assert json.loads(lines[-1])["job"]["job_id"] == "job-0003"
            again = JobQueue(path)
            assert again.get("job-0001").state is JobState.QUEUED
            assert again.get("job-0003").state is JobState.QUEUED

    def test_bad_record_mid_journal_still_raises(self, spec, targets,
                                                 tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets))
        queue.transition("job-0001", JobState.RUNNING)
        with open(path, "rb") as fp:
            lines = fp.read().splitlines(keepends=True)
        with open(path, "wb") as fp:
            fp.write(lines[0][:10] + b"\n" + lines[1])
        with pytest.raises(ValueError):
            JobQueue(path)

    @staticmethod
    def _with_batch_window(path, window):
        """Rewrite a queue journal as if queued before batching was removed."""
        with open(path, "r", encoding="utf-8") as fp:
            records = [json.loads(line) for line in fp]
        for record in records:
            if record["record"] == "job":
                record["job"]["spec"]["batch_window"] = window
        with open(path, "w", encoding="utf-8") as fp:
            for record in records:
                fp.write(json.dumps(record, sort_keys=True) + "\n")

    def test_reopens_journal_with_retired_batch_window(self, spec, targets,
                                                       tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets))
        queue.transition("job-0001", JobState.RUNNING)
        self._with_batch_window(path, 0)
        reopened = JobQueue(path)
        assert reopened.get("job-0001").spec == spec
        demoted = reopened.recover()
        assert [job.job_id for job in demoted] == ["job-0001"]
        assert JobQueue(path).get("job-0001").state is JobState.QUEUED

    def test_refuses_speculative_batch_window(self, spec, targets,
                                              tmp_path):
        path = str(tmp_path / "queue.jsonl")
        JobQueue(path).submit(make_job(spec, targets))
        self._with_batch_window(path, 4)
        with pytest.raises(ValueError, match="batch_window"):
            JobQueue(path)

    def test_scenario_fingerprint_tracks_spec(self, spec, targets):
        job = make_job(spec, targets)
        same = make_job(spec, targets, job_id="job-0002")
        assert job.scenario_fingerprint() == same.scenario_fingerprint()
        other_spec = ShardSpec(**{**spec.__dict__, "engine_seed": 99})
        other = make_job(other_spec, targets, job_id="job-0003")
        assert (job.scenario_fingerprint()
                != other.scenario_fingerprint())

    def test_attempt_summary(self):
        assert shard_attempt_summary({0: 1, 1: 1}) == "no re-leases"
        assert "shard 1: 3 attempts" in shard_attempt_summary({0: 1, 1: 3})


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestLeaseProtocol:
    """Deterministic single-thread protocol tests (manual clock)."""

    def make_coordinator(self, spec, targets, tmp_path, shards=2,
                         **submit_options):
        clock = FakeClock()
        coordinator = Coordinator(work_dir=str(tmp_path / "work"),
                                  heartbeat_timeout=5.0, clock=clock)
        job = coordinator.submit(spec, targets, shards=shards,
                                 **submit_options)
        return coordinator, clock, job

    def test_lease_grants_distinct_shards(self, spec, targets, tmp_path):
        coordinator, _, job = self.make_coordinator(spec, targets, tmp_path)
        first = coordinator.lease("w0")
        second = coordinator.lease("w1")
        assert {first.shard_index, second.shard_index} == {0, 1}
        assert first.attempt == 1
        assert coordinator.lease("w2") is None
        assert coordinator.queue.get(job.job_id).state is JobState.RUNNING

    def test_reap_requeues_and_fences_the_dead_worker(self, spec, targets,
                                                      tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path)
        task = coordinator.lease("w0")
        clock.now += 3.0
        coordinator.heartbeat("w0", task.job_id, task.shard_index,
                              task.attempt)
        clock.now += 6.0  # beyond the 5s timeout
        expired = coordinator.reap()
        assert [lease.worker_id for lease in expired] == ["w0"]
        # the shard rejoins the back of the pending list with attempt 2;
        # the old attempt is fenced
        leases = [coordinator.lease("w1"), coordinator.lease("w1")]
        retaken = next(lease for lease in leases
                       if lease.shard_index == task.shard_index)
        assert retaken.attempt == 2
        with pytest.raises(StaleLeaseError):
            coordinator.heartbeat("w0", task.job_id, task.shard_index,
                                  task.attempt)
        with pytest.raises(StaleLeaseError):
            coordinator.fail("w0", task.job_id, task.shard_index,
                             task.attempt, "boom")
        with pytest.raises(StaleLeaseError):
            coordinator.stream("w0", task.job_id, task.shard_index,
                               task.attempt, [])
        with pytest.raises(StaleLeaseError):
            coordinator.complete("w0", task.job_id, task.shard_index,
                                 task.attempt, {})
        assert coordinator.queue.get(job.job_id).state is JobState.RUNNING

    def test_exhausted_attempts_fail_the_job(self, spec, targets, tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path, shards=1, max_attempts=2)
        for expected_attempt in (1, 2):
            task = coordinator.lease("w0")
            assert task.attempt == expected_attempt
            clock.now += 10.0
            coordinator.reap()
        failed = coordinator.queue.get(job.job_id)
        assert failed.state is JobState.FAILED
        assert f"shard {task.shard_index}" in failed.error
        assert "2 attempts" in failed.error
        assert "checkpoint" in failed.error

    def test_worker_fail_report_requeues(self, spec, targets, tmp_path):
        coordinator, _, job = self.make_coordinator(spec, targets, tmp_path,
                                                    shards=1)
        task = coordinator.lease("w0")
        coordinator.fail("w0", task.job_id, task.shard_index, task.attempt,
                         "ValueError: boom")
        retaken = coordinator.lease("w0")
        assert retaken.shard_index == task.shard_index
        assert retaken.attempt == 2

    def test_stream_commits_only_up_to_checkpoint_marker(self, spec,
                                                         targets, tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path)
        task = coordinator.lease("w0")
        probe = {"event": "ProbeSent", "dst": 1, "ttl": 1,
                 "protocol": "icmp", "flow_id": 0, "phase": "trace",
                 "answered": True, "response_kind": "ttl-exceeded",
                 "response_source": 2}
        marker = {"event": "CheckpointWritten", "path": "x.json",
                  "completed_targets": 1, "traces": 1}
        coordinator.stream("w0", task.job_id, task.shard_index,
                           task.attempt, [probe, marker, probe])
        runtime = coordinator._runtimes[task.job_id]
        assert len(runtime.committed_events) == 2    # probe + marker
        # Intake annotates every record with the lease that produced it.
        annotated = {**probe, "shard": task.shard_index,
                     "attempt": task.attempt}
        assert runtime.uncommitted[task.shard_index] == [annotated]
        assert all(record["shard"] == task.shard_index
                   and record["attempt"] == task.attempt
                   for record in runtime.committed_events)
        # lease expiry discards the uncommitted tail
        clock.now += 10.0
        coordinator.reap()
        assert task.shard_index not in runtime.uncommitted
        assert len(runtime.committed_events) == 2


class TestDedupeStore:
    def test_first_publication_wins(self):
        store = SubnetDedupeStore()
        payload = {"prefix": "10.0.0.0/30", "pivot": "10.0.0.1",
                   "pivot_distance": 3, "members": ["10.0.0.1"],
                   "prefix_length": 30}
        assert store.publish(payload) is True
        assert store.publish(dict(payload)) is False
        assert store.known("10.0.0.0/30")
        assert store.counters()["duplicates"] == 1

    def test_scopes_are_isolated(self):
        store = SubnetDedupeStore()
        payload = {"prefix": "10.0.0.0/30", "pivot": "10.0.0.1",
                   "pivot_distance": 3, "members": ["10.0.0.1"],
                   "prefix_length": 30}
        store.publish(payload, scope="scenario-a")
        assert not store.known("10.0.0.0/30", scope="scenario-b")
        assert store.size("scenario-a") == 1
        assert store.snapshot("scenario-b") == []


class TestServiceEndToEnd:
    def run_fleet(self, spec, targets, tmp_path, fail_after=None,
                  shards=2, heartbeat_timeout=1.5):
        queue = JobQueue(str(tmp_path / "queue.jsonl"))
        coordinator = Coordinator(queue=queue,
                                  work_dir=str(tmp_path / "work"),
                                  heartbeat_timeout=heartbeat_timeout)
        job = coordinator.submit(spec, targets, shards=shards,
                                 checkpoint_every=3)
        workers = [
            VantageWorker("w0", coordinator, stream_every=8,
                          fail_after_targets=fail_after),
            VantageWorker("w1", coordinator, stream_every=8),
        ]
        ServiceFleet(coordinator, workers).run(reap_interval=0.05,
                                               timeout=120.0)
        return coordinator, job, workers

    def test_healthy_fleet_matches_serial(self, spec, targets, tmp_path,
                                          serial_archive):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        assert coordinator.queue.get(job.job_id).state is JobState.DONE
        result = coordinator.result(job.job_id)
        assert archives_equivalent(serial_archive, result.archive)
        assert result.attempts == {0: 1, 1: 1}
        assert result.stats.sent > 0

    def test_worker_death_survived_with_parity(self, spec, targets,
                                               tmp_path, serial_archive):
        """The PR's fault-tolerance proof.

        Worker w0 dies silently mid-shard.  The coordinator must detect it
        by missed heartbeats, re-lease the shard, and the successor must
        resume from the shard checkpoint — ending with (a) a merged
        archive equivalent to the serial run and (b) a streamed registry
        equal to an offline replay of the committed event journal.
        """
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path,
                                                   fail_after=4)
        assert workers[0].crashed
        job = coordinator.queue.get(job.job_id)
        assert job.state is JobState.DONE, job.error
        result = coordinator.result(job.job_id)
        assert max(result.attempts.values()) > 1, "expected a re-lease"
        assert archives_equivalent(serial_archive, result.archive)
        # live == replay parity over the committed event journal
        replayed = registry_from_events(
            replay_events(result.events_path), audit=False)
        assert result.metrics.snapshot() == replayed.snapshot()
        # the offline analytics entry point agrees too (tracenet stats)
        offline = stats_from_events(result.events_path)
        assert offline.registry.snapshot() == result.metrics.snapshot()
        # no economy violations slipped in through the resume path
        counters = result.metrics.snapshot().get("counters", {})
        assert counters.get("overhead_violations_total", 0) == 0

    def test_dedupe_store_seeds_later_shards(self, spec, targets, tmp_path):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        counters = coordinator.store.counters()
        assert counters["published"] > 0
        result = coordinator.result(job.job_id)
        assert counters["published"] == len({
            str(subnet.prefix) for subnet in result.archive.subnets})

    def test_durable_queue_survives_serve_restart(self, spec, targets,
                                                  tmp_path):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        reopened = JobQueue(str(tmp_path / "queue.jsonl"))
        assert reopened.get(job.job_id).state is JobState.DONE

    def test_event_journal_is_valid_jsonl(self, spec, targets, tmp_path):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        result = coordinator.result(job.job_id)
        assert os.path.exists(result.events_path)
        with open(result.events_path, "r", encoding="utf-8") as fp:
            lines = [json.loads(line) for line in fp if line.strip()]
        assert lines, "committed journal must not be empty"
        assert all("event" in record for record in lines)
        # the journal is the committed stream: its per-kind totals are
        # exactly the coordinator's live event counts
        journal_counts = {}
        for record in lines:
            journal_counts[record["event"]] = journal_counts.get(
                record["event"], 0) + 1
        assert journal_counts == dict(result.event_counts)
