"""Survey jobs and the durable job queue.

A :class:`SurveyJob` is the unit of work the distributed survey service
accepts: one serialized scenario (:class:`~repro.parallel.ShardSpec`), a
target list, and scheduling options (shard count, checkpoint cadence,
tenant, per-shard re-lease budget).  Jobs move through a small state
machine::

    queued -> running -> merging -> done
       \\         \\          \\
        +---------+----------+--> failed

The :class:`JobQueue` keeps the job table in memory and journals every
submission and state transition to an append-only JSONL file, so a
restarted coordinator rebuilds exactly the queue it crashed with.  Jobs
that were mid-flight (``running``/``merging``) at the crash are demoted
back to ``queued`` by :meth:`JobQueue.recover` — re-scheduling is cheap
because every shard resumes from its own checkpoint file.

The queue itself is not thread-safe; the coordinator serializes access
under its own lock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..parallel import ShardSpec


class JobState(str, Enum):
    """Lifecycle of one survey job."""

    QUEUED = "queued"      # accepted, no shard leased yet
    RUNNING = "running"    # at least one shard leased to a worker
    MERGING = "merging"    # every shard delivered; merging payloads
    DONE = "done"          # merged result available
    FAILED = "failed"      # gave up (see SurveyJob.error)


#: States a job can move to from each state.  ``running``/``merging`` may
#: fall back to ``queued`` only through crash recovery.
VALID_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.MERGING, JobState.FAILED,
                                 JobState.QUEUED}),
    JobState.MERGING: frozenset({JobState.DONE, JobState.FAILED,
                                 JobState.QUEUED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
}

TERMINAL_STATES = (JobState.DONE, JobState.FAILED)


class InvalidTransition(ValueError):
    """A job was asked to move along an edge the state machine forbids."""


@dataclass
class SurveyJob:
    """One accepted survey: scenario + targets + scheduling options."""

    job_id: str
    spec: ShardSpec
    targets: List[int]
    shards: int = 2
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 25
    tenant: str = "default"
    #: How many times one shard may be (re-)leased before the job fails.
    max_attempts: int = 3
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    metadata: Dict = field(default_factory=dict)
    #: Radar-job config (rounds, churn_*, drop_rate, incremental) — when
    #: set, the job runs as one radar shard over the whole target list
    #: (rounds carry state, so the slice cannot split) and the result
    #: carries the per-round archive diffs.
    radar: Optional[Dict] = None

    def scenario_fingerprint(self) -> str:
        """Content hash of the scenario this job probes.

        Keys the shared :class:`~repro.mapping.store.SubnetDedupeStore`
        scope: two jobs may share discovered subnets only when they would
        rebuild byte-identical networks (same topology, policy, seeds and
        collector options).
        """
        spec_payload = dataclasses.asdict(self.spec)
        if self.radar is not None:
            # A radar job probes a *mutating* network: its discoveries must
            # not seed (or be seeded by) plain surveys of the same scenario.
            payload = json.dumps({"spec": spec_payload, "radar": self.radar},
                                 sort_keys=True)
        else:
            payload = json.dumps(spec_payload, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict:
        """Plain-JSON representation, invertible by :meth:`from_dict`."""
        return {
            "job_id": self.job_id,
            "spec": dataclasses.asdict(self.spec),
            "targets": list(self.targets),
            "shards": self.shards,
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_every": self.checkpoint_every,
            "tenant": self.tenant,
            "max_attempts": self.max_attempts,
            "state": self.state.value,
            "error": self.error,
            "metadata": dict(self.metadata),
            "radar": dict(self.radar) if self.radar is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SurveyJob":
        spec = dict(payload["spec"])
        # Specs queued before probe batching was removed carry a
        # batch_window: 0 and 1 sent the serial probe stream; a wider
        # window sent a speculative stream that can no longer be re-run.
        window = spec.pop("batch_window", 0)
        if window > 1:
            raise ValueError(
                f"job {payload['job_id']}: batch_window={window} is no "
                f"longer supported: probe batching was removed")
        return cls(
            job_id=payload["job_id"],
            spec=ShardSpec(**spec),
            targets=list(payload["targets"]),
            shards=payload.get("shards", 2),
            checkpoint_dir=payload.get("checkpoint_dir"),
            checkpoint_every=payload.get("checkpoint_every", 25),
            tenant=payload.get("tenant", "default"),
            max_attempts=payload.get("max_attempts", 3),
            state=JobState(payload.get("state", "queued")),
            error=payload.get("error"),
            metadata=payload.get("metadata", {}),
            radar=payload.get("radar"),
        )


class JobQueue:
    """In-memory job table with an append-only JSONL journal.

    Args:
        journal_path: when given, every submission and state transition is
            appended there, and an existing journal is replayed on open —
            the durability contract that lets ``tracenet submit`` and
            ``tracenet serve`` run as separate processes.  ``None`` keeps
            the queue purely in memory (unit tests, inline fleets).
    """

    def __init__(self, journal_path: Optional[str] = None):
        self.journal_path = journal_path
        self.jobs: Dict[str, SurveyJob] = {}
        if journal_path is not None and os.path.exists(journal_path):
            self._replay(journal_path)

    # -- the public queue API -------------------------------------------

    def submit(self, job: SurveyJob) -> SurveyJob:
        """Accept a job (journaled before it becomes visible)."""
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self._append({"record": "job", "job": job.to_dict()})
        self.jobs[job.job_id] = job
        return job

    def get(self, job_id: str) -> SurveyJob:
        return self.jobs[job_id]

    def queued(self) -> List[SurveyJob]:
        """Jobs awaiting scheduling, in submission order."""
        return [job for job in self.jobs.values()
                if job.state is JobState.QUEUED]

    def unfinished(self) -> List[SurveyJob]:
        """Jobs not yet in a terminal state, in submission order."""
        return [job for job in self.jobs.values()
                if job.state not in TERMINAL_STATES]

    def transition(self, job_id: str, state: JobState,
                   error: Optional[str] = None) -> SurveyJob:
        """Move a job along the state machine (journaled)."""
        job = self.jobs[job_id]
        if state not in VALID_TRANSITIONS[job.state]:
            raise InvalidTransition(
                f"job {job_id}: {job.state.value} -> {state.value}")
        self._append({"record": "state", "job_id": job_id,
                      "state": state.value, "error": error})
        job.state = state
        job.error = error
        return job

    def recover(self) -> List[SurveyJob]:
        """Demote jobs that were mid-flight when the last serve died.

        ``running``/``merging`` jobs are put back to ``queued`` so the
        next fleet re-schedules them; their shard checkpoints make the
        re-run resume instead of restart.  Returns the demoted jobs.
        """
        demoted = []
        for job in self.jobs.values():
            if job.state in (JobState.RUNNING, JobState.MERGING):
                self.transition(job.job_id, JobState.QUEUED)
                demoted.append(job)
        return demoted

    def next_job_id(self, hint: str = "job") -> str:
        """A fresh sequential job id (``job-0001`` style)."""
        index = len(self.jobs) + 1
        while f"{hint}-{index:04d}" in self.jobs:
            index += 1
        return f"{hint}-{index:04d}"

    # -- journal internals ----------------------------------------------

    def _append(self, record: Dict) -> None:
        if self.journal_path is None:
            return
        parent = os.path.dirname(self.journal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.journal_path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record, sort_keys=True))
            fp.write("\n")
            fp.flush()

    def _replay(self, path: str) -> None:
        """Rebuild the job table from the journal.

        A crash can tear the final append.  A last line that lacks its
        trailing newline or does not parse is cut off, so the journal ends
        at the last complete record and the next append starts a fresh
        line.  A bad record anywhere before the last line still raises.
        """
        with open(path, "rb") as fp:
            data = fp.read()
        end = 0  # byte offset just past the last complete record
        while end < len(data):
            newline = data.find(b"\n", end)
            try:
                if newline < 0:
                    raise ValueError("journal record has no trailing newline")
                line = data[end:newline].strip()
                record = json.loads(line) if line else None
            except ValueError:
                if newline >= 0 and newline + 1 < len(data):
                    raise
                with open(path, "r+b") as fp:
                    fp.truncate(end)
                return
            end = newline + 1
            if record is not None:
                self._apply(record)

    def _apply(self, record: Dict) -> None:
        kind = record.get("record")
        if kind == "job":
            job = SurveyJob.from_dict(record["job"])
            self.jobs[job.job_id] = job
        elif kind == "state":
            job = self.jobs.get(record["job_id"])
            if job is not None:
                job.state = JobState(record["state"])
                job.error = record.get("error")
        else:
            raise ValueError(f"unknown job-queue record kind {kind!r}")


def shard_attempt_summary(attempts: Dict[int, int]) -> str:
    """Human summary of per-shard lease attempts (``tracenet jobs``)."""
    releases = sum(count - 1 for count in attempts.values() if count > 1)
    if not releases:
        return "no re-leases"
    noisy = ", ".join(f"shard {index}: {count} attempts"
                      for index, count in sorted(attempts.items())
                      if count > 1)
    return f"{releases} re-lease(s) ({noisy})"


__all__ = [
    "InvalidTransition",
    "JobQueue",
    "JobState",
    "SurveyJob",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "shard_attempt_summary",
]
