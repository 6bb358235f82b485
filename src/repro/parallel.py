"""Parallel sharded surveys.

The paper's headline experiment traces 34 084 targets; at that scale one
serial :class:`~repro.runner.SurveyRunner` is the bottleneck.  This module
splits a target list into shards and runs each shard in its own worker
process.  Determinism is preserved by construction: every worker rebuilds
its private :class:`~repro.netsim.engine.Engine` and
:class:`~repro.core.tracenet.TraceNET` from one serialized scenario spec
(topology + response policy + seeds), so a shard's results depend only on
the spec and its target slice, never on scheduling.

The merged result matches a serial run in *content*: the same observed
subnets (keyed by prefix) and the same trace per target.  Probe *counts*
legitimately differ — a serial run reuses subnets across the whole target
list while each shard only reuses within itself — which is exactly the
redundancy the merge deduplicates.  :func:`archive_signature` defines the
content-equality contract used by the tests and the throughput bench.

Each shard checkpoints through the ordinary :class:`SurveyRunner` machinery
into its own file under ``checkpoint_dir``, so an interrupted parallel
survey resumes shard by shard.

This module is deliberately split into **service primitives** and the
legacy one-shot runner.  :func:`run_shard`, :func:`outcome_from_payload`
and :func:`merge_outcomes` are the primitives: one shard in, one plain
payload out, many payloads merged into one survey-wide result.
:class:`ShardedSurveyRunner` composes them over a local process pool;
:mod:`repro.service` composes the same primitives into a long-running
coordinator/worker fleet with leases, heartbeats and re-delivery.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core.exploration import DEFAULT_MIN_PREFIX_LENGTH
from .core.tracenet import TraceNET
from .events import CounterSink
from .mapping.store import (
    CollectionArchive,
    archive_from_dict,
    archive_to_dict,
    subnet_from_dict,
)
from .netsim.addressing import format_ip
from .netsim.engine import Engine
from .netsim.packet import Protocol
from .netsim.responsiveness import ResponsePolicy
from .netsim.serialize import (
    policy_from_dict,
    policy_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from .netsim.topology import Topology
from .metrics import MetricsRegistry, instrument
from .probing.budget import ProbeStats
from .probing.stopset import (
    DEFAULT_STOP_PREFIX_LENGTH,
    StopSet,
    merge_stop_sets,
)
from .runner import SurveyRunner
from .transport import SimulatorTransport, collect_backend_metrics


class ShardExecutionError(RuntimeError):
    """One shard of a parallel survey failed, with enough context to act.

    Names the shard index, the target slice it was working (first/last
    target and count), and the shard's checkpoint path — so an operator
    knows exactly which ``shard-<i>.json`` file holds the salvageable
    partial work and which targets are affected.  The surviving shards'
    checkpoints are untouched and remain usable for a resumed run.
    """

    def __init__(self, shard_index: int, targets: Sequence[int],
                 checkpoint_path: Optional[str], cause: BaseException):
        self.shard_index = shard_index
        self.targets = list(targets)
        self.checkpoint_path = checkpoint_path
        self.cause = cause
        if self.targets:
            span = (f"{len(self.targets)} targets "
                    f"[{format_ip(self.targets[0])}.."
                    f"{format_ip(self.targets[-1])}]")
        else:
            span = "0 targets"
        where = (f"checkpoint {checkpoint_path}" if checkpoint_path
                 else "no checkpoint")
        super().__init__(
            f"shard {shard_index} failed over {span} ({where}): "
            f"{type(cause).__name__}: {cause}")


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its private collector.

    Plain JSON-able payloads only, so the spec crosses process boundaries
    (and could be written next to an experiment) without custom pickling.
    """

    topology: Dict
    policy: Optional[Dict]
    vantage: str
    protocol: str = Protocol.ICMP.value
    engine_seed: int = 0
    policy_seed: int = 0
    ip_id_noise: int = 8
    path_cache: bool = True
    max_hops: int = 30
    min_prefix_length: int = DEFAULT_MIN_PREFIX_LENGTH
    explore: bool = True
    reuse_subnets: bool = True
    #: Doubletree stop sets: each shard fills a local set; the merge folds
    #: them into one global set on the result.  Probe-economy-changing.
    use_stop_sets: bool = False
    stop_prefix_length: int = DEFAULT_STOP_PREFIX_LENGTH
    #: Optional serialized :class:`StopSet` seeding every shard (e.g. from
    #: a previous survey's merged global set).
    seed_stop_set: Optional[Dict] = None

    @classmethod
    def from_network(cls, topology: Topology,
                     policy: Optional[ResponsePolicy],
                     vantage: str, **overrides) -> "ShardSpec":
        return cls(
            topology=topology_to_dict(topology),
            policy=policy_to_dict(policy) if policy is not None else None,
            vantage=vantage,
            **overrides,
        )

    def build_tool(self, radar: Optional[Dict] = None) -> TraceNET:
        """Rebuild the collector this spec describes (worker side).

        ``radar`` is a radar-job config dict (``churn_count``,
        ``churn_seed``, ``churn_start``, ``churn_interval``, ``drop_rate``,
        ``fault_seed``): the transport chain gains a seeded
        :class:`~repro.transport.FaultInjectingTransport` and/or
        :class:`~repro.transport.MutatingTransport`, both deterministic
        functions of the spec + config, so every lease attempt of a radar
        shard replays the identical churn.
        """
        topology = topology_from_dict(self.topology)
        topology.validate()
        policy = (policy_from_dict(self.policy, seed=self.policy_seed)
                  if self.policy is not None else None)
        engine = Engine(topology, policy=policy, seed=self.engine_seed,
                        ip_id_noise=self.ip_id_noise,
                        path_cache=self.path_cache)
        stop_set: Optional[StopSet] = None
        if self.use_stop_sets:
            stop_set = (StopSet.from_dict(self.seed_stop_set)
                        if self.seed_stop_set is not None
                        else StopSet(prefix_length=self.stop_prefix_length))
        transport = SimulatorTransport(engine)
        events = None
        if radar:
            from .events import EventBus
            from .netsim.dynamics import MutationSchedule, NetworkDynamics
            from .transport import FaultInjectingTransport, MutatingTransport

            events = EventBus()
            if radar.get("drop_rate", 0.0) > 0.0:
                transport = FaultInjectingTransport(
                    transport, drop_rate=radar["drop_rate"],
                    seed=radar.get("fault_seed", 0))
            if radar.get("churn_count", 0) > 0:
                schedule = MutationSchedule.generate(
                    topology, seed=radar.get("churn_seed", 0),
                    start=max(1, radar.get("churn_start", 200)),
                    interval=max(1, radar.get("churn_interval", 400)),
                    count=radar["churn_count"])
                transport = MutatingTransport(
                    transport, schedule,
                    dynamics=NetworkDynamics(engine, schedule),
                    events=events)
        return TraceNET(transport, self.vantage,
                        protocol=Protocol(self.protocol),
                        max_hops=self.max_hops,
                        min_prefix_length=self.min_prefix_length,
                        explore=self.explore,
                        reuse_subnets=self.reuse_subnets,
                        stop_set=stop_set,
                        events=events)


def shard_targets(targets: Sequence[int], shards: int) -> List[List[int]]:
    """Split targets into ``shards`` contiguous, balanced, non-empty slices.

    Deterministic in (targets, shards) so a resumed parallel survey maps
    every target back to the same shard checkpoint.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    shards = min(shards, max(1, len(targets)))
    quotient, remainder = divmod(len(targets), shards)
    slices: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = quotient + (1 if index < remainder else 0)
        slices.append(list(targets[start:start + size]))
        start += size
    return slices


def run_shard(spec: ShardSpec, shard_index: int, targets: List[int],
              checkpoint_path: Optional[str],
              checkpoint_every: int,
              sinks: Sequence = (),
              seed_subnets: Optional[Sequence[Dict]] = None,
              audit: bool = True,
              spans: bool = False) -> Dict:
    """Worker entry point: rebuild, survey one shard, return plain dicts.

    This is the shard primitive shared by the process-pool runner and the
    :mod:`repro.service` vantage workers:

    * ``sinks`` are extra session-event sinks subscribed before the survey
      starts (service workers stream events to the coordinator this way);
    * ``seed_subnets`` are serialized :class:`ObservedSubnet` payloads
      (:func:`~repro.mapping.store.subnet_to_dict`) registered into the
      collector's reuse registry — the shared-dedupe-store hook that lets
      a shard skip re-exploring prefixes another shard already collected.
      Prefixes already present (e.g. from a resumed checkpoint) are not
      registered twice;
    * ``audit=False`` suppresses the in-shard probe-economy auditor so a
      coordinator can run one auditor over the merged event stream instead
      of double-counting violations;
    * ``spans=True`` attaches a clocked :class:`~repro.tracing.SpanBuilder`
      and ships the worker's *timed* span tree in the payload under
      ``"spans"`` (the deterministic tree is the coordinator's to derive
      from the committed journal — only the local timings need the worker).
    """
    started = time.perf_counter()
    tool = spec.build_tool()
    tracer = None
    if spans:
        from .tracing import SpanBuilder

        tracer = SpanBuilder(clock=time.perf_counter, root_kind="shard",
                             root_name=f"shard-{shard_index}",
                             meta={"shard": shard_index})
        tool.events.subscribe(tracer)
    for sink in sinks:
        tool.events.subscribe(sink)
    events = CounterSink()
    tool.events.subscribe(events)
    registry = MetricsRegistry()
    instrument(tool.events, registry=registry, audit=audit)
    built = time.perf_counter()
    runner = SurveyRunner(tool, checkpoint_path=checkpoint_path,
                          checkpoint_every=checkpoint_every)
    if seed_subnets:
        known = {str(subnet.prefix) for subnet in tool.collected_subnets}
        for payload in seed_subnets:
            if payload["prefix"] in known:
                continue
            tool.register_subnet(subnet_from_dict(payload))
            known.add(payload["prefix"])
    runner.run(targets)
    collect_backend_metrics(registry.backend, tool.transport)
    finished = time.perf_counter()
    return {
        "shard": shard_index,
        "archive": archive_to_dict(runner.archive),
        "stats": tool.prober.stats.snapshot(),
        "events": dict(events.counts),
        "metrics": registry.to_dict(),
        "build_seconds": built - started,
        "survey_seconds": finished - built,
        "stop_set": (tool.stop_set.to_dict()
                     if tool.stop_set is not None else None),
        "spans": (tracer.finish().to_dict(timing=True)
                  if tracer is not None else None),
    }


#: Backwards-compatible alias (the primitive used to be module-private).
_run_shard = run_shard


def run_radar_shard(spec: ShardSpec, shard_index: int, targets: List[int],
                    radar: Dict, sinks: Sequence = (),
                    audit: bool = True, spans: bool = False) -> Dict:
    """Radar-job twin of :func:`run_shard`: repeated re-survey rounds.

    Rebuilds the collector with the radar's churn/fault transport chain
    (:meth:`ShardSpec.build_tool` with the ``radar`` config) and drives a
    :class:`~repro.radar.RadarRunner` over the whole target slice.  The
    payload mirrors :func:`run_shard` — ``archive`` is the *final* round's
    map — plus a ``"radar"`` key holding the per-round summary and diffs.
    Radar jobs run as one shard (rounds are sequential and carry state),
    so there is no checkpoint file; fault recovery re-runs the shard,
    which is deterministic in (spec, radar, targets).
    """
    from .radar import RadarRunner

    started = time.perf_counter()
    tool = spec.build_tool(radar=radar)
    tracer = None
    if spans:
        from .tracing import SpanBuilder

        tracer = SpanBuilder(clock=time.perf_counter, root_kind="shard",
                             root_name=f"radar-shard-{shard_index}",
                             meta={"shard": shard_index})
        tool.events.subscribe(tracer)
    for sink in sinks:
        tool.events.subscribe(sink)
    events = CounterSink()
    tool.events.subscribe(events)
    registry = MetricsRegistry()
    instrument(tool.events, registry=registry, audit=audit)
    built = time.perf_counter()
    outcome = RadarRunner(tool, targets,
                          rounds=max(1, radar.get("rounds", 3)),
                          incremental=radar.get("incremental", True)).run()
    collect_backend_metrics(registry.backend, tool.transport)
    finished = time.perf_counter()
    return {
        "shard": shard_index,
        "archive": archive_to_dict(outcome.final_archive),
        "stats": tool.prober.stats.snapshot(),
        "events": dict(events.counts),
        "metrics": registry.to_dict(),
        "build_seconds": built - started,
        "survey_seconds": finished - built,
        "stop_set": (tool.stop_set.to_dict()
                     if tool.stop_set is not None else None),
        "spans": (tracer.finish().to_dict(timing=True)
                  if tracer is not None else None),
        "radar": outcome.to_dict(),
    }


def _stats_from_snapshot(snapshot: Dict[str, int]) -> ProbeStats:
    """Inverse of :meth:`ProbeStats.snapshot` (flat dict -> counters)."""
    stats = ProbeStats(
        sent=snapshot.get("sent", 0),
        responses=snapshot.get("responses", 0),
        silent=snapshot.get("silent", 0),
        retries=snapshot.get("retries", 0),
        cache_hits=snapshot.get("cache_hits", 0),
        suppressed=snapshot.get("suppressed", 0),
    )
    for key, count in snapshot.items():
        if key.startswith("phase:"):
            stats.by_phase[key[len("phase:"):]] = count
    return stats


def merge_probe_stats(parts: Sequence[ProbeStats]) -> ProbeStats:
    """Sum per-shard probe counters into one survey-wide view."""
    total = ProbeStats()
    for part in parts:
        total.sent += part.sent
        total.responses += part.responses
        total.silent += part.silent
        total.retries += part.retries
        total.cache_hits += part.cache_hits
        total.suppressed += part.suppressed
        for phase, count in part.by_phase.items():
            total.by_phase[phase] = total.by_phase.get(phase, 0) + count
    return total


def merge_shard_archives(vantage: str,
                         archives: Sequence[CollectionArchive],
                         targets: Sequence[int]) -> CollectionArchive:
    """One archive matching a serial run's content.

    Subnets are deduplicated by observed prefix (two shards crossing the
    same link both explore it); traces are reordered to the original target
    order, one per distinct destination — exactly what a serial runner
    records.
    """
    subnets = []
    seen_prefixes = set()
    traces_by_destination = {}
    done: set = set()
    for archive in archives:
        for subnet in archive.subnets:
            key = str(subnet.prefix)
            if key in seen_prefixes:
                continue
            seen_prefixes.add(key)
            subnets.append(subnet)
        for trace in archive.traces:
            traces_by_destination.setdefault(trace.destination, trace)
        done.update(archive.metadata.get("done_targets", []))
    traces = []
    emitted = set()
    for target in targets:
        trace = traces_by_destination.get(target)
        if trace is None or target in emitted:
            continue
        emitted.add(target)
        traces.append(trace)
    return CollectionArchive(
        vantage=vantage,
        subnets=subnets,
        traces=traces,
        metadata={"done_targets": sorted(done), "shards": len(archives)},
    )


# -- content-equality contract -------------------------------------------------


def archive_signature(archive: CollectionArchive) -> Dict:
    """The content a parallel run must reproduce from a serial one.

    Probe-count fields (``probes_used``, ``probes_sent``) are deliberately
    excluded: cross-shard subnet reuse makes them differ while the collected
    topology stays identical.
    """
    return {
        "subnets": sorted(
            (str(subnet.prefix), tuple(sorted(subnet.members)))
            for subnet in archive.subnets
        ),
        "traces": sorted(
            (
                trace.destination,
                trace.reached,
                tuple((hop.ttl, hop.address) for hop in trace.hops),
            )
            for trace in archive.traces
        ),
    }


def archives_equivalent(left: CollectionArchive,
                        right: CollectionArchive) -> bool:
    """True when both archives collected the same subnets and traces."""
    return archive_signature(left) == archive_signature(right)


# -- shard payloads and merging ------------------------------------------------


@dataclass
class ShardOutcome:
    """What one shard produced."""

    shard_index: int
    targets: List[int]
    archive: CollectionArchive
    stats: ProbeStats
    event_counts: Dict[str, int] = field(default_factory=dict)
    metrics: Optional[MetricsRegistry] = None
    build_seconds: float = 0.0
    survey_seconds: float = 0.0
    #: Shard-local stop set, deserialized at merge time like every other
    #: payload field (None when stop sets were off).
    stop_set: Optional[StopSet] = None
    #: Lease attempt that produced this outcome (1 on the first delivery;
    #: > 1 means the shard was re-leased after a worker death).
    attempt: int = 1
    #: Worker-side timed span tree (``Span.to_dict(timing=True)``), kept
    #: in dict form — worker clocks share no timebase with the caller's.
    spans: Optional[Dict] = None
    #: Radar-job round summary + diffs (``RadarResult.to_dict()``); None
    #: for ordinary survey shards.
    radar: Optional[Dict] = None


def outcome_from_payload(shard_index: int, targets: Sequence[int],
                         payload: Dict, attempt: int = 1) -> ShardOutcome:
    """Rehydrate one :func:`run_shard` payload into a typed outcome.

    Every payload field crosses the process (or service) boundary as plain
    JSON and is round-tripped through its own class here: the archive via
    :func:`archive_from_dict`, the counters via :class:`ProbeStats`, the
    registry via :meth:`MetricsRegistry.from_dict`, and the stop set via
    :meth:`StopSet.from_dict`.
    """
    shard_metrics = payload.get("metrics")
    shard_stop_set = payload.get("stop_set")
    return ShardOutcome(
        shard_index=shard_index,
        targets=list(targets),
        archive=archive_from_dict(payload["archive"]),
        stats=_stats_from_snapshot(payload["stats"]),
        event_counts=payload.get("events", {}),
        metrics=(MetricsRegistry.from_dict(shard_metrics)
                 if shard_metrics is not None else None),
        build_seconds=payload.get("build_seconds", 0.0),
        survey_seconds=payload.get("survey_seconds", 0.0),
        stop_set=(StopSet.from_dict(shard_stop_set)
                  if shard_stop_set is not None else None),
        attempt=attempt,
        spans=payload.get("spans"),
        radar=payload.get("radar"),
    )


def merge_outcomes(vantage: str, targets: Sequence[int],
                   outcomes: Sequence[ShardOutcome],
                   ) -> Tuple[CollectionArchive, ProbeStats,
                              MetricsRegistry, Optional[StopSet]]:
    """Fold per-shard outcomes into one survey-wide view.

    The merge half of the shard primitive: archives deduplicate by prefix
    and reorder to the original target order, probe counters and metric
    registries sum, and shard-local stop sets fold into one global set.
    Used by both :class:`ShardedSurveyRunner` and the service coordinator.
    """
    archive = merge_shard_archives(
        vantage, [o.archive for o in outcomes], targets)
    stats = merge_probe_stats([o.stats for o in outcomes])
    metrics = MetricsRegistry()
    for outcome in outcomes:
        if outcome.metrics is not None:
            metrics.merge(outcome.metrics)
    shard_sets = [o.stop_set for o in outcomes if o.stop_set is not None]
    stop_set = merge_stop_sets(shard_sets) if shard_sets else None
    return archive, stats, metrics, stop_set


@dataclass
class ShardedSurveyResult:
    """Merged outcome of a parallel survey."""

    archive: CollectionArchive
    stats: ProbeStats
    shards: List[ShardOutcome] = field(default_factory=list)
    workers: int = 1
    executed_inline: bool = False
    #: Per-shard registries merged into one survey-wide view.  Counters and
    #: histograms sum exactly (each event happened in exactly one shard);
    #: gauges sum too, which turns per-shard totals (``survey_targets``,
    #: engine backend counters) into fleet totals.
    metrics: Optional[MetricsRegistry] = None
    #: The global stop set: every shard-local set merged (first-recorded
    #: path per prefix wins, counters summed).  None when stop sets were
    #: off; ready to seed a future survey via ``ShardSpec.seed_stop_set``.
    stop_set: Optional[StopSet] = None

    @property
    def probes_sent(self) -> int:
        return self.stats.sent

    @property
    def event_counts(self) -> Dict[str, int]:
        """Session events tallied across every shard, by event type."""
        merged: Dict[str, int] = {}
        for shard in self.shards:
            for name, count in shard.event_counts.items():
                merged[name] = merged.get(name, 0) + count
        return merged


class ShardedSurveyRunner:
    """Splits a survey across worker processes and merges the results.

    Args:
        spec: the serialized scenario every worker rebuilds.
        workers: shard/process count; 1 runs inline (no processes).
        checkpoint_dir: when set, shard ``i`` checkpoints into
            ``<dir>/shard-<i>.json`` through the ordinary
            :class:`SurveyRunner`, so a re-run with the same targets and
            worker count resumes each shard.
        checkpoint_every: per-shard checkpoint cadence.
    """

    def __init__(self, spec: ShardSpec, workers: int = 2,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 25):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.spec = spec
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, checkpoint_every)

    @classmethod
    def from_network(cls, topology: Topology,
                     policy: Optional[ResponsePolicy],
                     vantage: str, workers: int = 2,
                     checkpoint_dir: Optional[str] = None,
                     checkpoint_every: int = 25,
                     **spec_overrides) -> "ShardedSurveyRunner":
        spec = ShardSpec.from_network(topology, policy, vantage,
                                      **spec_overrides)
        return cls(spec, workers=workers, checkpoint_dir=checkpoint_dir,
                   checkpoint_every=checkpoint_every)

    def shard_checkpoint_path(self, shard_index: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"shard-{shard_index}.json")

    def run(self, targets: Sequence[int]) -> ShardedSurveyResult:
        """Survey every target; returns the merged archive and counters."""
        slices = shard_targets(targets, self.workers)
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        jobs: List[Tuple[int, List[int], Optional[str]]] = [
            (index, shard, self.shard_checkpoint_path(index))
            for index, shard in enumerate(slices)
        ]
        executed_inline = len(jobs) == 1
        if executed_inline:
            payloads = [self._run_inline(job) for job in jobs]
        else:
            try:
                pool = ProcessPoolExecutor(max_workers=len(jobs))
            except (ImportError, OSError, PermissionError):
                # No process support in this environment (e.g. a sandboxed
                # CI runner without semaphores): degrade to inline shards.
                executed_inline = True
                payloads = [self._run_inline(job) for job in jobs]
            else:
                with pool:
                    futures = [
                        pool.submit(run_shard, self.spec, index, shard,
                                    checkpoint, self.checkpoint_every)
                        for index, shard, checkpoint in jobs
                    ]
                    payloads = []
                    for (index, shard, checkpoint), future in zip(jobs,
                                                                  futures):
                        try:
                            payloads.append(future.result())
                        except Exception as exc:
                            # Name the failed shard: the exception carries
                            # the shard index, its target slice, and its
                            # checkpoint path, and the surviving shards'
                            # checkpoints stay usable for a resumed run.
                            raise ShardExecutionError(
                                index, shard, checkpoint, exc) from exc
        return self._merge(targets, jobs, payloads, executed_inline)

    # -- internals -------------------------------------------------------

    def _run_inline(self, job: Tuple[int, List[int], Optional[str]]) -> Dict:
        index, shard, checkpoint = job
        try:
            return run_shard(self.spec, index, shard, checkpoint,
                             self.checkpoint_every)
        except Exception as exc:
            raise ShardExecutionError(index, shard, checkpoint, exc) from exc

    def _merge(self, targets: Sequence[int], jobs, payloads,
               executed_inline: bool) -> ShardedSurveyResult:
        outcomes = [
            outcome_from_payload(index, shard, payload)
            for (index, shard, _), payload in zip(jobs, payloads)
        ]
        merged, stats, metrics, stop_set = merge_outcomes(
            self.spec.vantage, targets, outcomes)
        return ShardedSurveyResult(
            archive=merged,
            stats=stats,
            shards=outcomes,
            workers=len(jobs),
            executed_inline=executed_inline,
            metrics=metrics,
            stop_set=stop_set,
        )


def run_sharded_survey(topology: Topology, policy: Optional[ResponsePolicy],
                       vantage: str, targets: Sequence[int],
                       workers: int = 2,
                       checkpoint_dir: Optional[str] = None,
                       **spec_overrides) -> ShardedSurveyResult:
    """Convenience wrapper mirroring :func:`run_survey_with_checkpoints`."""
    runner = ShardedSurveyRunner.from_network(
        topology, policy, vantage, workers=workers,
        checkpoint_dir=checkpoint_dir, **spec_overrides)
    return runner.run(targets)
