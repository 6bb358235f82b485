"""The survey benchmark's three workloads, driven through the public API.

Each workload has a set-up (topology build plus engine or spec
construction, the ``setup_s`` metric) and a pass (one complete, closed-loop
survey: the next target, or job, starts only when the previous one has
finished).  README.md records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.core import TraceNET
from repro.evaluation import (
    annotate_unresponsive,
    collected_prefixes,
    match_subnets,
)
from repro.evaluation.matching import Category
from repro.mapping.store import archive_from_tool, archive_to_dict
from repro.metrics import MetricsRegistry, instrument
from repro.netsim import Engine
from repro.parallel import ShardSpec, archives_equivalent
from repro.runner import SurveyRunner
from repro.service import (
    Coordinator,
    JobQueue,
    JobState,
    ServiceFleet,
    VantageWorker,
)
from repro.topogen import geant, internet2, isp
from repro.transport import (
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
)

#: Every workload pins its topology and target set to one seed: a new
#: topology per seed moves probes per target by 13% on crossval-isp and
#: scale-1e5, far more than any useful bound.  The workload seed seeds the
#: engines' IP-ID noise and, on crossval-isp, draws the order in which the
#: targets are traced.  See README.md.
CROSSVAL_TOPOLOGY_SEED = 42  # build_internet's default
CROSSVAL_VANTAGES = ("rice", "umass", "uoregon")
SCALE_TOPOLOGY_SEED = 7
SCALE_INTERFACES = 100_000
SCALE_TARGETS = 50
SERVICE_TOPOLOGY_SEED = 7  # the EXPERIMENTS.md seed
SERVICE_VANTAGE = "utdallas"
SERVICE_SHARDS = 2
SERVICE_CHECKPOINT_EVERY = 25
#: Targets per ground-truth subnet in each service job: 509 for Internet2
#: and 903 for GEANT, the size of the throughput bench lane.
SERVICE_TARGETS_PER_SUBNET = 5
SERVICE_FLEET_TIMEOUT_S = 150.0
#: Seed-7 exact-match rates of EXPERIMENTS.md (Tables 1-2), in percent:
#: (including unresponsive, excluding unresponsive).
EXPERIMENTS_EXACT = {"internet2": (76.0, 95.8), "geant": (54.2, 97.4)}


def archive_bytes(archive) -> str:
    return json.dumps(archive_to_dict(archive), sort_keys=True)


def digest(archives) -> str:
    """One hash over the canonical bytes of a pass's archives."""
    hasher = hashlib.sha256()
    for archive in archives:
        hasher.update(archive_bytes(archive).encode())
    return hasher.hexdigest()


@dataclass
class Accuracy:
    """Ground-truth exact matches pooled over several collections."""

    exact: int = 0
    originals: int = 0
    observable: int = 0
    rates: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def add(self, name: str, ground_truth, records, subnets) -> None:
        report = match_subnets(ground_truth, collected_prefixes(subnets))
        annotate_unresponsive(report, records)
        self.exact += report.count(Category.EXACT)
        self.originals += len(report.outcomes)
        self.observable += sum(1 for outcome in report.outcomes
                               if not outcome.unresponsive)
        self.rates[name] = (
            round(100 * report.exact_match_rate(), 1),
            round(100 * report.exact_match_rate(exclude_unresponsive=True),
                  1))

    @property
    def pct(self) -> float:
        return 100.0 * self.exact / self.originals if self.originals else 0.0


@dataclass
class PassResult:
    """One complete survey (or service) pass."""

    seconds: float
    targets: int
    probes: int
    attempted: int
    failed: int
    latencies: List[float]
    archives: list
    digest: str
    errors: List[str] = field(default_factory=list)
    #: Counter values the traced run reconciles against its wrappers.
    counters: Dict[str, int] = field(default_factory=dict)


# -- survey workloads (crossval-isp, scale-1e5) --------------------------------


@dataclass
class SurveyInputs:
    topology: object
    policy: object
    vantages: Sequence[str]
    targets: List[int]
    ground_truth: list
    records: list
    build_s: float
    engine_seed: int
    tools: List[TraceNET] = field(default_factory=list)

    def engine(self) -> Engine:
        return Engine(self.topology, policy=self.policy,
                      seed=self.engine_seed)

    def make_tools(self) -> List[TraceNET]:
        """Fresh engines (cold memo) and collectors, one per vantage."""
        return [TraceNET(self.engine(), vantage) for vantage in self.vantages]


def _survey_inputs(network, vantages, targets, build_s,
                   seed: int) -> SurveyInputs:
    inputs = SurveyInputs(
        topology=network.topology,
        policy=network.policy,
        vantages=tuple(vantages),
        targets=targets,
        ground_truth=[prefix for part in network.isps.values()
                      for prefix in part.ground_truth],
        records=[record for part in network.isps.values()
                 for record in part.records],
        build_s=build_s,
        engine_seed=seed,
    )
    inputs.tools = inputs.make_tools()
    return inputs


def setup_crossval(seed: int) -> SurveyInputs:
    started = perf_counter()
    network = isp.build_internet(seed=CROSSVAL_TOPOLOGY_SEED, scale=1.0)
    build_s = perf_counter() - started
    targets = [target for group in network.targets().values()
               for target in group]
    random.Random(seed).shuffle(targets)
    return _survey_inputs(network, CROSSVAL_VANTAGES, targets, build_s, seed)


def setup_scale(seed: int) -> SurveyInputs:
    started = perf_counter()
    network = isp.build_internet(
        seed=SCALE_TOPOLOGY_SEED,
        profiles=isp.scale_profiles(SCALE_INTERFACES), validate=False)
    build_s = perf_counter() - started
    grouped = network.targets_proportional(seed=SCALE_TOPOLOGY_SEED,
                                           total=SCALE_TARGETS)
    # Kept in address order: the per-trace latencies are multimodal around
    # their median (16-22 of the 48 traces reuse a subnet and cost ~0 ms),
    # so a reordering moves trace_ms_p50 by up to 4x.
    targets = sorted(address for addresses in grouped.values()
                     for address in addresses)[:SCALE_TARGETS]
    return _survey_inputs(network, sorted(network.vantages)[:1], targets,
                          build_s, seed)


def survey_pass(inputs: SurveyInputs, tools=None) -> PassResult:
    """Trace every target from every vantage, one trace at a time."""
    tools = tools if tools is not None else inputs.make_tools()
    # Rate-limit buckets live in the shared policy and drain across
    # engines; every pass starts from full buckets so passes are identical.
    inputs.policy.reset_rate_limiters()
    latencies: List[float] = []
    traces_by_tool: List[list] = []
    errors: List[str] = []
    started = perf_counter()
    for tool in tools:
        traces = []
        for target in inputs.targets:
            trace_started = perf_counter()
            try:
                traces.append(tool.trace(target))
            except Exception as exc:  # counted as a failed trace
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - trace_started)
        traces_by_tool.append(traces)
    seconds = perf_counter() - started
    archives = [archive_from_tool(tool, traces)
                for tool, traces in zip(tools, traces_by_tool)]
    attempted = len(tools) * len(inputs.targets)
    return PassResult(
        seconds=seconds,
        targets=attempted,
        probes=sum(tool.prober.stats.sent for tool in tools),
        attempted=attempted,
        failed=len(errors),
        latencies=latencies,
        archives=archives,
        digest=digest(archives),
        errors=errors[:5],
        counters={
            "prober_sent": sum(t.prober.stats.sent for t in tools),
            "prober_cache_hits": sum(t.prober.stats.cache_hits
                                     for t in tools),
            "engine_probes_sent": sum(t.engine.stats.probes_sent
                                      for t in tools),
            "bfs_runs": sum(t.engine.routing.bfs_runs for t in tools),
        },
    )


def survey_accuracy(inputs: SurveyInputs, result: PassResult) -> Accuracy:
    accuracy = Accuracy()
    for vantage, archive in zip(inputs.vantages, result.archives):
        accuracy.add(vantage, inputs.ground_truth, inputs.records,
                     archive.subnets)
    return accuracy


def audited_recording(inputs: SurveyInputs) -> Tuple[list, int, str]:
    """Survey again through RecordingTransport with the auditor attached.

    Returns the in-memory journals (one per vantage), the auditor's
    violation count, and the digest of the recorded pass's archives.
    """
    journals = []
    archives = []
    violations = 0
    inputs.policy.reset_rate_limiters()
    for vantage in inputs.vantages:
        buffer = io.StringIO()
        transport = RecordingTransport(SimulatorTransport(inputs.engine()),
                                       buffer)
        tool = TraceNET(transport, vantage)
        registry = MetricsRegistry()
        instrument(tool.events, registry=registry, audit=True)
        traces = [tool.trace(target) for target in inputs.targets]
        violations += registry.value("overhead_violations_total")
        journals.append(buffer.getvalue())
        archives.append(archive_from_tool(tool, traces))
    return journals, violations, digest(archives)


def replay_pass(vantages, targets, journals) -> Tuple[float, list]:
    """The collector alone: re-run every survey over ReplayTransport.

    Journals are parsed before the clock starts, so the time is the
    collector's (tracing, positioning, exploration, prober) with no engine.
    """
    transports = [ReplayTransport(io.StringIO(text)) for text in journals]
    journals.clear()
    archives = []
    elapsed = 0.0
    for vantage, transport in zip(vantages, transports):
        tool = TraceNET(transport, vantage)
        started = perf_counter()
        traces = [tool.trace(target) for target in targets]
        elapsed += perf_counter() - started
        transport.assert_drained()
        archives.append(archive_from_tool(tool, traces))
    return elapsed, archives


# -- service workload (service-persisted) --------------------------------------


@dataclass
class ServiceJobInputs:
    name: str
    network: object
    targets: List[int]
    spec: ShardSpec
    #: The Table 1-2 target set (one address per ground-truth subnet).
    paper_targets: List[int]


@dataclass
class ServiceInputs:
    jobs: List[ServiceJobInputs]
    build_s: float
    work_dir: str


def setup_service(seed: int, work_dir: str) -> ServiceInputs:
    jobs = []
    build_s = 0.0
    for name, module in (("internet2", internet2), ("geant", geant)):
        started = perf_counter()
        network = module.build(seed=SERVICE_TOPOLOGY_SEED)
        build_s += perf_counter() - started
        # Kept in subnet order: shuffled, the shards' trace-latency tail
        # moved by 27% (interquartile range over ten seeds) with the order.
        targets = network.pick_targets(
            random.Random(SERVICE_TOPOLOGY_SEED ^ 0x5EED),
            per_subnet=SERVICE_TARGETS_PER_SUBNET)
        jobs.append(ServiceJobInputs(
            name=name,
            network=network,
            targets=targets,
            spec=ShardSpec.from_network(network.topology, network.policy,
                                        SERVICE_VANTAGE, engine_seed=seed),
            paper_targets=module.targets(network,
                                         seed=SERVICE_TOPOLOGY_SEED),
        ))
    return ServiceInputs(jobs=jobs, build_s=build_s, work_dir=work_dir)


def _trace_latencies(span: Dict, out: List[float]) -> None:
    """Per-trace durations from a worker's timed shard span tree."""
    if span.get("kind") == "trace" and span.get("start") is not None:
        out.append(span["end"] - span["start"])
    for child in span.get("children", ()):
        _trace_latencies(child, out)


def service_pass(inputs: ServiceInputs) -> PassResult:
    """Submit both jobs to a fresh persisted coordinator; drain the fleet."""
    work_dir = inputs.work_dir
    if os.path.exists(work_dir):
        shutil.rmtree(work_dir)
    os.makedirs(work_dir)
    try:
        queue = JobQueue(os.path.join(work_dir, "queue.jsonl"))
        coordinator = Coordinator(queue=queue, work_dir=work_dir)
        fleet = ServiceFleet(coordinator,
                             [VantageWorker("worker-0", coordinator)])
        started = perf_counter()
        for job in inputs.jobs:
            coordinator.submit(job.spec, job.targets, shards=SERVICE_SHARDS,
                               checkpoint_every=SERVICE_CHECKPOINT_EVERY,
                               job_id=job.name)
        fleet.run(timeout=SERVICE_FLEET_TIMEOUT_S)
        seconds = perf_counter() - started
        errors = []
        archives = []
        latencies: List[float] = []
        probes = 0
        counters = {"probes_sent_total": 0, "checkpoints_written_total": 0,
                    "traces_finished_total": 0,
                    "overhead_violations_total": 0}
        for job in inputs.jobs:
            state = queue.get(job.name)
            if state.state is not JobState.DONE:
                errors.append(f"{job.name}: {state.state.value} "
                              f"({state.error})")
                continue
            result = coordinator.result(job.name)
            archives.append(result.archive)
            probes += result.stats.sent
            for name in counters:
                counters[name] += result.metrics.value(name)
            for _, spans in sorted(result.worker_spans.items()):
                _trace_latencies(spans, latencies)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return PassResult(
        seconds=seconds,
        targets=sum(len(job.targets) for job in inputs.jobs),
        probes=probes,
        attempted=len(inputs.jobs),
        failed=len(errors),
        latencies=latencies,
        archives=archives,
        digest=digest(archives),
        errors=errors,
        counters=counters,
    )


def serial_archives(inputs: ServiceInputs) -> list:
    """The same targets surveyed serially, with no service in between."""
    archives = []
    for job in inputs.jobs:
        job.network.policy.reset_rate_limiters()
        tool = TraceNET(Engine(job.network.topology,
                               policy=job.network.policy,
                               seed=job.spec.engine_seed), SERVICE_VANTAGE)
        runner = SurveyRunner(tool)
        runner.run(job.targets)
        archives.append(runner.archive)
    return archives


def service_checks(inputs: ServiceInputs, result: PassResult
                   ) -> Tuple[Accuracy, Dict[str, bool]]:
    """Accuracy plus the correctness checks every service run makes."""
    checks: Dict[str, bool] = {"jobs_done": result.failed == 0}
    accuracy = Accuracy()
    if result.failed:
        return accuracy, checks
    checks["archives_equivalent_to_serial"] = all(
        archives_equivalent(live, reference)
        for live, reference in zip(result.archives, serial_archives(inputs)))
    for job, archive in zip(inputs.jobs, result.archives):
        accuracy.add(job.name, job.network.ground_truth,
                     job.network.records, archive.subnets)
    # EXPERIMENTS.md measures Tables 1-2 on one target per subnet; the
    # benchmark's larger jobs map more of each network, so the paper's
    # target sets go through the same service path to check them.
    paper = ServiceInputs(
        jobs=[ServiceJobInputs(job.name, job.network, job.paper_targets,
                               job.spec, job.paper_targets)
              for job in inputs.jobs],
        build_s=0.0, work_dir=inputs.work_dir)
    paper_result = service_pass(paper)
    paper_accuracy = Accuracy()
    for job, archive in zip(paper.jobs, paper_result.archives):
        paper_accuracy.add(job.name, job.network.ground_truth,
                           job.network.records, archive.subnets)
    checks["experiments_exact_match"] = (
        paper_result.failed == 0
        and paper_accuracy.rates == EXPERIMENTS_EXACT)
    return accuracy, checks
