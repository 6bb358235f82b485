"""Doubletree-style stop sets: suppression without map distortion."""

import random

import pytest

from repro.core import TraceNET
from repro.events import HopObserved, ProbeSuppressed
from repro.metrics import MetricsRegistry, MetricsSink
from repro.metrics.analytics import _collector_kwargs, stats_from_journal
from repro.metrics.auditor import ProbeEconomyAuditor
from repro.netsim import Engine
from repro.parallel import (
    ShardedSurveyRunner,
    archives_equivalent,
)
from repro.probing import StopSet, merge_stop_sets
from repro.probing.stopset import MIN_REMEMBERED_DEPTH
from repro.runner import SurveyRunner
from repro.topogen import geant, internet2
from repro.transport import RecordingTransport, SimulatorTransport


class TestStopSetUnit:
    def test_record_and_lookup(self):
        stop_set = StopSet(prefix_length=24)
        destination = 0x0A000001  # 10.0.0.1
        sibling = 0x0A000042     # 10.0.0.66, same /24
        stranger = 0x0A000101    # 10.0.1.1, different /24
        assert stop_set.record(destination, [(1, 111), (2, 222)])
        assert stop_set.lookup(sibling) == ((1, 111), (2, 222))
        assert stop_set.lookup(stranger) is None
        assert len(stop_set) == 1

    def test_deeper_path_replaces_shallower(self):
        stop_set = StopSet(prefix_length=24)
        destination = 0x0A000001
        assert stop_set.record(destination, [(1, 111)])
        assert stop_set.record(destination, [(1, 111), (2, 222), (3, 333)])
        assert stop_set.lookup(destination) == ((1, 111), (2, 222), (3, 333))
        # A shallower late arrival does not downgrade the memory.
        assert not stop_set.record(destination, [(1, 111), (2, 222)])
        assert stop_set.recorded == 1

    def test_empty_path_rejected(self):
        stop_set = StopSet()
        assert not stop_set.record(0x0A000001, [])
        assert len(stop_set) == 0

    def test_verification_cascade_order(self):
        stop_set = StopSet(prefix_length=24)
        destination = 0x0A000001
        stop_set.record(destination,
                        [(1, 111), (2, 222), (3, None), (4, 444)])
        # Deepest first, anonymous hops skipped, nothing below the minimum
        # depth (the check costs a probe; suppressing ttl<2 saves none).
        assert stop_set.verification_hops(destination) == [(4, 444), (2, 222)]
        assert stop_set.verification_hop(destination) == (4, 444)
        assert MIN_REMEMBERED_DEPTH == 2

    def test_too_shallow_paths_give_no_candidates(self):
        stop_set = StopSet(prefix_length=24)
        destination = 0x0A000001
        stop_set.record(destination, [(1, 111)])
        assert stop_set.verification_hops(destination) == []
        assert stop_set.verification_hop(destination) is None

    def test_roundtrip_and_merge(self):
        left = StopSet(prefix_length=24)
        left.record(0x0A000001, [(1, 111), (2, 222)])
        left.hits, left.suppressed = 3, 4
        right = StopSet(prefix_length=24)
        right.record(0x0A000001, [(1, 111), (2, 222), (3, 333)])
        right.record(0x0B000001, [(1, 111), (2, 999)])
        right.misses = 2

        merged = merge_stop_sets([left, right])
        assert len(merged) == 2
        # Deepest path wins across shards too.
        assert merged.lookup(0x0A000001) == ((1, 111), (2, 222), (3, 333))
        counters = merged.counters()
        assert counters["hits"] == 3
        assert counters["misses"] == 2
        assert counters["suppressed"] == 4

        restored = StopSet.from_dict(merged.to_dict())
        assert restored.lookup(0x0A000001) == merged.lookup(0x0A000001)
        assert restored.counters() == merged.counters()

    def test_merge_rejects_mixed_granularity(self):
        with pytest.raises(ValueError, match="prefix length"):
            merge_stop_sets([StopSet(prefix_length=24),
                             StopSet(prefix_length=28)])

    def test_invalid_prefix_length(self):
        with pytest.raises(ValueError):
            StopSet(prefix_length=0)


def survey(network, targets, stop_set=None, registry=None):
    engine = Engine(network.topology, policy=network.policy, path_cache=True)
    tool = TraceNET(engine, "utdallas", stop_set=stop_set)
    if registry is not None:
        tool.events.subscribe(MetricsSink(registry))
        tool.events.subscribe(ProbeEconomyAuditor(tool.events))
    runner = SurveyRunner(tool)
    runner.run(targets)
    return tool, runner.archive


class TestStopSetCollection:
    @pytest.mark.parametrize("module", [internet2, geant],
                             ids=["internet2", "geant"])
    def test_same_map_fewer_probes(self, module):
        network = module.build(seed=7)
        targets = network.pick_targets(random.Random(7), per_subnet=3)
        plain_tool, plain_archive = survey(network, targets)
        stop_set = StopSet()
        stopped_tool, stopped_archive = survey(network, targets,
                                               stop_set=stop_set)
        assert archives_equivalent(plain_archive, stopped_archive)
        assert stopped_tool.prober.stats.sent < plain_tool.prober.stats.sent
        assert stopped_tool.prober.stats.suppressed > 0
        counters = stop_set.counters()
        assert counters["hits"] > 0
        assert counters["suppressed"] == stopped_tool.prober.stats.suppressed

    def test_suppression_events_and_metrics(self):
        network = internet2.build(seed=7)
        targets = network.pick_targets(random.Random(7), per_subnet=3)
        registry = MetricsRegistry()
        stop_set = StopSet()
        engine = Engine(network.topology, policy=network.policy,
                        path_cache=True)
        tool = TraceNET(engine, "utdallas", stop_set=stop_set)
        events = []
        tool.events.subscribe(events.append)
        tool.events.subscribe(MetricsSink(registry))
        SurveyRunner(tool).run(targets)

        suppressions = [e for e in events if isinstance(e, ProbeSuppressed)]
        assert len(suppressions) == stop_set.suppressed
        assert all(e.reason == "stop-set" for e in suppressions)
        assert registry.value("probes_suppressed_total",
                              reason="stop-set") == stop_set.suppressed
        # Every suppressed probe still yields its HopObserved, so the trace
        # record is complete.
        observed = {(e.destination, e.ttl)
                    for e in events if isinstance(e, HopObserved)}
        assert all((e.destination, e.ttl) in observed for e in suppressions)

    def test_auditor_stays_clean(self):
        # Suppression must never make a subnet look more expensive than the
        # Section 3.6 bound: suppressed probes are free, never counted.
        network = internet2.build(seed=7)
        targets = network.pick_targets(random.Random(7), per_subnet=3)
        registry = MetricsRegistry()
        survey(network, targets, stop_set=StopSet(), registry=registry)
        assert registry.value("overhead_violations_total") == 0
        assert registry.value("probes_suppressed_total",
                              reason="stop-set") > 0

    def test_offline_stats_replay_stop_set_journal(self, tmp_path):
        # A journal recorded with stop sets carries the collector options
        # in its metadata; the offline analytics rebuild the same
        # collector, so the registry from the journal matches the live one.
        network = internet2.build(seed=7)
        targets = internet2.targets(network, seed=7)[:10]
        journal = tmp_path / "stop-sets.jsonl"
        engine = Engine(network.topology, policy=network.policy,
                        path_cache=True)
        recording = RecordingTransport(
            SimulatorTransport(engine), str(journal),
            metadata={"network": "internet2", "seed": 7,
                      "vantage": "utdallas",
                      "collector": {"stop_sets": True}})
        tool = TraceNET(recording, "utdallas", stop_set=StopSet())
        live = MetricsRegistry()
        tool.events.subscribe(MetricsSink(live))
        tool.events.subscribe(ProbeEconomyAuditor(tool.events))
        SurveyRunner(tool).run(targets)
        recording.close()

        offline = stats_from_journal(str(journal), targets=targets)
        assert offline.registry.snapshot()["counters"] == \
            live.snapshot()["counters"]
        assert live.value("probes_suppressed_total", reason="stop-set") > 0
        assert offline.exchanges_remaining == 0


class TestRetiredBatchWindow:
    """Journal metadata written before probe batching was removed."""

    @pytest.mark.parametrize("window", [0, 1])
    def test_serial_identical_windows_are_ignored(self, window):
        kwargs = _collector_kwargs({"batch_window": window,
                                    "stop_sets": True,
                                    "stop_prefix_length": 20})
        assert set(kwargs) == {"stop_set"}
        assert kwargs["stop_set"].prefix_length == 20

    def test_speculative_window_is_refused(self):
        with pytest.raises(ValueError, match="batch_window"):
            _collector_kwargs({"batch_window": 4})


class TestParallelStopSets:
    def test_sharded_survey_merges_global_stop_set(self):
        network = internet2.build(seed=7)
        targets = internet2.targets(network, seed=7)[:20]
        plain = ShardedSurveyRunner.from_network(
            network.topology, network.policy, "utdallas", workers=2)
        stopped = ShardedSurveyRunner.from_network(
            network.topology, network.policy, "utdallas", workers=2,
            use_stop_sets=True)
        plain_outcome = plain.run(targets)
        stopped_outcome = stopped.run(targets)

        assert plain_outcome.stop_set is None
        assert stopped_outcome.stop_set is not None
        assert len(stopped_outcome.stop_set) > 0
        assert archives_equivalent(plain_outcome.archive,
                                   stopped_outcome.archive)
        counters = stopped_outcome.stop_set.counters()
        assert counters["suppressed"] == stopped_outcome.stats.suppressed

    def test_seeding_from_previous_survey(self):
        network = internet2.build(seed=7)
        targets = internet2.targets(network, seed=7)[:20]
        first = ShardedSurveyRunner.from_network(
            network.topology, network.policy, "utdallas", workers=2,
            use_stop_sets=True)
        first_outcome = first.run(targets)
        seed_payload = first_outcome.stop_set.to_dict()

        second = ShardedSurveyRunner.from_network(
            network.topology, network.policy, "utdallas", workers=2,
            use_stop_sets=True, seed_stop_set=seed_payload)
        second_outcome = second.run(targets)
        assert archives_equivalent(first_outcome.archive,
                                   second_outcome.archive)
        # The seeded survey starts warm: it can only suppress more.
        assert second_outcome.stats.suppressed >= \
            first_outcome.stats.suppressed
