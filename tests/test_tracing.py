"""repro.tracing: deterministic span trees, replay parity, analytics.

The load-bearing contract: the span tree is a pure function of the
session-event stream, so a live run, a ReplayTransport replay of its
probe journal, and the offline ``span_tree_from_journal`` path all derive
bit-identical trees — and the timing plane (clock stamps) never leaks
into the deterministic serialization.
"""

import json
import time

import pytest

from repro.core import TraceNET
from repro.events import (
    HeuristicFired,
    HopObserved,
    ProbeSent,
    SubnetGrown,
    SubnetShrunk,
    TraceFinished,
    TraceStarted,
    CollectingSink,
    JsonlEventSink,
    replay_events,
)
from repro.metrics.analytics import _collector_kwargs
from repro.netsim import format_ip
from repro.runner import SurveyRunner
from repro.tracing import (
    Span,
    SpanBuilder,
    chrome_trace,
    chrome_trace_for_service,
    critical_path,
    growth_outcomes,
    heuristic_attribution,
    per_trace_table,
    render_report,
    span_cost,
    span_tree_from_events,
    span_tree_from_journal,
)
from repro.transport import (
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
)


# -- span primitives ----------------------------------------------------------


class TestSpan:
    def test_counters_and_subtree_rollup(self):
        root = Span(kind="session", name="session")
        trace = root.child("trace", "t")
        hop = trace.child("hop", "ttl-1")
        hop.count("probes", 3)
        trace.count("probes")
        assert hop.total("probes") == 3
        assert trace.total("probes") == 4
        assert root.total("probes") == 4
        assert root.counters.get("probes", 0) == 0

    def test_to_dict_round_trip(self):
        root = Span(kind="session", name="s", meta={"b": 2, "a": 1})
        child = root.child("trace", "t")
        child.count("probes", 7)
        payload = root.to_dict()
        assert list(payload["meta"]) == ["a", "b"]   # sorted keys
        clone = Span.from_dict(payload)
        assert clone.to_dict() == payload

    def test_timing_plane_is_quarantined(self):
        span = Span(kind="trace", name="t", start=1.0, end=3.5)
        assert span.duration == 2.5
        assert "start" not in span.to_dict()
        timed = span.to_dict(timing=True)
        assert timed["start"] == 1.0 and timed["end"] == 3.5

    def test_walk_is_depth_first_self_first(self):
        root = Span(kind="a", name="a")
        b = root.child("b", "b")
        b.child("c", "c")
        root.child("d", "d")
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]


# -- builder structure on a real collection -----------------------------------


@pytest.fixture
def lan_tree(lan_network):
    tool = TraceNET(lan_network.engine(), "vantage")
    builder = SpanBuilder()
    tool.events.subscribe(builder)
    collected = tool.events.subscribe(CollectingSink())
    destination = max(lan_network.topology.all_interface_addresses)
    tool.trace(destination)
    return builder.finish(), collected.events, destination


class TestBuilderStructure:
    def test_one_trace_span_named_after_destination(self, lan_tree):
        root, events, destination = lan_tree
        traces = [s for s in root.walk() if s.kind == "trace"]
        assert len(traces) == 1
        assert traces[0].name == format_ip(destination)
        assert traces[0].meta["destination"] == destination
        assert traces[0].meta["reached"] in (True, False)

    def test_hop_spans_are_keyed_by_ttl(self, lan_tree):
        root, events, _ = lan_tree
        hops = [s for s in root.walk() if s.kind == "hop"]
        ttls = [s.meta["ttl"] for s in hops]
        assert len(set(ttls)) == len(ttls)           # one span per TTL
        observed = {e.ttl for e in events if isinstance(e, HopObserved)}
        assert observed <= set(ttls)

    def test_probe_rollup_matches_event_stream(self, lan_tree):
        root, events, _ = lan_tree
        sent = sum(1 for e in events if isinstance(e, ProbeSent))
        assert root.total("probes") == sent

    def test_heuristic_leaves_carry_charged_probes(self, lan_tree):
        root, events, _ = lan_tree
        fired = sum(1 for e in events if isinstance(e, HeuristicFired))
        leaves = [s for s in root.walk() if s.kind == "heuristic"]
        assert sum(s.counters["fires"] for s in leaves) == fired
        # Exploration probes land on judgement leaves (or the phase span),
        # never above the exploration phase.
        for phase in (s for s in root.walk()
                      if s.kind == "phase" and "exploration" in s.name):
            assert phase.total("probes") >= \
                sum(leaf.counters.get("probes", 0)
                    for leaf in phase.children if leaf.kind == "heuristic")

    def test_trace_meta_matches_trace_finished(self, lan_tree):
        root, events, _ = lan_tree
        finished = next(e for e in events if isinstance(e, TraceFinished))
        trace = next(s for s in root.walk() if s.kind == "trace")
        assert trace.meta["probes_sent"] == finished.probes_sent
        assert trace.meta["hops"] == finished.hops
        assert trace.meta["cache_hits"] == finished.cache_hits


# -- parity: live == replay == offline ----------------------------------------


def _record_trace(lan_network, path, **collector):
    """One recorded figure-3 trace; returns (live tree, journal path)."""
    destination = max(lan_network.topology.all_interface_addresses)
    metadata = {"source": "vantage",
                "destination": format_ip(destination)}
    if collector:
        metadata["collector"] = dict(collector)
    transport = RecordingTransport(
        SimulatorTransport(lan_network.engine()), str(path),
        metadata=metadata)
    tool = TraceNET(transport, "vantage", **_collector_kwargs(collector))
    builder = SpanBuilder(clock=time.perf_counter)   # clocked on purpose
    tool.events.subscribe(builder)
    tool.trace(destination)
    transport.close()
    return builder.finish(), destination


class TestReplayParity:
    @pytest.mark.parametrize("collector", [
        {},
        {"stop_sets": True},
    ], ids=["serial", "stop-sets"])
    def test_trace_journal_parity(self, lan_network, tmp_path, collector):
        journal = tmp_path / "trace.jsonl"
        live, destination = _record_trace(lan_network, journal, **collector)
        offline = span_tree_from_journal(str(journal))
        assert offline.to_dict() == live.to_dict()

    def test_replay_transport_rebuilds_the_same_tree(self, lan_network,
                                                     tmp_path):
        journal = tmp_path / "trace.jsonl"
        live, destination = _record_trace(lan_network, journal)
        transport = ReplayTransport(str(journal))
        tool = TraceNET(transport, "vantage")
        builder = SpanBuilder()
        tool.events.subscribe(builder)
        tool.trace(destination)
        assert builder.finish().to_dict() == live.to_dict()

    def test_survey_event_journal_parity(self, lan_network, tmp_path):
        events_path = tmp_path / "events.jsonl"
        tool = TraceNET(lan_network.engine(), "vantage")
        sink = tool.events.subscribe(JsonlEventSink(str(events_path)))
        tracer = SpanBuilder(clock=time.perf_counter)
        targets = sorted(lan_network.topology.all_interface_addresses)[-3:]
        SurveyRunner(tool, tracer=tracer).run(targets)
        sink.close()
        live = tracer.root
        offline = span_tree_from_journal(str(events_path))
        assert offline.to_dict() == live.to_dict()
        rebuilt = span_tree_from_events(replay_events(str(events_path)))
        assert rebuilt.to_dict() == live.to_dict()

    def test_clock_never_changes_the_deterministic_tree(self, lan_network):
        destination = max(lan_network.topology.all_interface_addresses)

        def run(clock):
            tool = TraceNET(lan_network.engine(), "vantage")
            builder = SpanBuilder(clock=clock)
            tool.events.subscribe(builder)
            tool.trace(destination)
            return builder.finish()

        unclocked, clocked = run(None), run(time.perf_counter)
        assert unclocked.to_dict() == clocked.to_dict()
        assert clocked.duration is not None
        assert unclocked.duration is None


# -- critical path and attribution --------------------------------------------


def _timed(kind, name, start, end, **counters):
    span = Span(kind=kind, name=name, start=start, end=end)
    for key, value in counters.items():
        span.count(key, value)
    return span


class TestCriticalPath:
    def test_untimed_levels_fall_back_to_probe_cost(self):
        root = Span(kind="session", name="session")
        cheap = root.child("trace", "a")
        cheap.count("probes", 3)
        dear = root.child("trace", "b")
        dear.count("probes", 5)
        dear.count("suppressed", 2)
        assert [s.name for s in critical_path(root)] == ["session", "b"]
        assert span_cost(dear) == 7

    def test_timed_levels_follow_duration(self):
        root = _timed("session", "session", 0.0, 10.0)
        fast = _timed("trace", "fast", 0.0, 1.0, probes=100)
        slow = _timed("trace", "slow", 1.0, 9.0, probes=1)
        root.children = [fast, slow]
        # Duration wins over probe cost when every sibling is timed.
        assert [s.name for s in critical_path(root)] == ["session", "slow"]

    def test_mixed_level_uses_probe_cost(self):
        root = _timed("session", "session", 0.0, 10.0)
        timed = _timed("trace", "timed", 0.0, 9.0, probes=1)
        untimed = Span(kind="trace", name="untimed")
        untimed.count("probes", 50)
        root.children = [timed, untimed]
        assert critical_path(root)[-1].name == "untimed"

    def test_real_tree_path_reaches_a_leaf(self, lan_tree):
        root, _, _ = lan_tree
        path = critical_path(root)
        assert path[0] is root
        assert not path[-1].children
        # Monotone containment: every step is a child of the previous.
        for parent, child in zip(path, path[1:]):
            assert child in parent.children


class TestHeuristicAttribution:
    def test_pending_probes_charge_the_next_judgement(self):
        events = [
            TraceStarted(destination=1),
            ProbeSent(dst=9, ttl=None, protocol="icmp", flow_id=0,
                      phase="subnet-exploration", answered=True,
                      response_kind="echo-reply", response_source=9),
            ProbeSent(dst=10, ttl=None, protocol="icmp", flow_id=0,
                      phase="subnet-exploration", answered=False,
                      response_kind=None, response_source=None),
            HeuristicFired(candidate=9, rule="H2",
                           verdict="continue-with-next-address",
                           detail="responsive"),
            SubnetShrunk(pivot=1, rule="H3", prefix_length=30),
            SubnetGrown(pivot=1, prefix="10.0.0.0/30", size=2,
                        stop_reason="prefix-floor", probes_used=2),
            TraceFinished(destination=1, reached=True, hops=1,
                          probes_sent=2, cache_hits=0),
        ]
        root = span_tree_from_events(events)
        rows = heuristic_attribution(root)
        assert rows["H2"]["fires"] == 1
        assert rows["H2"]["probes"] == 2          # both pending probes
        assert rows["H2"]["verdicts"] == {
            "continue-with-next-address": 1}
        assert rows["H3"]["shrinks"] == 1
        assert growth_outcomes(root) == {"prefix-floor": 1}

    def test_real_tree_report_renders(self, lan_tree):
        root, _, _ = lan_tree
        report = render_report(root)
        assert "critical path" in report
        assert "heuristic attribution" in report
        table = per_trace_table(root)
        assert "probes" in table


# -- Chrome trace export ------------------------------------------------------


class TestChromeExport:
    def test_timed_tree_exports_complete_events(self):
        root = _timed("session", "session", 1.0, 2.0)
        root.children = [_timed("trace", "t", 1.2, 1.7, probes=3)]
        doc = chrome_trace(root)
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        child = events[1]
        assert child["name"] == "trace:t"
        assert child["ts"] == pytest.approx(0.2e6)
        assert child["dur"] == pytest.approx(0.5e6)
        assert child["args"]["counters"] == {"probes": 3}

    def test_untimed_spans_are_skipped(self):
        root = _timed("session", "session", 0.0, 1.0)
        root.children = [Span(kind="trace", name="untimed")]
        assert len(chrome_trace(root)["traceEvents"]) == 1

    def test_service_document_separates_worker_timebases(self):
        job = _timed("job", "job", 100.0, 110.0)
        job.children = [_timed("lease", "shard-0-attempt-1", 101.0, 109.0)]
        worker_tree = _timed("shard", "shard-0", 5000.0, 5009.0)
        doc = chrome_trace_for_service(
            job, {0: worker_tree.to_dict(timing=True)})
        pids = {event["pid"] for event in doc["traceEvents"]}
        assert pids == {0, 1}
        # Each pid keeps its own origin: both trees start at ts == 0.
        starts = {}
        for event in doc["traceEvents"]:
            starts[event["pid"]] = min(starts.get(event["pid"],
                                                  event["ts"]),
                                       event["ts"])
        assert starts == {0: 0.0, 1: 0.0}

    def test_clocked_real_tree_round_trips_through_export(self, lan_network,
                                                          tmp_path):
        tool = TraceNET(lan_network.engine(), "vantage")
        builder = SpanBuilder(clock=time.perf_counter)
        tool.events.subscribe(builder)
        tool.trace(max(lan_network.topology.all_interface_addresses))
        doc = chrome_trace(builder.finish())
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
        path = tmp_path / "trace.chrome.json"
        from repro.tracing import write_chrome_trace

        write_chrome_trace(str(path), doc)
        assert json.loads(path.read_text())["traceEvents"]
