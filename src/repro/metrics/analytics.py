"""Offline journal analytics: rebuild a live run's metrics from its journal.

A probe journal (``--record``) is a complete transcript of one collection
session.  Replaying it through the *real* collector — the same
:class:`~repro.core.tracenet.TraceNET`, the same prober, the same event
stream, just a :class:`~repro.transport.ReplayTransport` instead of a
network — reproduces the exact session-event sequence of the original run,
and therefore the exact metrics registry.  That is what ``tracenet stats``
does: every archived journal becomes a queryable measurement artifact,
years after the run, with no simulator (or network) involved.

The run shape is resolved from the journal header metadata written by the
CLI: a ``destination`` entry means a single trace session, a ``network`` +
``seed`` entry means a survey whose target list is regenerated from the
named scenario module.  Both can be overridden by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Sequence, Union

from ..core.tracenet import TraceNET
from ..events import EventBus, SessionEvent
from ..runner import SurveyRunner
from ..transport import ProbeTransport, ReplayTransport
from ..transport.base import collect_backend_metrics
from .auditor import DEFAULT_SLACK, ProbeEconomyAuditor
from .registry import MetricsRegistry
from .sink import MetricsSink, collect_bus_metrics


def registry_from_events(events: Iterable[SessionEvent],
                         audit: bool = False,
                         slack: float = DEFAULT_SLACK) -> MetricsRegistry:
    """Metrics from an already-captured event stream (e.g. ``--events``).

    ``audit=True`` re-runs the probe-economy auditor over the stream; only
    enable it for streams recorded *without* an auditor attached, or
    violations are counted twice.
    """
    registry = MetricsRegistry()
    bus = EventBus()
    bus.subscribe(MetricsSink(registry))
    if audit:
        bus.subscribe(ProbeEconomyAuditor(bus, slack=slack))
    for event in events:
        bus.emit(event)
    return registry


def instrumented_collection(transport: ProbeTransport, vantage: str,
                            destination: Optional[int] = None,
                            targets: Optional[Sequence[int]] = None,
                            registry: Optional[MetricsRegistry] = None,
                            slack: float = DEFAULT_SLACK,
                            collector_options: Optional[Dict] = None,
                            extra_sinks: Sequence = ()
                            ) -> MetricsRegistry:
    """Run one collection (trace or survey) with full instrumentation.

    Exactly one of ``destination`` (a single tracenet session) and
    ``targets`` (a survey) must be given.  The transport's backend counters
    are captured into the registry's backend scope after the run.
    ``collector_options`` (``stop_sets``, ``stop_prefix_length``) rebuilds
    the collector the journal was recorded with — a stop-set journal
    replays only under the same options, since they change the probe
    stream.  ``extra_sinks`` are subscribed before the metrics pipeline —
    e.g. a :class:`~repro.tracing.SpanBuilder` riding along an offline
    replay.
    """
    if (destination is None) == (targets is None):
        raise ValueError("pass exactly one of destination= or targets=")
    registry = registry if registry is not None else MetricsRegistry()
    tool = TraceNET(transport, vantage,
                    **_collector_kwargs(collector_options))
    for sink in extra_sinks:
        tool.events.subscribe(sink)
    tool.events.subscribe(MetricsSink(registry))
    tool.events.subscribe(ProbeEconomyAuditor(tool.events, slack=slack))
    with registry.time("collection_seconds"):
        if destination is not None:
            tool.trace(destination)
        else:
            SurveyRunner(tool).run(list(targets))
    collect_backend_metrics(registry.backend, transport)
    collect_bus_metrics(registry.backend, tool.events)
    return registry


def _collector_kwargs(options: Optional[Dict]) -> Dict:
    """TraceNET keyword arguments from a journal's ``collector`` metadata.

    Journals recorded before probe batching was removed may carry a
    ``batch_window``: 0 and 1 sent the serial probe stream and are
    ignored; a wider window sent a speculative stream nothing can replay.
    """
    if not options:
        return {}
    if int(options.get("batch_window") or 0) > 1:
        raise ValueError(
            f"batch_window={options['batch_window']} is no longer "
            f"supported: probe batching was removed")
    kwargs: Dict = {}
    if options.get("stop_sets"):
        from ..probing.stopset import StopSet

        prefix_length = options.get("stop_prefix_length")
        kwargs["stop_set"] = (StopSet(prefix_length=int(prefix_length))
                              if prefix_length else StopSet())
    return kwargs


@dataclass
class JournalStats:
    """What ``tracenet stats`` computed for one journal."""

    registry: MetricsRegistry
    mode: str                      # "trace" or "survey"
    vantage: str
    metadata: Dict
    destination: Optional[int] = None
    targets: List[int] = field(default_factory=list)
    exchanges_served: int = 0
    exchanges_remaining: int = 0

    def describe(self) -> str:
        if self.mode == "events":
            return (f"replayed {self.exchanges_served} session events "
                    f"through the metrics pipeline")
        what = ("1 trace" if self.mode == "trace"
                else f"{len(self.targets)} survey targets")
        return (f"replayed {what} from vantage {self.vantage!r}: "
                f"{self.exchanges_served} journaled exchanges served, "
                f"{self.exchanges_remaining} unused")


def stats_from_journal(source: Union[str, IO],
                       vantage: Optional[str] = None,
                       destination: Optional[int] = None,
                       targets: Optional[Sequence[int]] = None,
                       slack: float = DEFAULT_SLACK,
                       extra_sinks: Sequence = ()) -> JournalStats:
    """Replay a recorded probe journal offline and rebuild its registry.

    Overrides win over journal metadata; with neither, the journal must
    have been recorded by ``tracenet trace --record`` (names its
    destination) or ``tracenet survey --record`` (names network + seed, so
    the target list is regenerated deterministically).
    """
    transport = ReplayTransport(source)
    metadata = transport.metadata
    vantage = vantage or metadata.get("source") or metadata.get("vantage")
    if vantage is None:
        raise ValueError("the journal names no vantage; pass vantage=")
    if destination is None and targets is None:
        destination, targets = _resolve_run_shape(metadata)
    registry = instrumented_collection(
        transport, vantage, destination=destination, targets=targets,
        slack=slack, collector_options=metadata.get("collector"),
        extra_sinks=extra_sinks)
    return JournalStats(
        registry=registry,
        mode="trace" if destination is not None else "survey",
        vantage=vantage,
        metadata=dict(metadata),
        destination=destination,
        targets=list(targets or []),
        exchanges_served=transport.cursor,
        exchanges_remaining=transport.remaining,
    )


def stats_from_events(source: Union[str, IO],
                      audit: bool = False,
                      slack: float = DEFAULT_SLACK) -> JournalStats:
    """Rebuild a registry from a session-event journal (``--events``).

    The cheaper sibling of :func:`stats_from_journal`: an event journal
    already *is* the session-event sequence, so no collector re-run is
    needed — the events are fed straight through a fresh
    :class:`MetricsSink`.  This is also the offline half of the survey
    service's parity contract: replaying a job's committed event journal
    must reproduce the coordinator's streamed registry exactly.  Keep
    ``audit=False`` for journals recorded with an auditor attached (the
    live auditor's violations are already in the stream).
    """
    from ..events import replay_events

    events = replay_events(source)
    registry = registry_from_events(events, audit=audit, slack=slack)
    return JournalStats(
        registry=registry,
        mode="events",
        vantage="",
        metadata={},
        exchanges_served=len(events),
    )


def journal_kind(source: str) -> str:
    """``"events"`` for a session-event journal, ``"probes"`` otherwise.

    Event journals carry an ``"event"`` key on every record; probe
    journals start with a header record.  An empty file counts as a probe
    journal (ReplayTransport gives the clearer error).
    """
    import json as _json

    with open(source, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                record = _json.loads(line)
            except ValueError:
                return "probes"
            return ("events" if isinstance(record, dict)
                    and "event" in record else "probes")
    return "probes"


def _resolve_run_shape(metadata: Dict):
    """(destination, targets) from journal metadata, one of them None."""
    dest_text = metadata.get("destination")
    if dest_text is not None:
        from ..netsim.addressing import parse_ip

        return parse_ip(dest_text), None
    network_name = metadata.get("network")
    if network_name is not None:
        from ..topogen import geant, internet2

        modules = {"internet2": internet2, "geant": geant}
        module = modules.get(network_name)
        if module is None:
            raise ValueError(
                f"journal names unknown network {network_name!r}; pass "
                f"targets= explicitly")
        seed = metadata.get("seed", 7)
        network = module.build(seed=seed)
        return None, module.targets(network, seed=seed)
    raise ValueError(
        "journal metadata names neither a destination nor a network; "
        "pass destination= or targets= explicitly")
