"""Typed session-event stream: every collector decision, observable.

Donnet et al.'s Doubletree deployment and Latapy et al.'s "Radar for the
Internet" both argue that a topology collector is only trustworthy when its
probe stream and per-decision telemetry are fully recorded.  This module is
that operational layer: the collectors emit small frozen dataclass events
(:class:`ProbeSent`, :class:`HopObserved`, :class:`HeuristicFired`, ...)
onto an :class:`EventBus`, and pluggable sinks consume them — an in-memory
counter for metrics, a JSONL writer for durable logs, a progress renderer
for terminals.

The legacy side channels (``ExplorationState.audit`` lists,
``SurveyRunner.progress_hook`` callbacks) are thin adapters over this bus;
nothing in the algorithms depends on any particular sink being attached,
and with no sinks attached event construction is skipped entirely (the
producers guard with ``if bus:``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, IO, List, Optional, Tuple, Type, Union

# -- the event taxonomy -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """Base class for everything the collectors emit."""


@dataclass(frozen=True, slots=True)
class ProbeSent(SessionEvent):
    """One probe actually put on the wire (cache hits emit :class:`CacheHit`).

    The count of these events reconciles exactly with
    ``Engine.stats.probes_sent`` on a simulator run: every wire probe emits
    one, and only answers served from the prober's response cache do not —
    those emit :class:`CacheHit` instead, so event-derived totals add up to
    the prober's ``sent + cache_hits``.
    """

    dst: int
    ttl: int
    protocol: str
    flow_id: int
    phase: Optional[str]
    answered: bool
    response_kind: Optional[str]
    response_source: Optional[int]


@dataclass(frozen=True, slots=True)
class CacheHit(SessionEvent):
    """A probe answered from the prober's response cache — nothing hit the
    wire.  Without this event, event-derived probe totals undercount the
    prober's view (``ProbeStats.cache_hits``) and offline analytics cannot
    reconcile with live engine counters."""

    dst: int
    ttl: int
    phase: Optional[str]


@dataclass(frozen=True, slots=True)
class ProbeSuppressed(SessionEvent):
    """A probe the collector decided not to send at all.

    Stop-set suppression (Doubletree): the hop was served from a remembered
    path toward the same destination prefix, so nothing hit the wire *and*
    nothing was charged to the budget — unlike :class:`CacheHit`, which
    replays an answer this session already paid for.  ``reason`` names the
    suppression source (currently only ``"stop-set"``); ``address`` is the
    remembered interface when one exists.
    """

    destination: int
    ttl: int
    phase: Optional[str]
    reason: str
    address: Optional[int] = None


@dataclass(frozen=True, slots=True)
class HopObserved(SessionEvent):
    """Trace-collection mode classified the answer at one TTL."""

    destination: int
    ttl: int
    kind: str
    address: Optional[int]


@dataclass(frozen=True, slots=True)
class SubnetPositioned(SessionEvent):
    """Algorithm 2 finished for one trace address (successfully or not)."""

    trace_address: int
    positioned: bool
    pivot: Optional[int]
    pivot_distance: Optional[int]
    on_trace_path: Optional[bool]


@dataclass(frozen=True, slots=True)
class HeuristicFired(SessionEvent):
    """One H2–H8 judgement on one candidate address."""

    candidate: int
    rule: str
    verdict: str
    detail: str


@dataclass(frozen=True, slots=True)
class SubnetShrunk(SessionEvent):
    """H1 stop-and-shrink (or the half-utilization rule) cut the growth."""

    pivot: int
    rule: str
    prefix_length: int


@dataclass(frozen=True, slots=True)
class SubnetGrown(SessionEvent):
    """Algorithm 1 finished: one observed subnet, ready for the archive.

    ``phase_probes`` attributes the wire probes spent growing this subnet
    to the algorithm phase that issued them (trace-collection, positioning,
    exploration) — the per-subnet probe accounting the Section 3.6 economy
    auditor checks against the ``7|S| + 7`` bound.  ``candidates_tested``
    counts every address the exploration actually probed, members or not:
    a mostly-silent block legitimately costs more than ``7|size| + 7``
    while staying under the worst case over the candidates touched, so the
    auditor bounds against ``max(size, candidates_tested)``.  Both fields
    are absent (``None``/``0``) on event streams recorded before they
    existed.
    """

    pivot: int
    prefix: str
    size: int
    stop_reason: str
    probes_used: int
    phase_probes: Optional[Dict[str, int]] = None
    candidates_tested: int = 0


@dataclass(frozen=True, slots=True)
class TraceStarted(SessionEvent):
    """A tracenet session toward one destination began."""

    destination: int


@dataclass(frozen=True, slots=True)
class TraceFinished(SessionEvent):
    """A tracenet session ended (reached, looped, or gave up).

    ``cache_hits`` counts the probes this trace answered from the prober's
    response cache instead of the wire (0 on pre-field event streams).
    """

    destination: int
    reached: bool
    hops: int
    probes_sent: int
    cache_hits: int = 0


@dataclass(frozen=True, slots=True)
class OverheadViolation(SessionEvent):
    """The probe-economy auditor caught a subnet exceeding the Section 3.6
    bound: growing it cost more than ``slack * (7|S| + 7)`` wire probes.

    Emitted onto the same bus as every other event, so a recorded event
    stream carries its own economy audit and ``overhead_violations_total``
    reproduces offline.
    """

    pivot: int
    prefix: str
    size: int
    probes_used: int
    upper_bound: int
    slack: float
    phase_probes: Optional[Dict[str, int]] = None


@dataclass(frozen=True, slots=True)
class CheckpointWritten(SessionEvent):
    """The survey runner persisted its archive."""

    path: str
    completed_targets: int
    traces: int


@dataclass(frozen=True, slots=True)
class SurveyProgressed(SessionEvent):
    """Per-target survey progress (drives progress bars and hooks)."""

    total_targets: int
    completed: int
    skipped: int
    reached: int
    probes_sent: int


@dataclass(frozen=True, slots=True)
class TopologyMutated(SessionEvent):
    """The network changed under the collector (netsim.dynamics).

    Emitted by the churn seam at the probe-count epoch where the mutation
    fires, *before* the probe that crossed the epoch boundary is answered.
    The payload derives purely from the mutation schedule — never from the
    apply outcome — so a journal replay (which has no engine to mutate)
    emits the byte-identical stream.
    """

    epoch: int
    sequence: int
    kind: str
    target: str
    detail: Optional[Dict] = None


@dataclass(frozen=True, slots=True)
class TraceInconsistent(SessionEvent):
    """A hop contradicted what this trace already believed.

    Raised by the hop pipeline when a mutation epoch advanced mid-trace and
    the re-probe of a buffered/stop-set-served TTL answered differently
    from the pre-mutation observation — the signal that this trace mixes
    epochs and its result must be marked degraded.
    """

    destination: int
    ttl: int
    expected: Optional[int]
    observed: Optional[int]
    reason: str


@dataclass(frozen=True, slots=True)
class SubnetRetracted(SessionEvent):
    """A previously archived subnet vanished from a radar re-survey."""

    prefix: str
    reason: str


@dataclass(frozen=True, slots=True)
class DegradedResult(SessionEvent):
    """A trace completed but cannot be fully trusted (mixed epochs,
    contradicted hops, or retry exhaustion under loss); ``confidence``
    is the fraction of its observations that survived re-validation."""

    destination: int
    reason: str
    confidence: float


@dataclass(frozen=True, slots=True)
class ProbeRetried(SessionEvent):
    """One retry attempt after an unanswered probe (attempt >= 1)."""

    dst: int
    ttl: int
    attempt: int
    phase: Optional[str]


#: Every concrete event type, by class name — the wire vocabulary.
EVENT_TYPES: Dict[str, Type[SessionEvent]] = {
    cls.__name__: cls
    for cls in (
        ProbeSent, CacheHit, ProbeSuppressed, HopObserved,
        SubnetPositioned, HeuristicFired, SubnetShrunk, SubnetGrown,
        TraceStarted, TraceFinished, CheckpointWritten, SurveyProgressed,
        OverheadViolation, TopologyMutated, TraceInconsistent,
        SubnetRetracted, DegradedResult, ProbeRetried,
    )
}


def event_to_dict(event: SessionEvent) -> Dict:
    """JSON-ready representation: ``{"event": <class>, ...fields}``."""
    payload = {"event": type(event).__name__}
    payload.update(asdict(event))
    return payload


def event_from_dict(payload: Dict) -> SessionEvent:
    """Inverse of :func:`event_to_dict` (unknown kinds fail loudly)."""
    kind = payload.get("event")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown session event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in names})


# -- the bus ------------------------------------------------------------------

Sink = Callable[[SessionEvent], None]


class EventBus:
    """Dispatches events to the attached sinks, in subscription order.

    Truthiness reports whether any sink is attached, so producers can skip
    event construction on the hot path::

        if bus:
            bus.emit(ProbeSent(...))

    Two optional sink attributes refine dispatch beyond that all-or-nothing
    guard:

    * ``interests`` — a collection of event classes the sink needs *full
      payloads* for (absent or None means every event, the legacy
      contract).  The bus precomputes a per-event-type dispatch tuple from
      them, so a :class:`ProgressSink` never sees a :class:`ProbeSent`.
    * ``tally(cls, count)`` — a method counting sinks expose to receive
      type-only tallies for events outside their ``interests``.  The bus
      routes every :meth:`emit` to it automatically; hot producers can ask
      :meth:`wants` first and call :meth:`tally` themselves, skipping event
      construction entirely when nobody needs the payload::

          if bus.wants(ProbeSent):
              bus.emit(ProbeSent(...))
          else:
              bus.tally(ProbeSent)

    With only counter sinks subscribed that path costs two dict probes and
    one integer add per event — the "zero-cost emission" contract the
    instrumentation-overhead bench lane gates on.

    **Failure isolation.**  A raising sink must not abort collection: a
    broken progress renderer (or a full disk under a JSONL sink) is an
    observability failure, not a measurement failure.  :meth:`emit`
    therefore catches sink exceptions, counts the dropped delivery in
    :attr:`sink_errors` (surfaced as ``event_sink_errors_total`` in the
    quarantined backend metrics scope), and keeps dispatching to the
    remaining sinks.  Sinks that *are* control flow — the service worker's
    heartbeat/streaming sinks whose :class:`StaleLeaseError` aborts a
    fenced shard, fault-injection sinks — opt out by setting
    ``propagate_errors = True``.
    """

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        # type -> (payload sinks, counting sinks tallying this type).
        self._dispatch: Dict[Type[SessionEvent],
                             Tuple[Tuple[Sink, ...], Tuple[Sink, ...]]] = {}
        #: Dropped deliveries by sink name (isolated failures only).
        self.sink_errors: Dict[str, int] = {}
        #: The most recent isolated failure, as ``(sink, "Type: message")``.
        self.last_sink_error: Optional[Tuple[str, str]] = None

    def __bool__(self) -> bool:
        return bool(self._sinks)

    def subscribe(self, sink: Sink) -> Sink:
        """Attach a sink; returns it so callers can unsubscribe later."""
        self._sinks.append(sink)
        self._dispatch.clear()
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        """Detach a sink (no-op when it is not attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        else:
            self._dispatch.clear()

    @contextmanager
    def subscribed(self, sink: Sink):
        """Scoped subscription: attach for the ``with`` body only."""
        self.subscribe(sink)
        try:
            yield sink
        finally:
            self.unsubscribe(sink)

    def _build_dispatch(self, cls: Type[SessionEvent]
                        ) -> Tuple[Tuple[Sink, ...], Tuple[Sink, ...]]:
        payload: List[Sink] = []
        tallies: List[Sink] = []
        for sink in self._sinks:
            interests = getattr(sink, "interests", None)
            if interests is None or any(
                    issubclass(cls, wanted) for wanted in interests):
                payload.append(sink)
            elif hasattr(sink, "tally"):
                tallies.append(sink)
        entry = (tuple(payload), tuple(tallies))
        self._dispatch[cls] = entry
        return entry

    def wants(self, cls: Type[SessionEvent]) -> bool:
        """Whether any attached sink needs full ``cls`` payloads.

        False means :meth:`emit` would only tally the type — producers may
        call :meth:`tally` directly and skip constructing the event.
        """
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        return bool(entry[0])

    def tally(self, cls: Type[SessionEvent], count: int = 1) -> None:
        """Deliver a type-only count to the counting sinks (no payload)."""
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        for sink in entry[1]:
            try:
                sink.tally(cls, count)
            except Exception as exc:
                self._sink_failed(sink, exc)

    def emit(self, event: SessionEvent) -> None:
        cls = event.__class__
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        payload, tallies = entry
        for sink in payload:
            try:
                sink(event)
            except Exception as exc:
                self._sink_failed(sink, exc)
        for sink in tallies:
            try:
                sink.tally(cls, 1)
            except Exception as exc:
                self._sink_failed(sink, exc)

    def _sink_failed(self, sink: Sink, exc: Exception) -> None:
        """Isolate (and count) a sink failure — or re-raise for sinks
        that use exceptions as control flow (``propagate_errors``)."""
        if getattr(sink, "propagate_errors", False):
            raise exc
        name = getattr(sink, "__name__", None) or type(sink).__name__
        self.sink_errors[name] = self.sink_errors.get(name, 0) + 1
        self.last_sink_error = (name, f"{type(exc).__name__}: {exc}")

    @property
    def total_sink_errors(self) -> int:
        return sum(self.sink_errors.values())


# -- sinks --------------------------------------------------------------------


class CounterSink:
    """In-memory metrics: events tallied by type (and heuristic rule).

    Declares payload interest only in :class:`HeuristicFired` (the one type
    whose *fields* it reads); every other event reaches it through the
    bus's type-only :meth:`tally` path, so a run instrumented with nothing
    but counter sinks never constructs the hot-path events at all.
    """

    interests = (HeuristicFired,)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.rules: Dict[str, int] = {}

    def __call__(self, event: SessionEvent) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        if isinstance(event, HeuristicFired):
            self.rules[event.rule] = self.rules.get(event.rule, 0) + 1

    def tally(self, cls: Type[SessionEvent], count: int = 1) -> None:
        name = cls.__name__
        self.counts[name] = self.counts.get(name, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        """Flat copy for reports: ``{"event:<type>": n, "rule:<H>": n}``."""
        flat = {f"event:{k}": v for k, v in sorted(self.counts.items())}
        flat.update({f"rule:{k}": v for k, v in sorted(self.rules.items())})
        return flat


class CollectingSink:
    """Keeps every event (optionally filtered by type) — made for tests."""

    def __init__(self, *types: Type[SessionEvent]) -> None:
        self.types: Optional[Tuple[Type[SessionEvent], ...]] = types or None
        # Mirror the filter as dispatch-mask interests: the bus then never
        # routes other event types here in the first place.
        self.interests = self.types
        self.events: List[SessionEvent] = []

    def __call__(self, event: SessionEvent) -> None:
        if self.types is None or isinstance(event, self.types):
            self.events.append(event)


class JsonlEventSink:
    """Appends one JSON object per event to a file (or open stream)."""

    def __init__(self, destination: Union[str, IO]) -> None:
        if isinstance(destination, str):
            self._fp: IO = open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fp = destination
            self._owns = False
        self.written = 0

    def __call__(self, event: SessionEvent) -> None:
        self._fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._fp.write("\n")
        self.written += 1

    def close(self) -> None:
        self._fp.flush()
        if self._owns:
            self._fp.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProgressSink:
    """Renders :class:`SurveyProgressed` events as a one-line progress bar."""

    interests = (SurveyProgressed,)

    def __init__(self, stream: Optional[IO] = None, width: int = 30) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.width = max(1, width)
        self._rendered = False

    def __call__(self, event: SessionEvent) -> None:
        if not isinstance(event, SurveyProgressed):
            return
        done = event.completed + event.skipped
        total = max(1, event.total_targets)
        filled = int(self.width * min(1.0, done / total))
        bar = "#" * filled + "-" * (self.width - filled)
        self.stream.write(
            f"\r[{bar}] {done}/{event.total_targets} targets "
            f"({event.reached} reached, {event.probes_sent} probes)")
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered:
            self.stream.write("\n")
            self.stream.flush()
            self._rendered = False


def replay_events(source: Union[str, IO]) -> List[SessionEvent]:
    """Load a JSONL event log back into typed events (for analysis)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fp:
            return [event_from_dict(json.loads(line))
                    for line in fp if line.strip()]
    return [event_from_dict(json.loads(line)) for line in source if line.strip()]
