"""The prober: tracenet's view of the network.

Everything above this layer (tracenet, traceroute, ping) sees the network
exclusively as *probe in, response out* — exactly the contract a raw-socket
or scapy implementation would have.  The prober adds the operational
behaviours the paper describes: one re-probe on silence (Section 3.8),
response caching so merged heuristics don't pay twice for the same answer,
stable ICMP header fields (Paris-style flow identity), and probe metering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..events import CacheHit, EventBus, ProbeRetried, ProbeSent
from ..netsim.packet import DEFAULT_TTL, Probe, Protocol, Response
from ..transport import as_transport
from .budget import ProbeBudget, ProbeStats

CacheKey = Tuple[int, int, Protocol]


@dataclass(frozen=True)
class RetryPolicy:
    """How silence is retried: attempt count plus optional idle backoff.

    ``attempts`` is the number of *re*-probes after the first silent send
    (the paper's implementation re-probes once).  ``backoff_ticks`` idles
    the transport clock before each retry — entry ``i`` before retry
    ``i+1``, the last entry repeating for any further retries.  The default
    policy is budget-identical to the historical bare ``retries=1``: same
    wire probes, same charges, no idling, so existing archives stay byte
    for byte.
    """

    attempts: int = 1
    backoff_ticks: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.attempts < 0:
            raise ValueError(f"attempts must be >= 0, got {self.attempts}")
        if any(t < 0 for t in self.backoff_ticks):
            raise ValueError("backoff_ticks must be non-negative")

    @classmethod
    def coerce(cls, value: Union[int, "RetryPolicy"]) -> "RetryPolicy":
        """Accept a bare retry count (the legacy knob) or a full policy."""
        if isinstance(value, cls):
            return value
        return cls(attempts=int(value))

    def backoff_for(self, attempt: int) -> int:
        """Idle ticks before retry ``attempt`` (1-based); 0 when none."""
        if not self.backoff_ticks:
            return 0
        return self.backoff_ticks[min(attempt - 1, len(self.backoff_ticks) - 1)]


class Prober:
    """Issues direct and indirect probes from one vantage point.

    Args:
        network: any :class:`~repro.transport.ProbeTransport` — or a bare
            :class:`~repro.netsim.engine.Engine`, which is wrapped in a
            :class:`~repro.transport.SimulatorTransport` transparently.
        vantage_host_id: which registered host the probes originate from.
        protocol: probe transport protocol (Section 4.2 compares all three).
        retries: re-probes on silence — a bare int (the paper's
            implementation uses 1) or a :class:`RetryPolicy` adding idle
            backoff between attempts.
        use_cache: memoize (dst, ttl) -> response, including silence.
        budget: optional hard probe cap.
        flow_id: constant flow identity (vary per probe for classic
            traceroute behaviour under per-flow load balancing).
        events: session-event bus; every wire probe emits
            :class:`~repro.events.ProbeSent` when a sink is attached.
    """

    def __init__(self, network, vantage_host_id: str,
                 protocol: Protocol = Protocol.ICMP,
                 retries: Union[int, RetryPolicy] = 1,
                 use_cache: bool = True,
                 budget: Optional[ProbeBudget] = None,
                 flow_id: int = 0,
                 max_ttl: int = 32,
                 events: Optional[EventBus] = None):
        self.transport = as_transport(network)
        self.vantage_address = self.transport.source_address(vantage_host_id)
        self.vantage_host_id = vantage_host_id
        self.protocol = protocol
        self.retry_policy = RetryPolicy.coerce(retries)
        self.retries = self.retry_policy.attempts
        self.use_cache = use_cache
        self.budget = budget
        self.flow_id = flow_id
        self.max_ttl = max_ttl
        self.events = events if events is not None else EventBus()
        self.stats = ProbeStats()
        self._cache: Dict[CacheKey, Optional[Response]] = {}

    @property
    def engine(self):
        """The underlying simulator engine, when the transport has one."""
        return getattr(self.transport, "engine", None)

    # -- raw probe interface ------------------------------------------------

    def probe(self, dst: int, ttl: int, phase: Optional[str] = None,
              flow_id: Optional[int] = None,
              refresh: bool = False) -> Optional[Response]:
        """Send one probe (plus retries on silence); return the response.

        Identical (dst, ttl) probes are answered from the cache when caching
        is enabled — silence is cached too, after the retry has confirmed it.
        ``refresh=True`` bypasses the cache lookup and overwrites the entry
        with the fresh answer — how the pipeline re-validates a hop after
        the network mutated under it.
        """
        if ttl > DEFAULT_TTL:
            # A TTL beyond DEFAULT_TTL used to alias the direct-probe cache
            # entry even though the engine can walk it differently (hop-limit
            # interplay).  Nothing legitimately sends one: direct probes use
            # exactly DEFAULT_TTL, indirect probes must stay below it.
            raise ValueError(
                f"probe TTL {ttl} exceeds DEFAULT_TTL ({DEFAULT_TTL}); "
                f"use direct_probe() for direct probing")
        key = (dst, ttl, self.protocol)
        if self.use_cache and flow_id is None and not refresh \
                and key in self._cache:
            self.stats.record_cache_hit()
            events = self.events
            if events:
                if events.wants(CacheHit):
                    events.emit(CacheHit(dst=dst, ttl=ttl, phase=phase))
                else:
                    events.tally(CacheHit)
            return self._cache[key]
        response = self._send_once(dst, ttl, phase, flow_id)
        attempt = 0
        while response is None and attempt < self.retries:
            attempt += 1
            self.stats.retries += 1
            self._note_retry(dst, ttl, attempt, phase)
            self.backoff(self.retry_policy.backoff_for(attempt))
            response = self._send_once(dst, ttl, phase, flow_id)
        if self.use_cache and flow_id is None:
            self._cache[key] = response
        return response

    def probe_many(self, requests: Sequence[Tuple[int, int]],
                   phase: Optional[str] = None
                   ) -> List[Optional[Response]]:
        """Kept only as a name the perfbench layer tracer wraps; unused."""
        return [self.probe(dst, ttl, phase=phase) for dst, ttl in requests]

    def _note_retry(self, dst: int, ttl: int, attempt: int,
                    phase: Optional[str]) -> None:
        events = self.events
        if events:
            if events.wants(ProbeRetried):
                events.emit(ProbeRetried(
                    dst=dst, ttl=ttl, attempt=attempt, phase=phase))
            else:
                events.tally(ProbeRetried)

    def backoff(self, ticks: int) -> None:
        """Idle the transport clock between retry attempts (no probes).

        Also used by the hop pipeline before re-validating a contradicted
        hop — transient churn (reconvergence) gets a beat to settle.
        """
        if ticks <= 0:
            return
        idle = getattr(self.transport, "idle", None)
        if idle is not None:
            idle(ticks)

    def direct_probe(self, dst: int, phase: Optional[str] = None
                     ) -> Optional[Response]:
        """Direct probing (Section 3.1(i)): a large-enough TTL, alive test."""
        return self.probe(dst, DEFAULT_TTL, phase=phase)

    def indirect_probe(self, dst: int, ttl: int, phase: Optional[str] = None,
                       flow_id: Optional[int] = None) -> Optional[Response]:
        """Indirect probing (Section 3.1(ii)): TTL-scoped discovery."""
        if ttl >= DEFAULT_TTL:
            raise ValueError("indirect probes need a small TTL")
        return self.probe(dst, ttl, phase=phase, flow_id=flow_id)

    def _send_once(self, dst: int, ttl: int, phase: Optional[str],
                   flow_id: Optional[int]) -> Optional[Response]:
        if self.budget is not None:
            self.budget.charge()
        self.stats.record_sent(phase)
        probe = Probe(
            src=self.vantage_address,
            dst=dst,
            ttl=ttl,
            protocol=self.protocol,
            flow_id=self.flow_id if flow_id is None else flow_id,
        )
        response = self.transport.send(probe)
        self.stats.record_outcome(response is not None)
        events = self.events
        if events:
            if events.wants(ProbeSent):
                events.emit(ProbeSent(
                    dst=dst,
                    ttl=ttl,
                    protocol=self.protocol.value,
                    flow_id=probe.flow_id,
                    phase=phase,
                    answered=response is not None,
                    response_kind=(response.kind.value
                                   if response is not None else None),
                    response_source=(response.source
                                     if response is not None else None),
                ))
            else:
                events.tally(ProbeSent)
        return response

    # -- measured quantities ---------------------------------------------------

    def is_alive(self, dst: int, phase: Optional[str] = None) -> bool:
        """True when a direct probe proves ``dst`` is in use."""
        response = self.direct_probe(dst, phase=phase)
        return response is not None and response.is_alive_signal

    def measure_distance(self, dst: int, hint: int = 1,
                         phase: Optional[str] = None) -> Optional[int]:
        """The direct hop distance dst(l) of Algorithm 2.

        Starting from ``hint`` (the hop at which the address surfaced), walk
        the TTL forward while probes expire short and backward while they
        still reach, until the minimal reaching TTL is found.  Returns None
        for unresponsive addresses.
        """
        ttl = max(1, min(hint, self.max_ttl))
        response = self.probe(dst, ttl, phase=phase)
        if response is not None and response.is_alive_signal:
            while ttl > 1:
                closer = self.probe(dst, ttl - 1, phase=phase)
                if closer is not None and closer.is_alive_signal:
                    ttl -= 1
                else:
                    break
            return ttl
        if response is not None and response.is_ttl_exceeded:
            while ttl < self.max_ttl:
                ttl += 1
                further = self.probe(dst, ttl, phase=phase)
                if further is not None and further.is_alive_signal:
                    return ttl
                if further is None:
                    return None
            return None
        return None

    # -- bookkeeping -------------------------------------------------------------

    def clear_cache(self) -> None:
        """Forget cached responses (e.g. between independent traces)."""
        self._cache.clear()

    def stats_snapshot(self) -> ProbeStats:
        """A copy of the counters, for per-subnet probe-cost diffs."""
        return self.stats.copy()
