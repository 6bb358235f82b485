"""Trace-collection mode: obtaining one IP address per hop.

This is the traceroute-like half of tracenet (Section 3.3): an indirect
probe toward the destination at each TTL yields either a TTL-Exceeded whose
source names (one interface of) the router at that hop, a protocol-specific
alive signal meaning the destination itself answered, or silence — an
anonymous hop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..events import HopObserved, ProbeSuppressed, TraceInconsistent
from ..netsim.packet import Response
from ..probing.prober import Prober
from ..probing.stopset import StopSet

PHASE_TRACE = "trace-collection"


class HopKind(enum.Enum):
    """What the TTL-scoped probe at a hop revealed."""

    ROUTER = "router"
    DESTINATION = "destination"
    ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class HopObservation:
    """The outcome of probing the destination at one TTL."""

    ttl: int
    kind: HopKind
    address: Optional[int]

    @property
    def is_anonymous(self) -> bool:
        return self.kind == HopKind.ANONYMOUS

    @property
    def reached_destination(self) -> bool:
        return self.kind == HopKind.DESTINATION


def classify_response(ttl: int, response: Optional[Response]
                      ) -> HopObservation:
    """Turn a TTL-scoped probe's answer into a hop observation."""
    if response is None:
        return HopObservation(ttl=ttl, kind=HopKind.ANONYMOUS, address=None)
    if response.is_alive_signal:
        return HopObservation(ttl=ttl, kind=HopKind.DESTINATION,
                              address=response.source)
    if response.is_ttl_exceeded:
        return HopObservation(ttl=ttl, kind=HopKind.ROUTER,
                              address=response.source)
    # Unreachables and other errors terminate the trace as anonymous hops.
    return HopObservation(ttl=ttl, kind=HopKind.ANONYMOUS, address=None)


def collect_hop(prober: Prober, destination: int, ttl: int,
                flow_id: Optional[int] = None) -> HopObservation:
    """Probe ``destination`` with ``ttl`` and classify the answer.

    ``flow_id`` overrides the prober's stable flow identity; classic
    traceroute passes a fresh value per probe, Paris-style tracing (and
    tracenet) leaves it None.
    """
    response = prober.indirect_probe(destination, ttl, phase=PHASE_TRACE,
                                     flow_id=flow_id)
    observation = classify_response(ttl, response)
    _note_hop(prober, destination, observation)
    return observation


def _note_hop(prober: Prober, destination: int,
              observation: HopObservation) -> None:
    """Emit (or tally) the :class:`HopObserved` for a consumed hop."""
    events = prober.events
    if events:
        if events.wants(HopObserved):
            events.emit(HopObserved(
                destination=destination,
                ttl=observation.ttl,
                kind=observation.kind.value,
                address=observation.address,
            ))
        else:
            events.tally(HopObserved)


class HopPipeline:
    """Stop-set- and churn-aware hop supply for one trace's TTL ladder.

    Each hop not prepared in advance is fetched live with one
    ``collect_hop`` probe, in TTL order, exactly like the serial loop.

    * **Stop sets**: before probing, the remembered path toward the
      destination's prefix is *verified* with one probe at its deepest
      known hop.  On a match the shallower hops are served from memory —
      each emits :class:`ProbeSuppressed` + :class:`HopObserved` and costs
      no wire probe, no budget, no phase attribution — and the ladder
      resumes live at the verified TTL (a prober cache hit, since the
      verification response is already cached).  On a mismatch the full
      ladder runs and the verification probe is reused from the cache, so
      divergence costs zero extra wire probes.
    """

    def __init__(self, prober: Prober, destination: int, max_hops: int,
                 stop_set: Optional[StopSet] = None, churn=None):
        self.prober = prober
        self.destination = destination
        self.max_hops = max_hops
        self.stop_set = stop_set
        self.churn = churn
        #: Hop contradictions detected against pre-mutation state.
        self.inconsistencies = 0
        self._epoch = churn.mutation_epoch if churn is not None else 0
        self._stale: Dict[int, HopObservation] = {}
        self._buffer: Dict[int, HopObservation] = {}
        self._served: Dict[int, HopObservation] = {}
        if stop_set is not None:
            self._consult_stop_set(stop_set)

    def _consult_stop_set(self, stop_set: StopSet) -> None:
        candidates = [(ttl, address)
                      for ttl, address in
                      stop_set.verification_hops(self.destination)
                      if ttl <= self.max_hops]
        if not candidates:
            stop_set.misses += 1
            return
        for verify_ttl, expected in candidates:
            response = self.prober.indirect_probe(
                self.destination, verify_ttl, phase=PHASE_TRACE)
            observation = classify_response(verify_ttl, response)
            if observation.kind == HopKind.ROUTER \
                    and observation.address == expected:
                break
            if observation.reached_destination:
                # The destination itself answered: it sits at or above this
                # TTL, so no remembered hop this deep can verify.  Stop
                # before a second probe risks overshooting it too.
                stop_set.rejected += 1
                return
            # Mismatched router (or silence): the path diverges here, but
            # the route tree may still be shared above — cascade up.  A
            # TTL-Exceeded mismatch costs nothing: the destination proved
            # deeper, so the ladder reuses the cached response at this TTL.
        else:
            stop_set.rejected += 1
            return
        stop_set.hits += 1
        path = stop_set.lookup(self.destination) or ()
        for ttl, address in path:
            if ttl >= verify_ttl:
                break
            kind = HopKind.ANONYMOUS if address is None else HopKind.ROUTER
            self._served[ttl] = HopObservation(ttl=ttl, kind=kind,
                                               address=address)
        # The verified hop was observed live (without a HopObserved — the
        # ladder emits it at consumption, like any buffered observation).
        self._buffer[verify_ttl] = observation

    def _check_epoch(self) -> None:
        """Quarantine prepared observations when the network mutated.

        Anything buffered (the verified hop) or served-from-memory (stop
        set) before the mutation describes the *previous* network.  Those
        observations move to the stale table: when the ladder reaches their
        TTL it re-probes live — cache bypassed, after a retry-policy beat
        of backoff — and a differing answer is reported as a
        :class:`~repro.events.TraceInconsistent` contradiction.
        """
        if self.churn is None:
            return
        epoch = self.churn.mutation_epoch
        if epoch == self._epoch:
            return
        self._epoch = epoch
        self._stale.update(self._served)
        self._stale.update(self._buffer)
        self._served.clear()
        self._buffer.clear()

    def _revalidate(self, ttl: int, stale: HopObservation) -> HopObservation:
        """Re-probe a quarantined hop and report any contradiction."""
        prober = self.prober
        prober.backoff(prober.retry_policy.backoff_for(1))
        response = prober.probe(self.destination, ttl, phase=PHASE_TRACE,
                                refresh=True)
        observation = classify_response(ttl, response)
        if observation != stale:
            self.inconsistencies += 1
            events = prober.events
            if events:
                if events.wants(TraceInconsistent):
                    events.emit(TraceInconsistent(
                        destination=self.destination,
                        ttl=ttl,
                        expected=stale.address,
                        observed=observation.address,
                        reason="topology-mutated",
                    ))
                else:
                    events.tally(TraceInconsistent)
        return observation

    def hop(self, ttl: int) -> HopObservation:
        """The observation at ``ttl`` — suppressed, buffered, or probed."""
        self._check_epoch()
        stale = self._stale.pop(ttl, None)
        if stale is not None:
            observation = self._revalidate(ttl, stale)
            _note_hop(self.prober, self.destination, observation)
            return observation
        served = self._served.pop(ttl, None)
        if served is not None:
            prober = self.prober
            prober.stats.record_suppressed()
            if self.stop_set is not None:
                self.stop_set.suppressed += 1
            events = prober.events
            if events:
                if events.wants(ProbeSuppressed):
                    events.emit(ProbeSuppressed(
                        destination=self.destination,
                        ttl=ttl,
                        phase=PHASE_TRACE,
                        reason="stop-set",
                        address=served.address,
                    ))
                else:
                    events.tally(ProbeSuppressed)
            _note_hop(prober, self.destination, served)
            return served
        buffered = self._buffer.pop(ttl, None)
        if buffered is None:
            return collect_hop(self.prober, self.destination, ttl)
        _note_hop(self.prober, self.destination, buffered)
        return buffered
