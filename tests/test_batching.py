"""The perfbench-wrapped multi-probe names: send_many and probe_many.

Surveys send one probe at a time.  ``Engine.send_many``,
``SimulatorTransport.send_many`` and ``Prober.probe_many`` survive only as
names the perfbench layer tracer wraps; each is a loop over its
single-probe method, and these tests pin that equivalence until the next
benchmark change drops them.
"""

import pytest

from repro.events import CacheHit, ProbeSent
from repro.netsim import Engine
from repro.netsim.packet import Probe
from repro.probing import ProbeBudget, ProbeBudgetExceeded, Prober
from repro.topogen import internet2
from repro.transport import SimulatorTransport


def line_probes(engine, count=6):
    src = engine.topology.hosts["vantage"].address
    dst = src  # probing the vantage's own subnet keeps the line topology busy
    return [Probe(src=src, dst=dst, ttl=ttl) for ttl in range(1, count + 1)]


def survey_network():
    network = internet2.build(seed=7)
    targets = internet2.targets(network, seed=7)[:10]
    return network, targets


def response_key(response):
    if response is None:
        return None
    return (response.kind, response.source, response.responder,
            response.ip_id)


class TestEngineSendMany:
    def test_matches_serial_sends(self):
        network, targets = survey_network()
        src = network.topology.hosts["utdallas"].address
        work = [(dst, ttl) for dst in targets for ttl in range(1, 13)]
        serial_engine = Engine(network.topology, policy=network.policy,
                               path_cache=True)
        batched_engine = Engine(network.topology, policy=network.policy,
                                path_cache=True)
        serial = [serial_engine.send(Probe(src=src, dst=d, ttl=t))
                  for d, t in work]
        probes = [Probe(src=src, dst=d, ttl=t) for d, t in work]
        batched = []
        for start in range(0, len(probes), 17):  # uneven chunks on purpose
            batched.extend(batched_engine.send_many(probes[start:start + 17]))
        assert [response_key(r) for r in serial] == \
            [response_key(r) for r in batched]
        assert serial_engine.clock == batched_engine.clock
        assert serial_engine.stats.probes_sent == \
            batched_engine.stats.probes_sent
        assert serial_engine.stats.per_protocol == \
            batched_engine.stats.per_protocol

    def test_cache_off_falls_back_to_send(self, line_topology):
        engine = Engine(line_topology, path_cache=False)
        probes = line_probes(engine, count=3)
        responses = engine.send_many(probes)
        assert len(responses) == 3
        assert engine.stats.probes_sent == 3


class TestTransportSendMany:
    def test_simulator_delegates_to_engine(self, line_engine):
        transport = SimulatorTransport(line_engine)
        probes = line_probes(line_engine, count=4)
        responses = transport.send_many(probes)
        assert len(responses) == 4
        assert line_engine.stats.probes_sent == 4


class TestProbeMany:
    def test_matches_serial_probe_semantics(self, line_topology):
        # Two identical engines: the probers must not share simulator state
        # (IP-ID counters) or the comparison measures the engine, not the
        # prober.
        serial = Prober(SimulatorTransport(Engine(line_topology)), "vantage")
        batched = Prober(SimulatorTransport(Engine(line_topology)), "vantage")
        dst = line_topology.hosts["vantage"].address
        requests = [(dst, ttl) for ttl in range(1, 5)]
        one_by_one = [serial.probe(d, t) for d, t in requests]
        together = batched.probe_many(requests)
        assert [response_key(r) for r in one_by_one] == \
            [response_key(r) for r in together]
        assert serial.stats.sent == batched.stats.sent
        assert serial.stats.responses == batched.stats.responses

    def test_cache_and_duplicates(self, line_engine):
        prober = Prober(SimulatorTransport(line_engine), "vantage")
        dst = line_engine.topology.hosts["vantage"].address
        events = []
        prober.events.subscribe(events.append)
        prober.probe(dst, 1)  # pre-populates the cache
        events.clear()
        results = prober.probe_many([(dst, 1), (dst, 2), (dst, 2)])
        # (dst, 1) from the cache, (dst, 2) once on the wire, the repeat
        # answered from the entry the first (dst, 2) stored.
        assert response_key(results[1]) == response_key(results[2])
        hits = [e for e in events if isinstance(e, CacheHit)]
        sent = [e for e in events if isinstance(e, ProbeSent)]
        assert len(hits) == 2
        assert len(sent) == 1
        assert prober.stats.cache_hits == 2  # primed entry + repeat

    def test_budget_charges_prefix_then_raises(self, line_engine):
        budget = ProbeBudget(2)
        prober = Prober(SimulatorTransport(line_engine), "vantage",
                        budget=budget, use_cache=False, retries=0)
        dst = line_engine.topology.hosts["vantage"].address
        with pytest.raises(ProbeBudgetExceeded):
            prober.probe_many([(dst, 1), (dst, 2), (dst, 3)])
        # The two probes the budget paid for hit the wire before the raise.
        assert prober.stats.sent == 2
