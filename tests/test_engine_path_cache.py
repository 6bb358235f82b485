"""Unit tests for the engine's resolved-path fast path.

The contract: a path-cached engine is packet-for-packet identical to a
walk-only engine — same responses, same IP-IDs, same rate-limit bucket
drains, same record-route stamps — while answering repeat probes of a
memoized flow without re-walking the topology.  Flows crossing a per-packet
load balancer are never memoized.
"""


from conftest import address_on
from repro.netsim import (
    DEFAULT_TTL,
    Engine,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    Protocol,
    ResponsePolicy,
    ResponseType,
    TopologyBuilder,
)


def chain(n=5, policy=None, **engine_kwargs):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return Engine(topo, policy=policy, **engine_kwargs), topo


def diamond(mode, seed=5, **engine_kwargs):
    """v - R1 - {R2 | R3} - R4 - R5: one ECMP split at R1."""
    builder = TopologyBuilder("diamond")
    builder.link("R1", "R2")
    builder.link("R1", "R3")
    builder.link("R2", "R4")
    builder.link("R3", "R4")
    builder.link("R4", "R5")
    builder.edge_host("v", "R1")
    topo = builder.build()
    balancer = LoadBalancer(default_mode=mode, seed=seed)
    return Engine(topo, balancer=balancer, **engine_kwargs), topo


def probe(topo, dst, ttl, flow_id=0, record_route=False,
          protocol=Protocol.ICMP):
    return Probe(src=topo.hosts["v"].address, dst=dst, ttl=ttl,
                 protocol=protocol, flow_id=flow_id,
                 record_route=record_route)


def signature(response):
    if response is None:
        return None
    return (response.kind, response.source, response.responder,
            response.ip_id, response.record_route)


class TestCounters:
    def test_first_probe_misses_then_hits(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 1
        assert engine.stats.path_cache_hits == 0
        engine.send(probe(topo, dst, 5))
        engine.send(probe(topo, dst, 1))
        assert engine.stats.path_cache_hits == 2
        assert engine.stats.path_cache_misses == 1

    def test_flows_are_keyed_separately(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3, flow_id=0))
        engine.send(probe(topo, dst, 3, flow_id=1))
        assert engine.stats.path_cache_misses == 2
        assert engine.stats.path_cache_hits == 0

    def test_clear_path_cache(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        engine.clear_path_cache()
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 2

    def test_cache_disabled_never_counts(self):
        engine, topo = chain(path_cache=False)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 0
        assert engine.stats.path_cache_hits == 0


class TestEquivalence:
    def sweep(self, make_engine, dsts, ttls=range(1, 9), flows=(0, 3),
              record_route=(False, True)):
        """Send the same probe sequence through a walk-only and a cached
        engine; every response (including IP-ID) must match."""
        slow, topo = make_engine(path_cache=False)
        fast, _ = make_engine(path_cache=True)
        for name in dsts:
            dst = address_on(topo, *name) if isinstance(name, tuple) else name
            for ttl in ttls:
                for flow in flows:
                    for rr in record_route:
                        a = slow.send(probe(topo, dst, ttl, flow, rr))
                        b = fast.send(probe(topo, dst, ttl, flow, rr))
                        assert signature(a) == signature(b), (
                            f"dst={dst} ttl={ttl} flow={flow} rr={rr}")
        assert fast.stats.path_cache_hits > 0
        return slow, fast

    def test_replay_matches_walk_on_chain(self):
        self.sweep(lambda **kw: chain(**kw),
                   [("R5", "R4"), ("R3", "R2"), ("R1", "R2"), 0x01010101])

    def test_replay_matches_walk_with_per_flow_balancing(self):
        self.sweep(lambda **kw: diamond(LoadBalancingMode.PER_FLOW, **kw),
                   [("R5", "R4"), ("R4", "R5")])

    def test_record_route_stamps_identical(self):
        slow, topo = chain(path_cache=False)
        fast, _ = chain(path_cache=True)
        dst = address_on(topo, "R5", "R4")
        for ttl in (2, 3, 5, 9):
            a = slow.send(probe(topo, dst, ttl, record_route=True))
            b = fast.send(probe(topo, dst, ttl, record_route=True))
            assert a.record_route == b.record_route
        assert fast.stats.path_cache_hits > 0

    def test_rate_limit_buckets_drain_identically(self):
        # Cached replay must draw from the same token bucket, in the same
        # cases, as the walk — including a NIL router that consumes a
        # token and then stays silent.
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return chain(policy=policy, **kw)

        slow, topo = limited(path_cache=False)
        fast, _ = limited(path_cache=True)
        dst = address_on(topo, "R5", "R4")
        pattern_slow = [signature(slow.send(probe(topo, dst, 2)))
                        for _ in range(8)]
        pattern_fast = [signature(fast.send(probe(topo, dst, 2)))
                        for _ in range(8)]
        assert pattern_slow == pattern_fast
        assert None in pattern_slow          # the bucket did drain
        assert fast.stats.path_cache_hits > 0

    def test_first_contact_matches_walk(self):
        # Every probe opens a new flow, so each one is a miss: the miss
        # path resolves the flow once and answers through the replay,
        # never the walk, with the walk's IP-IDs and bucket drains.
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return chain(policy=policy, **kw)

        slow, topo = limited(path_cache=False)
        fast, _ = limited(path_cache=True)
        resolves = []
        resolve = fast._resolve_path

        def counting_resolve(p):
            resolves.append(p)
            return resolve(p)

        def no_walk(*_):
            raise AssertionError("a cacheable miss must not walk")

        fast._resolve_path = counting_resolve
        fast._walk = no_walk
        sent = 0
        for name in [("R5", "R4"), ("R3", "R2"), ("R1", "R2"), 0x01010101]:
            dst = address_on(topo, *name) if isinstance(name, tuple) else name
            for ttl in range(1, 9):
                for rr in (False, True):
                    sent += 1
                    flow = sent  # a fresh flow: first contact every time
                    a = slow.send(probe(topo, dst, ttl, flow, rr))
                    b = fast.send(probe(topo, dst, ttl, flow, rr))
                    assert signature(a) == signature(b), (
                        f"dst={dst} ttl={ttl} rr={rr}")
        assert fast.stats.path_cache_misses == sent == len(resolves)
        assert fast.stats.path_cache_hits == 0
        assert slow.stats.silent_drops > 0
        assert fast._ip_id_counters == slow._ip_id_counters
        slow_bucket = slow.policy._rate_limiters["R2"]
        fast_bucket = fast.policy._rate_limiters["R2"]
        assert ((fast_bucket.tokens, fast_bucket.last_tick)
                == (slow_bucket.tokens, slow_bucket.last_tick))


class TestUncacheable:
    def test_per_packet_flows_bypass_the_cache(self):
        engine, topo = diamond(LoadBalancingMode.PER_PACKET)
        dst = address_on(topo, "R5", "R4")
        for _ in range(4):
            engine.send(probe(topo, dst, 4))
        assert engine.stats.path_cache_misses == 1
        assert engine.stats.path_cache_uncacheable == 3
        assert engine.stats.path_cache_hits == 0

    def test_per_packet_distribution_preserved(self):
        # The cached engine must keep sampling both ECMP branches with the
        # same PRNG stream a walk-only engine uses.
        responders = set()
        engine, topo = diamond(LoadBalancingMode.PER_PACKET)
        dst = address_on(topo, "R5", "R4")
        for _ in range(24):
            response = engine.send(probe(topo, dst, 2))
            responders.add(response.responder)
        assert responders == {"R2", "R3"}

    def test_per_flow_flows_are_cached(self):
        engine, topo = diamond(LoadBalancingMode.PER_FLOW)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 4))
        engine.send(probe(topo, dst, 4))
        assert engine.stats.path_cache_hits == 1
        assert engine.stats.path_cache_uncacheable == 0


class TestWireLog:
    def test_wire_log_engine_bypasses_cache(self):
        engine, topo = chain(keep_wire_log=True)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_hits == 0
        assert engine.stats.path_cache_misses == 0
        # Both sends produced full per-hop event streams.
        ttl_events = [e for e in engine.wire_log if e.action == "ttl-exceeded"]
        assert len(ttl_events) == 2


class TestDefaultTTL:
    def test_direct_and_indirect_probes_share_one_flow(self):
        engine, topo = chain()
        dst = address_on(topo, "R2", "R1")
        engine.send(probe(topo, dst, DEFAULT_TTL))
        response = engine.send(probe(topo, dst, 2))
        assert engine.stats.path_cache_hits == 1
        assert response.kind == ResponseType.ECHO_REPLY
