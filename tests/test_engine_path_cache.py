"""Unit tests for the engine's resolved-path fast path.

The contract: a path-cached engine is packet-for-packet identical to a
walk-only engine — same responses, same IP-IDs, same rate-limit bucket
drains, same record-route stamps — while answering repeat probes of a
memoized flow without re-walking the topology.  Flows crossing a per-packet
load balancer are never memoized.

Misses share work per destination subnet: the router walk toward a subnet
runs once per (src, subnet, protocol, flow) and each first-contact address
finishes it with its own terminal hop, except behind a per-flow balancer
that hashes the destination, where every address walks on its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address_on
from repro.netsim import (
    DEFAULT_TTL,
    DirectConfig,
    Engine,
    IndirectConfig,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    Protocol,
    ResponsePolicy,
    ResponseType,
    TopologyBuilder,
    UnassignedAddressBehavior,
)
from repro.netsim.dynamics import MutationSchedule, NetworkDynamics
from repro.netsim.serialize import (
    policy_from_dict,
    policy_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.topogen import geant, random_topo


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


def lan_scene(mode=LoadBalancingMode.NONE, policy=None, seed=5,
              **engine_kwargs):
    """v - R1 - {R2 | R6} - LAN(R2, R3, R4, R6) + host h; R3 - R5.

    R1 reaches the /28 LAN over two equal-cost routers (R2 and R6), so
    ``mode`` decides whether the choice hashes the destination.  The LAN
    holds addresses owned by the terminal router, by its LAN peers and by
    a host, and a block of unassigned addresses.
    """
    builder = TopologyBuilder("lan-scene")
    builder.link("R1", "R2")
    builder.link("R1", "R6")
    lan = builder.lan(["R2", "R3", "R4", "R6"], length=28, subnet_id="lan")
    builder.host("h", "lan", lan.prefix.network + 9)
    builder.link("R3", "R5")
    builder.edge_host("v", "R1")
    topo = builder.build()
    balancer = LoadBalancer(default_mode=mode, seed=seed)
    return Engine(topo, policy=policy, balancer=balancer,
                  **engine_kwargs), topo


def scene_addresses(topo):
    """Every LAN address (owned, peer, host, unassigned), R5's far side,
    an upstream link and one address outside every subnet."""
    lan = topo.subnets["lan"].prefix
    return (list(lan.host_addresses())
            + [address_on(topo, "R5", "R3"), address_on(topo, "R2", "R1"),
               0x01010101])


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
        # Every probe opens a new (dst, flow) memo key, so each one is a
        # miss.  The router walk runs once per (src, destination subnet,
        # protocol, flow); every other first contact finishes that shared
        # prefix with its own terminal and answers through the replay,
        # never the walk, with the walk's IP-IDs and bucket drains.
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return lan_scene(policy=policy, **kw)

        slow, topo = limited(path_cache=False)
        fast, _ = limited(path_cache=True)
        resolves = []
        resolve = fast._resolve_prefix

        def counting_resolve(p, subnet_id):
            resolves.append((p.flow_id, subnet_id))
            return resolve(p, subnet_id)

        def no_walk(*_):
            raise AssertionError("a cacheable miss must not walk")

        fast._resolve_prefix = counting_resolve
        fast._walk = no_walk
        sent = 0
        subnet_keys = set()
        for dst in scene_addresses(topo):
            subnet = topo.subnet_containing(dst)
            for flow in (0, 1):
                sent += 1
                ttl, rr = 1 + sent % 8, sent % 2 == 0
                subnet_keys.add((flow, subnet.subnet_id if subnet else None))
                a = slow.send(probe(topo, dst, ttl, flow, rr))
                b = fast.send(probe(topo, dst, ttl, flow, rr))
                assert signature(a) == signature(b), (
                    f"dst={dst} ttl={ttl} flow={flow} rr={rr}")
        assert fast.stats.path_cache_misses == sent
        assert fast.stats.path_cache_hits == 0
        assert len(resolves) == len(set(resolves))
        assert set(resolves) == subnet_keys
        assert fast.stats.path_prefix_resolves == len(subnet_keys) < sent
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


def memo_equals_walk(make_engine, dsts, ttls=range(1, 8), flows=(0, 2),
                     record_route=(False, True),
                     protocols=(Protocol.ICMP,)):
    """Send one probe sequence through a walk-only and a memo engine and
    compare every response; returns both engines."""
    slow, topo = make_engine(path_cache=False)
    fast, _ = make_engine(path_cache=True)
    for dst in dsts:
        for ttl in ttls:
            for flow in flows:
                for rr in record_route:
                    for protocol in protocols:
                        a = slow.send(probe(topo, dst, ttl, flow, rr,
                                            protocol))
                        b = fast.send(probe(topo, dst, ttl, flow, rr,
                                            protocol))
                        assert signature(a) == signature(b), (
                            f"dst={dst} ttl={ttl} flow={flow} rr={rr} "
                            f"{protocol}")
    assert slow._ip_id_counters == fast._ip_id_counters
    return slow, fast, topo


class TestSubnetPrefix:
    @pytest.mark.parametrize("behavior", list(UnassignedAddressBehavior))
    def test_lan_terminals_match_walk(self, behavior):
        # Owned by the terminal router, owned by a LAN peer, a host and
        # unassigned addresses, all in one subnet behind one prefix.
        slow, fast, topo = memo_equals_walk(
            lambda **kw: lan_scene(unassigned_behavior=behavior, **kw),
            scene_addresses(topo_of(lan_scene)),
            protocols=(Protocol.ICMP, Protocol.UDP))
        subnets = subnet_ids(topo, scene_addresses(topo))
        # One walk per (subnet, flow, protocol) however many addresses.
        assert fast.stats.path_prefix_resolves == len(subnets) * 2 * 2
        assert fast.stats.path_cache_misses == \
            len(scene_addresses(topo)) * 2 * 2
        kinds = {response.kind for response in
                 (fast.send(probe(topo, dst, DEFAULT_TTL))
                  for dst in scene_addresses(topo)) if response}
        expected = {ResponseType.ECHO_REPLY}
        if behavior == UnassignedAddressBehavior.HOST_UNREACHABLE:
            expected.add(ResponseType.HOST_UNREACHABLE)
        assert kinds == expected

    def test_per_flow_ecmp_upstream_resolves_per_address(self):
        # R1 hashes the destination into its R2/R6 choice, so every LAN
        # (and R5) address walks on its own and nothing behind R1's
        # choice is shared; the R1-R2 link and the unrouted address are.
        slow, fast, topo = memo_equals_walk(
            lambda **kw: lan_scene(LoadBalancingMode.PER_FLOW, **kw),
            scene_addresses(topo_of(lan_scene)))
        per_address = len(scene_addresses(topo)) - 2
        assert fast.stats.path_prefix_resolves == 2 * (per_address + 2)
        shared = {key[1] for key in fast._prefix_cache}
        assert "lan" not in shared and None in shared
        assert fast.stats.path_cache_hits > 0
        # Both branches are really taken across the LAN's addresses.
        responders = {fast.send(probe(topo, dst, 2)).responder
                      for dst in topo.subnets["lan"].prefix.host_addresses()}
        assert responders == {"R2", "R6"}

    def test_per_packet_matches_walk(self):
        slow, fast, topo = memo_equals_walk(
            lambda **kw: lan_scene(LoadBalancingMode.PER_PACKET, **kw),
            scene_addresses(topo_of(lan_scene)), flows=(0,))
        assert fast.stats.path_cache_uncacheable > 0
        # The per-packet verdict is shared per subnet like any prefix.
        subnets = subnet_ids(topo, scene_addresses(topo))
        assert fast.stats.path_prefix_resolves == len(subnets)

    def test_nil_routers_match_walk(self):
        def nil_scene(**kw):
            engine, topo = lan_scene(**kw)
            topo.routers["R1"].indirect_config = IndirectConfig.NIL
            for router_id in ("R2", "R6"):
                topo.routers[router_id].direct_config = DirectConfig.NIL
            topo.routers["R3"].indirect_config = IndirectConfig.NIL
            return engine, topo

        slow, fast, _ = memo_equals_walk(nil_scene,
                                         scene_addresses(topo_of(lan_scene)))
        assert slow.stats.silent_drops > 0

    def test_rate_limited_terminal_matches_walk(self):
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=3, refill_per_tick=0.2)
            return lan_scene(policy=policy, **kw)

        slow, fast, _ = memo_equals_walk(limited,
                                         scene_addresses(topo_of(lan_scene)))
        assert slow.policy._rate_limiters["R2"].tokens == \
            fast.policy._rate_limiters["R2"].tokens

    def test_clear_path_cache_drops_prefixes(self):
        engine, topo = lan_scene()
        for dst in scene_addresses(topo):
            engine.send(probe(topo, dst, 3))
        assert engine._prefix_cache and engine._path_cache
        engine.clear_path_cache()
        assert not engine._prefix_cache and not engine._path_cache


def subnet_ids(topo, dsts):
    """The destination-subnet keys of ``dsts`` (None outside every subnet)."""
    return {getattr(topo.subnet_containing(dst), "subnet_id", None)
            for dst in dsts}


def topo_of(make_engine):
    """The topology a scene builds (addresses are identical per build)."""
    return make_engine()[1]


def _clone(network):
    return (topology_from_dict(topology_to_dict(network.topology)),
            policy_from_dict(policy_to_dict(network.policy)))


class TestChurn:
    @pytest.fixture(scope="class")
    def geant_network(self):
        return geant.build(seed=2010)

    def test_mutation_drops_both_tables(self, geant_network):
        topology, policy = _clone(geant_network)
        engine = Engine(topology, policy=policy)
        source = topology.hosts["utdallas"].address
        for dst in sorted(topology.all_interface_addresses)[:40]:
            engine.send(Probe(src=source, dst=dst, ttl=4))
        assert engine._prefix_cache and engine._path_cache
        schedule = MutationSchedule.generate(topology, seed=7, start=0,
                                             interval=1, count=1)
        NetworkDynamics(engine, schedule).advance(10)
        engine._check_mutations()
        assert not engine._prefix_cache and not engine._path_cache

    def test_churn_memo_matches_walk(self, geant_network):
        # Both engines live through the same seeded churn (flaps,
        # reboots, renumbering, resizing, ECMP flips).  After every
        # mutation each subnet is probed at a fresh address, so the memo
        # engine's misses land on prefixes walked before the mutation
        # unless the mutation dropped them.
        engines, dynamics = [], []
        for path_cache in (False, True):
            topology, policy = _clone(geant_network)
            engine = Engine(topology, policy=policy, path_cache=path_cache)
            engines.append(engine)
            dynamics.append(NetworkDynamics(engine, MutationSchedule.generate(
                topology, seed=7, start=1, interval=1, count=8)))
        source = engines[0].topology.hosts["utdallas"].address
        rng = random.Random(3)
        streams = ([], [])
        for epoch in range(len(dynamics[0].schedule.mutations) + 1):
            for dyn in dynamics:
                dyn.advance(epoch)
            for subnet_id in sorted(engines[0].topology.subnets):
                block = engines[0].topology.subnets[subnet_id].prefix
                dst = block.network + rng.randrange(block.size)
                ttl = rng.randrange(1, 20)
                rr = rng.random() < 0.2
                for engine, stream in zip(engines, streams):
                    stream.append(signature(engine.send(Probe(
                        src=source, dst=dst, ttl=ttl, record_route=rr))))
        assert all(dyn.exhausted for dyn in dynamics)
        assert streams[0] == streams[1]
        assert engines[1].stats.path_prefix_resolves < \
            engines[1].stats.path_cache_misses


class TestRandomTopologies:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           mode=st.sampled_from(list(LoadBalancingMode)),
           behavior=st.sampled_from(list(UnassignedAddressBehavior)))
    @settings(max_examples=15, deadline=None)
    def test_memo_matches_walk(self, seed, mode, behavior):
        network = random_topo.build_random(seed, max_p2p=8, max_lans=3)
        rng = random.Random(seed)
        blocks = [subnet.prefix for subnet in
                  sorted(network.topology.subnets.values(),
                         key=lambda subnet: subnet.subnet_id)]
        dsts = [block.network + rng.randrange(block.size)
                for block in blocks for _ in range(3)]
        dsts.append(0x01010101)
        source = network.topology.hosts["vantage"].address
        probes = [(dst, rng.randrange(1, 12), rng.randrange(2),
                   rng.random() < 0.25,
                   rng.choice((Protocol.ICMP, Protocol.UDP)))
                  for _ in range(2) for dst in dsts]
        streams = []
        for path_cache in (False, True):
            topology, policy = _clone(network)
            engine = Engine(topology, policy=policy,
                            balancer=LoadBalancer(default_mode=mode, seed=1),
                            unassigned_behavior=behavior, seed=seed,
                            path_cache=path_cache)
            streams.append([signature(engine.send(Probe(
                src=source, dst=dst, ttl=ttl, flow_id=flow,
                record_route=rr, protocol=protocol)))
                for dst, ttl, flow, rr, protocol in probes])
        assert streams[0] == streams[1]
