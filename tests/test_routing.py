"""Unit tests for routing tables, ECMP sets and load balancing."""

import json
import sys
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.routing as routing_module
from repro.core import TraceNET
from repro.mapping.store import archive_from_tool, archive_to_dict
from repro.netsim import Engine, Probe
from repro.netsim.builder import TopologyBuilder
from repro.netsim.dynamics import MutationSchedule, NetworkDynamics
from repro.netsim.routing import (
    FlowKey,
    LoadBalancer,
    LoadBalancingMode,
    NextHop,
    RoutingTable,
)
from repro.netsim.serialize import (
    policy_from_dict,
    policy_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.topogen import isp, random_topo


def diamond():
    """A -- B/C -- D diamond: two equal-cost paths from A to D's stub."""
    builder = TopologyBuilder("diamond")
    builder.link("A", "B")
    builder.link("A", "C")
    builder.link("B", "D")
    builder.link("C", "D")
    stub = builder.link("D", "E")
    builder.edge_host("v", "A")
    return builder.build(), stub


def oracle_routes(r2s, s2r, subnet_id):
    """Plain-python BFS toward ``subnet_id``, the reference the numpy BFS
    must match: each reachable router's hop distance, and every router's
    ECMP set enumerated in sorted-id order (the load balancers' contract).
    ``r2s`` / ``s2r`` map each router / subnet to its sorted neighbours.
    """
    distances = {}
    queue = deque()
    for router_id in s2r[subnet_id]:
        distances[router_id] = 0
        queue.append(router_id)
    seen = {subnet_id}
    while queue:
        current = queue.popleft()
        for via in r2s[current]:
            if via in seen:
                continue
            seen.add(via)
            for neighbor in s2r[via]:
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
    # Each subnet's members by distance: a router's ECMP set is the
    # members one hop closer than itself on each subnet it attaches to.
    members_at = {}
    for via, members in s2r.items():
        for neighbor in members:
            members_at.setdefault((via, distances.get(neighbor)),
                                  []).append(neighbor)
    hops = {}
    for router_id, vias in r2s.items():
        own = distances.get(router_id)
        hops[router_id] = [] if not own else [
            NextHop(neighbor, via) for via in vias
            for neighbor in members_at.get((via, own - 1), ())]
    return distances, hops


def assert_matches_oracle(topology):
    r2s = {router_id: sorted(set(router.subnet_ids))
           for router_id, router in sorted(topology.routers.items())}
    s2r = {subnet_id: sorted(subnet.router_ids)
           for subnet_id, subnet in topology.subnets.items()}
    table = RoutingTable(topology)
    for subnet_id in sorted(topology.subnets):
        distances, hops = oracle_routes(r2s, s2r, subnet_id)
        for router_id in r2s:
            assert (table.distance(router_id, subnet_id)
                    == distances.get(router_id)), (router_id, subnet_id)
            assert (table.next_hops(router_id, subnet_id)
                    == hops[router_id]), (router_id, subnet_id)
    assert table.bfs_runs == len(topology.subnets)


def clone(network):
    return (topology_from_dict(topology_to_dict(network.topology)),
            policy_from_dict(policy_to_dict(network.policy)))


class TestRoutingTable:
    def test_distance_zero_when_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.distance("D", stub.subnet_id) == 0
        assert table.distance("E", stub.subnet_id) == 0

    def test_distance_counts_hops(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.distance("B", stub.subnet_id) == 1
        assert table.distance("A", stub.subnet_id) == 2

    def test_next_hops_empty_when_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.next_hops("D", stub.subnet_id) == []

    def test_next_hops_single(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        hops = table.next_hops("B", stub.subnet_id)
        assert [h.router_id for h in hops] == ["D"]

    def test_next_hops_ecmp_pair(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        hops = table.next_hops("A", stub.subnet_id)
        assert sorted(h.router_id for h in hops) == ["B", "C"]

    def test_next_hops_cached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        first = table.next_hops("A", stub.subnet_id)
        assert table.next_hops("A", stub.subnet_id) is first

    def test_next_hop_records_via_subnet(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        for hop in table.next_hops("A", stub.subnet_id):
            via = topo.subnets[hop.via_subnet_id]
            assert "A" in via.router_ids
            assert hop.router_id in via.router_ids

    def test_egress_interface_toward_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        address = table.egress_interface_toward("D", stub.subnet_id)
        assert topo.interface_at(address).router_id == "D"

    def test_egress_interface_toward_remote(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        address = table.egress_interface_toward("A", stub.subnet_id)
        iface = topo.interface_at(address)
        assert iface.router_id == "A"

    def test_unreachable_distance_is_none(self):
        builder = TopologyBuilder()
        builder.link("A", "B")
        topo = builder.build(validate=False)
        other = TopologyBuilder()
        other.link("X", "Y")
        # Merge an island subnet manually to create unreachability.
        island = other.topology.subnets[next(iter(other.topology.subnets))]
        table = RoutingTable(topo)
        subnet_id = next(iter(topo.subnets))
        assert table.distance("A", subnet_id) is not None
        del island


class TestLazyBfsCache:
    def test_one_bfs_per_destination_subnet(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        for router in ("A", "B", "C", "D"):
            table.distance(router, stub.subnet_id)
            table.next_hops(router, stub.subnet_id)
        assert table.bfs_runs == 1
        other = sorted(set(topo.subnets) - {stub.subnet_id})[0]
        table.distance("A", other)
        assert table.bfs_runs == 2

    def test_byte_budget_evicts_oldest_map_and_recomputes_it(
            self, monkeypatch):
        topo, stub = diamond()
        table = RoutingTable(topo)
        map_bytes = 2 * len(topo.routers)  # int16 hop counts
        monkeypatch.setattr(routing_module, "DISTANCE_CACHE_BYTES",
                            2 * map_bytes)
        subnets = sorted(topo.subnets)[:3]
        for subnet_id in subnets:
            table.distance("A", subnet_id)
        assert table.bfs_runs == 3
        # Two maps fit the budget: the oldest was evicted, and touching it
        # costs a fresh BFS that evicts the next oldest in turn.
        table.distance("A", subnets[0])
        assert table.bfs_runs == 4
        # The most-recent entries are still served from the cache.
        table.distance("A", subnets[2])
        table.distance("A", subnets[0])
        assert table.bfs_runs == 4
        table.distance("A", subnets[1])
        assert table.bfs_runs == 5

    def test_topology_mutation_invalidates_graph_and_caches(self):
        builder = TopologyBuilder("diamond")
        builder.link("A", "B")
        builder.link("A", "C")
        builder.link("B", "D")
        builder.link("C", "D")
        stub = builder.link("D", "E")
        builder.edge_host("v", "A")
        topo = builder.build()
        table = RoutingTable(topo)
        first = table.next_hops("A", stub.subnet_id)
        assert table.next_hops("A", stub.subnet_id) is first
        runs_before = table.bfs_runs
        # Wire a shortcut A - E: the router↔subnet graph changed, so the
        # interned graph and every derived cache must be rebuilt.
        builder.link("A", "E")
        assert table.next_hops("A", stub.subnet_id) is not first
        assert table.bfs_runs > runs_before
        hops = table.next_hops("A", stub.subnet_id)
        assert "E" in {h.router_id for h in hops}
        assert table.distance("A", stub.subnet_id) == 1

    def test_next_hops_order_is_deterministic(self):
        # The ECMP candidate enumeration order feeds the load balancers:
        # NONE always takes the first candidate and PER_FLOW hashes into
        # the list, so the order itself is part of the contract.
        topo, stub = diamond()
        order = [
            (h.router_id, h.via_subnet_id)
            for h in RoutingTable(topo).next_hops("A", stub.subnet_id)
        ]
        assert [router for router, _ in order] == ["B", "C"]
        rebuilt = [
            (h.router_id, h.via_subnet_id)
            for h in RoutingTable(topo).next_hops("A", stub.subnet_id)
        ]
        assert rebuilt == order
        balancer = LoadBalancer(LoadBalancingMode.NONE)
        flow = FlowKey(src=1, dst=2, protocol="icmp", flow_id=0)
        hops = RoutingTable(topo).next_hops("A", stub.subnet_id)
        assert balancer.choose("A", hops, flow).router_id == "B"
        per_flow = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {per_flow.choose("A", hops, flow).router_id
                 for _ in range(8)}
        assert len(picks) == 1



class TestOracleParity:
    """The numpy BFS against the plain-python oracle: same distances, same
    ECMP sets in the same order, one BFS per destination subnet."""

    def test_matches_python_oracle_on_diamond(self):
        topo, _ = diamond()
        assert_matches_oracle(topo)

    def test_matches_python_oracle_on_small_internet(self):
        assert_matches_oracle(isp.build_internet(seed=42, scale=0.1).topology)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_python_oracle_on_random_topologies(self, seed):
        network = random_topo.build_random(seed, max_p2p=10, max_lans=3)
        assert_matches_oracle(network.topology)


def survey_archives(tools, targets):
    """Trace every target from every tool; canonical archive bytes."""
    return [json.dumps(archive_to_dict(archive_from_tool(
        tool, [tool.trace(target) for target in targets])), sort_keys=True)
        for tool in tools]


class TestSharedTable:
    """Every engine on one Topology object shares one routing state."""

    VANTAGES = ("rice", "umass", "uoregon")

    @pytest.fixture(scope="class")
    def internet(self):
        network = isp.build_internet(seed=42, scale=0.1)
        targets = sorted(target for group in network.targets().values()
                         for target in group)[::40]
        return network, targets

    def test_one_bfs_per_destination_subnet_across_engines(
            self, internet, monkeypatch):
        network, targets = internet
        starts = []
        original = RoutingTable._bfs

        def recording(table, state, start):
            starts.append((id(table.topology), start))
            return original(table, state, start)

        monkeypatch.setattr(RoutingTable, "_bfs", recording)
        topology, policy = clone(network)
        shared = [TraceNET(Engine(topology, policy=policy), vantage)
                  for vantage in self.VANTAGES]
        survey_archives(shared, targets)
        shared_runs = [tool.engine.routing.bfs_runs for tool in shared]
        shared_subnets = {start for _, start in starts}
        assert sum(shared_runs) == len(starts) == len(shared_subnets)
        assert all(runs > 0 for runs in shared_runs)
        # One topology per vantage: each BFS's the subnets it routes to.
        starts.clear()
        separate = []
        for vantage in self.VANTAGES:
            topology, policy = clone(network)
            separate.append(TraceNET(Engine(topology, policy=policy),
                                     vantage))
        survey_archives(separate, targets)
        assert {start for _, start in starts} == shared_subnets
        assert sum(tool.engine.routing.bfs_runs for tool in separate) \
            > sum(shared_runs)

    def test_shared_archives_equal_unmemoized_engines_on_a_copy(
            self, internet):
        network, targets = internet
        topology, policy = clone(network)
        shared = [TraceNET(Engine(topology, policy=policy), vantage)
                  for vantage in self.VANTAGES]
        topology, policy = clone(network)
        walked = [TraceNET(Engine(topology, policy=policy,
                                  path_cache=False), vantage)
                  for vantage in self.VANTAGES]
        assert survey_archives(shared, targets) \
            == survey_archives(walked, targets)

    def test_mutation_through_one_engine_reroutes_every_engine(
            self, internet):
        network, targets = internet
        # Fully responsive engines: no rate-limit state tells a warm
        # engine from a fresh one, only the routes can.
        topology, _ = clone(network)
        engines = [Engine(topology) for _ in self.VANTAGES]
        sources = [topology.hosts[vantage].address
                   for vantage in self.VANTAGES]

        def answers(engine, source):
            out = []
            for dst in targets:
                for ttl in (2, 5, 9, 32):
                    response = engine.send(Probe(src=source, dst=dst,
                                                 ttl=ttl, record_route=True))
                    out.append(None if response is None else (
                        response.kind, response.source, response.responder,
                        response.record_route))
            return out

        # Warm every memo and the routing state.
        before = [answers(engine, source)
                  for engine, source in zip(engines, sources)]
        schedule = MutationSchedule.generate(
            topology, seed=3, start=0, interval=1, count=40,
            recover_after=10**9, kinds=("link-flap", "resize"))
        dynamics = NetworkDynamics(engines[0], schedule)
        dynamics.advance(100)
        rebuilt = topology_from_dict(topology_to_dict(topology))
        after = [answers(engine, source)
                 for engine, source in zip(engines[1:], sources[1:])]
        assert after != before[1:]  # the mutations moved some route
        assert after == [answers(Engine(rebuilt), source)
                         for source in sources[1:]]

    def test_engines_in_threads_give_the_serial_archives(self, internet):
        network, targets = internet

        def tools_on(topology):
            return [TraceNET(Engine(topology, policy=policy_from_dict(
                policy_to_dict(network.policy))), vantage)
                for vantage in self.VANTAGES]

        serial_tools = tools_on(clone(network)[0])
        serial = [survey_archives([tool], targets)[0]
                  for tool in serial_tools]
        threaded = [None] * len(self.VANTAGES)
        tools = tools_on(clone(network)[0])
        barrier = threading.Barrier(len(tools))

        def run(index):
            barrier.wait()
            threaded[index] = survey_archives([tools[index]], targets)[0]

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(tools))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the cold fills
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial
        # A fill raced past the lock would BFS one subnet twice.
        assert sum(tool.engine.routing.bfs_runs for tool in tools) \
            == sum(tool.engine.routing.bfs_runs for tool in serial_tools)


class TestLoadBalancer:
    def _flow(self, flow_id=0):
        return FlowKey(src=1, dst=2, protocol="icmp", flow_id=flow_id)

    def _candidates(self):
        return [NextHop("B", "s1"), NextHop("C", "s2")]

    def test_single_candidate_passthrough(self):
        lb = LoadBalancer()
        only = [NextHop("B", "s1")]
        assert lb.choose("A", only, self._flow()) is only[0]

    def test_no_candidates_raises(self):
        lb = LoadBalancer()
        with pytest.raises(ValueError):
            lb.choose("A", [], self._flow())

    def test_none_mode_picks_first(self):
        lb = LoadBalancer(LoadBalancingMode.NONE)
        assert lb.choose("A", self._candidates(), self._flow()).router_id == "B"

    def test_per_flow_deterministic(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {lb.choose("A", self._candidates(), self._flow(7)).router_id
                 for _ in range(10)}
        assert len(picks) == 1

    def test_per_flow_varies_with_flow_id(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {lb.choose("A", self._candidates(), self._flow(i)).router_id
                 for i in range(32)}
        assert picks == {"B", "C"}

    def test_per_packet_varies(self):
        lb = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=1)
        picks = {lb.choose("A", self._candidates(), self._flow()).router_id
                 for _ in range(32)}
        assert picks == {"B", "C"}

    def test_per_packet_seeded_reproducible(self):
        seq1 = [LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
                .choose("A", self._candidates(), self._flow()).router_id
                for _ in range(1)]
        lb1 = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
        lb2 = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
        seq1 = [lb1.choose("A", self._candidates(), self._flow()).router_id
                for _ in range(20)]
        seq2 = [lb2.choose("A", self._candidates(), self._flow()).router_id
                for _ in range(20)]
        assert seq1 == seq2

    def test_per_router_override(self):
        lb = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=3)
        lb.set_mode("A", LoadBalancingMode.NONE)
        picks = {lb.choose("A", self._candidates(), self._flow()).router_id
                 for _ in range(10)}
        assert picks == {"B"}

    def test_mode_of_default(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        assert lb.mode_of("anything") == LoadBalancingMode.PER_FLOW
