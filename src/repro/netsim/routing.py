"""Shortest-path routing over the router↔subnet graph.

Routing is per destination *subnet* (routers advertise their connected
prefixes): a packet destined to an address in subnet S is forwarded along a
hop-count shortest path until it reaches a router attached to S, which then
delivers across the LAN.  Equal-cost ties produce ECMP next-hop sets; the
:class:`LoadBalancer` decides which member a given packet takes, modelling
the per-flow and per-packet load-balancing behaviours of Section 3.7.
"""

from __future__ import annotations

import enum
import random
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as _np

from .topology import Topology


@dataclass(frozen=True)
class NextHop:
    """One forwarding choice: the neighbor router and the subnet crossed."""

    router_id: str
    via_subnet_id: str


class LoadBalancingMode(enum.Enum):
    """How a router picks among equal-cost next hops."""

    NONE = "none"            # deterministic: always the first candidate
    PER_FLOW = "per-flow"    # hash of flow identity (Paris-stable)
    PER_PACKET = "per-packet"  # random per packet (the hostile case)


@dataclass(frozen=True)
class FlowKey:
    """The header fields a per-flow balancer hashes."""

    src: int
    dst: int
    protocol: str
    flow_id: int


class LoadBalancer:
    """Per-router ECMP tie-breaking policy.

    Deterministic given its seed: per-flow hashing uses CRC32 over the flow
    key, per-packet splitting uses a seeded PRNG stream.
    """

    def __init__(self, default_mode: LoadBalancingMode = LoadBalancingMode.NONE,
                 seed: int = 0):
        self.default_mode = default_mode
        self._per_router: Dict[str, LoadBalancingMode] = {}
        self._rng = random.Random(seed)
        # Mutation counter: memoized paths bake in per-flow ECMP choices,
        # so a mid-run mode change must invalidate them (engine watches).
        self.version = 0

    def set_mode(self, router_id: str, mode: LoadBalancingMode) -> None:
        """Override the balancing mode of one router."""
        self._per_router[router_id] = mode
        self.version += 1

    def mode_of(self, router_id: str) -> LoadBalancingMode:
        return self._per_router.get(router_id, self.default_mode)

    def choose(self, router_id: str, candidates: List[NextHop],
               flow: FlowKey) -> NextHop:
        """Pick the next hop this packet takes at ``router_id``."""
        if not candidates:
            raise ValueError(f"no next-hop candidates at {router_id}")
        if len(candidates) == 1:
            return candidates[0]
        mode = self.mode_of(router_id)
        if mode == LoadBalancingMode.NONE:
            return candidates[0]
        if mode == LoadBalancingMode.PER_FLOW:
            material = f"{router_id}|{flow.src}|{flow.dst}|{flow.protocol}|{flow.flow_id}"
            digest = zlib.crc32(material.encode("ascii"))
            return candidates[digest % len(candidates)]
        return candidates[self._rng.randrange(len(candidates))]

    def choose_stable(self, router_id: str, candidates: List[NextHop],
                      flow: FlowKey) -> Optional[NextHop]:
        """Like :meth:`choose` but side-effect free: returns the hop this
        flow always takes, or None when the choice is per-packet random
        (in which case no PRNG state is consumed)."""
        if not candidates:
            raise ValueError(f"no next-hop candidates at {router_id}")
        if len(candidates) == 1:
            return candidates[0]
        mode = self.mode_of(router_id)
        if mode == LoadBalancingMode.PER_PACKET:
            return None
        return self.choose(router_id, candidates, flow)


#: Bytes of distance maps one topology retains, whichever engines ask (an
#: LRU).  A map holds 2 bytes per router: the four-ISP internet's 488
#: subnets take 3.5 MB in all and the 10^5-interface internet's 353 take
#: 65 MB, while a million-interface topology (~2 MB a map) keeps its ~130
#: most recently routed destination subnets instead of ~2 GB.
DISTANCE_CACHE_BYTES = 256 << 20

#: Serializes building a topology's routing state, so concurrent tables
#: on one topology intern its graph once.
_BUILD_LOCK = threading.Lock()


def _gather(ptr, ind, nodes):
    """Concatenate the CSR adjacency rows of ``nodes`` (vectorized)."""
    starts = ptr[nodes]
    counts = ptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return ind[:0]
    before = _np.cumsum(counts) - counts
    return ind[_np.repeat(starts - before, counts) + _np.arange(total)]


def _row(adjacency, node: int):
    """One CSR adjacency row, as an index-array view."""
    ptr, ind = adjacency
    return ind[ptr[node]:ptr[node + 1]]


def _first_occurrences(values, slot):
    """``values`` without repeats, using ``slot`` (one entry per node id)
    as scratch instead of sorting."""
    positions = _np.arange(values.size)
    slot[values] = positions
    return values[slot[values] == positions]


class _RoutingState:
    """Routing derived from one version of one topology.

    Held on the topology (``Topology.routing_state``) and shared by every
    :class:`RoutingTable` built on it: the interned graph, the distance
    maps (an LRU under :data:`DISTANCE_CACHE_BYTES`) and the next-hop sets.
    Router and subnet ids map to dense indices in sorted-id order, which
    fixes the ECMP candidate order; the bipartite adjacency is stored as
    CSR index arrays.  ``lock`` guards the lazy fills, so engines on one
    topology may route from different threads.
    """

    def __init__(self, topology: Topology):
        self.version = topology.version
        self.router_ids = sorted(topology.routers)
        self.subnet_ids = sorted(topology.subnets)
        self.r_index = {rid: i for i, rid in enumerate(self.router_ids)}
        self.s_index = {sid: j for j, sid in enumerate(self.subnet_ids)}
        r_index = self.r_index
        edge_r: List[int] = []
        edge_s: List[int] = []
        for j, sid in enumerate(self.subnet_ids):
            for rid in topology.subnets[sid].router_ids:
                edge_r.append(r_index[rid])
                edge_s.append(j)
        count = len(edge_r)
        r = _np.fromiter(edge_r, dtype=_np.int64, count=count)
        s = _np.fromiter(edge_s, dtype=_np.int64, count=count)
        # router -> subnets: edges are generated in ascending subnet-index
        # order, so a stable sort by router keeps each row sorted (matching
        # the old sorted(set(router.subnet_ids)) enumeration).
        order = _np.argsort(r, kind="stable")
        r2s_ptr = _np.zeros(len(self.router_ids) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(r, minlength=len(self.router_ids)),
                   out=r2s_ptr[1:])
        # subnet -> routers: rows sorted by router index == sorted ids.
        s_order = _np.lexsort((r, s))
        s2r_ptr = _np.zeros(len(self.subnet_ids) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(s, minlength=len(self.subnet_ids)),
                   out=s2r_ptr[1:])
        self.r2s = (r2s_ptr, s[order].astype(_np.int32))
        self.s2r = (s2r_ptr, r[s_order].astype(_np.int32))
        # subnet index -> distance array (-1 unreachable), oldest first.
        self.distances: "OrderedDict[int, object]" = OrderedDict()
        self.distance_bytes = 0
        self.next_hops: Dict[Tuple[str, str], List[NextHop]] = {}
        self.lock = threading.Lock()


class RoutingTable:
    """All-pairs router→subnet distances and ECMP next-hop sets.

    One BFS per *used* destination subnet over the router adjacency graph,
    run level-synchronously over numpy arrays: distance maps and next-hop
    sets are derived lazily, so a worker that only routes toward its own
    shard's targets never pays for the rest of the network.

    Routing is a function of the topology alone, so every table on one
    :class:`~repro.netsim.topology.Topology` object shares one
    :class:`_RoutingState`: engines surveying from several vantages BFS
    each destination subnet once between them.  Mutating the topology (its
    ``version`` counter) replaces that state for all of them.  The table
    itself is a view that only counts its own BFS runs.

    Attributes:
        bfs_runs: BFS executions this table triggered — one per distinct
            destination subnet it routed toward first (modulo evictions
            from the shared byte-bounded distance cache).
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.bfs_runs = 0

    def _state(self) -> _RoutingState:
        topology = self.topology
        state = topology.routing_state
        if state is None or state.version != topology.version:
            with _BUILD_LOCK:
                state = topology.routing_state
                if state is None or state.version != topology.version:
                    state = topology.routing_state = _RoutingState(topology)
        return state

    # -- distances (callers hold ``state.lock``) ---------------------------

    def _distances_to(self, state: _RoutingState, subnet_index: int):
        cache = state.distances
        distances = cache.get(subnet_index)
        if distances is not None:
            cache.move_to_end(subnet_index)
            return distances
        distances = cache[subnet_index] = self._bfs(state, subnet_index)
        state.distance_bytes += distances.nbytes
        while state.distance_bytes > DISTANCE_CACHE_BYTES and len(cache) > 1:
            state.distance_bytes -= cache.popitem(last=False)[1].nbytes
        return distances

    def _bfs(self, state: _RoutingState, start: int):
        """Level-synchronous BFS from every router attached to ``start``.

        Returns per-router distances (-1 = unreachable): a subnet is always
        expanded at the minimal distance of its attached routers.
        """
        self.bfs_runs += 1
        r2s_ptr, r2s_ind = state.r2s
        s2r_ptr, s2r_ind = state.s2r
        distances = _np.full(len(state.router_ids), -1, dtype=_np.int32)
        subnet_seen = _np.zeros(len(state.subnet_ids), dtype=bool)
        subnet_seen[start] = True
        # Dedupe scratch: one slot per node, written with each element's
        # position; an element is kept when its slot still holds its own
        # position (exactly one occurrence per value survives).  Linear,
        # unlike the sort behind np.unique; the frontier order it leaves
        # never changes the distances assigned per level.
        router_slot = _np.empty(len(state.router_ids), dtype=_np.int64)
        subnet_slot = _np.empty(len(state.subnet_ids), dtype=_np.int64)
        frontier = _row(state.s2r, start)
        distances[frontier] = 0
        depth = 0
        while frontier.size:
            subs = _gather(r2s_ptr, r2s_ind, frontier)
            subs = subs[~subnet_seen[subs]]
            if not subs.size:
                break
            subs = _first_occurrences(subs, subnet_slot)
            subnet_seen[subs] = True
            nbrs = _gather(s2r_ptr, s2r_ind, subs)
            nbrs = nbrs[distances[nbrs] < 0]
            if not nbrs.size:
                break
            frontier = _first_occurrences(nbrs, router_slot)
            depth += 1
            distances[frontier] = depth
        # Kept as int16 (half the bytes) unless a hop count needs more.
        return distances.astype(_np.int16) if depth < 1 << 15 else distances

    # -- public API --------------------------------------------------------

    def distance(self, router_id: str, subnet_id: str) -> Optional[int]:
        """Hops from ``router_id`` to the nearest router attached to ``subnet_id``.

        0 means the router is itself attached; None means unreachable.
        """
        state = self._state()
        subnet_index = state.s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        router_index = state.r_index.get(router_id)
        if router_index is None:
            return None
        with state.lock:
            value = self._distances_to(state, subnet_index)[router_index]
        return None if value < 0 else int(value)

    def next_hops(self, router_id: str, subnet_id: str) -> List[NextHop]:
        """The ECMP set at ``router_id`` toward ``subnet_id`` (may be empty)."""
        state = self._state()
        key = (router_id, subnet_id)
        cached = state.next_hops.get(key)
        if cached is not None:
            return cached
        subnet_index = state.s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        candidates: List[NextHop] = []
        with state.lock:
            distances = self._distances_to(state, subnet_index)
            router_index = state.r_index.get(router_id)
            if router_index is not None:
                own = int(distances[router_index])
                if own > 0:
                    # Members one hop closer on each attached subnet, in
                    # index order (the router itself sits at ``own``).
                    router_ids = state.router_ids
                    for via in _row(state.r2s, router_index).tolist():
                        members = _row(state.s2r, via)
                        via_id = state.subnet_ids[via]
                        closer = members[distances[members] == own - 1]
                        for neighbor in closer.tolist():
                            candidates.append(NextHop(
                                router_id=router_ids[neighbor],
                                via_subnet_id=via_id))
            state.next_hops[key] = candidates
        return candidates

    def egress_interface_toward(self, router_id: str, subnet_id: str) -> Optional[int]:
        """Address of ``router_id``'s interface on its path toward ``subnet_id``.

        This is the address a *shortest-path interface* router stamps on its
        TTL-Exceeded replies when the reply target lives in ``subnet_id``.
        """
        router = self.topology.routers[router_id]
        attached = router.interface_on(subnet_id)
        if attached is not None:
            return attached.address
        hops = self.next_hops(router_id, subnet_id)
        if not hops:
            return None
        via = router.interface_on(hops[0].via_subnet_id)
        return via.address if via is not None else None
