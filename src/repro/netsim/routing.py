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
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .topology import Topology

try:  # numpy is a declared dependency; the pure-python BFS behaves
    import numpy as _np  # identically and is the parity tests' reference
except ImportError:  # pragma: no cover
    _np = None


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


#: Distance maps retained per table: one BFS result is O(routers), so an
#: unbounded cache over a million-interface topology would dominate peak
#: RSS.  128 destination subnets comfortably covers a survey's working set.
DEFAULT_DISTANCE_CACHE = 128


def _gather(ptr, ind, nodes):
    """Concatenate the CSR adjacency rows of ``nodes`` (vectorized)."""
    starts = ptr[nodes]
    counts = ptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return ind[:0]
    before = _np.cumsum(counts) - counts
    return ind[_np.repeat(starts - before, counts) + _np.arange(total)]


def _first_occurrences(values, slot):
    """``values`` without repeats, using ``slot`` (one entry per node id)
    as scratch instead of sorting."""
    positions = _np.arange(values.size)
    slot[values] = positions
    return values[slot[values] == positions]


class RoutingTable:
    """All-pairs router→subnet distances and ECMP next-hop sets.

    One BFS per *used* destination subnet over the router adjacency graph:
    distance maps and next-hop sets are both derived lazily and cached, so
    a worker that only routes toward its own shard's targets never pays
    for the rest of the network.

    The graph itself is interned on first use: router and subnet ids are
    mapped to dense integer indices (in sorted-id order, which preserves
    the enumeration order — and therefore the ECMP candidate order — of
    the original string-keyed implementation) and the bipartite adjacency
    is stored as CSR index arrays.  BFS then runs level-synchronously over
    numpy arrays when available, or over plain int lists otherwise, with
    identical results; either way a million-interface topology routes
    without string hashing in the inner loop.  Distance maps are held in
    an LRU bounded by ``distance_cache_size`` (each is O(routers)).
    Mutating the topology (its ``version`` counter) invalidates the graph
    and every derived cache.

    Attributes:
        bfs_runs: BFS executions so far — one per distinct destination
            subnet actually routed toward (modulo LRU evictions).
    """

    def __init__(self, topology: Topology,
                 distance_cache_size: int = DEFAULT_DISTANCE_CACHE):
        self.topology = topology
        self.distance_cache_size = max(1, distance_cache_size)
        self.bfs_runs = 0
        self._graph_version: Optional[int] = None
        self._router_ids: List[str] = []
        self._subnet_ids: List[str] = []
        self._r_index: Dict[str, int] = {}
        self._s_index: Dict[str, int] = {}
        self._r2s = None  # CSR (ptr, ind) tuple, or list-of-lists fallback
        self._s2r = None
        # subnet index -> distance array (-1 unreachable), LRU-bounded.
        self._distance: "OrderedDict[int, object]" = OrderedDict()
        self._next_hops: Dict[Tuple[str, str], List[NextHop]] = {}

    # -- graph interning ---------------------------------------------------

    def _ensure_graph(self) -> None:
        version = getattr(self.topology, "version", -1)
        if self._graph_version == version:
            return
        topology = self.topology
        self._router_ids = sorted(topology.routers)
        self._subnet_ids = sorted(topology.subnets)
        self._r_index = {rid: i for i, rid in enumerate(self._router_ids)}
        self._s_index = {sid: j for j, sid in enumerate(self._subnet_ids)}
        r_index = self._r_index
        edge_r: List[int] = []
        edge_s: List[int] = []
        for j, sid in enumerate(self._subnet_ids):
            for rid in topology.subnets[sid].router_ids:
                edge_r.append(r_index[rid])
                edge_s.append(j)
        if _np is not None:
            self._build_csr(edge_r, edge_s)
        else:
            self._build_lists(edge_r, edge_s)
        self._distance.clear()
        self._next_hops.clear()
        self._graph_version = version

    def _build_csr(self, edge_r: List[int], edge_s: List[int]) -> None:
        count = len(edge_r)
        r = _np.fromiter(edge_r, dtype=_np.int64, count=count)
        s = _np.fromiter(edge_s, dtype=_np.int64, count=count)
        # router -> subnets: edges are generated in ascending subnet-index
        # order, so a stable sort by router keeps each row sorted (matching
        # the old sorted(set(router.subnet_ids)) enumeration).
        order = _np.argsort(r, kind="stable")
        r2s_ptr = _np.zeros(len(self._router_ids) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(r, minlength=len(self._router_ids)),
                   out=r2s_ptr[1:])
        # subnet -> routers: rows sorted by router index == sorted ids.
        s_order = _np.lexsort((r, s))
        s2r_ptr = _np.zeros(len(self._subnet_ids) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(s, minlength=len(self._subnet_ids)),
                   out=s2r_ptr[1:])
        self._r2s = (r2s_ptr, s[order].astype(_np.int32))
        self._s2r = (s2r_ptr, r[s_order].astype(_np.int32))

    def _build_lists(self, edge_r: List[int], edge_s: List[int]) -> None:
        r2s: List[List[int]] = [[] for _ in self._router_ids]
        s2r: List[List[int]] = [[] for _ in self._subnet_ids]
        for r, s in zip(edge_r, edge_s):
            r2s[r].append(s)  # ascending s already
            s2r[s].append(r)
        for row in s2r:
            row.sort()
        self._r2s = r2s
        self._s2r = s2r

    def _row(self, adjacency, node: int) -> List[int]:
        """One adjacency row as a plain int list (both representations)."""
        if isinstance(adjacency, tuple):
            ptr, ind = adjacency
            return ind[ptr[node]:ptr[node + 1]].tolist()
        return adjacency[node]

    # -- distances ---------------------------------------------------------

    def _distances_to(self, subnet_index: int):
        cached = self._distance.get(subnet_index)
        if cached is not None:
            self._distance.move_to_end(subnet_index)
            return cached
        distances = self._bfs(subnet_index)
        self._distance[subnet_index] = distances
        if len(self._distance) > self.distance_cache_size:
            self._distance.popitem(last=False)
        return distances

    def _bfs(self, start: int):
        """Level-synchronous BFS from every router attached to ``start``.

        Returns per-router distances (-1 = unreachable).  The array and
        list variants visit nodes in different orders but assign identical
        distances: a subnet is always expanded at the minimal distance of
        its attached routers.
        """
        self.bfs_runs += 1
        if isinstance(self._r2s, tuple):
            return self._bfs_arrays(start)
        return self._bfs_lists(start)

    def _bfs_arrays(self, start: int):
        r2s_ptr, r2s_ind = self._r2s
        s2r_ptr, s2r_ind = self._s2r
        distances = _np.full(len(self._router_ids), -1, dtype=_np.int32)
        subnet_seen = _np.zeros(len(self._subnet_ids), dtype=bool)
        subnet_seen[start] = True
        # Dedupe scratch: one slot per node, written with each element's
        # position; an element is kept when its slot still holds its own
        # position (exactly one occurrence per value survives).  Linear,
        # unlike the sort behind np.unique; the frontier order it leaves
        # never changes the distances assigned per level.
        router_slot = _np.empty(len(self._router_ids), dtype=_np.int64)
        subnet_slot = _np.empty(len(self._subnet_ids), dtype=_np.int64)
        frontier = s2r_ind[s2r_ptr[start]:s2r_ptr[start + 1]]
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
        return distances

    def _bfs_lists(self, start: int) -> List[int]:
        r2s, s2r = self._r2s, self._s2r
        distances = [-1] * len(self._router_ids)
        subnet_seen = bytearray(len(self._subnet_ids))
        subnet_seen[start] = 1
        queue: deque = deque()
        for router in s2r[start]:
            distances[router] = 0
            queue.append(router)
        while queue:
            current = queue.popleft()
            depth = distances[current] + 1
            for subnet in r2s[current]:
                if subnet_seen[subnet]:
                    continue
                subnet_seen[subnet] = 1
                for neighbor in s2r[subnet]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = depth
                        queue.append(neighbor)
        return distances

    # -- public API --------------------------------------------------------

    def distance(self, router_id: str, subnet_id: str) -> Optional[int]:
        """Hops from ``router_id`` to the nearest router attached to ``subnet_id``.

        0 means the router is itself attached; None means unreachable.
        """
        self._ensure_graph()
        subnet_index = self._s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        router_index = self._r_index.get(router_id)
        if router_index is None:
            return None
        value = self._distances_to(subnet_index)[router_index]
        return None if value < 0 else int(value)

    def next_hops(self, router_id: str, subnet_id: str) -> List[NextHop]:
        """The ECMP set at ``router_id`` toward ``subnet_id`` (may be empty)."""
        self._ensure_graph()
        key = (router_id, subnet_id)
        cached = self._next_hops.get(key)
        if cached is not None:
            return cached
        subnet_index = self._s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        distances = self._distances_to(subnet_index)
        candidates: List[NextHop] = []
        router_index = self._r_index.get(router_id)
        if router_index is not None:
            own = int(distances[router_index])
            if own > 0:
                router_ids = self._router_ids
                subnet_ids = self._subnet_ids
                for via in self._row(self._r2s, router_index):
                    via_id = subnet_ids[via]
                    for neighbor in self._row(self._s2r, via):
                        if neighbor != router_index \
                                and distances[neighbor] == own - 1:
                            candidates.append(NextHop(
                                router_id=router_ids[neighbor],
                                via_subnet_id=via_id))
        self._next_hops[key] = candidates
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
