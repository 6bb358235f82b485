"""Differential tests for the engine's memo replay against the plain walk.

The contract: a ``send`` loop over the resolved-path memo and a cache-off
engine (the plain hop-by-hop walk, the reference) are packet-for-packet
identical — same responses, same IP-ID streams, same rate-limit bucket
drains, same record-route stamps.
"""

from conftest import address_on
from repro.netsim import (
    Engine,
    IndirectConfig,
    IpIdMode,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    ResponsePolicy,
    TopologyBuilder,
)

def chain(n=6, policy=None, **engine_kwargs):
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


def signature(response):
    if response is None:
        return None
    return (response.kind, response.source, response.responder,
            response.ip_id, response.record_route)


def ladder(topo, dsts, ttls=range(1, 7), repeats=3, flows=(0,),
           record_route=(False,)):
    """A survey-shaped probe sequence: repeated TTL sweeps per target."""
    src = topo.hosts["v"].address
    return [
        Probe(src=src, dst=address_on(topo, *name), ttl=ttl,
              flow_id=flow, record_route=rr)
        for _ in range(repeats)
        for name in dsts
        for ttl in ttls
        for flow in flows
        for rr in record_route
    ]


#: lane -> engine options; ``walk`` is the cache-off reference.
LANES = (("walk", {"path_cache": False}),
         ("serial", {}))


def dispatch(make_engine, probes_of):
    """Run one probe sequence through the walk and memo ``send`` lanes.

    ``make_engine`` must build everything fresh per call (rate-limit
    buckets are stateful across engines sharing a policy object).
    """
    streams, engines = {}, {}
    for lane, kwargs in LANES:
        engine, topo = make_engine(**kwargs)
        responses = [engine.send(p) for p in probes_of(topo)]
        streams[lane] = [signature(r) for r in responses]
        engines[lane] = engine
    assert streams["serial"] == streams["walk"]
    assert engines["serial"].clock == engines["walk"].clock
    return streams, engines


class TestBulkEquivalence:
    def test_matches_serial_on_chain(self):
        _, engines = dispatch(
            chain,
            lambda topo: ladder(topo, [("R5", "R4"), ("R3", "R2"),
                                       ("R2", "R1")]))
        assert engines["serial"].stats.path_cache_hits > 0

    def test_multiple_flows_keyed_separately(self):
        _, engines = dispatch(
            chain,
            lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R3")],
                                flows=(0, 3, 7)))
        assert engines["serial"].stats.path_cache_misses == 6

    def test_rate_limited_bucket_drains_identically(self):
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return chain(policy=policy, **kw)

        streams, _ = dispatch(
            limited,
            lambda topo: ladder(topo, [("R5", "R4")], ttls=(2,),
                                repeats=40))
        assert None in streams["walk"]          # the bucket did drain
        assert any(s is not None for s in streams["walk"])

    def test_nil_router_and_random_ip_id(self):
        def configured(**kw):
            engine, topo = chain(**kw)
            topo.routers["R2"].indirect_config = IndirectConfig.NIL
            topo.routers["R3"].ip_id_mode = IpIdMode.RANDOM
            engine.clear_path_cache()
            return engine, topo

        streams, _ = dispatch(
            configured,
            lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R3")]))
        # The NIL router stays silent on indirect probes (ttl=2 expires at
        # R2), while deeper hops — including the RANDOM-IP-ID one — answer.
        assert None in streams["walk"]
        assert any(s is not None and s[2] == "R3" for s in streams["walk"])

    def test_record_route_probes_take_the_slow_path(self):
        streams, engines = dispatch(
            chain,
            lambda topo: ladder(topo, [("R5", "R4")],
                                record_route=(False, True)))
        # Record-route probes replay their stamps from the same memo.
        assert any(s is not None and s[4] for s in streams["walk"])
        assert engines["serial"].stats.path_cache_hits > 0

    def test_per_packet_balancer_preserves_rng_stream(self):
        streams, engines = dispatch(
            lambda **kw: diamond(LoadBalancingMode.PER_PACKET, **kw),
            lambda topo: ladder(topo, [("R5", "R4")], ttls=(2,),
                                repeats=48))
        responders = {s[2] for s in streams["serial"] if s is not None}
        assert responders == {"R2", "R3"}
        # Per-packet flows are uncacheable: every probe after first
        # contact takes the walk, never the memo.
        stats = engines["serial"].stats
        assert stats.path_cache_hits == 0
        assert stats.path_cache_uncacheable == 47

    def test_per_flow_balancer_is_cached(self):
        _, engines = dispatch(
            lambda **kw: diamond(LoadBalancingMode.PER_FLOW, **kw),
            lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R5")],
                                flows=(0, 5)))
        stats = engines["serial"].stats
        assert stats.path_cache_hits > 0
        assert stats.path_cache_uncacheable == 0

    def test_misses_interleaved_mid_batch(self):
        # New destinations first appear between memo hits, so the memo
        # must answer first contacts in the middle of a warm stream.
        def probes_of(topo):
            warm = ladder(topo, [("R5", "R4")], repeats=8)
            cold = ladder(topo, [("R3", "R2")], repeats=1)
            head, tail = warm[:16], warm[16:]
            return head + cold + tail

        _, engines = dispatch(chain, probes_of)
        stats = engines["serial"].stats
        assert stats.path_cache_hits > 0
        assert stats.path_cache_misses == 2


class TestRateLimitedNilOrdering:
    def test_token_state_matches_serial(self):
        # Regression: a batch loop once checked the NIL (source=None)
        # plan before drawing the rate-limit bucket, leaving a silenced,
        # rate-limited router's token state ahead of a serial run.  The
        # bucket must be consumed first, exactly as the walk does.
        def run(lane, kwargs):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=3, refill_per_tick=0.1)
            policy.silence_router("R2")
            engine, topo = chain(policy=policy, **kwargs)
            probes = ladder(topo, [("R5", "R4")], ttls=(2, 3), repeats=30)
            responses = [engine.send(p) for p in probes]
            bucket = policy._rate_limiters["R2"]
            return ([signature(r) for r in responses],
                    (bucket.tokens, bucket.last_tick))

        runs = {lane: run(lane, kwargs) for lane, kwargs in LANES}
        walk_stream, walk_bucket = runs["walk"]
        stream, bucket = runs["serial"]
        assert stream == walk_stream
        assert bucket == walk_bucket
        # R2 never answers (silenced), deeper hops still do.
        assert all(s is None or s[2] != "R2" for s in walk_stream)
        assert any(s is not None for s in walk_stream)
