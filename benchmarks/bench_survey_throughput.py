"""Survey throughput: serial walk vs fast path vs stop sets vs shards.

Tracks the perf trajectory of the collection pipeline on the Internet2
topology in three groups of lanes:

* **engine probe rate** — the same TTL-sweep probe workload pushed through
  one engine two ways: per-probe ``send`` with the resolved-path cache
  off (every probe re-walks the routed path) and with the cache on.  The
  probe objects are built once outside the timed region for every lane,
  so the lanes compare dispatch cost, not packet allocation.  Gates: the
  cache hits (every run), fastpath >= 2x serial (full runs).
* **counters-only overhead** — the same fastpath survey with no sinks
  vs a single :class:`CounterSink` subscribed (every producer takes the
  type-only ``tally`` path, no event objects constructed) vs counters
  plus a clocked span tracer (full event construction + tree upkeep),
  interleaved best-of-reps.  Gates: <= 0.25 counters-only, <= 0.30
  counters+tracing (full runs).
* **scale lanes** — million-interface topologies from
  ``topogen.isp.scale_profiles`` built and surveyed in subprocesses
  (clean per-lane ``ru_maxrss``), recording build seconds, probes/sec,
  BFS count, and peak RSS at each budget in ``SCALE_LANES``.  Full runs
  only; ``--scale-smoke`` runs a 10^5-interface CI gate instead.
* **survey rate** — full tracenet surveys (trace + positioning +
  exploration) serial with cache off/on, instrumented, stop-set
  (Doubletree suppression: fewer probes, equivalent archive), and sharded
  over worker processes.
* **parallel accounting** — the sharded lane reports both a *cold* rate
  (probes / total wall clock, including per-shard engine builds and the
  merge) and a *warm* rate (probes / slowest shard's survey loop alone),
  so per-shard startup cost is visible instead of silently dragging the
  headline number.

Results land in ``BENCH_survey_throughput.json`` at the repo root so every
subsequent PR can diff probes/sec.  ``--smoke`` (or the pytest run) uses a
reduced target set for CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time

from repro.core import TraceNET
from repro.events import CounterSink
from repro.mapping.store import archive_to_dict
from repro.metrics import MetricsRegistry
from repro.netsim import Engine
from repro.netsim.packet import Probe
from repro.parallel import ShardedSurveyRunner, archives_equivalent
from repro.probing import StopSet
from repro.runner import SurveyRunner
from repro.topogen import internet2
from repro.topogen.isp import build_internet, scale_profiles
from repro.transport import collect_backend_metrics

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_survey_throughput.json")
SCALE_SMOKE_PATH = os.path.join(REPO_ROOT, "BENCH_scale_smoke.json")

SEED = 7
TTL_SWEEP = 12  # TTLs probed per destination in the engine lane
# The engine sweeps finish in milliseconds on the faster lanes — too
# short to time reliably.  Each timed rep repeats the sweep enough times
# to stretch the region to tens of milliseconds; rates are normalized by
# the actual probe count, so lanes with different loop counts compare
# directly.
LANE_LOOPS = {"serial": 1, "fastpath": 3}
SCALE_LANES = (100_000, 1_000_000)  # interface budgets, full runs only


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is reported in kilobytes on Linux and in bytes on macOS
    — normalize so the persisted artifact is platform-independent.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage if sys.platform == "darwin" else usage * 1024


def engine_probe_rates(network, targets, reps: int = 5) -> dict:
    """Push a survey-shaped (dst, ttl) workload through two engines:
    per-probe sends with the resolved-path cache off and on.

    The probe list is built once, outside every timed region — both
    lanes dispatch the *same* prebuilt objects, so the comparison isolates
    engine dispatch cost.  One un-timed warmup pass per engine populates
    the lazily-built routing table and, on the cached engines, the path
    memo.  The sweep is then timed ``reps`` times per engine with the
    lanes *interleaved* — serial rep, fastpath rep, serial rep, ... — so a systematic slowdown mid-bench (CPU throttling, a noisy
    neighbour) hits every lane equally instead of whichever ran last.  The fast
    lanes finish a single sweep in milliseconds, so each timed rep runs
    the sweep ``LANE_LOOPS[lane]`` times and rates are normalized by the
    probes actually sent.  Each lane reports its fastest rep, the
    noise-robust steady-state figure, exactly as ``timeit`` does; GC is
    paused inside the timed regions for the same reason.
    """
    from repro.netsim import EngineStats

    src = network.topology.hosts["utdallas"].address
    probes = [Probe(src=src, dst=dst, ttl=ttl)
              for dst in targets for ttl in range(1, TTL_SWEEP + 1)]
    engines = {
        "serial": Engine(network.topology, policy=network.policy,
                         path_cache=False),
        "fastpath": Engine(network.topology, policy=network.policy,
                           path_cache=True),
    }

    def sweep(engine, loops):
        send = engine.send
        for _ in range(loops):
            for probe in probes:
                send(probe)

    rep_seconds = {lane: [] for lane in engines}
    gc_was_enabled = gc.isenabled()
    for lane, engine in engines.items():
        sweep(engine, 1)  # warmup: routing BFS + (if enabled) memo
    for _ in range(reps):
        for lane, engine in engines.items():
            engine.stats = EngineStats()
            gc.collect()
            gc.disable()
            started = time.perf_counter()
            sweep(engine, LANE_LOOPS[lane])
            rep_seconds[lane].append(time.perf_counter() - started)
            if gc_was_enabled:
                gc.enable()
    lanes = {}
    for lane, engine in engines.items():
        elapsed = min(rep_seconds[lane])
        sent = engine.stats.probes_sent  # identical across reps
        lanes[lane] = {
            "probes": sent,
            "seconds": round(elapsed, 4),
            "rep_seconds": [round(s, 4) for s in rep_seconds[lane]],
            "probes_per_sec": round(sent / elapsed, 1),
            "path_cache_hits": engine.stats.path_cache_hits,
            "path_cache_misses": engine.stats.path_cache_misses,
            "hit_rate": round(engine.stats.path_cache_hits / max(1, sent), 4),
        }
    return lanes


def serial_survey(network, targets, path_cache: bool, metrics=None,
                  stop_set=None, vantage: str = "utdallas"):
    engine = Engine(network.topology, policy=network.policy,
                    path_cache=path_cache)
    tool = TraceNET(engine, vantage, stop_set=stop_set)
    runner = SurveyRunner(tool, metrics=metrics)
    started = time.perf_counter()
    runner.run(targets)
    elapsed = time.perf_counter() - started
    if metrics is not None:
        collect_backend_metrics(metrics.backend, tool.transport)
    sent = tool.prober.stats.sent
    lane = {
        "probes": sent,
        "seconds": round(elapsed, 4),
        "probes_per_sec": round(sent / elapsed, 1),
        "targets": len(targets),
        "path_cache": path_cache,
        "engine_path_cache_hits": engine.stats.path_cache_hits,
    }
    if stop_set is not None:
        lane["suppressed"] = tool.prober.stats.suppressed
        lane["stop_set"] = stop_set.counters()
    return lane, runner.archive


def parallel_survey(network, targets, workers: int):
    runner = ShardedSurveyRunner.from_network(
        network.topology, network.policy, "utdallas", workers=workers)
    started = time.perf_counter()
    outcome = runner.run(targets)
    elapsed = time.perf_counter() - started
    sent = outcome.stats.sent
    slowest = max((s.build_seconds + s.survey_seconds
                   for s in outcome.shards), default=elapsed)
    # Warm rate: the survey loops alone, per-shard engine builds excluded.
    # That is the steady-state shard throughput a long survey converges to;
    # the cold rate charges the full wall clock (spec + builds + merge).
    slowest_survey = max((s.survey_seconds for s in outcome.shards),
                         default=elapsed)
    startup = sum(s.build_seconds for s in outcome.shards)
    lane = {
        "workers": outcome.workers,
        "executed_inline": outcome.executed_inline,
        "probes": sent,
        "seconds": round(elapsed, 4),
        "cold_probes_per_sec": round(sent / elapsed, 1),
        "warm_probes_per_sec": round(sent / max(1e-9, slowest_survey), 1),
        "shard_build_seconds_total": round(startup, 4),
        "slowest_shard_seconds": round(slowest, 4),
        "slowest_shard_survey_seconds": round(slowest_survey, 4),
        "shards": [
            {
                "shard": s.shard_index,
                "targets": len(s.targets),
                "probes": s.stats.sent,
                "build_seconds": round(s.build_seconds, 4),
                "survey_seconds": round(s.survey_seconds, 4),
            }
            for s in outcome.shards
        ],
    }
    # Back-compat alias: "probes_per_sec" stays the cold (wall-clock) rate.
    lane["probes_per_sec"] = lane["cold_probes_per_sec"]
    return lane, outcome.archive


def archive_bytes(archive) -> str:
    """The canonical serialized archive, for byte-identity gates."""
    return json.dumps(archive_to_dict(archive), sort_keys=True)


def counters_overhead(network, targets, reps: int = 5) -> dict:
    """Measured cost of counter-only and counters+tracing subscription.

    Runs the same fastpath survey three ways: no sinks attached, a single
    :class:`CounterSink` subscribed, and the counter sink plus a clocked
    :class:`SpanBuilder`.  The counter sink declares payload interest only
    in ``HeuristicFired``, so every hot-path producer takes the bus's
    type-only ``tally`` branch and never constructs an event object — that
    lane measures the dispatch-mask bookkeeping itself.  The tracing arm
    forces full event construction (the span builder consumes payloads for
    most types) plus per-event tree maintenance and a ``perf_counter``
    stamp per structural boundary, so it bounds the cost of running a
    survey with ``--spans-out`` live.

    The three arms are *interleaved* ``reps`` times and each reports its
    fastest rep before the overhead ratios are taken.  That is essential
    on a shared box: a single pair of runs can swing ±30% with noise,
    dwarfing the few-percent signal, while best-of-reps converges on the
    steady-state rate for every arm.
    """
    from repro.tracing import SpanBuilder

    def one_survey(mode: str):
        engine = Engine(network.topology, policy=network.policy,
                        path_cache=True)
        tool = TraceNET(engine, "utdallas")
        sink = None
        if mode in ("counters", "tracing"):
            sink = CounterSink()
            tool.events.subscribe(sink)
        tracer = None
        if mode == "tracing":
            tracer = SpanBuilder(clock=time.perf_counter)
            tool.events.subscribe(tracer)
        runner = SurveyRunner(tool)
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        runner.run(targets)
        elapsed = time.perf_counter() - started
        gc.enable()
        if tracer is not None:
            tracer.finish()
        return tool.prober.stats.sent / elapsed, sink

    rates = {"plain": [], "counters": [], "tracing": []}
    counts = {}
    for _ in range(reps):
        for mode in ("plain", "counters", "tracing"):
            rate, sink = one_survey(mode)
            rates[mode].append(rate)
            if mode == "counters":
                counts = dict(sink.counts)  # identical across reps
    overhead = 1 - max(rates["counters"]) / max(rates["plain"])
    tracing_overhead = 1 - max(rates["tracing"]) / max(rates["plain"])
    return {
        "reps": reps,
        "plain_probes_per_sec": [round(r, 1) for r in rates["plain"]],
        "counter_probes_per_sec": [round(r, 1) for r in rates["counters"]],
        "tracing_probes_per_sec": [round(r, 1) for r in rates["tracing"]],
        "best_plain": round(max(rates["plain"]), 1),
        "best_counters": round(max(rates["counters"]), 1),
        "best_tracing": round(max(rates["tracing"]), 1),
        "overhead": round(overhead, 4),
        "tracing_overhead": round(tracing_overhead, 4),
        "event_counts": counts,
    }


def scale_lane(interfaces: int, target_count: int = 50,
               seed: int = SEED) -> dict:
    """Build an ``interfaces``-budget internet and survey 50 targets.

    Exercises the scale path end to end: array-backed topology
    construction (``validate=False`` skips the O(interfaces) flood fill —
    the same profiles are validated once by the scale smoke), the
    interned lazy routing table (one BFS per destination subnet,
    LRU-bounded), and the serial collection pipeline.  Reports
    build and survey wall clock, probes/sec, BFS count, and the process
    peak RSS.
    """
    build_started = time.perf_counter()
    network = build_internet(seed=seed, profiles=scale_profiles(interfaces),
                             validate=False)
    build_seconds = time.perf_counter() - build_started
    topology = network.topology
    built = sum(len(subnet.addresses) for subnet in topology.subnets.values())
    grouped = network.targets_proportional(seed=seed, total=target_count)
    targets = sorted(address for addresses in grouped.values()
                     for address in addresses)[:target_count]
    vantage = sorted(network.vantages)[0]
    engine = Engine(topology, policy=network.policy, path_cache=True)
    tool = TraceNET(engine, vantage)
    runner = SurveyRunner(tool)
    survey_started = time.perf_counter()
    runner.run(targets)
    survey_seconds = time.perf_counter() - survey_started
    sent = tool.prober.stats.sent
    return {
        "interfaces_requested": interfaces,
        "interfaces_built": built,
        "routers": len(topology.routers),
        "subnets": len(topology.subnets),
        "targets": len(targets),
        "build_seconds": round(build_seconds, 2),
        "survey_seconds": round(survey_seconds, 2),
        "probes": sent,
        "probes_per_sec": round(sent / max(1e-9, survey_seconds), 1),
        "subnets_collected": len(runner.archive.subnets),
        "bfs_runs": engine.routing.bfs_runs,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def scale_lane_subprocess(interfaces: int) -> dict:
    """Run :func:`scale_lane` in a child interpreter and parse its JSON.

    ``ru_maxrss`` is a process-lifetime high-water mark: after the 10^6
    build, the parent's peak would contaminate every smaller lane.  Each
    scale lane therefore gets its own process and reports on stdout.
    """
    env = dict(os.environ)
    src_path = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_path if not existing
                         else src_path + os.pathsep + existing)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--scale-lane", str(interfaces)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale lane {interfaces} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def scale_smoke(interfaces: int = 100_000, target_count: int = 50,
                seed: int = SEED) -> dict:
    """CI-sized scale gate: 10^5-interface build, equivalence-checked survey.

    Builds the smaller scale profile (structural validation *on* — this is
    the lane that proves the generated topology is well-formed), surveys
    the same 50 targets with the engine's resolved-path memo on (metrics
    registry + probe-economy auditor attached) and off (the plain
    hop-by-hop walk, the reference), and asserts the two archives
    serialize to the same bytes with a clean auditor.  The result lands in
    ``BENCH_scale_smoke.json`` for CI to archive.
    """
    build_started = time.perf_counter()
    network = build_internet(seed=seed, profiles=scale_profiles(interfaces))
    build_seconds = time.perf_counter() - build_started
    grouped = network.targets_proportional(seed=seed, total=target_count)
    targets = sorted(address for addresses in grouped.values()
                     for address in addresses)[:target_count]
    vantage = sorted(network.vantages)[0]
    registry = MetricsRegistry()
    memo_lane, memo_archive = serial_survey(
        network, targets, path_cache=True, metrics=registry,
        vantage=vantage)
    walk_lane, walk_archive = serial_survey(
        network, targets, path_cache=False, vantage=vantage)
    result = {
        "bench": "scale_smoke",
        "seed": seed,
        "interfaces_requested": interfaces,
        "routers": len(network.topology.routers),
        "subnets": len(network.topology.subnets),
        "build_seconds": round(build_seconds, 2),
        "targets": len(targets),
        "survey": {"memo": memo_lane, "walk": walk_lane},
        "memo_equals_walk_bytes": (archive_bytes(memo_archive)
                                   == archive_bytes(walk_archive)),
        "overhead_violations": registry.value("overhead_violations_total"),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    with open(SCALE_SMOKE_PATH, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    assert result["memo_equals_walk_bytes"], (
        "scale smoke: memo archive is not byte-identical to the walk's")
    assert result["overhead_violations"] == 0, (
        "scale smoke: the probe-economy auditor flagged the memo survey")
    return result


def run(smoke: bool = False, workers: int = 2) -> dict:
    network = internet2.build(seed=SEED)
    if smoke:
        targets = internet2.targets(network, seed=SEED)[:20]
    else:
        targets = network.pick_targets(random.Random(SEED ^ 0x5EED),
                                       per_subnet=5)

    engine_lanes = engine_probe_rates(network, targets)
    engine_serial = engine_lanes["serial"]
    engine_fast = engine_lanes["fastpath"]
    counters = counters_overhead(network, targets)
    survey_slow, _ = serial_survey(network, targets, path_cache=False)
    survey_fast, serial_archive = serial_survey(network, targets,
                                                path_cache=True)
    # Same fastpath configuration with the metrics registry + auditor
    # attached: the rate delta against the bare lane is the measured cost
    # of event emission, and the registry snapshot lands in the artifact.
    registry = MetricsRegistry()
    survey_metered, metered_archive = serial_survey(network, targets,
                                                    path_cache=True,
                                                    metrics=registry)
    # Stop-set mode: probe-economy-changing by design (probes only go
    # down), map-equal on the reference networks.
    stop_set = StopSet()
    survey_stopset, stopset_archive = serial_survey(network, targets,
                                                    path_cache=True,
                                                    stop_set=stop_set)
    survey_parallel, parallel_archive = parallel_survey(network, targets,
                                                        workers=workers)
    parallel_equal = archives_equivalent(serial_archive, parallel_archive)
    metered_equal = archives_equivalent(serial_archive, metered_archive)
    stopset_equal = archives_equivalent(serial_archive, stopset_archive)
    instrumentation_overhead = round(
        1 - (survey_metered["probes_per_sec"]
             / max(1e-9, survey_fast["probes_per_sec"])), 4)

    speedup = (engine_fast["probes_per_sec"]
               / max(1e-9, engine_serial["probes_per_sec"]))
    result = {
        "bench": "survey_throughput",
        "topology": "internet2",
        "seed": SEED,
        "smoke": smoke,
        "targets": len(targets),
        "ttl_sweep": TTL_SWEEP,
        "probes_per_sec": {
            "serial": engine_serial["probes_per_sec"],
            "fastpath": engine_fast["probes_per_sec"],
            "parallel": survey_parallel["cold_probes_per_sec"],
            "parallel_warm": survey_parallel["warm_probes_per_sec"],
        },
        "fastpath_speedup": round(speedup, 2),
        "engine": {"serial": engine_serial, "fastpath": engine_fast},
        "counters_only": counters,
        # Fractional rate cost when only counter sinks are subscribed:
        # every producer takes the type-only tally path.
        "counters_only_overhead": counters["overhead"],
        # Counter sink + clocked SpanBuilder: full event construction and
        # span-tree maintenance — the live cost of `survey --spans-out`.
        "counters_tracing_overhead": counters["tracing_overhead"],
        "survey": {
            "serial": survey_slow,
            "fastpath": survey_fast,
            "instrumented": survey_metered,
            "stopset": survey_stopset,
            "parallel": survey_parallel,
        },
        "parallel_equals_serial": parallel_equal,
        "instrumented_equals_serial": metered_equal,
        # Stop sets change the probe economy, not the map.
        "stopset_equals_serial": stopset_equal,
        "stopset_probes_saved": (survey_fast["probes"]
                                 - survey_stopset["probes"]),
        # Fractional survey-rate cost of attaching the registry + auditor.
        "instrumentation_overhead": instrumentation_overhead,
        # Full registry of the instrumented lane: session metrics
        # (counters/histograms from the event stream, auditor included)
        # plus the engine's backend counters and timing spans.
        "metrics": registry.full_snapshot(),
        "overhead_violations": registry.value("overhead_violations_total"),
    }
    if not smoke:
        # Scale lanes are isolated in child interpreters so each reports
        # its own peak RSS; see scale_lane_subprocess.
        result["scale"] = {str(budget): scale_lane_subprocess(budget)
                           for budget in SCALE_LANES}
    return result


def write_result(result: dict) -> str:
    with open(RESULT_PATH, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return RESULT_PATH


def check(result: dict, smoke: bool) -> None:
    assert result["parallel_equals_serial"], (
        "parallel archive diverged from the serial archive")
    assert result["instrumented_equals_serial"], (
        "attaching metrics changed the collected archive")
    assert result["stopset_equals_serial"], (
        "stop sets changed the collected map, not just the probe economy")
    assert result["stopset_probes_saved"] > 0, (
        "stop sets sent no fewer probes than the serial survey "
        f"(saved {result['stopset_probes_saved']})")
    assert result["engine"]["fastpath"]["hit_rate"] > 0, (
        "fast path never hit — cache not engaged")
    assert result["overhead_violations"] == 0, (
        "the reference survey tripped the probe-economy auditor")
    session = result["metrics"]["metrics"]["counters"]
    backend = result["metrics"]["backend"]["gauges"]
    assert session["probes_sent_total"] == backend["engine_probes_sent"], (
        "event-stream probe count diverged from the engine's own counter")
    if not smoke:
        assert result["fastpath_speedup"] >= 2.0, (
            f"fast path is only {result['fastpath_speedup']}x serial")
        assert result["counters_only_overhead"] <= 0.25, (
            f"counter-only instrumentation costs "
            f"{result['counters_only_overhead']:.1%} of survey rate")
        assert result["counters_tracing_overhead"] <= 0.30, (
            f"counters + span tracing costs "
            f"{result['counters_tracing_overhead']:.1%} of survey rate")
        for budget, lane in result["scale"].items():
            assert lane["probes"] > 0 and lane["subnets_collected"] > 0, (
                f"scale lane {budget} collected nothing")
            assert lane["peak_rss_bytes"] > 0, (
                f"scale lane {budget} reported no peak RSS")


def test_survey_throughput():
    """Smoke lane for CI: tiny target set, correctness gates only."""
    result = run(smoke=True)
    write_result(result)
    check(result, smoke=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny target set (CI)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale-lane", type=int, default=None, metavar="N",
                        help="run one N-interface scale lane, print JSON "
                             "(used by the parent bench via subprocess)")
    parser.add_argument("--scale-smoke", action="store_true",
                        help="10^5-interface CI gate; writes "
                             "BENCH_scale_smoke.json")
    args = parser.parse_args(argv)
    if args.scale_lane:
        print(json.dumps(scale_lane(args.scale_lane), sort_keys=True))
        return 0
    if args.scale_smoke:
        result = scale_smoke()
        print(f"scale smoke: {result['interfaces_requested']} interfaces, "
              f"{result['routers']} routers built in "
              f"{result['build_seconds']}s; memo survey sent "
              f"{result['survey']['memo']['probes']} probes in "
              f"{result['survey']['memo']['seconds']}s, walk "
              f"{result['survey']['walk']['seconds']}s "
              f"(archive bytes equal: "
              f"{result['memo_equals_walk_bytes']}, "
              f"auditor violations: {result['overhead_violations']})")
        print(f"wrote {SCALE_SMOKE_PATH}")
        return 0
    result = run(smoke=args.smoke, workers=args.workers)
    path = write_result(result)
    check(result, smoke=args.smoke)
    rates = result["probes_per_sec"]
    print(f"targets: {result['targets']}  (smoke={result['smoke']})")
    print(f"engine probes/sec: serial {rates['serial']:.0f} "
          f"-> fastpath {rates['fastpath']:.0f} "
          f"({result['fastpath_speedup']}x)")
    print(f"survey probes/sec: serial "
          f"{result['survey']['serial']['probes_per_sec']:.0f} "
          f"-> fastpath {result['survey']['fastpath']['probes_per_sec']:.0f}")
    print(f"parallel probes/sec: cold {rates['parallel']:.0f} "
          f"-> warm {rates['parallel_warm']:.0f} "
          f"({result['survey']['parallel']['workers']} workers, "
          f"{result['survey']['parallel']['shard_build_seconds_total']:.2f}s "
          f"shard startup)")
    stopset = result["survey"]["stopset"]
    print(f"stop sets: {stopset['suppressed']} probes suppressed, "
          f"{result['stopset_probes_saved']} fewer on the wire "
          f"(archive equivalent: {result['stopset_equals_serial']})")
    print(f"instrumented survey: "
          f"{result['survey']['instrumented']['probes_per_sec']:.0f} "
          f"probes/sec ({result['instrumentation_overhead']:.1%} metrics "
          f"overhead), {result['overhead_violations']} auditor violations")
    print(f"counters-only overhead: "
          f"{result['counters_only_overhead']:.1%}, "
          f"counters+tracing: {result['counters_tracing_overhead']:.1%} "
          f"(best-of-{result['counters_only']['reps']} interleaved)")
    for budget, lane in sorted(result.get("scale", {}).items(),
                               key=lambda item: int(item[0])):
        print(f"scale {budget}: {lane['interfaces_built']} interfaces "
              f"built in {lane['build_seconds']}s, survey "
              f"{lane['probes_per_sec']:.0f} probes/sec "
              f"({lane['bfs_runs']} BFS, "
              f"{lane['peak_rss_bytes'] / 2**30:.2f} GiB peak RSS)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
