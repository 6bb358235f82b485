"""Survey benchmark: end-to-end survey metrics and a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload crossval-isp --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run that wraps each layer's entry
points (see layers.py) and reports per-layer self times and counts.  Every
run checks the program's outputs; a failed check fails the run (exit 1).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its raw
values and environment to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("crossval-isp", "scale-1e5", "service-persisted")
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPS = {"crossval-isp": 15, "scale-1e5": 3, "service-persisted": 15}
#: Percentiles tried for trace_ms_tail, highest first; the first one with
#: at least TAIL_BEYOND samples above it is reported.
TAIL_PERCENTILES = (99, 90, 75)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "targets_per_s": "1/s",
    "probes_per_s": "1/s",
    "trace_ms_p50": "ms",
    "trace_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "probes_per_target": "count",
    "exact_match_pct": "%",
}

PER_LAYER_UNITS = {
    "engine.s": "s",
    "engine.hit_us": "us",
    "engine.miss_us": "us",
    "engine.misses": "count",
    "engine.miss_share": "ratio",
    "engine.miss_subnet_keys": "count",
    "engine.subnet_memo_share": "ratio",
    "routing.bfs_runs": "count",
    "routing.s": "s",
    "transport.self_s": "s",
    "prober.calls": "count",
    "prober.self_s": "s",
    "prober.cache_hit_ratio": "ratio",
    "tracenet.self_s": "s",
    "collection.self_s": "s",
    "collection.probes": "count",
    "positioning.calls": "count",
    "positioning.self_s": "s",
    "positioning.probes": "count",
    "exploration.calls": "count",
    "exploration.self_s": "s",
    "exploration.probes": "count",
    "heuristics.evaluations": "count",
    "heuristics.self_s": "s",
    "heuristics.probes": "count",
    "sinks.events": "count",
    "sinks.s": "s",
    "store.checkpoints": "count",
    "store.checkpoint_s": "s",
    "store.checkpoint_bytes": "bytes",
    "service.lease_wait_s": "s",
    "service.empty_leases": "count",
    "service.stream_calls": "count",
    "service.commit_s": "s",
    "service.merge_s": "s",
    "shard.build_s": "s",
    "shard.survey_s": "s",
    "topogen.build_s": "s",
    "replay.collector_s": "s",
    "residual_share": "ratio",
    "trace_overhead_ratio": "ratio",
}


# -- statistics ----------------------------------------------------------------


def percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(ordered: List[float]) -> Tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest reportable tail."""
    for pct in TAIL_PERCENTILES:
        value = percentile(ordered, pct)
        beyond = sum(1 for sample in ordered if sample > value)
        if beyond >= TAIL_BEYOND:
            return value, pct, beyond
    return ordered[-1], 100, 0


def peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / (2 ** 20) if sys.platform == "darwin" else usage / 1024


# -- environment -----------------------------------------------------------------


def environment(seed: int) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.netsim import engine, routing

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for directory, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    source.update(name.encode())
                    source.update(handle.read())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_imported": numpy_version is not None,
        "numpy_version": numpy_version,
        "engine_numpy_path": engine._np is not None,
        "routing_numpy_path": routing._np is not None,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, seed: int, reps: int):
    """Run set-up ``reps`` times; return the last inputs and every time."""
    import workloads as w

    times = []
    inputs = None
    for _ in range(reps):
        inputs = None
        gc.collect()
        started = perf_counter()
        if workload == "crossval-isp":
            inputs = w.setup_crossval(seed)
        elif workload == "scale-1e5":
            inputs = w.setup_scale(seed)
        else:
            inputs = w.setup_service(
                seed, os.path.join(HERE, "work", f"service-{os.getpid()}"))
        times.append(perf_counter() - started)
    return inputs, times


def one_pass(workload: str, inputs, fresh: bool):
    import workloads as w

    if workload == "service-persisted":
        return w.service_pass(inputs)
    tools = None if fresh else inputs.tools
    inputs.tools = []
    return w.survey_pass(inputs, tools)


# -- end-to-end run --------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> Tuple[Dict, Dict]:
    import workloads as w

    inputs, setup_times = setup(workload, seed, SETUP_REPS[workload])
    passes = []
    started = perf_counter()
    while True:
        gc.collect()
        passes.append(one_pass(workload, inputs, fresh=bool(passes)))
        if len(passes) > 1:
            passes[-1].archives = None  # only the first pass is checked
        if perf_counter() - started >= seconds:
            break
    first = passes[0]
    checks = {"passes_identical": all(p.digest == first.digest
                                      for p in passes),
              "passes_trace_alike": all(len(p.latencies) == len(
                  first.latencies) for p in passes)}
    if workload == "service-persisted":
        accuracy, service = w.service_checks(inputs, first)
        checks.update(service)
    else:
        accuracy = w.survey_accuracy(inputs, first)
    # Each trace is the same work in every pass: averaging its time over
    # the passes averages out the shared machine's speed drift while
    # keeping one sample per trace, whatever the number of passes.
    per_trace = sorted(statistics.fmean(times)
                       for times in zip(*(p.latencies for p in passes)))
    tail_value, tail_pct, tail_beyond = tail(per_trace)
    if workload == "service-persisted":
        # Submit to last job done: the traces plus everything the service
        # does around them (checkpoints, commits, merges).
        elapsed = statistics.fmean(p.seconds for p in passes)
    else:
        elapsed = sum(per_trace)
    targets_per_s = first.targets / elapsed
    probes_per_s = first.probes / elapsed
    values = {
        "setup_s": statistics.median(setup_times),
        "targets_per_s": targets_per_s,
        "probes_per_s": probes_per_s,
        "trace_ms_p50": 1e3 * percentile(per_trace, 50),
        "trace_ms_tail": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb(),
        "probes_per_target": first.probes / first.targets,
        "exact_match_pct": accuracy.pct,
    }
    counts = {
        "setup_s": len(setup_times),
        "targets_per_s": len(passes),
        "probes_per_s": len(passes),
        "trace_ms_p50": len(per_trace),
        "trace_ms_tail": tail_beyond,
        "peak_rss_mb": 1,
        "probes_per_target": first.targets,
        "exact_match_pct": accuracy.originals,
    }
    record = {
        "passes": [{"seconds": p.seconds, "targets": p.targets,
                    "probes": p.probes, "attempted": p.attempted,
                    "failed": p.failed, "digest": p.digest,
                    "errors": p.errors} for p in passes],
        "setup_s": setup_times,
        "latencies_s": [p.latencies for p in passes],
        "trace_ms_tail_percentile": tail_pct,
        "trace_ms_tail_beyond": tail_beyond,
        "sample_counts": counts,
        "accuracy": {"exact": accuracy.exact,
                     "originals": accuracy.originals,
                     "observable": accuracy.observable,
                     "rates_pct": accuracy.rates},
        "checks": checks,
    }
    summary = {
        "correct": all(checks.values()) and not any(p.failed for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "values": values,
        "counts": counts,
        "notes": {"trace_ms_tail": f"p{tail_pct}"},
    }
    return summary, record


# -- traced run ------------------------------------------------------------------


def miss_subnet_keys(keys) -> Dict[str, int]:
    """Distinct memo keys among missed probes, per address and per subnet.

    Keys are per engine (each has its own memo).  A subnet key replaces the
    destination by the subnet containing it; a destination outside every
    subnet maps to no subnet.
    """
    address_keys = set()
    subnet_keys = set()
    outside = 0
    for engine, topology, src, dst, protocol, flow in keys:
        subnet = topology.subnet_containing(dst)
        outside += subnet is None
        address_keys.add((engine, src, dst, protocol, flow))
        subnet_keys.add((engine, src, subnet.subnet_id if subnet else None,
                         protocol, flow))
    return {"misses": len(keys), "address_keys": len(address_keys),
            "subnet_keys": len(subnet_keys), "dst_outside_subnets": outside}


def traced(workload: str, seed: int) -> Tuple[Dict, Dict]:
    import workloads as w
    from layers import SpanRecorder

    inputs, _ = setup(workload, seed, 1)
    build_s = inputs.build_s
    gc.collect()
    plain = one_pass(workload, inputs, fresh=False)
    gc.collect()
    recorder = SpanRecorder().install()
    try:
        traced_pass = one_pass(workload, inputs, fresh=True)
    finally:
        recorder.restore()
    counters = traced_pass.counters
    if workload == "service-persisted":
        tools = recorder.shard_tools
        counters = dict(counters,
                        engine_probes_sent=sum(t.engine.stats.probes_sent
                                               for t in tools),
                        prober_sent=sum(t.prober.stats.sent for t in tools),
                        prober_cache_hits=sum(t.prober.stats.cache_hits
                                              for t in tools),
                        bfs_runs=sum(t.engine.routing.bfs_runs
                                     for t in tools))
    checks = {
        "digest_untraced_equals_traced": plain.digest == traced_pass.digest,
        "sends_equal_engine_and_prober": (
            recorder.sends == counters["engine_probes_sent"]
            == counters["prober_sent"]),
        "bfs_wrapper_equals_counter": (
            recorder.totals()["routing.bfs"]["calls"] == counters["bfs_runs"]),
    }
    record: Dict = {"untraced_seconds": plain.seconds,
                    "traced_seconds": traced_pass.seconds,
                    "spans": recorder.span_count(),
                    "counters": counters,
                    "miss_keys": miss_subnet_keys(recorder.miss_keys)}
    recorder.miss_keys.clear()
    attempted = plain.attempted + traced_pass.attempted
    failed = plain.failed + traced_pass.failed
    replay_s = 0.0
    if workload == "service-persisted":
        _, service = w.service_checks(inputs, traced_pass)
        checks.update(service)
        checks["sends_equal_registry"] = (
            recorder.sends == counters["probes_sent_total"])
        checks["checkpoints_equal_registry"] = (
            recorder.layer("store", "calls")
            == counters["checkpoints_written_total"])
        checks["auditor_clean"] = counters["overhead_violations_total"] == 0
        # Every event is delivered on the worker's bus and again when the
        # coordinator commits it; both streams must match the registry.
        worker_buses = {id(tool.events) for tool in recorder.shard_tools}
        for kind, counter in (("ProbeSent", "probes_sent_total"),
                              ("TraceFinished", "traces_finished_total"),
                              ("CheckpointWritten",
                               "checkpoints_written_total")):
            for side, on_worker in (("worker", True), ("committed", False)):
                seen = sum(count for (bus, name), count
                           in recorder.events.items()
                           if name == kind
                           and (bus in worker_buses) == on_worker)
                record.setdefault("event_counts", {})[
                    f"{kind}.{side}"] = seen
                checks[f"{kind}_{side}_equals_registry"] = (
                    seen == counters[counter])
    else:
        checks["bare_run_emits_no_events"] = not recorder.events
        journals, violations, recorded_digest = w.audited_recording(inputs)
        checks["auditor_clean"] = violations == 0
        checks["digest_recorded_equals_untraced"] = (
            recorded_digest == plain.digest)
        vantages, targets = inputs.vantages, inputs.targets
        live = [w.archive_bytes(archive) for archive in plain.archives]
        inputs = plain = traced_pass = None
        gc.collect()
        replay_s, replayed = w.replay_pass(vantages, targets, journals)
        checks["replay_bytes_equal_live"] = live == [
            w.archive_bytes(archive) for archive in replayed]
    e2e_traced = record["traced_seconds"]
    e2e_plain = record["untraced_seconds"]
    values = layer_metrics(recorder, counters["prober_cache_hits"],
                           record["miss_keys"])
    self_total = sum(row["self_s"] for row in recorder.totals().values())
    values.update({
        "topogen.build_s": build_s,
        "replay.collector_s": replay_s,
        "residual_share": (e2e_traced - self_total) / e2e_traced,
        "trace_overhead_ratio": (e2e_traced - e2e_plain) / e2e_plain,
    })
    record["span_totals"] = recorder.totals()
    record["checks"] = checks
    os.makedirs(OUT, exist_ok=True)
    recorder.write(os.path.join(OUT, f"spans-{workload}.json"))
    summary = {
        "correct": all(checks.values()) and not failed,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "counts": {},
        "notes": {},
    }
    return summary, record


def layer_metrics(recorder, prober_cache_hits, miss_keys) -> Dict:
    totals = recorder.totals()

    def total(field: str, *names: str) -> float:
        return sum(totals[name][field] for name in names)

    def layer(name: str, field: str = "self_s") -> float:
        return recorder.layer(name, field)

    sends = recorder.sends
    misses = recorder.engine_misses
    hits = recorder.engine_hits
    prober_calls = layer("prober", "calls")
    subnet_keys = miss_keys["subnet_keys"]
    lease_wait, empty = recorder.lease_wait()
    return {
        "engine.s": total("inclusive_s", "engine.send", "engine.send_many"),
        "engine.hit_us": 1e6 * recorder.engine_hit_s / hits if hits else 0.0,
        "engine.miss_us": (1e6 * recorder.engine_miss_s / misses
                           if misses else 0.0),
        "engine.misses": misses,
        "engine.miss_share": misses / sends if sends else 0.0,
        "engine.miss_subnet_keys": subnet_keys,
        "engine.subnet_memo_share": ((misses - subnet_keys) / sends
                                     if sends else 0.0),
        "routing.bfs_runs": totals["routing.bfs"]["calls"],
        "routing.s": totals["routing.bfs"]["inclusive_s"],
        "transport.self_s": layer("transport"),
        "prober.calls": prober_calls,
        "prober.self_s": layer("prober"),
        "prober.cache_hit_ratio": (prober_cache_hits / prober_calls
                                   if prober_calls else 0.0),
        "tracenet.self_s": layer("tracenet"),
        "collection.self_s": layer("collection"),
        "collection.probes": layer("collection", "self_probes"),
        "positioning.calls": layer("positioning", "calls"),
        "positioning.self_s": layer("positioning"),
        "positioning.probes": layer("positioning", "self_probes"),
        "exploration.calls": layer("exploration", "calls"),
        "exploration.self_s": layer("exploration"),
        "exploration.probes": layer("exploration", "self_probes"),
        "heuristics.evaluations": layer("heuristics", "calls"),
        "heuristics.self_s": layer("heuristics"),
        "heuristics.probes": layer("heuristics", "self_probes"),
        "sinks.events": sum(recorder.events.values()),
        "sinks.s": layer("sinks"),
        "store.checkpoints": layer("store", "calls"),
        "store.checkpoint_s": layer("store", "inclusive_s"),
        "store.checkpoint_bytes": recorder.checkpoint_bytes,
        "service.lease_wait_s": lease_wait,
        "service.empty_leases": empty,
        "service.stream_calls": totals["service.stream"]["calls"],
        "service.commit_s": (total("inclusive_s", "service.stream",
                                   "service.complete")
                             - totals["service.merge"]["inclusive_s"]),
        "service.merge_s": totals["service.merge"]["inclusive_s"],
        "shard.build_s": totals["shard.build_tool"]["inclusive_s"],
        "shard.survey_s": (totals["shard.run"]["inclusive_s"]
                           - totals["shard.build_tool"]["inclusive_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    if args.trace:
        summary, record = traced(args.workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        summary, record = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    metrics = {name: {"value": summary["values"][name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        count = summary["counts"].get(name)
        note = summary["notes"].get(name)
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}"
              + (f" (n={count})" if count is not None else "")
              + (f" [{note}]" if note else ""))
    for name, ok in record["checks"].items():
        print(f"{args.workload} check {name}: {'ok' if ok else 'FAILED'}")
    os.makedirs(OUT, exist_ok=True)
    record.update(environment=env, workload=args.workload,
                  trace=args.trace, seconds=args.seconds,
                  result={"correct": summary["correct"],
                          "attempted": summary["attempted"],
                          "failed": summary["failed"],
                          "metrics": metrics})
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
