"""Command-line front end.

Because the live Internet is replaced by the simulator, every invocation
names a scenario topology to probe:

* ``tracenet trace --scenario figure2 --source A --dest D`` — one session,
  traceroute-style output with subnet annotations;
* ``tracenet survey --network internet2`` — the Table 1/2 experiment:
  trace one target per ground-truth subnet, print the distribution table
  and similarity rates;
* ``tracenet crossval`` — the Section 4.2 experiment: three vantages over
  the four-ISP internet (Figures 6–9);
* ``tracenet protocols`` — Table 3: ICMP vs UDP vs TCP;
* ``tracenet radar --network geant --churn-count 4`` — continuous
  re-surveys over a network mutating under the collector, incremental
  dirty-prefix re-probing, per-round archive diffs;
* ``tracenet diff old.json new.json`` — the offline archive diff (bit
  identical to the radar's in-run diffs).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from .baselines import Traceroute
from .core import TraceNET
from .evaluation import (
    VantageCollection,
    agreement_rates,
    annotate_unresponsive,
    collected_prefixes,
    match_subnets,
    prefix_length_histogram,
    render_distribution_table,
    render_histogram,
    render_protocol_table,
    render_similarity,
    render_venn,
    similarity_summary,
    subnets_per_group,
    venn_regions,
)
from .events import JsonlEventSink, ProgressSink
from .metrics import (
    MetricsRegistry,
    instrument,
    render_prometheus,
    stats_from_journal,
)
from .metrics.analytics import _collector_kwargs
from .netsim import Engine, Protocol, format_ip, ip
from .topogen import build_internet, figures, geant, internet2
from .transport import (
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
    collect_backend_metrics,
)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``tracenet`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracenet",
        description="TraceNET (IMC 2010) reproduction on a network simulator",
    )
    subparsers = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    trace = subparsers.add_parser("trace", help="one tracenet session")
    trace.add_argument("--scenario", choices=("figure2", "figure3"),
                       default="figure3")
    trace.add_argument("--source", default=None,
                       help="vantage host id (default: the scenario's first)")
    trace.add_argument("--dest", default=None,
                       help="destination IP (default: a far interface)")
    trace.add_argument("--protocol", choices=("icmp", "udp", "tcp"),
                       default="icmp")
    trace.add_argument("--compare-traceroute", action="store_true",
                       help="also print the plain traceroute view")
    trace.add_argument("--json", action="store_true", dest="as_json")
    _add_transport_options(trace)
    trace.set_defaults(handler=cmd_trace)

    survey = subparsers.add_parser(
        "survey", help="Table 1/2: accuracy over Internet2 or GEANT")
    survey.add_argument("--network", choices=("internet2", "geant"),
                        default="internet2")
    survey.add_argument("--seed", type=int, default=7)
    survey.add_argument("--workers", type=int, default=1,
                        help="shard the target list over N worker processes "
                             "(default: 1, serial)")
    survey.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="per-shard checkpoint directory; a re-run with "
                             "the same targets and workers resumes")
    survey.add_argument("--progress", action="store_true",
                        help="render a progress bar on stderr (serial mode)")
    _add_transport_options(survey)
    survey.set_defaults(handler=cmd_survey)

    crossval = subparsers.add_parser(
        "crossval", help="Figures 6-9: three vantages over four ISPs")
    crossval.add_argument("--seed", type=int, default=42)
    crossval.add_argument("--scale", type=float, default=0.4)
    crossval.add_argument("--targets-per-isp", type=int, default=60)
    crossval.set_defaults(handler=cmd_crossval)

    protocols = subparsers.add_parser(
        "protocols", help="Table 3: ICMP vs UDP vs TCP probing")
    protocols.add_argument("--seed", type=int, default=42)
    protocols.add_argument("--scale", type=float, default=0.4)
    protocols.add_argument("--targets-per-isp", type=int, default=60)
    protocols.set_defaults(handler=cmd_protocols)

    map_cmd = subparsers.add_parser(
        "map", help="collect, merge and print a subnet-level topology map")
    map_cmd.add_argument("--scenario", choices=("figure2", "figure3"),
                         default="figure2")
    map_cmd.add_argument("--dot", action="store_true",
                         help="emit GraphViz instead of the adjacency list")
    map_cmd.add_argument("--save", default=None, metavar="PATH",
                         help="also save the per-vantage archives as JSON")
    map_cmd.set_defaults(handler=cmd_map)

    overhead_cmd = subparsers.add_parser(
        "overhead", help="Section 3.6: measured probe cost vs the model")
    overhead_cmd.add_argument("--sizes", default="2,4,6,10,14,22",
                              help="comma-separated subnet sizes")
    overhead_cmd.set_defaults(handler=cmd_overhead)

    export_cmd = subparsers.add_parser(
        "export", help="export a ground-truth scenario (topology + policy) "
                       "as JSON")
    export_cmd.add_argument("--network", choices=("internet2", "geant"),
                            default="internet2")
    export_cmd.add_argument("--seed", type=int, default=7)
    export_cmd.add_argument("--out", required=True, metavar="PATH")
    export_cmd.set_defaults(handler=cmd_export)

    submit = subparsers.add_parser(
        "submit", help="queue a survey job for the distributed service")
    submit.add_argument("--queue", required=True, metavar="DIR",
                        help="service directory (holds queue.jsonl and "
                             "per-job artifacts)")
    submit.add_argument("--network", choices=("internet2", "geant"),
                        default="internet2")
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument("--shards", type=int, default=2,
                        help="split the target list into N shard leases")
    submit.add_argument("--limit", type=int, default=None, metavar="N",
                        help="survey only the first N targets")
    submit.add_argument("--checkpoint-every", type=int, default=25,
                        metavar="N", help="shard checkpoint cadence")
    submit.add_argument("--max-attempts", type=int, default=3, metavar="N",
                        help="lease attempts per shard before the job fails")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--stop-sets", action="store_true",
                        help="enable Doubletree stop sets per shard")
    submit.add_argument("--radar", action="store_true",
                        help="queue a radar job: continuous re-surveys "
                             "(runs as one shard; --shards is ignored)")
    submit.add_argument("--rounds", type=int, default=3,
                        help="radar rounds (with --radar)")
    submit.add_argument("--churn-count", type=int, default=4, metavar="N",
                        help="radar mutation count (0 = no churn)")
    submit.add_argument("--churn-seed", type=int, default=7)
    submit.add_argument("--churn-start", type=int, default=200,
                        metavar="PROBES")
    submit.add_argument("--churn-interval", type=int, default=400,
                        metavar="PROBES")
    submit.add_argument("--drop-rate", type=float, default=0.0,
                        help="radar fault-injection loss rate")
    submit.add_argument("--fault-seed", type=int, default=0)
    submit.set_defaults(handler=cmd_submit)

    serve = subparsers.add_parser(
        "serve", help="run the survey service: drain the queue with a "
                      "fleet of vantage workers")
    serve.add_argument("--queue", required=True, metavar="DIR",
                       help="service directory written by 'tracenet submit'")
    serve.add_argument("--workers", type=int, default=2,
                       help="vantage workers in the fleet (default: 2)")
    serve.add_argument("--heartbeat-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="re-lease a shard after this long without a "
                            "worker heartbeat")
    serve.add_argument("--timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="abort the fleet after this wall-clock budget")
    serve.add_argument("--stream-every", type=int, default=64, metavar="N",
                       help="worker event-stream flush cadence")
    serve.add_argument("--kill-worker-after", type=int, default=None,
                       metavar="N",
                       help="fault injection: the first worker dies "
                            "silently after N survey targets (exercises "
                            "re-lease + checkpoint resume)")
    serve.add_argument("--health-out", default=None, metavar="PATH",
                       help="publish fleet health telemetry (queue depth, "
                            "lease ages, heartbeat lag) as Prometheus text "
                            "to this file on every fleet tick")
    serve.set_defaults(handler=cmd_serve)

    radar = subparsers.add_parser(
        "radar", help="continuous re-surveys over a churning network with "
                      "incremental dirty-prefix re-probing")
    radar.add_argument("--network", choices=("internet2", "geant"),
                       default="geant")
    radar.add_argument("--seed", type=int, default=7)
    radar.add_argument("--rounds", type=int, default=3,
                       help="total rounds including the initial full survey")
    radar.add_argument("--limit", type=int, default=None, metavar="N",
                       help="survey only the first N targets")
    radar.add_argument("--full", action="store_true",
                       help="re-probe every target every round instead of "
                            "only the dirty prefixes")
    radar.add_argument("--churn-count", type=int, default=4, metavar="N",
                       help="mutations in the seeded schedule (0 disables "
                            "churn entirely)")
    radar.add_argument("--churn-seed", type=int, default=7)
    radar.add_argument("--churn-start", type=int, default=200,
                       metavar="PROBES",
                       help="probe count at which the first mutation fires")
    radar.add_argument("--churn-interval", type=int, default=400,
                       metavar="PROBES", help="probes between mutations")
    radar.add_argument("--drop-rate", type=float, default=0.0,
                       help="seeded uniform response loss on the live path")
    radar.add_argument("--fault-seed", type=int, default=0)
    radar.add_argument("--out", default=None, metavar="DIR",
                       help="save per-round archives, diffs and the radar "
                            "summary there")
    radar.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the radar summary as JSON")
    _add_transport_options(radar)
    radar.set_defaults(handler=cmd_radar)

    diff_cmd = subparsers.add_parser(
        "diff", help="diff two collection archives offline (radar rounds, "
                     "checkpoints, service results)")
    diff_cmd.add_argument("old", metavar="OLD", help="earlier archive JSON")
    diff_cmd.add_argument("new", metavar="NEW", help="later archive JSON")
    diff_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the full diff as JSON instead of the "
                               "summary paragraph")
    diff_cmd.add_argument("--out", default=None, metavar="PATH",
                          help="also write the diff JSON there")
    diff_cmd.set_defaults(handler=cmd_diff)

    jobs_cmd = subparsers.add_parser(
        "jobs", help="list the jobs in a service queue")
    jobs_cmd.add_argument("--queue", required=True, metavar="DIR")
    jobs_cmd.set_defaults(handler=cmd_jobs)

    stats_cmd = subparsers.add_parser(
        "stats", help="replay a probe or event journal offline and print "
                      "its metrics")
    stats_cmd.add_argument("journal", metavar="JOURNAL",
                           help="a JSONL probe journal written by --record, "
                                "or a session-event journal written by "
                                "--events / the survey service")
    stats_cmd.add_argument("--source", default=None,
                           help="vantage host id (default: from the journal)")
    stats_cmd.add_argument("--dest", default=None,
                           help="destination IP override (default: from the "
                                "journal metadata)")
    stats_cmd.add_argument("--format", choices=("json", "prometheus"),
                           default="json", dest="metrics_format")
    stats_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the metrics there instead of stdout")
    stats_cmd.add_argument("--heuristics", action="store_true",
                           help="also print the per-rule H1-H9 attribution "
                                "table (fires, probes charged, verdicts, "
                                "subnet-growth outcomes)")
    stats_cmd.set_defaults(handler=cmd_stats)

    spans_cmd = subparsers.add_parser(
        "spans", help="derive a journal's deterministic span tree offline "
                      "(probe, event, or service job journals)")
    spans_cmd.add_argument("journal", metavar="JOURNAL",
                           help="a probe journal (--record), session-event "
                                "journal (--events), or a service job's "
                                "committed events.jsonl")
    spans_cmd.add_argument("--source", default=None,
                           help="vantage host id override (probe journals)")
    spans_cmd.add_argument("--dest", default=None,
                           help="destination IP override (probe journals)")
    spans_cmd.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the tree as JSON instead of the "
                                "critical-path / heuristics report")
    spans_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON tree there (implies --json)")
    spans_cmd.add_argument("--chrome-out", default=None, metavar="PATH",
                           help="write a Chrome trace-event document "
                                "(empty for untimed offline trees)")
    spans_cmd.set_defaults(handler=cmd_spans)
    return parser


def _maybe_time(registry: Optional[MetricsRegistry], name: str):
    """A timing span when metrics are on, a no-op context otherwise."""
    from contextlib import nullcontext

    return registry.time(name) if registry is not None else nullcontext()


def _write_metrics(registry: MetricsRegistry, path: str, fmt: str) -> None:
    """Render a registry as JSON or Prometheus text, to a file or stdout."""
    if fmt == "prometheus":
        payload = render_prometheus(registry)
    else:
        payload = json.dumps(registry.full_snapshot(), indent=2,
                             sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(payload)


def _add_transport_options(command: argparse.ArgumentParser) -> None:
    """The transport-seam options every collection command shares."""
    command.add_argument("--record", default=None, metavar="JOURNAL",
                         help="journal every probe/response exchange to "
                              "this JSONL file")
    command.add_argument("--replay", default=None, metavar="JOURNAL",
                         help="re-serve a recorded journal instead of "
                              "probing the simulator")
    command.add_argument("--events", default=None, metavar="PATH",
                         help="write the session-event stream to this "
                              "JSONL file")
    command.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write the run's metrics registry there "
                              "('-' for stdout)")
    command.add_argument("--metrics-format", choices=("json", "prometheus"),
                         default="json",
                         help="metrics file format (default: json)")
    command.add_argument("--stop-sets", action="store_true",
                         help="Doubletree stop sets: suppress re-probing of "
                              "path prefixes already traced this session "
                              "(fewer probes, same map)")
    command.add_argument("--spans-out", default=None, metavar="PATH",
                         help="write the run's deterministic span tree "
                              "there as JSON ('-' for stdout); the same "
                              "tree 'tracenet spans' derives offline")
    command.add_argument("--chrome-out", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON flamegraph "
                              "of the run (timing plane)")


def _maybe_tracer(args):
    """A clocked SpanBuilder when --spans-out/--chrome-out ask for one.

    The clock feeds only the quarantined timing plane: the JSON written by
    ``--spans-out`` is the deterministic serialization, bit-identical to
    what ``tracenet spans`` derives from the matching journal offline.
    """
    if not (getattr(args, "spans_out", None)
            or getattr(args, "chrome_out", None)):
        return None
    from time import perf_counter

    from .tracing import SpanBuilder

    return SpanBuilder(clock=perf_counter)


def _write_spans(tracer, args) -> None:
    """Flush a finished tracer to --spans-out / --chrome-out."""
    if tracer is None:
        return
    root = tracer.finish()
    if args.spans_out:
        payload = json.dumps(root.to_dict(), indent=1, sort_keys=True) + "\n"
        if args.spans_out == "-":
            sys.stdout.write(payload)
        else:
            with open(args.spans_out, "w", encoding="utf-8") as fp:
                fp.write(payload)
            print(f"wrote span tree to {args.spans_out}", file=sys.stderr)
    if args.chrome_out:
        from .tracing import chrome_trace, write_chrome_trace

        write_chrome_trace(args.chrome_out, chrome_trace(root))
        print(f"wrote Chrome trace to {args.chrome_out}", file=sys.stderr)


def _collector_options(args) -> dict:
    """The probe-pipeline options shared by trace/survey (journal metadata)."""
    options = {}
    if getattr(args, "stop_sets", False):
        options["stop_sets"] = True
    return options


def cmd_trace(args) -> int:
    if args.record and args.replay:
        print("--record and --replay are mutually exclusive", file=sys.stderr)
        return 2
    if args.replay:
        transport = ReplayTransport(args.replay)
        source = args.source or transport.metadata.get("source")
        dest_text = args.dest or transport.metadata.get("destination")
        if source is None or dest_text is None:
            print("the journal names no source/destination; pass --source "
                  "and --dest explicitly", file=sys.stderr)
            return 2
        destination = ip(dest_text)
        scenario = None
    else:
        scenario = (figures.figure2_network() if args.scenario == "figure2"
                    else figures.figure3_network())
        source = args.source or next(iter(scenario.hosts))
        if source not in scenario.topology.hosts:
            print(f"unknown source host {source!r}", file=sys.stderr)
            return 2
        destination = _resolve_destination(scenario, source, args.dest)
        transport = SimulatorTransport(scenario.engine())
        if args.record:
            metadata = {
                "scenario": args.scenario,
                "source": source,
                "destination": format_ip(destination),
                "protocol": args.protocol,
            }
            options = _collector_options(args)
            if options:
                metadata["collector"] = options
            transport = RecordingTransport(transport, args.record,
                                           metadata=metadata)
    tool = TraceNET(transport, source, protocol=Protocol(args.protocol),
                    **_collector_kwargs(_collector_options(args)))
    event_sink = None
    if args.events:
        event_sink = tool.events.subscribe(JsonlEventSink(args.events))
    tracer = _maybe_tracer(args)
    if tracer is not None:
        tool.events.subscribe(tracer)
    registry = None
    if args.metrics_out:
        registry = MetricsRegistry()
        instrument(tool.events, registry=registry)
    try:
        with _maybe_time(registry, "collection_seconds"):
            result = tool.trace(destination)
        if registry is not None:
            collect_backend_metrics(registry.backend, transport)
    finally:
        if event_sink is not None:
            event_sink.close()
        transport.close()
    if registry is not None:
        _write_metrics(registry, args.metrics_out, args.metrics_format)
    _write_spans(tracer, args)
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.describe())
    if args.compare_traceroute:
        if scenario is None:
            print("(--compare-traceroute needs the simulator; "
                  "skipped under --replay)", file=sys.stderr)
        else:
            baseline = Traceroute(scenario.engine(), source,
                                  protocol=Protocol(args.protocol))
            print()
            print("traceroute view:")
            for hop in baseline.trace(destination).hops:
                addr = (format_ip(hop.address)
                        if hop.address is not None else "*")
                print(f"{hop.ttl:3d}  {addr}")
    return 0


def cmd_survey(args) -> int:
    if args.record and args.replay:
        print("--record and --replay are mutually exclusive", file=sys.stderr)
        return 2
    sharded = args.workers > 1 or args.checkpoint_dir is not None
    if sharded and (args.record or args.replay or args.events
                    or args.spans_out or args.chrome_out):
        print("--record/--replay/--events/--spans-out/--chrome-out need "
              "the serial path (drop --workers/--checkpoint-dir)",
              file=sys.stderr)
        return 2
    module = internet2 if args.network == "internet2" else geant
    network = module.build(seed=args.seed)
    target_list = module.targets(network, seed=args.seed)
    if sharded:
        from .parallel import ShardedSurveyRunner

        runner = ShardedSurveyRunner.from_network(
            network.topology, network.policy, "utdallas",
            workers=max(1, args.workers),
            checkpoint_dir=args.checkpoint_dir,
            use_stop_sets=args.stop_sets)
        outcome = runner.run(target_list)
        subnets = outcome.archive.subnets
        probes_sent = outcome.stats.sent
        mode = (f"{outcome.workers} shard(s)"
                + (", inline" if outcome.executed_inline else ""))
        if args.metrics_out:
            # The merged view: per-shard registries summed in shard order.
            _write_metrics(outcome.metrics, args.metrics_out,
                           args.metrics_format)
    else:
        if args.replay:
            # The journal stands in for the network: no Engine at all.
            transport = ReplayTransport(args.replay)
            mode = "replay"
        else:
            engine = Engine(network.topology, policy=network.policy)
            transport = SimulatorTransport(engine)
            mode = "serial"
            if args.record:
                metadata = {
                    "network": args.network,
                    "seed": args.seed,
                    "vantage": "utdallas",
                }
                options = _collector_options(args)
                if options:
                    metadata["collector"] = options
                transport = RecordingTransport(transport, args.record,
                                               metadata=metadata)
                mode = "serial, recording"
        tool = TraceNET(transport, "utdallas",
                        **_collector_kwargs(_collector_options(args)))
        sinks = []
        if args.events:
            sinks.append(tool.events.subscribe(JsonlEventSink(args.events)))
        if args.progress:
            sinks.append(tool.events.subscribe(ProgressSink()))
        registry = MetricsRegistry() if args.metrics_out else None
        tracer = _maybe_tracer(args)
        try:
            from .runner import SurveyRunner

            SurveyRunner(tool, metrics=registry,
                         tracer=tracer).run(target_list)
            if registry is not None:
                collect_backend_metrics(registry.backend, transport)
        finally:
            for sink in sinks:
                sink.close()
            transport.close()
        if registry is not None:
            _write_metrics(registry, args.metrics_out, args.metrics_format)
        _write_spans(tracer, args)
        subnets = tool.collected_subnets
        probes_sent = tool.prober.stats.sent
    report = match_subnets(network.ground_truth,
                           collected_prefixes(subnets))
    annotate_unresponsive(report, network.records)
    title = ("Table 1: Internet2, original and collected subnet distribution"
             if args.network == "internet2"
             else "Table 2: GEANT, original and collected subnet distribution")
    print(render_distribution_table(report, title))
    print(render_similarity(f"{args.network} (incl. unresponsive)",
                            *similarity_summary(report)))
    print(render_similarity(f"{args.network} (excl. unresponsive)",
                            *similarity_summary(report, exclude_unresponsive=True)))
    print(f"probes sent: {probes_sent} ({mode})")
    return 0


def cmd_crossval(args) -> int:
    internet = build_internet(seed=args.seed, scale=args.scale)
    targets = internet.targets(seed=args.seed, per_isp=args.targets_per_isp)
    flat_targets = [t for group in targets.values() for t in group]
    collections = {}
    for site in sorted(internet.vantages):
        engine = Engine(internet.topology, policy=internet.policy)
        tool = TraceNET(engine, site)
        tool.trace_many(flat_targets)
        collections[site] = VantageCollection(
            vantage=site, subnets=tool.collected_subnets, targets=flat_targets)
    prefix_sets = {site: c.prefixes for site, c in collections.items()}
    print(render_venn(venn_regions(prefix_sets), sorted(prefix_sets)))
    print()
    for site, rates in agreement_rates(prefix_sets).items():
        print(f"  {site}: seen-by-all {rates['all']:.0%}, "
              f"seen-by-another {rates['shared']:.0%}")
    print()
    groups = sorted(internet.isps)
    counts = {site: subnets_per_group(c, internet.isp_of_prefix, groups)
              for site, c in collections.items()}
    from .evaluation import render_group_counts
    print(render_group_counts(counts))
    print()
    histograms = {site: prefix_length_histogram(c)
                  for site, c in collections.items()}
    print(render_histogram(histograms, log_bars=False))
    return 0


def cmd_protocols(args) -> int:
    internet = build_internet(seed=args.seed, scale=args.scale)
    targets = internet.targets(seed=args.seed, per_isp=args.targets_per_isp)
    counts = {name: {} for name in sorted(internet.isps)}
    for protocol in (Protocol.ICMP, Protocol.UDP, Protocol.TCP):
        engine = Engine(internet.topology, policy=internet.policy)
        tool = TraceNET(engine, "rice", protocol=protocol)
        for group in targets.values():
            tool.trace_many(group)
        for name in counts:
            counts[name][protocol.value] = sum(
                1 for s in tool.collected_subnets
                if s.size >= 2 and internet.isp_of(s.pivot) == name
            )
    print(render_protocol_table(counts))
    return 0


def cmd_map(args) -> int:
    from .mapping import (
        CollectionArchive,
        map_from_collections,
        render_adjacency,
        save_archive,
    )

    scenario = (figures.figure2_network() if args.scenario == "figure2"
                else figures.figure3_network())
    collections = {}
    traces = []
    host_ids = sorted(scenario.hosts)
    for source in host_ids:
        tool = TraceNET(scenario.engine(), source)
        destinations = [scenario.topology.hosts[other].address
                        for other in host_ids if other != source]
        if not destinations:
            # Single-vantage scenario: trace toward every router instead.
            destinations = sorted(
                min(router.addresses)
                for router in scenario.topology.routers.values())
        for destination in destinations:
            traces.append(tool.trace(destination))
        collections[source] = tool.collected_subnets
    topo_map = map_from_collections(collections, traces)
    print(topo_map.summary())
    print()
    if args.dot:
        print(topo_map.to_dot(name=args.scenario))
    else:
        print(render_adjacency(topo_map))
    if args.save is not None:
        for vantage, subnets in collections.items():
            archive = CollectionArchive(vantage=vantage, subnets=list(subnets),
                                        metadata={"scenario": args.scenario})
            path = f"{args.save.rstrip('/')}/{args.scenario}-{vantage}.json"
            save_archive(path, archive)
            print(f"saved {path}")
    return 0


def cmd_overhead(args) -> int:
    from . import experiments

    sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    outcome = experiments.run_overhead_sweep(sizes=sizes)
    print(outcome.render())
    return 0


def cmd_export(args) -> int:
    from .netsim import save_scenario

    module = internet2 if args.network == "internet2" else geant
    network = module.build(seed=args.seed)
    save_scenario(args.out, network.topology, network.policy)
    print(f"exported {args.network} (seed {args.seed}) to {args.out}")
    print(f"  {network.topology.summary()}")
    print(f"  {network.policy.describe()}")
    return 0


def _service_queue(directory: str):
    """The service directory's durable job queue."""
    import os

    from .service import JobQueue

    return JobQueue(os.path.join(directory, "queue.jsonl"))


def cmd_submit(args) -> int:
    from .parallel import ShardSpec
    from .service import SurveyJob

    module = internet2 if args.network == "internet2" else geant
    network = module.build(seed=args.seed)
    target_list = module.targets(network, seed=args.seed)
    if args.limit is not None:
        target_list = target_list[:max(0, args.limit)]
    if not target_list:
        print("no targets to survey (check --limit)", file=sys.stderr)
        return 2
    spec = ShardSpec.from_network(
        network.topology, network.policy, "utdallas",
        use_stop_sets=args.stop_sets)
    radar = None
    if args.radar:
        radar = {
            "rounds": max(1, args.rounds),
            "churn_count": max(0, args.churn_count),
            "churn_seed": args.churn_seed,
            "churn_start": args.churn_start,
            "churn_interval": args.churn_interval,
            "drop_rate": args.drop_rate,
            "fault_seed": args.fault_seed,
            "incremental": True,
        }
    queue = _service_queue(args.queue)
    job = queue.submit(SurveyJob(
        job_id=queue.next_job_id(),
        spec=spec,
        targets=list(target_list),
        shards=max(1, args.shards),
        checkpoint_every=max(1, args.checkpoint_every),
        tenant=args.tenant,
        max_attempts=max(1, args.max_attempts),
        metadata={"network": args.network, "seed": args.seed},
        radar=radar,
    ))
    if radar is not None:
        print(f"queued {job.job_id}: radar over {args.network} "
              f"seed {args.seed}, {len(target_list)} targets, "
              f"{radar['rounds']} rounds, churn {radar['churn_count']}")
    else:
        print(f"queued {job.job_id}: {args.network} seed {args.seed}, "
              f"{len(target_list)} targets over {job.shards} shard(s)")
    return 0


def cmd_serve(args) -> int:
    import dataclasses
    import os

    from .mapping import archive_to_dict
    from .service import (
        Coordinator,
        JobState,
        ServiceFleet,
        VantageWorker,
        shard_attempt_summary,
    )

    queue = _service_queue(args.queue)
    if not queue.jobs:
        print("queue is empty; nothing to serve", file=sys.stderr)
        return 0
    coordinator = Coordinator(queue=queue, work_dir=args.queue,
                              heartbeat_timeout=args.heartbeat_timeout)
    pending = [job.job_id for job in queue.unfinished()]
    if not pending:
        print("every job is already terminal; nothing to serve",
              file=sys.stderr)
        return 0
    workers = []
    for index in range(max(1, args.workers)):
        fail_after = (args.kill_worker_after
                      if index == 0 and args.kill_worker_after else None)
        workers.append(VantageWorker(
            f"worker-{index}", coordinator,
            stream_every=max(1, args.stream_every),
            fail_after_targets=fail_after))
    on_tick = None
    if args.health_out:
        def on_tick(path=args.health_out):
            payload = render_prometheus(coordinator.health_registry())
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as fp:
                fp.write(payload)
            os.replace(tmp_path, path)
    ServiceFleet(coordinator, workers).run(timeout=args.timeout,
                                           on_tick=on_tick)
    crashed = sum(1 for worker in workers if worker.crashed)
    print(f"fleet of {len(workers)} worker(s) drained "
          f"{len(pending)} job(s)"
          + (f" ({crashed} worker death(s) survived)" if crashed else ""))
    failures = 0
    for job_id in pending:
        job = queue.get(job_id)
        if job.state is not JobState.DONE:
            failures += 1
            print(f"  {job_id}: {job.state.value} — {job.error}")
            continue
        result = coordinator.result(job_id)
        job_dir = os.path.join(args.queue, job_id)
        os.makedirs(job_dir, exist_ok=True)
        archive_path = os.path.join(job_dir, "archive.json")
        with open(archive_path, "w", encoding="utf-8") as fp:
            json.dump(archive_to_dict(result.archive), fp, indent=1)
        spans_path = chrome_path = None
        if result.spans is not None:
            from .tracing import chrome_trace_for_service, write_chrome_trace

            spans_path = os.path.join(job_dir, "spans.json")
            with open(spans_path, "w", encoding="utf-8") as fp:
                json.dump(result.spans.to_dict(), fp, indent=1,
                          sort_keys=True)
                fp.write("\n")
            chrome_path = os.path.join(job_dir, "trace.chrome.json")
            write_chrome_trace(chrome_path, chrome_trace_for_service(
                result.spans, result.worker_spans))
        radar_path = None
        if result.radar is not None:
            radar_path = os.path.join(job_dir, "radar.json")
            with open(radar_path, "w", encoding="utf-8") as fp:
                json.dump(result.radar, fp, indent=1, sort_keys=True)
                fp.write("\n")
        result_path = os.path.join(job_dir, "result.json")
        with open(result_path, "w", encoding="utf-8") as fp:
            json.dump({
                "job": job.to_dict(),
                "radar_path": radar_path,
                "attempts": {str(k): v
                             for k, v in sorted(result.attempts.items())},
                "stats": dataclasses.asdict(result.stats),
                "metrics": result.metrics.full_snapshot(),
                "event_counts": dict(sorted(result.event_counts.items())),
                "events_path": result.events_path,
                "archive_path": archive_path,
                "spans_path": spans_path,
                "chrome_trace_path": chrome_path,
                "stop_set": (result.stop_set.to_dict()
                             if result.stop_set is not None else None),
                "dedupe": coordinator.store.counters(),
            }, fp, indent=1, sort_keys=True)
        print(f"  {job_id}: done — {len(result.archive.subnets)} subnets, "
              f"{result.stats.sent} probes, "
              f"{shard_attempt_summary(result.attempts)} "
              f"-> {result_path}")
    return 1 if failures else 0


def cmd_radar(args) -> int:
    import os

    from .events import EventBus
    from .mapping import save_archive
    from .netsim import MutationSchedule, NetworkDynamics
    from .radar import RadarRunner
    from .transport import FaultInjectingTransport, MutatingTransport

    if args.record and args.replay:
        print("--record and --replay are mutually exclusive", file=sys.stderr)
        return 2
    module = internet2 if args.network == "internet2" else geant
    network = module.build(seed=args.seed)
    target_list = module.targets(network, seed=args.seed)
    if args.limit is not None:
        target_list = target_list[:max(0, args.limit)]
    if not target_list:
        print("no targets to survey (check --limit)", file=sys.stderr)
        return 2

    # The schedule derives from (topology, seed) alone, so a replay run
    # regenerates the identical mutation stream without an engine.
    schedule = None
    if args.churn_count > 0:
        schedule = MutationSchedule.generate(
            network.topology, seed=args.churn_seed,
            start=max(1, args.churn_start),
            interval=max(1, args.churn_interval),
            count=args.churn_count)

    bus = EventBus()
    if args.replay:
        transport = ReplayTransport(args.replay)
        if schedule is not None:
            transport = MutatingTransport(transport, schedule,
                                          dynamics=None, events=bus)
        mode = "replay"
    else:
        engine = Engine(network.topology, policy=network.policy)
        transport = SimulatorTransport(engine)
        if args.drop_rate > 0.0:
            transport = FaultInjectingTransport(transport,
                                                drop_rate=args.drop_rate,
                                                seed=args.fault_seed)
        if schedule is not None:
            dynamics = NetworkDynamics(engine, schedule)
            transport = MutatingTransport(transport, schedule,
                                          dynamics=dynamics, events=bus)
        mode = "live"
        if args.record:
            metadata = {
                "network": args.network,
                "seed": args.seed,
                "vantage": "utdallas",
                "radar": {
                    "rounds": args.rounds,
                    "churn_seed": args.churn_seed,
                    "churn_count": args.churn_count,
                    "churn_start": args.churn_start,
                    "churn_interval": args.churn_interval,
                    "drop_rate": args.drop_rate,
                    "fault_seed": args.fault_seed,
                    "incremental": not args.full,
                },
            }
            options = _collector_options(args)
            if options:
                metadata["collector"] = options
            transport = RecordingTransport(transport, args.record,
                                           metadata=metadata)
            mode = "live, recording"

    tool = TraceNET(transport, "utdallas", events=bus,
                    **_collector_kwargs(_collector_options(args)))
    event_sink = None
    if args.events:
        event_sink = bus.subscribe(JsonlEventSink(args.events))
    tracer = _maybe_tracer(args)
    if tracer is not None:
        bus.subscribe(tracer)
    registry = None
    if args.metrics_out:
        registry = MetricsRegistry()
        instrument(bus, registry=registry)
    try:
        with _maybe_time(registry, "collection_seconds"):
            outcome = RadarRunner(tool, target_list,
                                  rounds=max(1, args.rounds),
                                  incremental=not args.full).run()
        if registry is not None:
            collect_backend_metrics(registry.backend, transport)
    finally:
        if event_sink is not None:
            event_sink.close()
        transport.close()
    if registry is not None:
        _write_metrics(registry, args.metrics_out, args.metrics_format)
    _write_spans(tracer, args)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for rnd in outcome.rounds:
            save_archive(os.path.join(args.out, f"round-{rnd.index}.json"),
                         rnd.archive)
            if rnd.diff is not None:
                diff_path = os.path.join(
                    args.out, f"diff-{rnd.index - 1}-{rnd.index}.json")
                with open(diff_path, "w", encoding="utf-8") as fp:
                    json.dump(rnd.diff.to_dict(), fp, indent=1,
                              sort_keys=True)
                    fp.write("\n")
        summary_path = os.path.join(args.out, "radar.json")
        with open(summary_path, "w", encoding="utf-8") as fp:
            json.dump(outcome.to_dict(), fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"saved {len(outcome.rounds)} round archive(s) to {args.out}",
              file=sys.stderr)

    if args.as_json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"radar over {args.network} (seed {args.seed}): "
          f"{len(target_list)} targets, {len(outcome.rounds)} rounds, "
          f"{'churn ' + str(args.churn_count) if schedule else 'no churn'} "
          f"({mode})")
    for rnd in outcome.rounds:
        degraded = sum(1 for t in rnd.archive.traces if t.degraded)
        line = (f"round {rnd.index}: "
                f"{'full survey' if rnd.full else 'incremental'}, "
                f"probed {len(rnd.probed_targets)}/{len(target_list)}, "
                f"{len(rnd.archive.subnets)} subnets, "
                f"{rnd.mutations_seen} mutation(s) absorbed"
                + (f", {degraded} degraded" if degraded else ""))
        print(line)
        if rnd.diff is not None and not rnd.diff.is_empty:
            for text in rnd.diff.describe().splitlines():
                print(f"    {text}")
    return 0


def cmd_diff(args) -> int:
    from .mapping import diff_archives, load_archive

    try:
        old = load_archive(args.old)
        new = load_archive(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    diff = diff_archives(old, new)
    payload = json.dumps(diff.to_dict(), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(payload)
        print(f"wrote diff to {args.out}", file=sys.stderr)
    if args.as_json:
        sys.stdout.write(payload)
    else:
        print(diff.describe())
    return 0


def cmd_jobs(args) -> int:
    queue = _service_queue(args.queue)
    if not queue.jobs:
        print("(queue is empty)")
        return 0
    for job in queue.jobs.values():
        line = (f"{job.job_id}  {job.state.value:8s}  "
                f"{len(job.targets)} targets / {job.shards} shard(s)  "
                f"tenant={job.tenant}")
        if job.metadata.get("network"):
            line += (f"  [{job.metadata['network']}"
                     f" seed {job.metadata.get('seed')}]")
        if job.error:
            line += f"  error: {job.error}"
        print(line)
    return 0


def cmd_stats(args) -> int:
    from .metrics import journal_kind, stats_from_events

    builder = None
    if args.heuristics:
        from .tracing import SpanBuilder

        builder = SpanBuilder()
    try:
        if journal_kind(args.journal) == "events":
            stats = stats_from_events(args.journal)
            if builder is not None:
                from .events import replay_events

                for event in replay_events(args.journal):
                    builder(event)
        else:
            stats = _probe_journal_stats(args, builder)
    except (OSError, ValueError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 2
    print(stats.describe(), file=sys.stderr)
    if args.out:
        _write_metrics(stats.registry, args.out, args.metrics_format)
        print(f"wrote {args.metrics_format} metrics to {args.out}",
              file=sys.stderr)
    else:
        _write_metrics(stats.registry, "-", args.metrics_format)
    if builder is not None:
        from .tracing import render_heuristics_table

        print(render_heuristics_table(builder.finish()))
    return 0


def _probe_journal_stats(args, builder=None):
    return stats_from_journal(
        args.journal,
        vantage=args.source,
        destination=ip(args.dest) if args.dest else None,
        extra_sinks=(builder,) if builder is not None else (),
    )


def cmd_spans(args) -> int:
    from .tracing import (
        chrome_trace,
        per_trace_table,
        render_report,
        span_tree_from_journal,
        write_chrome_trace,
    )

    try:
        root = span_tree_from_journal(
            args.journal,
            vantage=args.source,
            destination=ip(args.dest) if args.dest else None)
    except (OSError, ValueError) as exc:
        print(f"spans failed: {exc}", file=sys.stderr)
        return 2
    if args.as_json or args.out:
        payload = json.dumps(root.to_dict(), indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fp:
                fp.write(payload)
            print(f"wrote span tree to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(payload)
    else:
        print(render_report(root))
        print()
        print(per_trace_table(root))
    if args.chrome_out:
        write_chrome_trace(args.chrome_out, chrome_trace(root))
        print(f"wrote Chrome trace to {args.chrome_out}", file=sys.stderr)
    return 0


def _resolve_destination(scenario, source: str, dest: Optional[str]) -> int:
    """Pick the user's destination, or the farthest interface by default."""
    if dest is not None:
        return ip(dest)
    engine = scenario.engine()
    addresses = scenario.topology.all_interface_addresses
    rng = random.Random(0)
    return max(addresses,
               key=lambda a: (engine.hop_distance(source, a) or 0,
                              rng.random()))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
