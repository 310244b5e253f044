"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers so the paper's
workflow can be driven from a shell (or a SLURM batch script) without
writing Python:

* ``solve``         — solve one instance (qaoa | gw | qaoa2 | anneal | exact)
* ``gridsearch``    — the Fig. 3 sweep, printing the three proportion panels
* ``scaling``       — the Fig. 4 QAOA² method-mix experiment
* ``hetjobs``       — the Fig. 1 workload-manager comparison
* ``coordinator``   — the Fig. 2 coordinator/worker scaling run
* ``service-stats`` — run a Zipf request stream through MaxCutService and
  print its counters / latency histograms / cache report (``--json`` for
  machine-readable output, ``--trace`` for the per-stage span breakdown)
* ``trace``         — run a traced Zipf stream and pretty-print the last
  N request span trees (vocabulary in docs/observability.md)
* ``serve``         — drive the same stream through the async sharded
  front end (AsyncMaxCutServer): concurrent clients, in-flight
  coalescing, per-shard queues; prints the server's stats report.  With
  ``--http HOST:PORT`` it instead exposes the server over real HTTP
  (JSON protocol, see docs/http-api.md) until SIGINT/SIGTERM
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.graphs.generators import erdos_renyi
from repro.graphs.io import read_edgelist


def _load_graph(args: argparse.Namespace):
    if args.graph_file:
        return read_edgelist(args.graph_file)
    return erdos_renyi(
        args.nodes, args.edge_prob, weighted=args.weighted, rng=args.seed
    )


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=40, help="ER node count")
    parser.add_argument("--edge-prob", type=float, default=0.1, help="ER edge probability")
    parser.add_argument("--weighted", action="store_true", help="U[0,1] edge weights")
    parser.add_argument("--graph-file", type=str, default=None,
                        help="read instance from an edge-list file instead")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _backend_choices() -> tuple:
    from repro.quantum.backend import available_backends

    return ("auto", *available_backends())


def cmd_solve(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    print(f"instance: {graph}")
    if args.method == "qaoa":
        from repro.qaoa import QAOASolver

        result = QAOASolver(
            layers=args.layers, rhobeg=args.rhobeg, selection=args.selection,
            backend=args.backend, rng=args.seed,
        ).solve(graph)
        print(f"QAOA cut = {result.cut:.4f}  (F_p = {result.energy:.4f}, "
              f"{result.nfev} evaluations, "
              f"backend {result.extra.get('backend', '?')})")
    elif args.method == "gw":
        from repro.classical import goemans_williamson

        gw = goemans_williamson(graph, rng=args.seed)
        print(f"GW best = {gw.best_cut:.4f}, 30-slice average = "
              f"{gw.average_cut:.4f}, SDP bound = {gw.sdp_objective:.4f}")
    elif args.method == "qaoa2":
        from repro.qaoa2 import QAOA2Solver

        result = QAOA2Solver(
            n_max_qubits=args.qubits,
            subgraph_method=args.subgraph_method,
            qaoa_options={"layers": args.layers, "rhobeg": args.rhobeg,
                          "backend": args.backend},
            rng=args.seed,
        ).solve(graph)
        print(f"QAOA² cut = {result.cut:.4f}  ({result.n_subproblems} "
              f"sub-problems, methods {result.method_counts()})")
    elif args.method == "anneal":
        from repro.classical import SimulatedAnnealerSampler

        result = SimulatedAnnealerSampler().sample_maxcut(
            graph, num_reads=10, rng=args.seed
        )
        print(f"annealer (QUBO) cut = {result.cut:.4f}")
    elif args.method == "exact":
        from repro.graphs import exact_maxcut

        result = exact_maxcut(graph)
        print(f"exact cut = {result.cut:.4f} ({result.method})")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.method)
    return 0


def cmd_gridsearch(args: argparse.Namespace) -> int:
    from repro.experiments import GridSearchConfig, run_grid_search
    from repro.hpc.executor import ExecutorConfig

    config = GridSearchConfig(
        node_counts=tuple(args.node_counts),
        edge_probs=tuple(args.edge_probs),
        layers_grid=tuple(args.layers_grid),
        rhobeg_grid=tuple(args.rhobeg_grid),
        executor=ExecutorConfig(backend=args.backend),
        rng=args.seed,
    )
    result = run_grid_search(config)
    print(result.format_fig3())
    rho, layers = result.best_gridpoint()
    print(f"\nmost successful grid point: rhobeg={rho}, p={layers}")
    if args.save_kb:
        result.to_knowledge_base().save(args.save_kb)
        print(f"knowledge base written to {args.save_kb}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments import ScalingConfig, run_scaling_experiment
    from repro.hpc.executor import ExecutorConfig

    service = None
    if args.use_service:
        from repro.service import MaxCutService

        service = MaxCutService(seed=args.seed)
    config = ScalingConfig(
        node_counts=tuple(args.node_counts),
        edge_prob=args.edge_prob,
        n_max_qubits=args.qubits,
        qaoa_options={"layers": args.layers, "maxiter": args.maxiter,
                      "backend": args.sv_backend},
        gw_fail_above=args.gw_fail_above,
        executor=ExecutorConfig(backend=args.backend),
        service=service,
        rng=args.seed,
    )
    result = run_scaling_experiment(config)
    print(result.format_table())
    if service is not None:
        print()
        print(service.stats_report())
    return 0


def cmd_service_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import MaxCutService, TraceRecorder, zipf_requests

    service = MaxCutService(
        seed=args.seed,
        disk_dir=args.disk_dir,
        traces=TraceRecorder() if args.trace else None,
    )
    requests = zipf_requests(
        n_requests=args.requests,
        universe=args.universe,
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        zipf_exponent=args.zipf,
        options={"layers": args.layers, "maxiter": args.maxiter,
                 "backend": args.backend},
        rng=args.seed,
    )
    results = service.solve_many(requests)
    if args.json:
        payload = {
            "requests": len(results),
            "universe": args.universe,
            "zipf": args.zipf,
            "metrics": service.metrics.json_snapshot(),
        }
        if service.traces is not None:
            payload["trace_stages"] = service.traces.stage_summary()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"served {len(results)} requests over {args.universe} distinct "
        f"graphs (zipf s={args.zipf})"
    )
    if args.compact:
        if args.disk_dir is None:
            print("--compact ignored: no --disk-dir tier configured")
        else:
            stats = service.cache.compact()
            print(
                f"compacted disk tier: {stats['entries']} entries kept, "
                f"{stats['dropped']} superseded records dropped, "
                f"{stats['log_bytes']} log bytes"
            )
    print()
    print(service.stats_report())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.service import MaxCutService, zipf_requests
    from repro.service.trace import TraceRecorder

    recorder = TraceRecorder(
        jsonl_path=args.jsonl,
        slow_threshold_s=(
            None if args.slow_ms is None else args.slow_ms / 1e3
        ),
    )
    service = MaxCutService(seed=args.seed, traces=recorder)
    requests = zipf_requests(
        n_requests=args.requests,
        universe=args.universe,
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        zipf_exponent=args.zipf,
        options={"layers": args.layers, "maxiter": args.maxiter,
                 "backend": args.backend},
        rng=args.seed,
    )
    service.solve_many(requests)
    for trace in recorder.last(args.last):
        print(trace.format_tree())
        print()
    print(recorder.format_stage_table())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        from repro.service import TraceRecorder, serve_http

        host, _, port_text = args.http.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--http expects HOST:PORT, got {args.http!r}", file=sys.stderr)
            return 2
        serve_http(
            host,
            int(port_text),
            http_options={"traces": TraceRecorder()} if args.trace else None,
            n_shards=args.shards,
            seed=args.seed,
            queue_depth=args.queue_depth,
            admission=args.admission,
            max_batch=args.max_batch,
            disk_dir=args.disk_dir,
            cache_cost_floor=args.cache_cost_floor,
        )
        return 0

    from repro.service import serve_requests, zipf_requests

    requests = zipf_requests(
        n_requests=args.requests,
        universe=args.universe,
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        zipf_exponent=args.zipf,
        options={"layers": args.layers, "maxiter": args.maxiter,
                 "backend": args.backend},
        rng=args.seed,
    )
    server, results = serve_requests(
        requests,
        clients=args.clients,
        n_shards=args.shards,
        seed=args.seed,
        queue_depth=args.queue_depth,
        admission=args.admission,
        max_batch=args.max_batch,
        disk_dir=args.disk_dir,
        cache_cost_floor=args.cache_cost_floor,
    )
    solved = sum(1 for res in results if not res.failed)
    print(
        f"served {solved}/{len(results)} requests over {args.universe} "
        f"distinct graphs with {args.clients} concurrent clients on "
        f"{args.shards} shard(s)"
    )
    print()
    print(server.stats_report())
    return 0


def cmd_hetjobs(args: argparse.Namespace) -> int:
    from repro.experiments import run_hetjob_experiment

    result = run_hetjob_experiment(
        n_jobs=args.jobs,
        classical_pre=args.classical_pre,
        quantum=args.quantum,
        classical_post=args.classical_post,
        cpus=args.cpus,
        qpus=args.qpus,
    )
    print(result.format_report())
    return 0


def cmd_coordinator(args: argparse.Namespace) -> int:
    from repro.experiments import run_coordinator_scaling

    result = run_coordinator_scaling(
        worker_counts=tuple(args.workers),
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        n_max_qubits=args.qubits,
        method=args.subgraph_method,
        qaoa_options={"layers": args.layers, "maxiter": args.maxiter},
        rng=args.seed,
    )
    print(result.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QAOA-in-QAOA MaxCut reproduction (Esposito & Danzig, 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one MaxCut instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--method", choices=("qaoa", "gw", "qaoa2", "anneal", "exact"),
                         default="qaoa2")
    p_solve.add_argument("--qubits", type=int, default=10, help="QAOA² qubit budget")
    p_solve.add_argument("--layers", type=int, default=3)
    p_solve.add_argument("--rhobeg", type=float, default=0.5)
    p_solve.add_argument("--selection", choices=("top1", "topk", "sampled"),
                         default="top1")
    p_solve.add_argument("--subgraph-method", choices=("qaoa", "gw", "best"),
                         default="best")
    p_solve.add_argument("--backend", choices=_backend_choices(), default="auto",
                         help="statevector evolution backend for QAOA solves")
    p_solve.set_defaults(func=cmd_solve)

    p_grid = sub.add_parser("gridsearch", help="the Fig. 3 sweep")
    p_grid.add_argument("--node-counts", type=int, nargs="+", default=[8, 10, 12])
    p_grid.add_argument("--edge-probs", type=float, nargs="+", default=[0.1, 0.3, 0.5])
    p_grid.add_argument("--layers-grid", type=int, nargs="+", default=[2, 3])
    p_grid.add_argument("--rhobeg-grid", type=float, nargs="+", default=[0.3, 0.5])
    p_grid.add_argument("--backend", choices=("serial", "thread", "process"),
                        default="thread")
    p_grid.add_argument("--save-kb", type=str, default=None,
                        help="write the knowledge base JSON here")
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.set_defaults(func=cmd_gridsearch)

    p_scale = sub.add_parser("scaling", help="the Fig. 4 experiment")
    p_scale.add_argument("--node-counts", type=int, nargs="+", default=[60, 120, 180])
    p_scale.add_argument("--edge-prob", type=float, default=0.1)
    p_scale.add_argument("--qubits", type=int, default=10)
    p_scale.add_argument("--layers", type=int, default=3)
    p_scale.add_argument("--maxiter", type=int, default=40)
    p_scale.add_argument("--gw-fail-above", type=int, default=None)
    # serial is the fastest executor here: it lock-steps each QAOA² level's
    # small leaves, which threads only contend over for the interpreter lock.
    p_scale.add_argument("--backend", choices=("serial", "thread", "process"),
                         default="serial")
    p_scale.add_argument("--use-service", action="store_true",
                         help="route leaf solves through a shared MaxCutService "
                              "(cache + coalescing) and print its stats")
    p_scale.add_argument("--sv-backend", choices=_backend_choices(),
                         default="auto",
                         help="statevector evolution backend for QAOA leaf "
                              "solves (--backend is the executor backend)")
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.set_defaults(func=cmd_scaling)

    p_stats = sub.add_parser(
        "service-stats",
        help="run a Zipf request stream through MaxCutService, print stats",
    )
    p_stats.add_argument("--requests", type=int, default=60)
    p_stats.add_argument("--universe", type=int, default=6,
                         help="number of distinct graphs in the stream")
    p_stats.add_argument("--nodes", type=int, default=12)
    p_stats.add_argument("--edge-prob", type=float, default=0.3)
    p_stats.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf exponent of the request popularity")
    p_stats.add_argument("--layers", type=int, default=2)
    p_stats.add_argument("--maxiter", type=int, default=30)
    p_stats.add_argument("--disk-dir", type=str, default=None,
                         help="enable the disk cache tier: an append-only "
                              "cache.log in this directory")
    p_stats.add_argument("--compact", action="store_true",
                         help="compact the disk tier after the stream (keep "
                              "only the newest record per request digest)")
    p_stats.add_argument("--backend", choices=_backend_choices(), default="auto",
                         help="statevector evolution backend for QAOA solves")
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON snapshot "
                              "instead of the text report")
    p_stats.add_argument("--trace", action="store_true",
                         help="trace every request and include the "
                              "per-stage span breakdown in the report")
    p_stats.set_defaults(func=cmd_service_stats)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced Zipf stream and pretty-print the last N "
             "request span trees",
    )
    p_trace.add_argument("--last", type=int, default=3,
                         help="number of most recent span trees to print")
    p_trace.add_argument("--requests", type=int, default=12)
    p_trace.add_argument("--universe", type=int, default=4,
                         help="number of distinct graphs in the stream")
    p_trace.add_argument("--nodes", type=int, default=12)
    p_trace.add_argument("--edge-prob", type=float, default=0.3)
    p_trace.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf exponent of the request popularity")
    p_trace.add_argument("--layers", type=int, default=2)
    p_trace.add_argument("--maxiter", type=int, default=30)
    p_trace.add_argument("--jsonl", type=str, default=None,
                         help="append finished traces to this JSONL file")
    p_trace.add_argument("--slow-ms", type=float, default=None,
                         help="log span trees of requests slower than "
                              "this many milliseconds")
    p_trace.add_argument("--backend", choices=_backend_choices(), default="auto",
                         help="statevector evolution backend for QAOA solves")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="drive a Zipf stream through the async sharded server "
             "(concurrent clients + in-flight coalescing), print stats",
    )
    p_serve.add_argument("--http", metavar="HOST:PORT", default=None,
                         help="serve real HTTP on this address until "
                              "SIGINT/SIGTERM (port 0 picks a free port; "
                              "JSON protocol in docs/http-api.md) instead "
                              "of driving the in-process Zipf stream")
    p_serve.add_argument("--requests", type=int, default=60)
    p_serve.add_argument("--universe", type=int, default=6,
                         help="number of distinct graphs in the stream")
    p_serve.add_argument("--nodes", type=int, default=12)
    p_serve.add_argument("--edge-prob", type=float, default=0.3)
    p_serve.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf exponent of the request popularity")
    p_serve.add_argument("--layers", type=int, default=2)
    p_serve.add_argument("--maxiter", type=int, default=30)
    p_serve.add_argument("--clients", type=int, default=4,
                         help="concurrent client tasks")
    p_serve.add_argument("--shards", type=int, default=2,
                         help="fingerprint-prefix shards (one worker each)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="bounded per-shard admission queue")
    p_serve.add_argument("--admission", choices=("reject", "shed"),
                         default="reject",
                         help="full-queue policy: refuse new, or shed oldest")
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="micro-batch size per shard worker dispatch")
    p_serve.add_argument("--disk-dir", type=str, default=None,
                         help="enable per-shard disk cache tiers: one "
                              "append-only cache.log per shard under here")
    p_serve.add_argument("--cache-cost-floor", type=float, default=None,
                         help="only cache solves costlier than this many "
                              "seconds (omit: cache everything)")
    p_serve.add_argument("--backend", choices=_backend_choices(), default="auto",
                         help="statevector evolution backend for QAOA solves")
    p_serve.add_argument("--trace", action="store_true",
                         help="with --http: trace each request "
                              "(X-Repro-Trace header, GET /trace/<id>)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.set_defaults(func=cmd_serve)

    p_het = sub.add_parser("hetjobs", help="the Fig. 1 scheduling comparison")
    p_het.add_argument("--jobs", type=int, default=3)
    p_het.add_argument("--classical-pre", type=float, default=4.0)
    p_het.add_argument("--quantum", type=float, default=1.0)
    p_het.add_argument("--classical-post", type=float, default=2.0)
    p_het.add_argument("--cpus", type=int, default=4)
    p_het.add_argument("--qpus", type=int, default=1)
    p_het.set_defaults(func=cmd_hetjobs)

    p_coord = sub.add_parser("coordinator", help="the Fig. 2 scaling run")
    p_coord.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    p_coord.add_argument("--nodes", type=int, default=60)
    p_coord.add_argument("--edge-prob", type=float, default=0.1)
    p_coord.add_argument("--qubits", type=int, default=10)
    p_coord.add_argument("--layers", type=int, default=3)
    p_coord.add_argument("--maxiter", type=int, default=40)
    p_coord.add_argument("--subgraph-method", choices=("qaoa", "gw", "best"),
                         default="qaoa")
    p_coord.add_argument("--seed", type=int, default=0)
    p_coord.set_defaults(func=cmd_coordinator)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
