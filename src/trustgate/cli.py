"""Command-line interface: query evaluation, dataset generation, instance
validation, trust inspection, the HTTP service, and the benchmark harness."""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
import threading
import time

from .bench import SCENARIOS, emit_report, run_latency, run_trajectory
from .middleware import ExchangeMiddleware, MiddlewareHTTPServer, load_config
from .ontology import bootstrap_vocabulary, validate_instances
from .query import eval_ask, eval_select, eval_update, parse as parse_query
from .store import Graph, load_lines, serialize_lines
from .synth import GeneratorSpec, generate_dataset

logger = logging.getLogger(__name__)


def _load_graph(path: str) -> Graph:
    graph = Graph()
    bootstrap_vocabulary(graph)
    with open(path, encoding="utf-8") as handle:
        load_lines(graph, handle)
    return graph


def _cmd_query(args) -> int:
    graph = _load_graph(args.data)
    with open(args.query, encoding="utf-8") as handle:
        ast = parse_query(handle.read())
    if ast.form == "ask":
        print("true" if eval_ask(ast, graph) else "false")
    elif ast.form == "select":
        result = eval_select(ast, graph)
        for row in result.rows:
            print("\t".join(term.lexical for term in row))
    else:
        summary = eval_update(ast, graph)
        print(f"deleted={summary.deleted} inserted={summary.inserted}")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(serialize_lines(graph))
    return 0


def _cmd_validate(args) -> int:
    graph = _load_graph(args.data)
    report = validate_instances(graph)
    for violation in report.violations:
        print(f"{violation.iri}\t{violation.rule}\t{violation.message}")
    print(f"violations={len(report.violations)}")
    return 0 if report.ok() else 1


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(seed=args.seed, patient_count=args.patients)
    graph = generate_dataset(
        spec,
        strip_categories=args.strip_category or [],
        strip_property_categories=args.strip_properties or [],
    )
    text = serialize_lines(graph)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(graph)} triples to {args.output}", file=sys.stderr)
    return 0


def _cmd_trust(args) -> int:
    graph = _load_graph(args.data)
    service = ExchangeMiddleware(graph)
    print(json.dumps(service.trust_record_dict(args.principal), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    started = time.perf_counter()
    graph = _load_graph(args.data)
    load_s = time.perf_counter() - started
    assessment = penalties = None
    extras = {}
    if args.config:
        assessment, penalties, extras = load_config(args.config)
    policies = None
    if args.policy_dir:
        from .policy import load_policy_dir, register_builtin_policies

        policies = register_builtin_policies() + load_policy_dir(args.policy_dir)
    peers = [p for p in (args.peers.split(",") if args.peers else []) if p]
    host, _, port = args.listen.partition(":")
    service = ExchangeMiddleware(
        graph,
        assessment=assessment,
        penalties=penalties,
        policies=policies,
        node_id=args.node_id,
        peers=peers,
        log_path=args.log,
        completeness_sample=extras.get("completeness_sample", 25),
    )
    server = MiddlewareHTTPServer((host or "127.0.0.1", int(port or 0)), service)
    if peers:
        def pump():
            while True:
                time.sleep(args.propagate_interval)
                try:
                    service.propagate_scores()
                except Exception:
                    logger.exception("score propagation failed")

        threading.Thread(target=pump, daemon=True).start()
    print(
        f"listening on {server.url} with {len(graph)} triples (loaded in {load_s:.2f} s)",
        file=sys.stderr,
    )
    # everything built so far lives as long as the server: move it out of
    # the collector's generations so full collections walk only what
    # requests allocate
    gc.freeze()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def _parse_sizes(text: str) -> list[int]:
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        if not chunk:
            continue
        if chunk.endswith("m"):
            sizes.append(int(float(chunk[:-1]) * 1_000_000))
        elif chunk.endswith("k"):
            sizes.append(int(float(chunk[:-1]) * 1_000))
        else:
            sizes.append(int(chunk))
    return sizes


def _cmd_bench_latency(args) -> int:
    report = run_latency(
        sizes=_parse_sizes(args.sizes), transactions=args.txns, seed=args.seed
    )
    path = emit_report(report, args.format, args.output)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_bench_trajectory(args) -> int:
    report = run_trajectory(
        violation_prob=args.prob,
        runs=args.runs,
        seed=args.seed,
        cap=args.cap,
        scenarios=args.scenario or SCENARIOS,
    )
    for scenario in report.scenarios:
        mean = report.mean_transactions_to_zero(scenario)
        print(f"{scenario}: mean transactions to zero = {mean:.1f}", file=sys.stderr)
    path = emit_report(report, args.format, args.output)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustgate",
        description="Knowledge-graph exchange middleware: agreement-driven "
        "access policies, trust scoring, and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="evaluate a query against a dataset file")
    p.add_argument("--data", required=True, help="line-format dataset")
    p.add_argument("--query", required=True, help="query file (ASK/SELECT/update)")
    p.add_argument("--output", help="where to write the mutated dataset after an update")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("validate", help="check instance data against the schema rules")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--strip-category", action="append", metavar="IRI",
                   help="drop a category from the custodian inventory and its instances")
    p.add_argument("--strip-properties", action="append", metavar="IRI",
                   help="strip the property group from the category's instances")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("trust", help="inspect trust records")
    trust_sub = p.add_subparsers(dest="trust_command", required=True)
    show = trust_sub.add_parser("show", help="print one principal's record")
    show.add_argument("principal")
    show.add_argument("--data", required=True)
    show.set_defaults(func=_cmd_trust)

    p = sub.add_parser("serve", help="run the HTTP exchange service")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--policy-dir", help="directory of extension policy templates")
    p.add_argument("--peers", help="comma-separated peer base URLs")
    p.add_argument("--listen", default="127.0.0.1:8080")
    p.add_argument("--log", help="append-only transaction log path")
    p.add_argument("--node-id", default="node-1")
    p.add_argument("--propagate-interval", type=float, default=1.0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="run the experiment harness")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    lat = bench_sub.add_parser("latency", help="four-stage latency across dataset sizes")
    lat.add_argument("--sizes", default="1k,10k,100k")
    lat.add_argument("--txns", type=int, default=1000)
    lat.add_argument("--seed", type=int, default=1)
    lat.add_argument("-o", "--output", required=True)
    lat.add_argument("--format", choices=("csv", "json"), default="csv")
    lat.set_defaults(func=_cmd_bench_latency)
    traj = bench_sub.add_parser("trajectory", help="score trajectories under violations")
    traj.add_argument("--prob", type=float, default=0.3)
    traj.add_argument("--runs", type=int, default=1000)
    traj.add_argument("--seed", type=int, default=1)
    traj.add_argument("--cap", type=int, default=100_000)
    traj.add_argument("--scenario", action="append", choices=SCENARIOS)
    traj.add_argument("-o", "--output", required=True)
    traj.add_argument("--format", choices=("csv", "json"), default="csv")
    traj.set_defaults(func=_cmd_bench_trajectory)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
