"""Command-line interface: ``prophet <command>``.

Commands mirror the Fig. 2 tool flow:

* ``prophet sample -o model.xml`` — write the paper's sample model;
* ``prophet check <model> [--mcf rules.xml]`` — run the Model Checker
  (a model XML path, a built-in model/scenario name, or — with
  ``--registry`` — a registry ref);
* ``prophet lint <model> [--format json]`` — run the whole-model
  static analyzer (communication matching/deadlocks, guard
  satisfiability, rank dependence, cost bounds); same model
  resolution as ``check``;
* ``prophet transform model.xml --to cpp|python|skeleton [-o out]`` —
  the Fig. 5 transformation;
* ``prophet simulate model.xml --processes 4 ... [--trace tf.csv]`` —
  the Performance Estimator (prints the report, writes the TF);
* ``prophet sweep ...`` — batch-evaluate a parameter grid with caching
  (over a model file, a built-in ``--kind``, or a ``--scenario``);
* ``prophet profile ...`` — run a sweep under the observability
  harness and print where the wall clock went (span tree + metrics);
* ``prophet scenarios`` — list the scenario library and its knobs;
* ``prophet serve --registry DIR`` / ``prophet submit ...`` — the
  long-lived batched evaluation service and its client;
* ``prophet info model.xml`` — model statistics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ProphetError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prophet",
        description="Performance Prophet (reproduction): UML performance "
                    "models, automatic transformation to C++/Python, and "
                    "simulation-based prediction.")
    commands = parser.add_subparsers(dest="command", required=True)

    sample = commands.add_parser(
        "sample", help="write the paper's Fig. 7 sample model as XML")
    sample.add_argument("-o", "--output", default="sample_model.xml")
    sample.add_argument("--kind", choices=("sample", "kernel6"),
                        default="sample")

    check = commands.add_parser("check", help="run the Model Checker")
    check.add_argument("model",
                       help="model XML file, built-in model/scenario "
                            "name, or (with --registry) a registry ref")
    check.add_argument("--mcf", help="model checking file (XML)")
    check.add_argument("--registry",
                       help="model registry directory to resolve refs "
                            "(hash, hash prefix, or label) against")

    lint = commands.add_parser(
        "lint", help="run the whole-model static analyzer "
                     "(communication matching, deadlock detection, "
                     "guard satisfiability, cost bounds)")
    lint.add_argument("model",
                      help="model XML file, built-in model/scenario "
                           "name, or (with --registry) a registry ref")
    lint.add_argument("--mcf",
                      help="model checking file (XML); rule ids under "
                           "<rule> enable/disable analysis passes and "
                           "override severities, and the free-form "
                           "'analysis-sizes' parameter sets the "
                           "process counts enumerated")
    lint.add_argument("--registry",
                      help="model registry directory to resolve refs "
                           "(hash, hash prefix, or label) against")
    lint.add_argument("--sizes",
                      help="comma-separated process counts to analyze "
                           "(overrides the MCF; default 1,2,3,4)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="diagnostics as human-readable text "
                           "(default) or the same JSON schema the "
                           "service's 422 body uses")

    transform = commands.add_parser(
        "transform", help="transform the model (Fig. 5 algorithm)")
    transform.add_argument("model")
    transform.add_argument("--to", choices=("cpp", "python", "skeleton"),
                           default="cpp")
    transform.add_argument("-o", "--output",
                           help="output file (default: stdout)")
    transform.add_argument("--header", action="store_true",
                           help="also print/write the C++ runtime header")
    transform.add_argument("--numbered", action="store_true",
                           help="number output lines (as in Fig. 8)")

    simulate = commands.add_parser(
        "simulate", help="evaluate the model with the Performance "
                         "Estimator")
    simulate.add_argument("model")
    simulate.add_argument("--nodes", type=int, default=1)
    simulate.add_argument("--ppn", type=int, default=1,
                          help="processors per node")
    simulate.add_argument("--processes", type=int, default=1)
    simulate.add_argument("--threads", type=int, default=1,
                          help="threads per process")
    simulate.add_argument("--placement", choices=("block", "cyclic"),
                          default="block")
    simulate.add_argument("--latency", type=float, default=1.0e-6)
    simulate.add_argument("--bandwidth", type=float, default=1.0e9)
    simulate.add_argument("--mode",
                          choices=("codegen", "interp", "analytic"),
                          default="codegen")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--trace", help="write the TF to this path")
    simulate.add_argument("--trace-format", choices=("csv", "jsonl"),
                          default="csv")
    simulate.add_argument("--no-gantt", action="store_true")

    sweep = commands.add_parser(
        "sweep", help="batch-evaluate a parameter grid (with result "
                      "caching)")
    _add_sweep_axis_args(sweep)
    sweep.add_argument("--csv", help="write the result table to this CSV "
                                     "file")
    sweep.add_argument("--no-table", action="store_true",
                       help="suppress the ASCII result table")
    sweep.add_argument("--speedup", action="store_true",
                       help="also print per-series speedup tables")
    sweep.add_argument("--metrics-out", metavar="FILE",
                       help="write the sweep's metrics export here "
                            "(.prom/.txt = Prometheus text, anything "
                            "else = JSON)")
    sweep.add_argument("--fsync", action="store_true",
                       help="fsync cache entries and journal appends "
                            "(crash-durable at a throughput cost)")
    campaign_group = sweep.add_mutually_exclusive_group()
    campaign_group.add_argument(
        "--campaign", metavar="ID",
        help="start a checkpointed campaign: journal every finished "
             "point next to the result cache (requires --cache-dir; "
             "refuses an existing id)")
    campaign_group.add_argument(
        "--resume", metavar="ID",
        help="resume a checkpointed campaign: skip journaled points "
             "and re-execute only unfinished work (requires "
             "--cache-dir)")

    profile = commands.add_parser(
        "profile", help="run a sweep under the observability harness "
                        "and print a span-tree wall-clock breakdown")
    _add_sweep_axis_args(profile)
    profile.add_argument("--min-share", type=float, default=0.002,
                         help="hide span-tree lines below this share "
                              "of total profile time (default 0.002)")
    profile.add_argument("--top", type=int, default=12,
                         help="metric families to show in the summary "
                              "(default 12; 0 = all)")
    profile.add_argument("--metrics-out", metavar="FILE",
                         help="write the full metrics export (plus the "
                              "span tree, for JSON targets) here")

    scenarios = commands.add_parser(
        "scenarios", help="list the scenario library (parameterized "
                          "MPI application models)")
    scenarios.add_argument("--name", help="describe one scenario in "
                                          "detail")

    serve = commands.add_parser(
        "serve", help="run the batched evaluation service (JSON over "
                      "HTTP)")
    serve.add_argument("--registry", required=True,
                       help="model registry directory (created if "
                            "missing)")
    serve.add_argument("--cache-dir",
                       help="shared content-addressed result cache "
                            "directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--persistent-pool", action="store_true",
                       help="keep one process pool alive across batches "
                            "(workers fetch unseen models lazily and "
                            "memoize them)")
    serve.add_argument("--jobs", type=int, default=0,
                       help="evaluate batches on a process pool with "
                            "this many workers (0 = serial)")
    serve.add_argument("--preload", default="",
                       help="comma-separated built-in models to ingest "
                            "at startup: paper samples (sample, "
                            "kernel6, kernel6-loopnest) and scenarios "
                            "(see `prophet scenarios`)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max concurrently admitted batches; the "
                            "next one gets 429 + Retry-After "
                            "(default 64)")
    serve.add_argument("--window-ms", type=float, default=0.0,
                       help="coalesce submissions from different "
                            "connections arriving within this many "
                            "milliseconds into one batch (0 = off)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-client token-bucket refill rate, "
                            "requests/second, keyed on the X-Client-Id "
                            "header (0 = off)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst size (default: the "
                            "rate, at least 1)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock deadline on pool "
                            "executors (a hung worker yields a "
                            "timeout result, not a stalled batch)")
    serve.add_argument("--max-retries", type=int, default=0,
                       metavar="N",
                       help="re-dispatches after a transient job "
                            "failure (default 0)")
    serve.add_argument("--socket-timeout", type=float, default=30.0,
                       help="per-connection socket timeout in seconds; "
                            "a body that never arrives gets 408 "
                            "instead of a parked thread (default 30)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight batches to "
                            "finish on shutdown (default 30)")
    serve.add_argument("--replica-id", default=None,
                       help="stable instance name surfaced on /health "
                            "and router-annotated results (default: "
                            "pid-derived)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync registry and cache writes "
                            "(crash-durable at a throughput cost)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    route = commands.add_parser(
        "route", help="run the shard router in front of a replicated "
                      "serving fleet")
    route.add_argument("--replicas", required=True,
                       help="comma-separated replica base URLs "
                            "(shard-map order is the listed order)")
    route.add_argument("--replication-factor", type=int, default=1,
                       choices=(1, 2),
                       help="owning replicas per shard; 2 gives every "
                            "shard a secondary for failover and hedged "
                            "reads (default 1)")
    route.add_argument("--probe-interval", type=float, default=5.0,
                       help="seconds between active /health probes "
                            "(default 5)")
    route.add_argument("--circuit-threshold", type=int, default=3,
                       help="consecutive transport failures that open "
                            "a replica's circuit (default 3)")
    route.add_argument("--circuit-reset", type=float, default=5.0,
                       help="seconds an open circuit stays open "
                            "(default 5)")
    route.add_argument("--hedge-delay", type=float, default=0.05,
                       help="head start the primary gets before a "
                            "cache-warm batch is hedged at the "
                            "secondary owner; hedging needs "
                            "--replication-factor 2 (default 0.05)")
    route.add_argument("--no-hedging", action="store_true",
                       help="disable hedged reads for warm batches")
    route.add_argument("--local-registry", default=None,
                       help="registry directory for the degraded-mode "
                            "local fallback service (omit to answer "
                            "per-request errors when the whole fleet "
                            "is down)")
    route.add_argument("--local-cache-dir", default=None,
                       help="result cache for the local fallback")
    route.add_argument("--fsync", action="store_true",
                       help="fsync local-fallback store writes")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=8360)
    route.add_argument("--socket-timeout", type=float, default=30.0,
                       help="per-connection socket timeout (default 30)")
    route.add_argument("--request-timeout", type=float, default=60.0,
                       help="per-forward timeout toward replicas "
                            "(default 60)")
    route.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    submit = commands.add_parser(
        "submit", help="submit an evaluation batch to a running "
                       "service")
    submit.add_argument("--url", default="http://127.0.0.1:8350",
                        help="service base URL")
    submit.add_argument("--ingest", metavar="MODEL_XML",
                        help="ingest this model file first and evaluate "
                             "it")
    submit.add_argument("--sample",
                        help="ingest a built-in model (paper sample or "
                             "scenario name) and evaluate it")
    submit.add_argument("--label", help="label for the ingested model")
    submit.add_argument("--ref",
                        help="evaluate an already-registered model "
                             "(hash, hash prefix, or label)")
    submit.add_argument("--backends", default="codegen",
                        help="comma-separated backends: analytic, "
                             "codegen, interp")
    submit.add_argument("--processes", default="1",
                        help="comma-separated process counts")
    submit.add_argument("--seeds", default="0",
                        help="comma-separated simulator seeds")
    submit.add_argument("--nodes", type=int,
                        help="fixed node count (default: one node per "
                             "process)")
    submit.add_argument("--ppn", type=int, default=1,
                        help="processors per node")
    submit.add_argument("--threads", type=int, default=1,
                        help="threads per process")
    submit.add_argument("--placement", choices=("block", "cyclic"),
                        default="block")
    submit.add_argument("--latency", type=float,
                        help="network latency override [s]")
    submit.add_argument("--bandwidth", type=float,
                        help="network bandwidth override [B/s]")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the batch (cold "
                             "simulations can be slow)")
    submit.add_argument("--json", action="store_true",
                        help="print the raw JSON response")

    bench = commands.add_parser(
        "bench", help="run the estimator/sweep benchmark harness and "
                      "write BENCH_estimator.json")
    bench.add_argument("-o", "--output", default="BENCH_estimator.json",
                       help="snapshot path (default BENCH_estimator.json)")
    bench.add_argument("--smoke", action="store_true",
                       help="tiny workloads (CI's bench-smoke leg)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="best-of-N timing repeats (default 3)")
    bench.add_argument("--no-pool", action="store_true",
                       help="skip the process-pool benchmark")
    bench.add_argument("--no-loadgen", action="store_true",
                       help="skip the concurrent-serving loadgen "
                            "benchmark")
    bench.add_argument("--metrics-out", metavar="FILE",
                       help="write the run's metrics export here "
                            "(.prom/.txt = Prometheus text, anything "
                            "else = JSON)")

    info = commands.add_parser("info", help="print model statistics")
    info.add_argument("model")
    return parser


def _add_sweep_axis_args(sub: argparse.ArgumentParser) -> None:
    """Model-source and grid-axis flags shared by sweep and profile."""
    from repro.sweep import MIN_POOL_JOBS
    sub.add_argument("model", nargs="?",
                     help="model XML file (or use --kind/--scenario)")
    sub.add_argument("--kind",
                     choices=("sample", "kernel6", "kernel6-loopnest"),
                     help="sweep a built-in model instead of a file")
    sub.add_argument("--scenario",
                     help="sweep a scenario from the scenario library "
                          "(see `prophet scenarios`)")
    sub.add_argument("--scenario-param", action="append", default=[],
                     metavar="NAME=V1,V2,...",
                     help="range a scenario knob over values "
                          "(repeatable; axes are crossed; structural "
                          "knobs rebuild the model per point)")
    sub.add_argument("--processes", default="1",
                     help="comma-separated process counts, e.g. 1,2,4,8")
    sub.add_argument("--backends", default="codegen",
                     help="comma-separated backends: analytic, codegen, "
                          "interp")
    sub.add_argument("--seeds", default="0",
                     help="comma-separated simulator seeds")
    sub.add_argument("--param", action="append", default=[],
                     metavar="NAME=V1,V2,...",
                     help="sweep a model global variable over values "
                          "(repeatable; axes are crossed)")
    sub.add_argument("--nodes", type=int,
                     help="fixed node count (default: one node per "
                          "process)")
    sub.add_argument("--ppn", type=int, default=1,
                     help="processors per node")
    sub.add_argument("--threads", type=int, default=1,
                     help="threads per process")
    sub.add_argument("--placement", choices=("block", "cyclic"),
                     default="block")
    sub.add_argument("--latency", default="1.0e-6",
                     help="network latency in seconds — a comma-"
                          "separated list sweeps the axis (e.g. "
                          "1e-7,1e-6,1e-5 for a heatmap row)")
    sub.add_argument("--bandwidth", default="1.0e9",
                     help="network bandwidth in bytes/s — a comma-"
                          "separated list sweeps the axis")
    sub.add_argument("--cache-dir",
                     help="content-addressed result cache directory "
                          "(created if missing; repeated sweeps are "
                          "served from it)")
    sub.add_argument("--jobs", type=int, default=0,
                     help="run on a process pool with this many workers "
                          f"(0 = serial; below the pool floor of "
                          f"{MIN_POOL_JOBS} pending simulated points a "
                          "sweep runs serial unless --job-timeout or "
                          "--max-retries is set)")
    sub.add_argument("--job-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-job wall-clock deadline on pool "
                          "executors: a hung worker yields a timeout "
                          "result and a recycled worker instead of a "
                          "stalled sweep (default: no deadline)")
    sub.add_argument("--max-retries", type=int, default=0,
                     metavar="N",
                     help="re-dispatches after a transient job failure "
                          "(exponential backoff + jitter; default 0)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ProphetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. a model/MCF/output path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "transform":
        return _cmd_transform(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "info":
        return _cmd_info(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _load(path: str):
    from repro.prophet import PerformanceProphet
    return PerformanceProphet.open(path)


def _cmd_sample(args) -> int:
    from repro.samples import build_kernel6_model, build_sample_model
    from repro.xmlio.writer import write_model
    model = (build_sample_model() if args.kind == "sample"
             else build_kernel6_model())
    path = write_model(model, args.output)
    print(f"wrote {path}")
    return 0


def _resolve_model_target(target: str, registry_dir: str | None):
    """A model from an XML path, a built-in name, or a registry ref.

    Resolution order: an existing file wins (paths are unambiguous),
    then a built-in model or scenario name, then — when ``--registry``
    names a store — a registry ref (hash, unambiguous hash prefix, or
    label).
    """
    from repro.service.registry import builtin_model_builders
    if Path(target).is_file():
        from repro.xmlio.reader import read_model
        return read_model(target)
    builders = builtin_model_builders()
    if target in builders:
        return builders[target]()
    if registry_dir:
        from repro.service.registry import ModelRegistry
        return ModelRegistry(registry_dir).get(target)
    raise ProphetError(
        f"{target!r} is neither a readable model XML file nor a "
        f"built-in model name (one of "
        f"{', '.join(sorted(builders))}); to resolve registry refs, "
        "pass --registry DIR")


def _cmd_check(args) -> int:
    from repro.prophet import PerformanceProphet
    from repro.xmlio.mcf import read_mcf
    config = read_mcf(args.mcf) if args.mcf else None
    model = _resolve_model_target(args.model, args.registry)
    report = PerformanceProphet(model, checking_config=config).check()
    print(report.render())
    return 0 if report.ok else 1


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import ModelAnalyzer
    from repro.uml.hashing import model_structural_hash
    from repro.xmlio.mcf import read_mcf
    config = read_mcf(args.mcf) if args.mcf else None
    sizes = (tuple(_parse_int_list(args.sizes, "sizes"))
             if args.sizes else None)
    model = _resolve_model_target(args.model, args.registry)
    analyzer = ModelAnalyzer(config, sizes)
    report = analyzer.analyze(model, model_structural_hash(model))
    if args.format == "json":
        print(json.dumps(report.to_payload(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_transform(args) -> int:
    prophet = _load(args.model)
    if args.to == "cpp":
        artifacts = prophet.to_cpp()
        text = (artifacts.numbered_source() + "\n" if args.numbered
                else artifacts.source)
        extra = artifacts.header if args.header else None
    elif args.to == "python":
        artifacts = prophet.to_python()
        text, extra = artifacts.source, None
    else:
        artifacts = prophet.to_skeleton()
        text, extra = artifacts.source, None
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
        if extra is not None:
            header_path = Path(args.output).with_name("prophet_runtime.h")
            header_path.write_text(extra, encoding="utf-8")
            print(f"wrote {header_path}")
    else:
        print(text, end="")
        if extra is not None:
            print(extra, end="")
    return 0


def _cmd_simulate(args) -> int:
    from repro.machine.network import NetworkConfig
    from repro.machine.params import SystemParameters
    prophet = _load(args.model)
    params = SystemParameters(
        nodes=args.nodes, processors_per_node=args.ppn,
        processes=args.processes, threads_per_process=args.threads,
        placement=args.placement)
    network = NetworkConfig(latency=args.latency,
                            bandwidth=args.bandwidth)
    if args.mode == "analytic":
        print(prophet.estimate_analytic(params, network).summary())
        return 0
    result = prophet.estimate(params, network, mode=args.mode,
                              seed=args.seed)
    print(prophet.report(result, with_gantt=not args.no_gantt))
    if args.trace:
        result.write_trace_file(args.trace, args.trace_format)
        print(f"\nwrote trace to {args.trace}")
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ProphetError(
            f"--{what} expects comma-separated integers, got {text!r}"
        ) from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(piece) for piece in text.split(",")
                  if piece.strip()]
    except ValueError:
        raise ProphetError(
            f"--{what} expects comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise ProphetError(f"--{what} has no values")
    return values


def _parse_param_axes(specs: list[str],
                      flag: str = "--param") -> dict[str, list[str]]:
    axes: dict[str, list[str]] = {}
    for spec in specs:
        name, eq, values = spec.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ProphetError(
                f"{flag} expects NAME=V1,V2,..., got {spec!r}")
        axes[name] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[name]:
            raise ProphetError(f"{flag} {name} has no values")
    return axes


def _sweep_models(args):
    sources = sum(bool(x) for x in (args.model, args.kind,
                                    args.scenario))
    if sources > 1:
        raise ProphetError(
            "give exactly one of a model file, --kind, or --scenario")
    if sources == 0:
        raise ProphetError(
            "sweep needs a model XML file, --kind, or --scenario")
    if args.scenario:
        return []
    if args.model:
        from repro.xmlio.reader import read_model
        return [(args.model, read_model(args.model))]
    from repro.service.registry import builtin_model_builders
    model = builtin_model_builders()[args.kind]()
    return [(model.name, model)]


def _run_sweep_from_args(args, progress=print):
    """Build the spec from shared sweep/profile axes and run it."""
    from repro.sweep import Campaign, ResultCache, SweepSpec, run_sweep

    if args.scenario_param and not args.scenario:
        raise ProphetError("--scenario-param requires --scenario")
    campaign_id = getattr(args, "campaign", None)
    resume_id = getattr(args, "resume", None)
    if (campaign_id or resume_id) and not args.cache_dir:
        raise ProphetError(
            "--campaign/--resume journal next to the result cache; "
            "give --cache-dir")
    spec = SweepSpec(
        models=_sweep_models(args),
        scenario=args.scenario,
        scenario_params=_parse_param_axes(args.scenario_param,
                                          flag="--scenario-param"),
        processes=_parse_int_list(args.processes, "processes"),
        backends=[b.strip() for b in args.backends.split(",") if b.strip()],
        seeds=_parse_int_list(args.seeds, "seeds"),
        overrides=_parse_param_axes(args.param),
        nodes=args.nodes,
        processors_per_node=args.ppn,
        threads_per_process=args.threads,
        placement=args.placement,
        latencies=_parse_float_list(args.latency, "latency"),
        bandwidths=_parse_float_list(args.bandwidth, "bandwidth"),
    )
    durable = getattr(args, "fsync", False)
    cache = (ResultCache(args.cache_dir, durable=durable)
             if args.cache_dir else None)
    campaign = None
    if campaign_id:
        campaign = Campaign.start(args.cache_dir, campaign_id,
                                  durable=durable)
        progress(campaign.describe())
    elif resume_id:
        campaign = Campaign.resume(args.cache_dir, resume_id,
                                   durable=durable)
        progress(campaign.describe())
    executor = "process" if args.jobs > 0 else "serial"
    return run_sweep(spec, cache=cache, executor=executor,
                     max_workers=args.jobs or None, progress=progress,
                     job_timeout=args.job_timeout,
                     max_retries=args.max_retries, campaign=campaign)


def _cmd_sweep(args) -> int:
    result = _run_sweep_from_args(args)
    if not args.no_table:
        print(result.table())
        print()
    if args.speedup:
        tables = result.speedup_tables()
        if tables:
            print(tables)
            print()
    print(result.summary())
    if args.csv:
        path = result.write_csv(args.csv)
        print(f"wrote {path}")
    if args.metrics_out:
        from repro import obs
        path = obs.write_metrics_file(args.metrics_out,
                                      obs.global_registry())
        print(f"wrote metrics to {path}")
    return 0 if not result.failed() else 1


def _metric_summary(exported: dict, top: int) -> str:
    """A compact one-line-per-family view of a metrics export."""
    lines = []
    for name, entry in exported.items():
        if entry["type"] == "histogram":
            count = sum(s["count"] for s in entry["series"])
            total = sum(s["sum"] for s in entry["series"])
            value = f"{count} obs, sum {total:.6g}"
        else:
            value = f"{sum(s['value'] for s in entry['series']):g}"
            if len(entry["series"]) > 1:
                value += f" over {len(entry['series'])} series"
        lines.append((name, value))
    if top > 0:
        lines = lines[:top]
    width = max((len(name) for name, _ in lines), default=0)
    return "\n".join(f"  {name:<{width}}  {value}"
                     for name, value in lines)


def _cmd_profile(args) -> int:
    from repro import obs

    # A pool would hide worker time from the (process-local) profiler;
    # profiling still honors --jobs for A/B runs, but the default serial
    # run is what the span tree fully explains.
    obs.global_registry().reset()
    with obs.detail(), obs.profiling() as profiler:
        result = _run_sweep_from_args(args, progress=lambda *_: None)
    print(result.summary())
    print()
    print(profiler.render(min_share=args.min_share))
    exported = obs.export_json(obs.global_registry())
    if exported:
        print()
        shown = len(exported) if args.top <= 0 else min(args.top,
                                                        len(exported))
        print(f"metrics ({shown} of {len(exported)} families):")
        print(_metric_summary(exported, args.top))
    if args.metrics_out:
        path = obs.write_metrics_file(args.metrics_out,
                                      obs.global_registry(),
                                      spans=profiler.to_json())
        print(f"\nwrote metrics to {path}")
    return 0 if not result.failed() else 1


def _cmd_scenarios(args) -> int:
    from repro.scenarios import all_scenarios, get_scenario

    def describe(spec) -> None:
        print(f"{spec.name}: {spec.description}")
        for param in spec.params:
            bounds = f">= {param.minimum:g}"
            if param.maximum is not None:
                bounds += f", <= {param.maximum:g}"
            structural = " [structural]" if param.structural else ""
            print(f"  {param.name:<12} {param.kind.__name__:<6} "
                  f"default {param.default!r:<10} ({bounds})"
                  f"{structural}  {param.doc}")
        print(f"  analytic band: {spec.analytic_rtol:g} relative")

    if args.name:
        describe(get_scenario(args.name))
        return 0
    print("scenario library (sweep with `prophet sweep --scenario "
          "<name> --scenario-param knob=v1,v2,...`):\n")
    for spec in all_scenarios():
        describe(spec)
        print()
    return 0


def build_service_server(args):
    """The (server, service) pair ``prophet serve`` runs.

    Split from :func:`_cmd_serve` so tests (and embedders) can bind an
    ephemeral port and drive the server on a thread instead of blocking
    on ``serve_forever``.
    """
    from repro.service import EvaluationService, make_server
    if args.persistent_pool:
        executor = "process-persistent"
    elif args.jobs > 0:
        executor = "process"
    else:
        executor = "serial"
    service = EvaluationService(
        args.registry, cache=args.cache_dir,
        executor=executor,
        max_workers=args.jobs or None,
        job_timeout=getattr(args, "job_timeout", None),
        max_retries=getattr(args, "max_retries", 0),
        instance_id=getattr(args, "replica_id", None),
        durable=getattr(args, "fsync", False))
    from repro.uml.hashing import short_ref
    for kind in (k.strip() for k in args.preload.split(",") if k.strip()):
        record = service.ingest_sample(kind)
        print(f"preloaded {kind} as {short_ref(record.ref)}")
    server = make_server(
        service, args.host, args.port,
        queue_depth=getattr(args, "queue_depth", 64),
        window_s=getattr(args, "window_ms", 0.0) / 1e3,
        rate_limit=getattr(args, "rate_limit", 0.0),
        burst=getattr(args, "burst", None),
        socket_timeout=getattr(args, "socket_timeout", 30.0))
    if args.verbose:
        server.RequestHandlerClass.quiet = False
    return server, service


def _cmd_serve(args) -> int:
    server, service = build_service_server(args)
    host, port = server.server_address[:2]
    print(f"serving {len(service.registry)} model(s) on "
          f"http://{host}:{port} "
          f"(registry: {args.registry}, cache: "
          f"{args.cache_dir or 'none'}, executor: "
          f"{service.executor_name}, queue depth: "
          f"{args.queue_depth})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        # Graceful drain: stop admitting (new posts get 503 +
        # Retry-After), let in-flight batches finish, then close.
        if not server.drain(args.drain_timeout):
            print(f"drain timed out after {args.drain_timeout:g}s "
                  "with batches still in flight")
        server.server_close()
        service.close()
    return 0


def build_router_server(args):
    """The (server, router) pair ``prophet route`` runs.

    Split from :func:`_cmd_route` for the same reason as
    :func:`build_service_server`: tests and the chaos harness bind
    ephemeral ports and drive the server on a thread.
    """
    from repro.service import EvaluationService
    from repro.service.router import ShardRouter, make_router_server
    urls = [u.strip() for u in args.replicas.split(",") if u.strip()]
    local_service = None
    if args.local_registry:
        local_service = EvaluationService(
            args.local_registry, cache=args.local_cache_dir,
            instance_id="local",
            durable=getattr(args, "fsync", False))
    router = ShardRouter(
        urls,
        replication_factor=args.replication_factor,
        local_service=local_service,
        probe_interval_s=args.probe_interval,
        circuit_threshold=args.circuit_threshold,
        circuit_reset_s=args.circuit_reset,
        hedge_delay_s=args.hedge_delay,
        hedging=not args.no_hedging,
        request_timeout_s=args.request_timeout)
    server = make_router_server(router, args.host, args.port,
                                socket_timeout=args.socket_timeout)
    if args.verbose:
        server.RequestHandlerClass.quiet = False
    return server, router


def _cmd_route(args) -> int:
    server, router = build_router_server(args)
    host, port = server.server_address[:2]
    replicas = ", ".join(f"{replica.replica_id}={replica.base_url}"
                         for replica in router.replicas.values())
    print(f"routing on http://{host}:{port} over {replicas} "
          f"(replication factor {router.replication_factor}, "
          f"local fallback: "
          f"{'yes' if router.local_service else 'no'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        router.close()
    return 0


def _submit_requests(args, ref: str) -> list[dict]:
    """The cross-product of the submit axes as request payloads."""
    network = {}
    if args.latency is not None:
        network["latency"] = args.latency
    if args.bandwidth is not None:
        network["bandwidth"] = args.bandwidth
    requests = []
    for backend in (b.strip() for b in args.backends.split(",")
                    if b.strip()):
        for processes in _parse_int_list(args.processes, "processes"):
            for seed in _parse_int_list(args.seeds, "seeds"):
                params = {"processes": processes,
                          "processors_per_node": args.ppn,
                          "threads_per_process": args.threads,
                          "placement": args.placement}
                if args.nodes is not None:
                    params["nodes"] = args.nodes
                requests.append({"model_ref": ref, "backend": backend,
                                 "params": params, "network": network,
                                 "seed": seed})
    return requests


def _cmd_submit(args) -> int:
    import json

    from repro.service import ServiceClient
    if sum(bool(x) for x in (args.ingest, args.sample, args.ref)) != 1:
        raise ProphetError(
            "give exactly one of --ingest, --sample, or --ref")
    client = ServiceClient(args.url, timeout=args.timeout)
    if args.ingest:
        xml = Path(args.ingest).read_text(encoding="utf-8")
        record = client.ingest_xml(xml, args.label)
        ref = record["ref"]
        print(f"ingested {record['name']} as {record['short_ref']}")
    elif args.sample:
        record = client.ingest_sample(args.sample, args.label)
        ref = record["ref"]
        print(f"ingested {record['name']} as {record['short_ref']}")
    else:
        ref = args.ref

    response = client.evaluate(_submit_requests(args, ref))
    if args.json:
        print(json.dumps(response, indent=1, sort_keys=True))
    results, stats = response["results"], response["stats"]
    failed = [r for r in results if r.get("status") != "ok"]
    if not args.json:
        for result in results:
            if result.get("status") == "ok":
                flags = "".join((
                    "C" if result.get("cached") else "",
                    "=" if result.get("coalesced") else ""))
                print(f"  {result['backend']:<9} "
                      f"p={result['processes']:<3} "
                      f"seed={result['seed']:<3} "
                      f"t={result['predicted_time']:.9g} s "
                      f"events={result['events']} {flags}")
            else:
                print(f"  FAILED: {result.get('error')}")
        print(f"{stats['requests']} request(s): "
              f"{stats['unique_jobs']} unique job(s), "
              f"{stats['coalesced']} coalesced, "
              f"{stats['cache_hits']} cache hit(s)")
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    from repro.bench import run_and_report
    return run_and_report(args.output, smoke=args.smoke,
                          repeats=args.repeats, pool=not args.no_pool,
                          metrics_out=args.metrics_out,
                          loadgen=not args.no_loadgen)


def _cmd_info(args) -> int:
    prophet = _load(args.model)
    stats = prophet.model.statistics()
    print(f"model: {prophet.model.name}")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    print(f"  main diagram: {prophet.model.main_diagram_name}")
    for diagram in prophet.model.diagrams:
        print(f"  diagram {diagram.name!r}: {len(diagram)} nodes, "
              f"{len(diagram.edges)} edges")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
