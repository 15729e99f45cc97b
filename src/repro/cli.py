"""Command-line interface: quick access to the simulators and reports.

Usage::

    python -m repro.cli features
    python -m repro.cli simulate --model mobilenetv2 --device raspberry_pi_4
    python -m repro.cli memory --model resnet50 --device jetson_nano --batch 4
    python -m repro.cli scheme --model bert
    python -m repro.cli profile --model mcunet --device stm32f746 --sparse
    python -m repro.cli deploy --model mcunet_micro --out ./artifact
    python -m repro.cli lint-plan ./artifact
    python -m repro.cli lint-async
    python -m repro.cli devices
"""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import FRAMEWORKS, TABLE1_COLUMNS, feature_row, \
    simulate_training
from .devices import DEVICES, get_device
from .models import REGISTRY, build_model, paper_scheme
from .report import render_table
from .sparse import full_update
from .train import SGD


def _build(model_key: str, batch: int):
    entry = REGISTRY[model_key]
    kwargs = {"batch": batch}
    if entry.family == "transformer" and "llama" in model_key:
        kwargs["seq_len"] = 512 if model_key == "llama7b" else None
    return build_model(model_key, **kwargs), entry.family


def cmd_features(args) -> int:
    rows = []
    for key in ("pytorch", "tensorflow", "jax", "mnn", "tflite_micro",
                "pockengine"):
        profile = FRAMEWORKS[key]
        features = feature_row(profile)
        rows.append([profile.name] + [features[c] for c in TABLE1_COLUMNS])
    print(render_table(["Framework"] + list(TABLE1_COLUMNS), rows))
    return 0


def cmd_devices(args) -> int:
    rows = [
        [d.key, d.kind, f"{d.peak_gflops:.1f}", f"{d.mem_bw_gbs:.1f}",
         f"{d.ram_mb:.0f}", d.preferred_layout]
        for d in DEVICES.values()
    ]
    print(render_table(
        ["Device", "kind", "GFLOP/s", "GB/s", "RAM MB", "layout"], rows))
    return 0


def cmd_simulate(args) -> int:
    forward, family = _build(args.model, args.batch)
    device = get_device(args.device)
    scheme = paper_scheme(forward) if args.sparse else full_update(forward)
    rows = []
    for fw_key in args.frameworks:
        result = simulate_training(
            forward, FRAMEWORKS[fw_key], device, scheme=scheme,
            optimizer=SGD(0.01), model_family=family)
        if result is None:
            rows.append([fw_key, "-", "-", "-", "unavailable"])
        else:
            rows.append([
                fw_key, f"{result.latency_ms:.1f}ms",
                f"{result.throughput_per_s:.2f}/s",
                f"{result.memory_mb:.0f}MB",
                "OOM" if result.oom else "ok",
            ])
    print(render_table(
        ["Framework", "latency", "throughput", "memory", "status"], rows,
        title=f"{args.model} on {device.name} "
              f"({'sparse' if args.sparse else 'full'} scheme, "
              f"batch {args.batch})"))
    return 0


def cmd_memory(args) -> int:
    from .analysis.planlint import plan_intervals
    from .memory import live_load, profile_memory
    from .runtime.compiler import CompileOptions, compile_training
    from .runtime.plan import SLAB_ALIGNMENT

    forward, _ = _build(args.model, args.batch)
    scheme = paper_scheme(forward) if args.sparse else full_update(forward)
    program = compile_training(
        forward, optimizer=SGD(0.01), scheme=scheme,
        options=CompileOptions(materialize_state=False,
                               device=get_device(args.device)))
    profile = profile_memory(program.graph, program.schedule)
    spec = program.plan_spec()
    intervals = plan_intervals(spec, program)
    # the floor of any placement of this plan's buffers: the most aligned
    # bytes its slab buffers hold at once
    bound = max(live_load([i for i in intervals if i.offset is not None],
                          SLAB_ALIGNMENT))
    print(render_table(["metric", "value"], [
        ["scheme", scheme.name],
        ["graph nodes", len(program.graph.nodes)],
        ["schedule's peak estimate",
         f"{profile.peak_transient_bytes / 1024:.1f}KB"],
        ["weights + state", f"{profile.resident_bytes / 1024:.1f}KB"],
        ["schedule's peak total",
         f"{profile.peak_total_bytes / (1 << 20):.1f}MB"],
        ["plan peak transient",
         f"{spec.peak_transient_bytes / 1024:.1f}KB"],
        ["static slab", f"{spec.slab_bytes / 1024:.1f}KB"],
        ["live-load bound", f"{bound / 1024:.1f}KB"],
        ["slab / live-load bound", f"{spec.slab_bytes / max(1, bound):.3f}"],
    ]))

    # Why the plan's peak is what it is: the storage held at that
    # instruction, and what the forward pass keeps for the backward — each
    # buffer named after the value in it at the instruction shown (an
    # in-place reuse chain holds several over its life).
    instrs = spec.instructions
    timeline = live_load(intervals, 1)[:len(instrs)]
    peak = max(1, spec.peak_transient_bytes)
    at = timeline.index(spec.peak_transient_bytes)
    producer = {out: node.op_type for node in program.schedule
                for out in node.outputs}
    live = sorted((i for i in intervals if i.birth <= at <= i.death),
                  key=lambda i: -i.nbytes)

    def row(i):
        name = i.name_at(at)
        value = program.graph.spec(name)
        return [name, producer.get(name, "feed"),
                "x".join(map(str, value.shape)) or "scalar",
                value.dtype.value, i.nbytes, f"{i.birth}-{i.death}",
                f"{i.nbytes / peak:.1%}"]

    print()
    print(render_table(
        ["value", "producer", "shape", "dtype", "bytes", "born-dies",
         "share"], [row(i) for i in live],
        title=f"live at the plan's peak: instruction {at} of {len(instrs)} "
              f"({instrs[at].kernel}), {spec.peak_transient_bytes} bytes"))

    # What removing that peak would buy: the next two distinct levels the
    # plan holds, each with the first instruction at it. Bringing every one
    # at or above a level down leaves the peak at the level below it.
    levels = sorted(set(timeline), reverse=True)[:4]
    moments = [(timeline.index(level), level, below)
               for level, below in zip(levels, levels[1:])]
    print()
    print(render_table(
        ["instr", "kernel", "bytes", "of peak", "peak without"],
        [[pos, instrs[pos].kernel, level, f"{level / peak:.1%}", below]
         for pos, level, below in moments],
        title="the peak and the next two moments"))

    nodes = {node.name: node for node in program.schedule}
    loss_at = next(pos for pos, instr in enumerate(instrs)
                   if program.meta["loss"] in nodes[instr.node].outputs)
    held: dict[str, list[int]] = {}
    for i in intervals:
        if i.birth <= loss_at < i.death:
            entry = held.setdefault(producer.get(i.name_at(loss_at), "feed"),
                                    [0, 0])
            entry[0] += 1
            entry[1] += i.nbytes
    total = max(1, sum(nbytes for _, nbytes in held.values()))
    print()
    print(render_table(
        ["producer", "values", "bytes", "share"],
        [[op, count, nbytes, f"{nbytes / total:.1%}"] for op, (count, nbytes)
         in sorted(held.items(), key=lambda item: -item[1][1])]
        + [["total", sum(c for c, _ in held.values()), total, "100.0%"]],
        title=f"held for backward: born by the loss (instruction "
              f"{loss_at}), read after it"))
    return 0


def cmd_scheme(args) -> int:
    forward, _ = _build(args.model, args.batch)
    scheme = paper_scheme(forward)
    meta = forward.metadata.get("params", {})
    rows = [
        [param, f"{ratio:.2f}", meta.get(param, {}).get("role", "?"),
         meta.get(param, {}).get("block", "-")]
        for param, ratio in sorted(scheme.updates.items())
    ]
    print(render_table(["Parameter", "ratio", "role", "block"], rows,
                       title=f"paper scheme for {args.model}: {scheme.name} "
                             f"({len(rows)} of "
                             f"{len(forward.trainable)} tensors)"))
    return 0


def cmd_profile(args) -> int:
    from .runtime import analytical_profile
    from .runtime.compiler import CompileOptions, compile_training

    forward, _ = _build(args.model, args.batch)
    device = get_device(args.device)
    scheme = paper_scheme(forward) if args.sparse else full_update(forward)
    program = compile_training(
        forward, optimizer=SGD(0.01), scheme=scheme,
        options=CompileOptions(materialize_state=False, device=device))
    profile = analytical_profile(program.graph, program.schedule, device)
    rows = [[op, count, f"{us / 1000:.2f}ms",
             f"{us / profile.total_us:.1%}"]
            for op, (count, us) in list(profile.by_op_type().items())[:12]]
    print(render_table(
        ["Op", "count", "time", "share"], rows,
        title=f"{args.model} training step on {device.name} "
              f"({scheme.name}): {profile.total_us / 1000:.1f}ms total"))
    if args.trace:
        path = profile.save_chrome_trace(args.trace)
        print(f"\nchrome://tracing timeline written to {path}")
    return 0


def cmd_deploy(args) -> int:
    from .deploy import estimate_binary_size, load_artifact, save_artifact
    from .runtime.compiler import compile_training

    forward, _ = _build(args.model, args.batch)
    scheme = paper_scheme(forward) if args.sparse else full_update(forward)
    program = compile_training(forward, optimizer=SGD(0.01), scheme=scheme)
    save_artifact(program, args.out)
    deployed = load_artifact(args.out)  # verify the round trip
    report = estimate_binary_size(deployed.graph,
                                  deployed.program.schedule)
    print(render_table(["metric", "value"], [
        ["artifact", args.out],
        ["kernels linked", report.num_kernels],
        ["code", f"{report.code_bytes / 1024:.1f}KB"],
        ["weights", f"{report.weight_bytes / 1024:.1f}KB"],
        ["arena", f"{deployed.arena_bytes / 1024:.1f}KB"],
    ], title=f"deployable training artifact for {args.model}"))
    return 0


def cmd_lint_plan(args) -> int:
    from pathlib import Path

    from .analysis import report_for
    from .deploy import load_artifact
    from .errors import ReproError

    # verify=False: collect every finding into one report instead of
    # stopping at the first PlanVerifyError like a normal load would.
    try:
        deployed = load_artifact(args.artifact, verify=False)
    except ReproError as exc:
        print(f"lint-plan: cannot load {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    report = report_for(deployed.program.plan_spec(), deployed.program,
                        target=str(args.artifact))
    print(report.render())
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=1))
    return 0 if report.ok else 1


def cmd_lint_async(args) -> int:
    from pathlib import Path

    from .analysis import lint_tree, worker_import_report

    src_root = Path(__file__).resolve().parents[1]
    target = Path(args.path) if args.path else src_root / "repro" / "serve"
    reports = [lint_tree(str(target)), worker_import_report(str(src_root))]
    for report in reports:
        print(report.render())
        print()
    if args.json:
        Path(args.json).write_text(json.dumps(
            [report.to_dict() for report in reports], indent=1))
    return 0 if all(report.ok for report in reports) else 1


def _serve_http(args) -> int:
    """Run the HTTP front door until SIGINT; shut down with zero hangs."""
    import time

    from .serve import FineTuneService
    from .serve.gateway import GatewayServer

    if args.log_json:
        from .obs import configure_json_logging
        configure_json_logging()
    auth_tokens = None
    if args.auth_token_file:
        with open(args.auth_token_file, encoding="utf-8") as fh:
            auth_tokens = json.load(fh)
        if not isinstance(auth_tokens, dict) or not auth_tokens or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in auth_tokens.items()):
            print("error: --auth-token-file must hold a non-empty JSON "
                  "object mapping token strings to tenant-id strings",
                  file=sys.stderr)
            return 2
    with FineTuneService(cache_capacity=args.cache_capacity,
                         max_batch=args.max_batch,
                         workers=args.workers,
                         backend=args.backend,
                         batch_hold_ms=args.batch_hold_ms,
                         cache_dir=args.cache_dir,
                         max_sessions=args.max_sessions,
                         session_ttl=args.session_ttl,
                         trace_sample=args.trace_sample,
                         slow_ms=args.slow_ms,
                         checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=args.checkpoint_every,
                         keep_checkpoints=args.keep_checkpoints) as service:
        gateway = GatewayServer(
            service, host=args.host, port=args.http,
            max_queue_depth=args.max_queue_depth,
            rate_limit=args.rate_limit, rate_burst=args.rate_burst,
            auth_tokens=auth_tokens)
        gateway.start()
        limit = (f"{args.rate_limit:g}/s per tenant" if args.rate_limit
                 else "off")
        print(f"repro serve: listening on {gateway.url} "
              f"(backend={args.backend}, "
              f"max_queue_depth={args.max_queue_depth}, "
              f"rate_limit={limit})", flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            print("\nrepro serve: SIGINT — draining in-flight work",
                  flush=True)
        finally:
            drained = gateway.close(drain_timeout=args.drain_timeout)
            print(service.render_metrics())
            if drained:
                print("shutdown: queue drained cleanly", flush=True)
            else:
                print(f"shutdown: drain exceeded {args.drain_timeout}s; "
                      f"queued requests cancelled", flush=True)
    return 0


def cmd_serve(args) -> int:
    import time

    import numpy as np

    from .serve import FineTuneService

    # argparse already restricts --model to micro (test-scale executable)
    # registry entries, so no runtime re-check is needed here.
    for name in ("tenants", "steps", "max_batch", "workers",
                 "cache_capacity"):
        if getattr(args, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1",
                  file=sys.stderr)
            return 2

    if args.http is not None:
        return _serve_http(args)

    if args.log_json:
        from .obs import configure_json_logging
        configure_json_logging()
    rng = np.random.default_rng(args.seed)
    with FineTuneService(cache_capacity=args.cache_capacity,
                         max_batch=args.max_batch,
                         workers=args.workers,
                         backend=args.backend,
                         batch_hold_ms=args.batch_hold_ms,
                         cache_dir=args.cache_dir,
                         max_sessions=args.max_sessions,
                         session_ttl=args.session_ttl,
                         trace_sample=args.trace_sample,
                         slow_ms=args.slow_ms,
                         checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=args.checkpoint_every,
                         keep_checkpoints=args.keep_checkpoints) as service:
        scheme = "paper" if args.sparse else "full"
        sessions = [
            service.create_session(args.model, scheme=scheme,
                                   tenant=f"tenant-{i:02d}")
            for i in range(args.tenants)
        ]
        family = sessions[0].family
        service.warm(sessions[0].id)

        def example():
            if np.issubdtype(family.example_dtype, np.integer):
                x = rng.integers(0, 8, size=family.example_shape)
            else:
                x = rng.standard_normal(family.example_shape)
            y = rng.integers(0, family.num_classes, size=family.label_shape)
            return (x.astype(family.example_dtype),
                    y.astype(family.label_dtype))

        began = time.perf_counter()
        futures = []
        for _ in range(args.steps):       # interleaved tenant traffic
            for session in sessions:
                x, y = example()
                futures.append(service.submit(session.id, x, y))
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - began

        requests = len(futures)
        print(render_table(["tenant", "steps", "examples", "last loss"], [
            [s.tenant, s.steps, s.examples, f"{s.last_loss:.4f}"]
            for s in sessions
        ], title=f"{args.model} ({scheme} scheme) — {args.tenants} tenants, "
                 f"{args.backend} backend"))
        print()
        print(service.render_metrics())
        print()
        stats = service.cache.stats
        if args.cache_dir:
            print(f"program cache dir {args.cache_dir}: "
                  f"{stats.compiles} compiled, {stats.disk_hits} reloaded "
                  f"from disk, {stats.disk_writes} persisted")
        print(f"{requests} requests in {elapsed:.2f}s = "
              f"{requests / elapsed:.1f} steps/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PockEngine reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("features", help="Table-1 framework feature matrix")
    sub.add_parser("devices", help="list simulated edge devices")

    sim = sub.add_parser("simulate", help="simulate a training iteration")
    sim.add_argument("--model", required=True, choices=sorted(REGISTRY))
    sim.add_argument("--device", required=True, choices=sorted(DEVICES))
    sim.add_argument("--batch", type=int, default=8)
    sim.add_argument("--sparse", action="store_true",
                     help="use the paper's sparse scheme")
    sim.add_argument("--frameworks", nargs="+",
                     default=["pytorch", "tensorflow", "pockengine"],
                     choices=sorted(FRAMEWORKS))

    mem = sub.add_parser("memory", help="memory plan for one configuration")
    mem.add_argument("--model", required=True, choices=sorted(REGISTRY))
    mem.add_argument("--device", default="raspberry_pi_4",
                     choices=sorted(DEVICES))
    mem.add_argument("--batch", type=int, default=1)
    mem.add_argument("--sparse", action="store_true")

    sch = sub.add_parser("scheme", help="show the paper scheme for a model")
    sch.add_argument("--model", required=True, choices=sorted(REGISTRY))
    sch.add_argument("--batch", type=int, default=1)

    prof = sub.add_parser("profile",
                          help="per-op latency breakdown on a device")
    prof.add_argument("--model", required=True, choices=sorted(REGISTRY))
    prof.add_argument("--device", default="raspberry_pi_4",
                      choices=sorted(DEVICES))
    prof.add_argument("--batch", type=int, default=1)
    prof.add_argument("--sparse", action="store_true")
    prof.add_argument("--trace", help="write a chrome://tracing JSON here")

    dep = sub.add_parser("deploy",
                         help="freeze a training step into an artifact")
    dep.add_argument("--model", required=True, choices=sorted(REGISTRY))
    dep.add_argument("--out", required=True)
    dep.add_argument("--batch", type=int, default=1)
    dep.add_argument("--sparse", action="store_true")

    lint_plan = sub.add_parser(
        "lint-plan",
        help="statically verify an artifact's execution plan")
    lint_plan.add_argument("artifact", help="artifact directory to check")
    lint_plan.add_argument("--json", metavar="PATH",
                           help="also write the report as JSON here")

    lint_async = sub.add_parser(
        "lint-async",
        help="flag event-loop blockers in the serving stack and verify "
             "the step worker's import closure stays compiler-free")
    lint_async.add_argument("--path", default=None,
                            help="directory to lint (default: the "
                                 "installed repro.serve package)")
    lint_async.add_argument("--json", metavar="PATH",
                            help="also write the reports as JSON here")

    srv = sub.add_parser(
        "serve", help="run a multi-tenant fine-tuning service demo")
    srv.add_argument("--model", default="mcunet_micro",
                     choices=sorted(k for k, e in REGISTRY.items()
                                    if e.micro))
    srv.add_argument("--tenants", type=int, default=8)
    srv.add_argument("--steps", type=int, default=16,
                     help="step requests per tenant")
    srv.add_argument("--max-batch", type=int, default=8,
                     help="largest micro-batch the scheduler coalesces")
    srv.add_argument("--workers", type=int, default=2)
    srv.add_argument("--backend", default="thread",
                     choices=["thread", "process"],
                     help="step executors: in-process threads, or a "
                          "process pool fed from persisted plan artifacts")
    srv.add_argument("--batch-hold-ms", type=float, default=0.0,
                     metavar="MS",
                     help="let the scheduler hold an undersized batch up "
                          "to MS for more same-program arrivals (0 = cut "
                          "immediately); fill lands in serve.batch_fill")
    srv.add_argument("--cache-dir",
                     help="persist compiled programs (graph + execution "
                          "plan) here; restarts and worker processes "
                          "reload instead of recompiling")
    srv.add_argument("--max-sessions", type=int, default=None,
                     help="session cap; beyond it idle-LRU tenants are "
                          "evicted")
    srv.add_argument("--session-ttl", type=float, default=None,
                     help="evict tenant sessions idle this many seconds")
    srv.add_argument("--cache-capacity", type=int, default=32)
    srv.add_argument("--http", type=int, default=None, metavar="PORT",
                     help="serve the HTTP gateway on PORT (0 = ephemeral) "
                          "instead of running the in-process demo; "
                          "Ctrl-C shuts down cleanly")
    srv.add_argument("--host", default="127.0.0.1",
                     help="gateway bind address (with --http)")
    srv.add_argument("--max-queue-depth", type=int, default=64,
                     help="shed step requests with 429 once the live "
                          "scheduler queue reaches this watermark")
    srv.add_argument("--rate-limit", type=float, default=None,
                     help="per-tenant step admission rate (requests/s); "
                          "past it the gateway answers 429 + Retry-After")
    srv.add_argument("--rate-burst", type=float, default=None,
                     help="per-tenant burst size (default: one second of "
                          "--rate-limit, floored at 1)")
    srv.add_argument("--auth-token-file", default=None, metavar="PATH",
                     help="JSON file mapping bearer tokens to tenant ids; "
                          "when set, every route but /v1/healthz requires "
                          "Authorization: Bearer and sessions are pinned "
                          "to the token's tenant")
    srv.add_argument("--checkpoint-dir", default=None,
                     help="persist session checkpoints under this "
                          "directory (enables the restore-from-store "
                          "routes)")
    srv.add_argument("--checkpoint-every", type=int, default=0,
                     metavar="N",
                     help="auto-checkpoint a session every N applied "
                          "steps (0 = manual checkpoints only; needs "
                          "--checkpoint-dir)")
    srv.add_argument("--keep-checkpoints", type=int, default=3,
                     help="checkpoint versions retained per session")
    srv.add_argument("--drain-timeout", type=float, default=10.0,
                     help="on shutdown, wait this long for queued steps "
                          "before cancelling them")
    srv.add_argument("--trace-sample", type=int, default=0, metavar="N",
                     help="record per-instruction kernel timings for 1 in "
                          "N executed batches (0 = off); aggregates show "
                          "in metrics, events in GET /v1/trace")
    srv.add_argument("--slow-ms", type=float, default=None,
                     help="log a structured warning with the full span "
                          "breakdown for requests slower than this")
    srv.add_argument("--log-json", action="store_true",
                     help="emit one JSON object per log line (request-ID "
                          "correlated) instead of plain text")
    srv.add_argument("--sparse", action="store_true", default=True,
                     help="use the paper's sparse scheme (default)")
    srv.add_argument("--full", dest="sparse", action="store_false",
                     help="full-update scheme instead of sparse")
    srv.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "features": cmd_features,
        "devices": cmd_devices,
        "simulate": cmd_simulate,
        "memory": cmd_memory,
        "scheme": cmd_scheme,
        "profile": cmd_profile,
        "deploy": cmd_deploy,
        "lint-plan": cmd_lint_plan,
        "lint-async": cmd_lint_async,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
