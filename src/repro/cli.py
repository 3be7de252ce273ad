"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [fig4 .. fig10] [--max-nodes N] [--plot/--no-plot]`` — run the
  paper's scaling figures on the machine model and print their series
  (and ASCII plots).
* ``validate`` — run all three applications through the runtime under
  every configuration and compare against the serial references.
* ``demo`` — a one-minute index-launch walkthrough (same content as
  ``examples/quickstart.py``'s summary).
* ``lint <file>... [--json]`` — run the whole-program static interference
  linter over mini-Regent sources (``.rg`` files, or python files with an
  embedded ``SOURCE = \"\"\"...\"\"\"`` program).  Exits 1 on a
  statically-proven race, 2 on a parse error.
* ``profile <app> [--out trace.json]`` — run one application with the
  pipeline profiler attached and export a Chrome-trace/Perfetto JSON (or
  JSONL / text summary).  See ``docs/observability.md``.
* ``faultsim <app> [--fault SPEC ...]`` — run an application twice, once
  fault-free and once under a deterministic fault plan, and compare every
  byte.  Exits 0 when all faults were recovered and the runs are
  identical, 1 on a mismatch (or a plan that never fired), 2 when the
  plan was unrecoverable (poisoned launches, reported as one line).  See
  ``docs/fault-tolerance.md``.
* ``check [--config WxSxF] [--mutate NAME] [--trace OUT.json]
  [--conform]`` — explicit-state model checking of the worker-generation
  commit protocol and the poison-propagation protocol.  Exits 0 when every
  invariant holds on every reachable state, 1 when a counterexample is
  found (``--mutate`` runs seeded-broken variants that *must* fail).  See
  ``docs/formal-verification.md``.
* ``serve [--port P] [--persist-dir DIR] ...`` — run the always-on
  session service: many concurrent client sessions multiplexed onto one
  shared worker pool, with bounded persistent analysis caches.  Shuts
  down cleanly (drains, persists, exits 0) on SIGTERM/SIGINT.  See
  ``docs/service.md``.
* ``loadgen --port P [--clients N] [--out REPORT.JSON]`` — drive a
  running service with synthetic concurrent clients and report sustained
  launches/sec plus issuance latency percentiles.

Operational errors (bad arguments, unwritable output paths) exit with
status 2 and a one-line message — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.exec.transport import TRANSPORTS

#: every ``--transport`` flag offers exactly what the engine can spawn
TRANSPORT_CHOICES = tuple(sorted(TRANSPORTS))

__all__ = ["main"]


class CLIError(Exception):
    """A user-facing operational error: printed as one line, exit code 2."""


def _require_min(value, minimum: int, flag: str) -> None:
    """Shared numeric-option guard: ``None`` is fine (defaulted), anything
    below ``minimum`` is an operational error (exit 2, one line)."""
    if value is not None and value < minimum:
        raise CLIError(f"{flag} must be >= {minimum}")


def _write_file(path: str, writer) -> None:
    """Run ``writer(path)``, converting output-side OSErrors into the
    one-line exit-2 contract every subcommand shares."""
    try:
        writer(path)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc.strerror or exc}")


def _cmd_figures(args) -> int:
    from repro.bench.figures import FIGURES, run_figure
    from repro.bench.plots import ascii_plot
    from repro.bench.reporting import format_series_table

    names = args.names or sorted(FIGURES, key=lambda s: int(s[3:]))
    for name in names:
        if name not in FIGURES:
            print(f"unknown figure {name!r}; choose from {sorted(FIGURES)}",
                  file=sys.stderr)
            return 2
        spec = run_figure(name, max_nodes=args.max_nodes)
        print()
        print(format_series_table(
            spec.results, spec.metric, spec.unit_scale, spec.unit_label,
            title=spec.title,
        ))
        if args.plot:
            print()
            print(ascii_plot(
                spec.results, spec.metric, spec.unit_scale,
                title=spec.title, logy=(spec.metric == "throughput"),
            ))
    return 0


def _cmd_validate(args) -> int:
    from repro.apps.circuit import (
        CircuitConfig, build_circuit, reference_circuit, run_circuit,
    )
    from repro.apps.soleil import (
        SoleilConfig, build_soleil, reference_soleil, run_soleil,
    )
    from repro.apps.stencil import (
        StencilConfig, build_stencil, reference_stencil, run_stencil,
    )
    from repro.runtime import Runtime, RuntimeConfig

    _require_min(args.workers, 1, "--workers")
    failures = 0
    configs = [
        RuntimeConfig(n_nodes=2, dcr=dcr, index_launches=idx,
                      shuffle_intra_launch=True, seed=3,
                      workers=args.workers, transport=args.transport)
        for dcr in (True, False)
        for idx in (True, False)
    ]
    for cfg in configs:
        label = cfg.label
        rt = Runtime(cfg)
        g = build_circuit(rt, CircuitConfig(n_pieces=4, nodes_per_piece=16,
                                            wires_per_piece=32, steps=5))
        ok = np.allclose(run_circuit(rt, g), reference_circuit(g))
        print(f"circuit  [{label:>14}]: {'ok' if ok else 'MISMATCH'}")
        failures += not ok

        rt = Runtime(cfg)
        sc = StencilConfig(n=32, blocks=(2, 2), radius=2, steps=4)
        ok = np.allclose(run_stencil(rt, build_stencil(rt, sc)),
                         reference_stencil(sc))
        print(f"stencil  [{label:>14}]: {'ok' if ok else 'MISMATCH'}")
        failures += not ok

        rt = Runtime(cfg)
        so = SoleilConfig(tiles=(2, 2, 2), cells_per_tile=(3, 3, 3), steps=2)
        res = run_soleil(rt, build_soleil(rt, so))
        ref = reference_soleil(so)
        ok = all(np.allclose(res[k], ref[k]) for k in res)
        print(f"soleil   [{label:>14}]: {'ok' if ok else 'MISMATCH'}")
        failures += not ok
    print()
    print("all configurations validated" if not failures
          else f"{failures} validation failures")
    return 1 if failures else 0


def _cmd_patterns(args) -> int:
    from repro.apps.patterns import PATTERNS, run_pattern
    from repro.runtime import Runtime, RuntimeConfig
    from repro.runtime.pipeline import Stage

    print(f"{'pattern':>13} {'launches':>9} {'tasks':>6} {'ratio':>7} "
          f"{'static':>7} {'dynamic':>8} {'correct':>8}")
    for name in sorted(PATTERNS):
        rt = Runtime(RuntimeConfig(index_launches=True))
        res = run_pattern(name, rt)
        ratio = res.tasks / res.launches
        print(f"{name:>13} {res.launches:>9} {res.tasks:>6} {ratio:>7.1f} "
              f"{rt.stats.launches_verified_static:>7} "
              f"{rt.stats.launches_verified_dynamic:>8} "
              f"{str(res.correct):>8}")
    return 0


def _cmd_demo(args) -> int:
    from repro.core.projection import ModularFunctor
    from repro.data.partition import equal_partition
    from repro.runtime import Runtime, RuntimeConfig, task

    @task(privileges=["reads writes"])
    def bump(ctx, block):
        block.write("v", block.read("v") + 1.0)

    rt = Runtime(RuntimeConfig(n_nodes=4))
    region = rt.create_region("demo", 32, {"v": "f8"})
    part = equal_partition("demo_part", region, 8)
    rt.index_launch(bump, 8, part)                        # static
    rt.index_launch(bump, 8, (part, ModularFunctor(8, 3)))  # dynamic, passes
    rt.index_launch(bump, 8, (part, ModularFunctor(3)))     # fails -> serial
    print("three launches issued over 8 blocks each:")
    print("  statically verified :", rt.stats.launches_verified_static)
    print("  dynamically verified:", rt.stats.launches_verified_dynamic)
    print("  serial fallbacks    :", rt.stats.launches_fallback_serial)
    print("  tasks executed      :", rt.stats.tasks_executed)
    print("region values:", region.storage("v")[:8], "...")
    return 0


def _extract_program(path: str) -> str:
    """Read a mini-Regent program from ``path``.

    ``.rg`` (or any non-python) files are taken verbatim; for ``.py``
    files the embedded ``SOURCE = \"\"\"...\"\"\"`` block(s) are linted,
    which keeps the example scripts checkable without executing them.
    """
    import re

    with open(path) as fh:
        text = fh.read()
    if not path.endswith(".py"):
        return text
    blocks = re.findall(
        r'^[A-Z_]*SOURCE\s*=\s*"""(.*?)"""', text, re.M | re.S
    )
    if not blocks:
        raise ValueError(
            f"{path}: no embedded SOURCE = \"\"\"...\"\"\" program found"
        )
    return "\n".join(blocks)


def _cmd_lint(args) -> int:
    import json

    from repro.compiler.lint import lint_source

    reports = []
    worst = 0
    for path in args.files:
        try:
            source = _extract_program(path)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        report = lint_source(source, path)
        reports.append(report)
        worst = max(worst, report.exit_code)
    if args.json:
        payload = (reports[0].to_dict() if len(reports) == 1
                   else {"programs": [r.to_dict() for r in reports],
                         "exit_code": worst})
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(r.render() for r in reports))
    return worst


_PROFILE_APPS = ("circuit", "stencil", "soleil")


def _cmd_profile(args) -> int:
    from repro.machine.costmodel import CostModel
    from repro.machine.perf import SimConfig, simulate_iteration
    from repro.obs import (
        Profiler, text_summary, validate_chrome_trace_file,
        write_chrome_trace, write_jsonl,
    )
    from repro.runtime import Runtime, RuntimeConfig

    _require_min(args.nodes, 1, "--nodes")
    _require_min(args.steps, 1, "--steps")
    _require_min(args.workers, 1, "--workers")
    cost = CostModel()
    prof = Profiler(costmodel=cost)
    cfg = RuntimeConfig(
        n_nodes=args.nodes,
        dcr=not args.no_dcr,
        index_launches=not args.no_idx,
        workers=args.workers,
        transport=args.transport,
        profiler=prof,
    )
    rt = Runtime(cfg)
    if args.app == "circuit":
        from repro.apps.circuit import (
            CircuitConfig, build_circuit, circuit_iteration, run_circuit,
        )
        graph = build_circuit(rt, CircuitConfig(
            n_pieces=max(2 * args.nodes, 4), steps=args.steps))
        run_circuit(rt, graph)
        spec = circuit_iteration(args.nodes)
    elif args.app == "stencil":
        from repro.apps.stencil import (
            StencilConfig, build_stencil, run_stencil, stencil_iteration,
        )
        grid = build_stencil(rt, StencilConfig(
            n=32, blocks=(2, 2), radius=2, steps=args.steps))
        run_stencil(rt, grid)
        spec = stencil_iteration(args.nodes)
    else:
        from repro.apps.soleil import (
            SoleilConfig, build_soleil, run_soleil, soleil_iteration,
        )
        state = build_soleil(rt, SoleilConfig(
            tiles=(2, 2, 2), cells_per_tile=(3, 3, 3),
            steps=min(args.steps, 3)))
        run_soleil(rt, state)
        spec = soleil_iteration(args.nodes)

    # Machine-model pass: the same workload through the simulator, emitting
    # simulated-time tracks alongside the wall-clock pipeline spans.
    simulate_iteration(
        spec,
        SimConfig(n_nodes=args.nodes, dcr=cfg.dcr, idx=cfg.index_launches),
        cost,
        profiler=prof,
    )

    wrote = False
    if args.out:
        _write_file(args.out,
                    lambda p: write_chrome_trace(p, prof, stats=rt.stats))
        problems = validate_chrome_trace_file(args.out)
        if problems:
            raise CLIError(f"{args.out}: emitted trace failed validation: "
                           f"{problems[0]}")
        print(f"wrote {args.out} "
              f"({len(prof.wall_spans())} wall spans, "
              f"{len(prof.sim_spans())} simulated activities); "
              f"open in https://ui.perfetto.dev")
        wrote = True
    if args.jsonl:
        _write_file(args.jsonl, lambda p: write_jsonl(p, prof))
        print(f"wrote {args.jsonl}")
        wrote = True
    if args.summary or not wrote:
        print(text_summary(prof, stats=rt.stats))
    if args.bench_summary:
        print(_bench_summary_table(rt))
    return 0


def _bench_summary_table(rt) -> str:
    """The hot-path engine's counter table (see docs/hot-path.md).

    Collects the three layers' counters — shared-memory transport, batched
    physical commit, precompiled check/dependence kernels — the users the
    physical analyzer retired at launch level, the launches it analysed by
    colour and the region columns it could not (one row per miss code that
    occurred), the units workers ran from their plan memo, the parallel
    fallbacks with one row per reason code that occurred, and hits /
    misses / evictions per layer of every analysis store, from wherever
    they live (runtime, backend, pool arena) into one aligned block.
    """
    from repro.runtime.kernels import GLOBAL_CHECK_KERNELS
    from repro.runtime.store import PROCESS_STORE

    rows = [
        ("dependence kernel replays", rt.physical.kernel_replays),
        ("launch retired", rt.physical.launch_retired),
        ("launch aligned", rt.physical.launch_aligned),
    ]
    rows += [(f"colour miss {code}", n)
             for code, n in sorted(rt.physical.colour_misses.items())]
    rows += [
        ("check kernel hits", GLOBAL_CHECK_KERNELS.hits),
        ("check kernel misses", GLOBAL_CHECK_KERNELS.misses),
        ("check kernel affine constants", GLOBAL_CHECK_KERNELS.affine_constants),
    ]
    for name, store in dict(rt.analysis_stores(),
                            process=PROCESS_STORE).items():
        for layer in sorted(store.hits.keys() | store.misses.keys()):
            rows.append((
                f"store {name} {layer} hits/misses/evictions",
                f"{store.hits[layer]} / {store.misses[layer]} / "
                f"{store.evictions[layer]}",
            ))
    bstats = getattr(rt.backend, "stats", None)
    if bstats is not None and hasattr(bstats, "batched_commit_ops"):
        rows += [
            ("batched commit ops", bstats.batched_commit_ops),
            ("batched commit tasks", bstats.batched_commit_tasks),
            ("worker plan hits", bstats.worker_plan_hits),
            ("parallel fallbacks", bstats.fallbacks),
        ]
        rows += [
            (f"parallel fallback {code}", n)
            for code, n in sorted(bstats.fallback_reasons.items()) if n
        ]
    pool = getattr(rt.backend, "_pool", None)
    if pool is not None:
        for name, value in pool.arena.stats.as_dict().items():
            rows.append((f"shm {name.replace('_', ' ')}", value))
    width = max(len(label) for label, _ in rows)
    lines = ["hot-path engine counters"]
    lines += [f"  {label.ljust(width)}  {value}" for label, value in rows]
    return "\n".join(lines)


def _cmd_faultsim(args) -> int:
    from repro.fault import FaultPlan, RetryPolicy, parse_fault
    from repro.fault.sim import run_faultsim

    if args.workers < 2:
        raise CLIError("--workers must be >= 2 (faults target the worker "
                       "pool; the serial path has no workers to lose)")
    _require_min(args.steps, 1, "--steps")
    if args.fault:
        try:
            specs = tuple(parse_fault(text) for text in args.fault)
        except ValueError as exc:
            raise CLIError(str(exc))
        plan = FaultPlan(specs=specs, seed=args.seed)
    else:
        plan = FaultPlan.random(args.seed, n_faults=1, workers=args.workers,
                                shards=2)
    retry = None
    if args.timeout is not None:
        if args.timeout <= 0:
            raise CLIError("--timeout must be > 0 seconds")
        retry = RetryPolicy(shard_timeout_s=args.timeout)
    report = run_faultsim(
        args.app, plan, workers=args.workers, steps=args.steps,
        retry=retry, transport=args.transport,
    )
    if report.exit_code == 2:
        print(report.summary_line())
    else:
        print(report.render())
    return report.exit_code


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve.service import ReproService, ServiceConfig

    _require_min(args.workers, 1, "--workers")
    _require_min(args.queue_limit, 1, "--queue-limit")
    _require_min(args.cache_entries, 1, "--cache-entries")
    _require_min(args.cache_bytes, 1, "--cache-bytes")
    service = ReproService(ServiceConfig(
        host=args.host,
        port=args.port,
        token=args.token,
        workers=args.workers,
        transport=args.transport,
        queue_limit=args.queue_limit,
        persist_dir=args.persist_dir,
        cache_entry_budget=args.cache_entries,
        cache_byte_budget=args.cache_bytes,
    ))

    async def _run():
        await service.start()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            asyncio.get_running_loop().add_signal_handler(sig, stop.set)
        # The port line is the startup contract: smoke scripts parse it.
        print(f"repro serve listening on {service.config.host}:"
              f"{service.port}", flush=True)
        await stop.wait()
        await service.shutdown()

    asyncio.run(_run())
    print("repro serve: shut down cleanly", flush=True)
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.serve.loadgen import run_loadgen

    _require_min(args.clients, 1, "--clients")
    _require_min(args.launches, 2, "--launches")
    report = run_loadgen(
        args.host, args.port, token=args.token,
        clients=args.clients, launches=args.launches,
        tenants=args.tenants,
    )
    if args.out:
        def _dump(path):
            with open(path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")

        _write_file(args.out, _dump)
        print(f"wrote {args.out}")
    print(f"{report['total_launches']} launches over "
          f"{report['clients_completed']}/{report['clients']} clients: "
          f"{report['launches_per_s']:.0f} launches/s, "
          f"p50 {report['issue_p50_us']:.0f} us, "
          f"p99 {report['issue_p99_us']:.0f} us")
    for line in report["errors"]:
        print(f"error: {line}", file=sys.stderr)
    if report["errors"] or not report["all_correct"]:
        return 1
    return 0


def _cmd_check(args) -> int:
    import json

    from repro.formal import (
        MUTATIONS, CommitConfig, CommitModel, PoisonConfig, PoisonModel,
        build_mutant, check_payload, explore,
    )
    from repro.obs.metrics import MetricsRegistry

    if args.list_mutations:
        width = max(len(name) for name in MUTATIONS)
        for name in sorted(MUTATIONS):
            kind, desc = MUTATIONS[name]
            print(f"{name:<{width}}  [{kind}]  {desc}")
        return 0

    try:
        commit_cfg = (CommitConfig.parse(args.config)
                      if args.config else CommitConfig())
    except ValueError as exc:
        raise CLIError(str(exc))
    poison_cfg = PoisonConfig()
    _require_min(args.max_states, 1, "--max-states")

    if args.mutate:
        if args.mutate not in MUTATIONS:
            raise CLIError(f"unknown mutation {args.mutate!r}; see "
                           f"'repro check --list-mutations'")
        kind, desc = MUTATIONS[args.mutate]
        models = [build_mutant(args.mutate, commit_config=commit_cfg,
                               poison_config=poison_cfg)]
        print(f"mutation {args.mutate} [{kind}]: {desc}")
    else:
        models = []
        if args.model in ("commit", "all"):
            models.append(CommitModel(commit_cfg))
        if args.model in ("poison", "all"):
            models.append(PoisonModel(poison_cfg))

    metrics = MetricsRegistry()
    payloads = []
    bad = 0
    for model in models:
        label = (model.cfg.describe()
                 if hasattr(model.cfg, "describe") else "")
        result = explore(model, max_states=args.max_states, metrics=metrics)
        name = type(model).__name__
        print(f"{name}{f' ({label})' if label else ''}: {result.summary()}")
        for violation in result.violations:
            print(f"  {violation.headline()}")
        payloads.append(check_payload(model, result))
        bad += not result.ok

    print(f"checked {int(metrics.total('check.states'))} states, "
          f"{int(metrics.total('check.transitions'))} transitions, "
          f"{int(metrics.total('check.violations'))} violation(s) total")

    if args.trace:
        payload = payloads[0] if len(payloads) == 1 else {"models": payloads}

        def _dump(path):
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")

        _write_file(args.trace, _dump)
        print(f"wrote {args.trace}")

    if args.conform:
        from repro.formal.conform import run_conformance

        print()
        print("conformance: replaying checker traces through the real "
              "parallel backend")
        results = run_conformance()
        for res in results:
            print(f"  {res.summary()}")
        bad += sum(not res.ok for res in results)

    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Index launches (SC '21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="run the paper's scaling figures")
    p_fig.add_argument("names", nargs="*", help="fig4 .. fig10 (default all)")
    p_fig.add_argument("--max-nodes", type=int, default=None,
                       help="cap the node axis (faster runs)")
    p_fig.add_argument("--plot", dest="plot", action="store_true",
                       default=True)
    p_fig.add_argument("--no-plot", dest="plot", action="store_false")
    p_fig.set_defaults(fn=_cmd_figures)

    p_val = sub.add_parser("validate",
                           help="check all apps against serial references")
    p_val.add_argument("--workers", type=int, default=None,
                       help="pipeline worker processes per run (default: "
                            "env REPRO_WORKERS, else 1 = serial)")
    p_val.add_argument("--transport", choices=TRANSPORT_CHOICES,
                       default=None,
                       help="worker transport (default: env "
                            "REPRO_TRANSPORT, else pipe)")
    p_val.set_defaults(fn=_cmd_validate)

    p_pat = sub.add_parser(
        "patterns", help="run the Figure-1 task-graph patterns"
    )
    p_pat.set_defaults(fn=_cmd_patterns)

    p_demo = sub.add_parser("demo", help="one-minute index-launch demo")
    p_demo.set_defaults(fn=_cmd_demo)

    p_lint = sub.add_parser(
        "lint", help="static interference linter for mini-Regent programs"
    )
    p_lint.add_argument("files", nargs="+",
                        help=".rg sources (or .py files with an embedded "
                             "SOURCE block)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_lint.set_defaults(fn=_cmd_lint)

    p_prof = sub.add_parser(
        "profile",
        help="run an app with the pipeline profiler; export a Chrome trace",
    )
    p_prof.add_argument("app", choices=_PROFILE_APPS,
                        help="application to profile")
    p_prof.add_argument("--out", default=None, metavar="TRACE.JSON",
                        help="write a Chrome-trace/Perfetto JSON here")
    p_prof.add_argument("--jsonl", default=None, metavar="EVENTS.JSONL",
                        help="write the flat JSONL event log here")
    p_prof.add_argument("--summary", action="store_true",
                        help="print the text summary even when exporting")
    p_prof.add_argument("--nodes", type=int, default=4,
                        help="simulated node count (default 4)")
    p_prof.add_argument("--workers", type=int, default=None,
                        help="pipeline worker processes per run (default: "
                             "env REPRO_WORKERS, else 1 = serial)")
    p_prof.add_argument("--transport", choices=TRANSPORT_CHOICES,
                        default=None,
                        help="worker transport (default: env "
                             "REPRO_TRANSPORT, else pipe)")
    p_prof.add_argument("--steps", type=int, default=5,
                        help="application time steps (default 5)")
    p_prof.add_argument("--no-dcr", action="store_true",
                        help="disable dynamic control replication")
    p_prof.add_argument("--no-idx", action="store_true",
                        help="disable index launches")
    p_prof.add_argument("--bench-summary", action="store_true",
                        help="print the hot-path engine counter table "
                             "(shm transport, batched commit, kernels)")
    p_prof.set_defaults(fn=_cmd_profile)

    p_fault = sub.add_parser(
        "faultsim",
        help="inject deterministic faults, recover, compare bytes",
    )
    p_fault.add_argument("app", choices=("circuit", "stencil"),
                         help="application to run under fault injection")
    p_fault.add_argument("--fault", action="append", default=[],
                         metavar="KIND:SCOPE:TARGET[:PHASE[:TIMES]]",
                         help="fault spec, repeatable (e.g. kill:worker:0, "
                              "hang:shard:1:execution, "
                              "kill:point:0:execution:-1); default: one "
                              "random fault from --seed")
    p_fault.add_argument("--workers", type=int, default=2,
                         help="worker pool size (default 2)")
    p_fault.add_argument("--transport", choices=TRANSPORT_CHOICES,
                         default=None,
                         help="worker transport (default: env "
                              "REPRO_TRANSPORT, else pipe)")
    p_fault.add_argument("--steps", type=int, default=None,
                         help="application time steps (default: app's)")
    p_fault.add_argument("--seed", type=int, default=0,
                         help="seed for randomly generated plans (default 0)")
    p_fault.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-unit result timeout (hang detector)")
    p_fault.set_defaults(fn=_cmd_faultsim)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on session service (see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = ephemeral; the bound "
                              "port is printed on startup)")
    p_serve.add_argument("--token", default="repro",
                         help="shared handshake token clients must present")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="shared worker-pool size (default: env "
                              "REPRO_WORKERS, else 1)")
    p_serve.add_argument("--transport", choices=TRANSPORT_CHOICES,
                         default=None,
                         help="worker transport (default: env "
                              "REPRO_TRANSPORT, else pipe)")
    p_serve.add_argument("--queue-limit", type=int, default=8,
                         help="per-session admitted-command bound; beyond "
                              "it calls get BUSY (default 8)")
    p_serve.add_argument("--persist-dir", default=None, metavar="DIR",
                         help="persist per-tenant analysis caches here "
                              "across restarts")
    p_serve.add_argument("--cache-entries", type=int, default=None,
                         help="LRU entry budget for the per-session replay "
                              "caches and tenant check memos")
    p_serve.add_argument("--cache-bytes", type=int, default=None,
                         help="LRU byte budget for the same caches")
    p_serve.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive a running service with synthetic concurrent clients",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True,
                        help="port of the running 'repro serve'")
    p_load.add_argument("--token", default="repro")
    p_load.add_argument("--clients", type=int, default=8,
                        help="concurrent synthetic clients (default 8)")
    p_load.add_argument("--launches", type=int, default=40,
                        help="index launches per client (default 40)")
    p_load.add_argument("--tenants", type=int, default=None,
                        help="spread clients over this many tenants "
                             "(default: one per client)")
    p_load.add_argument("--out", default=None, metavar="REPORT.JSON",
                        help="write the full report as JSON")
    p_load.set_defaults(fn=_cmd_loadgen)

    p_check = sub.add_parser(
        "check",
        help="model-check the commit and poison protocols",
    )
    p_check.add_argument("--model", choices=("commit", "poison", "all"),
                         default="all",
                         help="which protocol model(s) to check (default all)")
    p_check.add_argument("--config", default=None, metavar="WxSxF",
                         help="commit-model bound: workers x shards x fault "
                              "budget (default 2x3x4)")
    p_check.add_argument("--max-states", type=int, default=2_000_000,
                         help="visited-set cap; exploration marked truncated "
                              "beyond it")
    p_check.add_argument("--mutate", default=None, metavar="NAME",
                         help="check a seeded-broken protocol variant "
                              "instead (must find a counterexample)")
    p_check.add_argument("--list-mutations", action="store_true",
                         help="list the available mutations and exit")
    p_check.add_argument("--trace", default=None, metavar="OUT.JSON",
                         help="write the check report (counterexample traces "
                              "included) as JSON")
    p_check.add_argument("--conform", action="store_true",
                         help="also replay checker traces through the real "
                              "parallel backend")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Unwritable --out, unreadable input, etc.: one line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Whatever happened above — success, CLIError, bad config — no
        # worker process may outlive the command.
        from repro.exec.pool import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":
    raise SystemExit(main())
