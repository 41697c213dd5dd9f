"""Command-line interface: ``python -m repro <command>``.

Every subcommand is a front end over :mod:`repro.api`: a
:class:`~repro.api.config.FlowConfig` is assembled from the flags (or
loaded verbatim with ``run --config``), executed through
:class:`~repro.api.flow.Flow`, and reported as
:class:`~repro.api.artifact.RunArtifact` rows.

Commands
--------
run [CIRCUIT] [--method M] [--slack F] [--vlow V | --rails V0,V1,...]
    [--cost-model NAME] [--non-adjacent] [--retarget-shifters]
    [--config FLOW.json|.toml] [--plugin MODULE] [--list-methods]
    Full flow on one benchmark (or a BLIF file path); prints the report.
    ``--config`` loads a declarative FlowConfig (JSON or TOML);
    ``--plugin`` imports a module first, so methods it registers via
    ``repro.api.register_method`` (and cost models via
    ``register_cost_model``) are runnable by name; ``--list-methods``
    prints the registered method/cost-model inventory and exits.
campaign [--subset | --circuits a,b,c] [--jobs N] [--resume]
         [--retry-failed] [--max-attempts N] [--strict-timeouts]
         [--out STORE.jsonl] [--timeout S] [--shard K/N]
         [--sweep | --vlow V[,V...] --slack F[,F...]]
         [--rails V0,V1,...[;V0,V1,...]] [--plugin MODULE]
         [--server URL] [--fresh]
    Shard the (circuit, method, rails-or-vdd_low, slack) sweep across
    supervised worker processes, streaming rows into a resumable JSONL
    result store.  ``--rails`` opens the N-rail MSV grid (highest
    supply first, e.g. ``--rails 1.8,1.0,0.6``); ``--timeout`` budgets
    each job's wall clock; ``--shard K/N`` keeps only the K-th of N
    deterministic partitions so N machines can split one campaign and
    merge their stores afterwards.  With ``--jobs > 1`` the supervisor
    survives hard worker crashes and hangs, retrying the in-flight job
    up to ``--max-attempts`` times before quarantining it as a
    poisoned row; ``--resume --retry-failed`` re-attempts failed and
    poisoned rows.  Exit status: 0 all ok, 3 failed rows present, 4
    the supervisor gave up on at least one job (poisoned).  See
    docs/robustness.md (including the hidden fault-injection flags).
    ``--server URL`` submits the same grid to a running ``repro
    serve`` daemon instead of forking locally: rows stream back into
    ``--out`` with identical summary lines and exit codes, and the
    daemon's work-stealing queue replaces ``--shard`` (see
    docs/serving.md); ``--fresh`` forces recomputation of jobs the
    daemon holds cached results for.
serve [--host H] [--port P] [--jobs N] [--cache-mb M] [--timeout S]
      [--out STORE.jsonl] [--plugin MODULE]
    Run the long-lived optimization daemon: a persistent supervised
    worker pool with hot cross-request library/prepared-circuit caches
    (LRU, capped at ``--cache-mb`` per worker) behind an HTTP + NDJSON
    job API (POST /v1/jobs, GET /v1/jobs/<id>, GET /v1/health,
    POST /v1/shutdown).  ``--port 0`` picks an ephemeral port; the
    bound URL is printed on startup.  See docs/serving.md.
tables [--subset] [--jobs N] [--from-store STORE.jsonl]
       [--rails V0,V1,...|dual] [--out PATH]
    Regenerate the paper's Table 1 / Table 2 (through a campaign store)
    and write EXPERIMENTS-style output.
store compact STORE.jsonl [STORE2.jsonl ...] [--out PATH]
    With one store: rewrite it dropping superseded duplicate job ids
    (and any torn tail); atomic in place by default.  With several
    stores (the shards of one campaign): merge them into ``--out``,
    last row per job id winning across all inputs.
store progress STORE.jsonl [STORE2.jsonl ...] [--expect-jobs N]
    Per-store and cross-shard completion summary (freshest row per job
    id, deduplicated across shards); ``--expect-jobs`` adds a
    percentage against the campaign's full grid size.
circuits
    List the 39 benchmark names with family and paper gate counts.
library [--vlow V | --rails V0,V1,...]
    Print the synthetic COMPASS library inventory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys


def _parse_rails(text: str) -> tuple[float, ...]:
    """argparse type: one comma-separated rail set, highest first."""
    try:
        rails = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid rail voltage in {text!r} (expected a comma-"
            f"separated list of numbers, highest first)"
        ) from None
    if len(rails) < 2:
        raise argparse.ArgumentTypeError(
            f"a rail set needs at least two supplies (highest first), "
            f"got {text!r}"
        )
    if len(set(rails)) != len(rails):
        raise argparse.ArgumentTypeError(
            f"duplicate supply voltage in {text!r}"
        )
    if any(b >= a for a, b in zip(rails, rails[1:])):
        raise argparse.ArgumentTypeError(
            f"supplies must be strictly descending (highest first), "
            f"got {text!r}"
        )
    if rails[-1] <= 0:
        raise argparse.ArgumentTypeError(
            f"supply voltages must be positive, got {text!r}"
        )
    return rails


def _parse_rails_sets(text: str) -> list[tuple[float, ...]]:
    """argparse type: semicolon-separated list of rail sets."""
    sets = [
        _parse_rails(part) for part in text.split(";") if part.strip()
    ]
    if not sets:
        raise argparse.ArgumentTypeError(
            "expected at least one rail set (e.g. '5,4.3,3.6')"
        )
    return sets


def _parse_rails_filter(text: str) -> tuple[float, ...]:
    """argparse type: a rail set, or 'dual' for the classic dual-Vdd
    rows of a mixed store (the empty rail set)."""
    if text == "dual":
        return ()
    return _parse_rails(text)


def _parse_floats(text: str) -> list[float]:
    """argparse type: comma-separated grid values (vlow / slack)."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number in {text!r} (expected a comma-separated "
            f"list of values)"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one value, got {text!r}"
        )
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"duplicate value in {text!r}")
    return values


def _parse_names(text: str) -> tuple[str, ...]:
    """argparse type: comma-separated names (cost models), no dups."""
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise argparse.ArgumentTypeError(
            f"expected at least one name, got {text!r}"
        )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate name in {text!r}")
    return names


def _parse_shard(text: str) -> tuple[int, int]:
    """argparse type: 'K/N' -> (K, N), 1 <= K <= N."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected K/N (e.g. 2/4), got {text!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise argparse.ArgumentTypeError(
            f"shard must satisfy 1 <= K <= N, got {text!r}"
        )
    return index, count


def _load_plugins(args) -> None:
    """Import --plugin modules so their register_method calls run."""
    for module in getattr(args, "plugin", None) or []:
        importlib.import_module(module)


def _resolve_methods(method: str | None) -> tuple[str, ...]:
    """A --method value -> the tuple of registered methods to run."""
    from repro.api.registry import (
        BUILTIN_METHODS,
        is_registered,
        registered_names,
    )

    if method is None or method == "all":
        return BUILTIN_METHODS
    if not is_registered(method):
        raise SystemExit(
            f"unknown method {method!r}; registered methods: "
            f"{', '.join(registered_names())}"
        )
    return (method,)


def _print_method_inventory() -> None:
    """Human-readable registry dump: scaling methods + cost models."""
    from repro.api import list_cost_models, list_methods

    print("registered scaling methods (run with --method NAME):")
    for method in list_methods():
        flags = []
        if method.multi_rail:
            flags.append("multi-rail")
        if method.prices_moves:
            flags.append("prices moves")
        detail = f" [{', '.join(flags)}]" if flags else ""
        description = method.description or "(no description)"
        print(f"  {method.name:>10}{detail}: {description}")
    print()
    print("registered cost models (run with --cost-model NAME):")
    for model in list_cost_models():
        description = model.description or "(no description)"
        print(f"  {model.name:>10}: {description}")


def _cmd_run(args) -> int:
    from repro.api import Flow, FlowConfig

    _load_plugins(args)
    if args.list_methods:
        _print_method_inventory()
        return 0
    config = None
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
        if args.config.endswith(".toml"):
            config = FlowConfig.from_toml(text)
        else:
            config = FlowConfig.loads(text)

    source = None
    circuit = args.circuit or (config.circuit if config else "")
    if not circuit:
        raise SystemExit("run needs a CIRCUIT argument or a --config "
                         "with a circuit")
    if os.path.exists(circuit):
        from repro.netlist.blif import read_blif

        source = read_blif(circuit)
        circuit = ""

    from repro.api import DEFAULT_SLACK_FACTOR, DEFAULT_VDD_LOW

    if config is None:
        config = FlowConfig(
            circuit=circuit,
            slack_factor=(DEFAULT_SLACK_FACTOR if args.slack is None
                          else args.slack),
            vdd_low=DEFAULT_VDD_LOW if args.vlow is None else args.vlow,
            rails=args.rails or (),
            cost_model=args.cost_model or "paper",
            non_adjacent=args.non_adjacent,
            retarget_shifters=args.retarget_shifters,
        )
    else:
        # Explicit flags override the config file; omitted flags keep
        # the file's values.
        overrides = {"circuit": circuit}
        if args.slack is not None:
            overrides["slack_factor"] = args.slack
        if args.vlow is not None:
            overrides["vdd_low"] = args.vlow
        if args.rails is not None:
            overrides["rails"] = args.rails
        if args.cost_model is not None:
            overrides["cost_model"] = args.cost_model
        if args.non_adjacent:
            overrides["non_adjacent"] = True
        if args.retarget_shifters:
            overrides["retarget_shifters"] = True
        config = config.replace(**overrides)

    if args.method is None and args.config:
        methods = _resolve_methods(config.method)
    else:
        methods = _resolve_methods(args.method)

    # Validate the cost model before the expensive prepare stages, and
    # pin methods that never consult it to the default model (same rule
    # as the campaign grid) instead of crashing on cvs/gscale.
    from repro.api import DEFAULT_COST_MODEL, get_cost_model, get_method

    try:
        get_cost_model(config.cost_model)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    method_models = {
        method: (config.cost_model if get_method(method).prices_moves
                 else DEFAULT_COST_MODEL)
        for method in methods
    }

    flow = Flow(config)
    prepared = flow.prepare(source)
    artifacts = [
        flow.replace(
            method=method, cost_model=method_models[method]
        ).run(prepared=prepared)
        for method in methods
    ]
    head = artifacts[0]
    print(f"{head.circuit}: {head.gates} gates, "
          f"{head.org_power_uw:.2f} uW original, "
          f"tspec {head.tspec_ns:.2f} ns")
    for artifact in artifacts:
        report = artifact.report
        print(f"  {artifact.method:>7}: {report.improvement_pct:6.2f}% "
              f"saved  "
              f"low {report.n_low}/{report.n_gates}  "
              f"converters {report.n_converters}  "
              f"resized {report.n_resized}  "
              f"[{report.runtime_s:.2f}s]")
    return 0


def _select_circuits(args) -> list[str]:
    from repro.bench.mcnc import GEN_PREFIX, MCNC_NAMES, parse_gen_spec

    if getattr(args, "circuits", ""):
        names = [n.strip() for n in args.circuits.split(",") if n.strip()]
        unknown = []
        for n in names:
            if n.startswith(GEN_PREFIX):
                try:
                    parse_gen_spec(n)
                except ValueError as exc:
                    raise SystemExit(f"bad generator spec: {exc}") from None
            elif n not in MCNC_NAMES:
                unknown.append(n)
        if unknown:
            raise SystemExit(f"unknown circuit(s): {', '.join(unknown)}")
        return names
    names = list(MCNC_NAMES)
    if args.subset:
        names = names[::3]
    return names


def _cmd_campaign(args) -> int:
    from repro.flow.campaign import (
        DEFAULT_VDD_LOW,
        METHODS,
        SWEEP_SLACKS,
        SWEEP_VDD_LOWS,
        build_jobs,
        run_campaign,
        shard_jobs,
    )
    from repro.flow.experiment import DEFAULT_SLACK_FACTOR
    from repro.flow.store import ResultStore

    _load_plugins(args)
    circuits = _select_circuits(args)
    methods = (
        METHODS if args.methods == "all"
        else tuple(m.strip() for m in args.methods.split(",") if m.strip())
    )
    rails_sets = args.rails or []
    if rails_sets and (args.vlow or args.sweep):
        raise SystemExit("--rails replaces --vlow/--sweep: a rail set "
                         "fixes every supply, including the high one")
    if args.vlow:
        vdd_lows = args.vlow
    else:
        vdd_lows = list(SWEEP_VDD_LOWS if args.sweep
                        else [DEFAULT_VDD_LOW])
    if args.slack:
        slacks = args.slack
    else:
        slacks = list(SWEEP_SLACKS if args.sweep
                      else [DEFAULT_SLACK_FACTOR])

    cost_models = args.cost_models
    jobs = build_jobs(circuits, methods=methods, vdd_lows=vdd_lows,
                      slack_factors=slacks, rails_sets=rails_sets,
                      cost_models=cost_models)
    total = len(jobs)
    shard_note = ""
    if args.shard:
        index, count = args.shard
        jobs = shard_jobs(jobs, index, count)
        shard_note = f", shard {index}/{count}: {len(jobs)}/{total} jobs"
    if args.retry_failed and not args.resume:
        raise SystemExit("--retry-failed needs --resume (it re-attempts "
                         "rows already in the store)")
    if args.server:
        return _campaign_via_server(args, jobs, total)
    if args.fresh:
        raise SystemExit("--fresh only applies with --server (it skips "
                         "the daemon's result cache)")
    faults = None
    if args.inject:
        from repro.flow.faults import FaultPlan

        try:
            faults = FaultPlan.from_spec(
                args.inject,
                [job.job_id for job in jobs],
                seed=args.inject_seed,
                hang_s=args.inject_hang_s,
                max_fires=args.inject_max_fires,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    store = ResultStore(args.out)
    grid = (f"{len(rails_sets)} rail set(s)" if rails_sets
            else f"{len(vdd_lows)} vlow")
    cost_note = (f" x {len(cost_models)} cost models"
                 if len(cost_models) > 1 else "")
    print(f"campaign: {total} jobs "
          f"({len(circuits)} circuits x {len(methods)} methods x "
          f"{grid} x {len(slacks)} slack{cost_note}) "
          f"-> {args.out}  [jobs={args.jobs}"
          f"{', resume' if args.resume else ''}"
          f"{', retry-failed' if args.retry_failed else ''}"
          f"{f', timeout={args.timeout:g}s' if args.timeout else ''}"
          f"{shard_note}]")
    if faults is not None:
        print(f"fault injection armed: {faults.describe()}")
    try:
        summary = run_campaign(
            jobs, store, n_jobs=args.jobs, resume=args.resume,
            timeout_s=args.timeout, plugins=tuple(args.plugin),
            progress=None if args.quiet else print,
            retry_failed=args.retry_failed,
            max_attempts=args.max_attempts,
            strict_timeouts=args.strict_timeouts,
            faults=faults,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return _campaign_exit(summary)


def _campaign_exit(summary) -> int:
    """Shared summary line + exit code for local and served campaigns."""
    retry_note = (f", {summary.retries} retr"
                  f"{'y' if summary.retries == 1 else 'ies'}"
                  if summary.retries else "")
    poison_note = (f", {summary.poisoned} poisoned"
                   if summary.poisoned else "")
    print(f"campaign done: {summary.ok} ok, {summary.failed} failed"
          f"{poison_note}, {summary.skipped} skipped (resume) in "
          f"{summary.elapsed_s:.1f}s{retry_note}")
    if summary.poisoned:
        return 4
    if summary.failed:
        return 3
    return 0


def _campaign_via_server(args, jobs, total: int) -> int:
    """The --server branch: submit the grid to a running daemon."""
    from repro.flow.store import ResultStore
    from repro.serve import ServeError, run_remote_campaign

    if args.shard:
        raise SystemExit(
            "--shard is a batch-mode partitioner; the daemon's "
            "work-stealing queue already balances load across every "
            "submission (see docs/sharding.md)")
    if args.inject:
        raise SystemExit("--inject drives the local fault-injection "
                         "harness; the daemon owns its own workers")
    if args.timeout:
        raise SystemExit("--timeout is fixed daemon-side (repro serve "
                         "--timeout); per-request budgets would break "
                         "row determinism across clients")
    store = ResultStore(args.out)
    print(f"campaign: {len(jobs)}/{total} jobs -> {args.out}  "
          f"[server={args.server}"
          f"{', resume' if args.resume else ''}"
          f"{', retry-failed' if args.retry_failed else ''}"
          f"{', fresh' if args.fresh else ''}]")
    try:
        summary = run_remote_campaign(
            args.server, jobs, store,
            resume=args.resume,
            retry_failed=args.retry_failed,
            fresh=args.fresh,
            progress=None if args.quiet else print,
        )
    except (ServeError, ConnectionError, OSError) as exc:
        raise SystemExit(f"server campaign failed: {exc}") from None
    return _campaign_exit(summary)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.daemon import Daemon, DaemonSettings

    _load_plugins(args)
    cache_bytes = (
        None if args.cache_mb <= 0 else int(args.cache_mb * (1 << 20))
    )
    daemon = Daemon(DaemonSettings(
        host=args.host,
        port=args.port,
        n_workers=args.jobs,
        cache_bytes=cache_bytes,
        store_path=args.out,
        timeout_s=args.timeout,
        plugins=tuple(args.plugin),
    ))
    daemon.log = lambda msg: print(msg, flush=True)
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        print("interrupted; daemon exiting")
    return 0


def _cmd_tables(args) -> int:
    import tempfile

    from repro.flow.campaign import (
        build_jobs,
        rows_to_results,
        run_campaign,
    )
    from repro.flow.store import ResultStore
    from repro.flow.tables import (
        format_table1,
        format_table2,
        write_experiments_md,
    )

    if args.from_store:
        rows = ResultStore(args.from_store).load()
        n_source = f"store {args.from_store}"
    else:
        names = _select_circuits(args)
        store_path = args.store or os.path.join(
            tempfile.mkdtemp(prefix="repro-tables-"), "tables.jsonl"
        )
        store = ResultStore(store_path)
        jobs = build_jobs(names)
        summary = run_campaign(jobs, store, n_jobs=args.jobs,
                               resume=bool(args.store), progress=print)
        if summary.failed:
            print(f"warning: {summary.failed} job(s) failed; "
                  f"their circuits are missing from the tables")
        rows = store.load()
        n_source = f"campaign over {len(names)} circuits"
    results = rows_to_results(rows, vdd_low=args.vlow,
                              slack_factor=args.slack_point,
                              rails=args.rails,
                              cost_model=args.cost_model or None)
    if not results:
        print("no completed rows to tabulate")
        return 1
    print()
    print(format_table1(results))
    print()
    print(format_table2(results))
    if args.out:
        write_experiments_md(results, args.out,
                             preamble=f"CLI run from {n_source}.")
        print(f"wrote {args.out}")
    return 0


def _cmd_store(args) -> int:
    from repro.flow.store import ResultStore, campaign_progress, merge_stores

    missing = [path for path in args.path if not os.path.exists(path)]
    if missing:
        raise SystemExit(f"no store at {', '.join(missing)}")
    if args.action == "progress":
        expected = args.expect_jobs if args.expect_jobs else None
        progress = campaign_progress(args.path, expected_jobs=expected)
        print(progress.describe())
        return 0
    if args.action != "compact":
        raise SystemExit(f"unknown store action {args.action!r}")
    if len(args.path) > 1:
        if not args.out:
            raise SystemExit("merging several stores needs --out "
                             "(the inputs are left untouched)")
        stats = merge_stores(args.path, args.out)
        print(f"merged {len(args.path)} stores -> {stats.path}: "
              f"kept {stats.kept_rows}/{stats.total_rows} rows, "
              f"dropped {stats.dropped_rows} superseded")
        return 0
    stats = ResultStore(args.path[0]).compact(out_path=args.out or None)
    print(f"compacted {args.path[0]} -> {stats.path}: "
          f"kept {stats.kept_rows}/{stats.total_rows} rows, "
          f"dropped {stats.dropped_rows} superseded")
    return 0


def _cmd_circuits(_args) -> int:
    from repro.bench.mcnc import CIRCUITS
    from repro.bench.paper_data import PAPER_TABLE2

    for name, spec in CIRCUITS.items():
        paper = PAPER_TABLE2[name]
        print(f"{name:>10}  {spec.family:<22} paper: {paper.gates:5d} gates")
    return 0


def _cmd_library(args) -> int:
    from repro.library.compass import build_compass_library

    if args.rails:
        library = build_compass_library(rails=args.rails)
    else:
        library = build_compass_library(vdd_low=args.vlow)
    print(library)
    for base in library.bases():
        variants = library.variants(base)
        sizes = "/".join(f"d{c.size}" for c in variants)
        first = variants[0]
        print(f"  {base:>8} [{sizes}]  area {first.area:.1f}  "
              f"cin {first.input_caps[0]:.0f} fF  "
              f"drive {first.drive_res:.4f} ns/fF")
    for lc in library.level_converters():
        print(f"  {lc.name:>8} [converter]  area {lc.area:.1f}  "
              f"delay {lc.intrinsics[0]:.2f} ns  "
              f"energy {lc.internal_energy:.0f} fJ")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'99 dual-Vdd gate-level voltage scaling",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="full flow on one circuit")
    run_parser.add_argument("circuit", nargs="?", default="",
                            help="benchmark name or BLIF file path")
    run_parser.add_argument("--method", default=None,
                            help="all (default), cvs, dscale, gscale, or "
                                 "any method registered by a --plugin")
    run_parser.add_argument("--slack", type=float, default=None,
                            help="timing relaxation factor (paper: 1.2)")
    run_parser.add_argument("--vlow", type=float, default=None,
                            help="low supply voltage (paper: 4.3)")
    run_parser.add_argument("--rails", type=_parse_rails, default=None,
                            help="comma-separated multi-rail supply set, "
                                 "highest first (replaces --vlow)")
    run_parser.add_argument("--cost-model", default=None,
                            help="move-pricing cost model (default: "
                                 "paper; see --list-methods for the "
                                 "registered inventory)")
    run_parser.add_argument("--non-adjacent", action="store_true",
                            help="let Dscale demote gates several rails "
                                 "in one move (N-rail libraries only)")
    run_parser.add_argument("--retarget-shifters", action="store_true",
                            help="let Dscale re-target existing level "
                                 "shifters mid-demotion instead of "
                                 "deferring those gates to cleanup "
                                 "(N-rail libraries only)")
    run_parser.add_argument("--list-methods", action="store_true",
                            help="list the registered scaling methods "
                                 "and cost models, then exit (honors "
                                 "--plugin)")
    run_parser.add_argument("--config", default="",
                            help="load a declarative FlowConfig from a "
                                 ".json or .toml file; explicitly "
                                 "passed flags (circuit, --method, "
                                 "--slack, --vlow, --rails) override "
                                 "the file's values")
    run_parser.add_argument("--plugin", action="append", default=[],
                            help="import this module first (repeatable); "
                                 "use it to register custom scaling "
                                 "methods")
    run_parser.set_defaults(handler=_cmd_run)

    campaign_parser = commands.add_parser(
        "campaign",
        help="parallel sweep into a resumable JSONL result store",
    )
    campaign_parser.add_argument("--circuits", default="",
                                 help="comma-separated benchmark names "
                                      "(default: all 39)")
    campaign_parser.add_argument("--subset", action="store_true",
                                 help="every third benchmark (CI subset)")
    campaign_parser.add_argument("--methods", default="all",
                                 help="comma-separated subset of the "
                                      "registered methods (default: "
                                      "cvs,dscale,gscale)")
    campaign_parser.add_argument("--vlow", type=_parse_floats,
                                 default=None,
                                 help="comma-separated low-rail voltages "
                                      "(default 4.3; --sweep grid if "
                                      "--sweep)")
    campaign_parser.add_argument("--slack", type=_parse_floats,
                                 default=None,
                                 help="comma-separated slack factors "
                                      "(default 1.2; --sweep grid if "
                                      "--sweep)")
    campaign_parser.add_argument("--sweep", action="store_true",
                                 help="default design-space grid over "
                                      "vlow x slack")
    campaign_parser.add_argument("--rails", type=_parse_rails_sets,
                                 default=None,
                                 help="semicolon-separated rail sets, each "
                                      "a comma list highest-first (e.g. "
                                      "'5,4.3,3.6;1.8,1.0,0.6'); replaces "
                                      "the --vlow axis")
    campaign_parser.add_argument("--cost-models", type=_parse_names,
                                 default=("paper",),
                                 help="comma-separated registered cost "
                                      "models; more than one opens the "
                                      "move-pricing grid dimension for "
                                      "the methods that price moves "
                                      "(default: paper)")
    campaign_parser.add_argument("--shard", type=_parse_shard,
                                 default=None, metavar="K/N",
                                 help="run only the K-th of N "
                                      "deterministic job partitions; "
                                      "merge the per-shard stores with "
                                      "'repro store compact ... --out'")
    campaign_parser.add_argument("--timeout", type=float, default=None,
                                 help="per-job wall-clock budget in "
                                      "seconds; overruns become failed "
                                      "rows instead of hanging the pool")
    campaign_parser.add_argument("--jobs", type=int, default=1,
                                 help="worker processes (1 = in-process)")
    campaign_parser.add_argument("--resume", action="store_true",
                                 help="skip job ids already ok (or "
                                      "poisoned) in --out; failed rows "
                                      "are retried")
    campaign_parser.add_argument("--retry-failed", action="store_true",
                                 help="with --resume: also re-attempt "
                                      "poisoned rows (failed rows retry "
                                      "on any resume)")
    campaign_parser.add_argument("--max-attempts", type=int, default=3,
                                 help="supervised runs: executions a job "
                                      "gets before it is quarantined as "
                                      "a poisoned row (default 3)")
    campaign_parser.add_argument("--strict-timeouts", action="store_true",
                                 help="error out where a --timeout "
                                      "budget cannot be enforced "
                                      "(no SIGALRM and no supervisor) "
                                      "instead of warning once")
    # Hidden chaos-testing flags (docs/robustness.md): deterministic
    # fault injection via repro.flow.faults.FaultPlan.
    campaign_parser.add_argument("--inject", default="",
                                 help=argparse.SUPPRESS)
    campaign_parser.add_argument("--inject-seed", type=int, default=0,
                                 help=argparse.SUPPRESS)
    campaign_parser.add_argument("--inject-hang-s", type=float,
                                 default=3600.0,
                                 help=argparse.SUPPRESS)
    campaign_parser.add_argument("--inject-max-fires", type=int,
                                 default=1,
                                 help=argparse.SUPPRESS)
    campaign_parser.add_argument("--out", default="campaign.jsonl",
                                 help="JSONL result store path")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-job progress lines")
    campaign_parser.add_argument("--plugin", action="append", default=[],
                                 help="import this module first "
                                      "(repeatable); use it to register "
                                      "custom scaling methods")
    campaign_parser.add_argument("--server", default="",
                                 help="submit to a running 'repro serve' "
                                      "daemon at this URL instead of "
                                      "forking locally; rows stream back "
                                      "into --out (replaces --shard)")
    campaign_parser.add_argument("--fresh", action="store_true",
                                 help="with --server: recompute jobs the "
                                      "daemon holds cached results for "
                                      "instead of replaying them")
    campaign_parser.set_defaults(handler=_cmd_campaign)

    serve_parser = commands.add_parser(
        "serve",
        help="long-lived optimization daemon with hot caches",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port; 0 picks an ephemeral one "
                                   "(printed on startup)")
    serve_parser.add_argument("--jobs", type=int, default=2,
                              help="persistent worker processes")
    serve_parser.add_argument("--cache-mb", type=float, default=256,
                              help="per-worker prepared-circuit cache "
                                   "cap in MiB (0 = unbounded LRU)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job wall-clock budget in seconds")
    serve_parser.add_argument("--out", default="serve_results.jsonl",
                              help="the daemon's JSONL result store "
                                   "(doubles as its result cache across "
                                   "restarts)")
    serve_parser.add_argument("--plugin", action="append", default=[],
                              help="import this module first (repeatable); "
                                   "use it to register custom scaling "
                                   "methods in the daemon's workers")
    serve_parser.set_defaults(handler=_cmd_serve)

    tables_parser = commands.add_parser("tables",
                                        help="regenerate Tables 1 and 2")
    tables_parser.add_argument("--circuits", default="",
                               help="comma-separated benchmark names")
    tables_parser.add_argument("--subset", action="store_true")
    tables_parser.add_argument("--jobs", type=int, default=1,
                               help="campaign worker processes")
    tables_parser.add_argument("--from-store", default="",
                               help="aggregate an existing campaign store "
                                    "instead of running the flow")
    tables_parser.add_argument("--store", default="",
                               help="persist (and resume) the backing "
                                    "campaign store at this path")
    tables_parser.add_argument("--vlow", type=float, default=None,
                               help="sweep stores: select this vdd_low")
    tables_parser.add_argument("--slack-point", type=float, default=None,
                               help="sweep stores: select this slack "
                                    "factor")
    tables_parser.add_argument("--rails", type=_parse_rails_filter,
                               default=None,
                               help="sweep stores: select this rail set "
                                    "(comma list, highest first; 'dual' "
                                    "selects the classic dual-Vdd rows)")
    tables_parser.add_argument("--cost-model", default="",
                               help="sweep stores: select rows priced by "
                                    "this cost model (a --cost-models "
                                    "campaign stores several)")
    tables_parser.add_argument("--out", default="")
    tables_parser.set_defaults(handler=_cmd_tables)

    store_parser = commands.add_parser(
        "store", help="result-store maintenance")
    store_parser.add_argument("action", choices=["compact", "progress"],
                              help="compact: drop superseded duplicate "
                                   "job ids (atomic rewrite; several "
                                   "stores merge into --out).  "
                                   "progress: per-store and cross-shard "
                                   "completion summary")
    store_parser.add_argument("path", nargs="+",
                              help="JSONL result store path(s); several "
                                   "paths (campaign shards) merge into "
                                   "--out / aggregate in the progress "
                                   "summary")
    store_parser.add_argument("--out", default="",
                              help="write the compacted/merged store "
                                   "here instead of replacing in place")
    store_parser.add_argument("--expect-jobs", type=int, default=0,
                              help="progress: the campaign's full grid "
                                   "size, turning counts into a "
                                   "completion percentage")
    store_parser.set_defaults(handler=_cmd_store)

    circuits_parser = commands.add_parser("circuits",
                                          help="list benchmark circuits")
    circuits_parser.set_defaults(handler=_cmd_circuits)

    library_parser = commands.add_parser("library",
                                         help="show the cell library")
    library_parser.add_argument("--vlow", type=float, default=4.3)
    library_parser.add_argument("--rails", type=_parse_rails,
                                default=None,
                                help="comma-separated multi-rail supply "
                                     "set, highest first")
    library_parser.set_defaults(handler=_cmd_library)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
