"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the available experiments and scales.
* ``run <experiment> [...]`` — regenerate one or more tables/figures and
  print the rendered results (``--jobs N`` parallelizes the spec-declared
  runs, ``--json`` emits structured output).  ``run --all --store PATH``
  reproduces the whole paper through one shared runner and result store:
  specs common to several figures execute once, and a repeated
  reproduction against the same store executes zero simulations.
* ``golden`` — verify every experiment's output digest against the
  baselines under tests/golden/ (``--record`` refreshes them after an
  intentional change).
* ``report`` — run a set of experiments and emit a markdown report
  (the generator behind EXPERIMENTS.md); ``--json`` emits the results as
  structured JSON instead.
* ``simulate`` — one-off simulation with headline metrics.
* ``sweep`` — run a grid of scenario x load x seed x system points through
  the sweep orchestrator: parallel fan-out (``--jobs``), a JSONL result
  store, and ``--resume`` to skip cached points (DESIGN.md section 8).
  Fault tolerance for unattended campaigns (DESIGN.md section 13):
  ``--timeout-s`` kills hung workers, ``--retries``/``--backoff-s`` retry
  failed specs with exponential backoff, and ``--on-error quarantine``
  records exhausted specs in a sidecar JSONL so the rest of the grid
  completes (exit 3 signals partial success).
* ``campaign`` — fleet campaigns over a shared store (DESIGN.md section
  17): ``run`` joins (or starts) a campaign as one worker — launched N
  times against the same store it converges on the serial digest, with
  expiring leases preventing duplicate work and ``--cache-from``
  importing finished rows from prior campaigns; ``status`` shows
  completion and live leases; ``merge`` folds stores together.
* ``store`` — integrity tooling for result stores over every backend
  (single-file JSONL, sharded directories, SQLite): ``verify`` checks
  every row's checksum and reports torn lines, ``compact`` atomically
  rewrites the store in canonical deduplicated form.
* ``bench`` — the engine hot-path benchmark suite behind BENCH_engine.json
  (DESIGN.md section 10); ``--profile`` prints per-phase wall-time
  breakdowns via the telemetry tracer.
* ``trace`` — analyze a telemetry JSONL captured with ``sweep
  --telemetry``: per-phase time shares, slowest specs, retry histograms,
  queue-depth percentiles (DESIGN.md section 14).

Examples::

    python -m repro list
    python -m repro run fig9 --scale tiny --jobs 4
    python -m repro run table2 fig14 efficiency
    python -m repro run --all --scale tiny --jobs 4 --store repro.jsonl
    python -m repro golden          # compare against tests/golden/
    python -m repro golden --record # refresh after an intentional change
    python -m repro report --scale small --output report.md
    python -m repro sweep --scale tiny --scenario poisson --scenario hotspot \\
        --jobs 4 --store sweep.jsonl
    python -m repro sweep --resume --store sweep.jsonl   # only new points run
    python -m repro sweep --scale tiny --jobs 8 --timeout-s 120 \\
        --retries 2 --on-error quarantine --store campaign.jsonl
    python -m repro campaign run --scale tiny --store fleet.db \\
        --retries 2 --on-error quarantine   # launch on N machines/shells
    python -m repro campaign run --store fleet.db --cache-from old.jsonl
    python -m repro campaign status fleet.db
    python -m repro campaign merge --into merged.db fleet.db old.jsonl
    python -m repro store verify campaign.jsonl --digest
    python -m repro store compact campaign.jsonl
    python -m repro bench --scenario sparse --fabric 64x8
    python -m repro bench --check 0.5   # fail if any scenario regressed 2x
    python -m repro sweep --scale tiny --jobs 4 --telemetry events.jsonl \\
        --progress --store campaign.jsonl
    python -m repro trace events.jsonl          # phase shares, retries, ETA
    python -m repro bench --profile --scenario incast --fabric 16x4
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_MODULES, SCALES, current_scale, load_experiment


CLI_BACKENDS = ("jsonl", "sharded", "sqlite")
"""Result-store backends selectable from the CLI (mirrors
:data:`repro.sweep.backends.BACKENDS`; spelled out here so building the
parser does not import the sweep package)."""


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """The spec-grid axes shared by ``sweep`` and ``campaign run``."""
    parser.add_argument("--scale", choices=sorted(SCALES), default=None)
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME[:k=v,...]",
        default=None,
        help="traffic scenario with optional parameter overrides "
        "(repeatable; default: poisson)",
    )
    parser.add_argument(
        "--system",
        action="append",
        dest="systems",
        metavar="SYSTEM",
        default=None,
        help="system to sweep: negotiator, oblivious, rotor, or adaptive "
        "(repeatable; default: negotiator)",
    )
    parser.add_argument(
        "--topology",
        action="append",
        dest="topologies",
        choices=["parallel", "thinclos"],
        default=None,
        help="fabric to sweep (repeatable; default: parallel)",
    )
    parser.add_argument(
        "--load",
        action="append",
        dest="loads",
        type=float,
        metavar="L",
        default=None,
        help="offered load (repeatable; default: the scale's load points)",
    )
    parser.add_argument(
        "--seed",
        action="append",
        dest="seeds",
        type=int,
        metavar="N",
        default=None,
        help="workload seed (repeatable; default: the scale's seed)",
    )
    parser.add_argument(
        "--scheduler",
        default="base",
        help="scheduler variant (base, iterative, data-size, hol-delay, "
        "stateful, projector)",
    )
    parser.add_argument("--duration-ms", type=float, default=None)
    parser.add_argument(
        "--no-pq", action="store_true", help="disable PIAS priority queues"
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="run specs through the streaming path: lazy workloads and a "
        "bounded-memory tracker (headline summaries only)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the spec grid and hashes without running anything",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by ``sweep`` and ``campaign run``."""
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="S",
        help="per-spec wall-clock deadline; a spec exceeding it has its "
        "worker killed and counts as timed-out (enforced via the "
        "resilient worker pool, even with --jobs 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries per spec after the first attempt, with exponential "
        "backoff and deterministic jitter (default 0: fail fast)",
    )
    parser.add_argument(
        "--backoff-s",
        type=float,
        default=0.1,
        metavar="S",
        help="base backoff before the first retry; doubles per attempt "
        "(default 0.1)",
    )
    parser.add_argument(
        "--on-error",
        choices=["fail", "skip", "quarantine"],
        default="fail",
        help="what to do when a spec exhausts its attempts: abort the "
        "sweep (fail, default), drop the spec (skip), or record it in "
        "the quarantine sidecar so the rest of the grid completes "
        "(quarantine); with skip/quarantine a sweep that loses specs "
        "exits 3 (partial success)",
    )
    parser.add_argument(
        "--quarantine",
        default=None,
        metavar="PATH",
        help="quarantine sidecar JSONL (default: derived from the store "
        "path, backend-aware)",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Telemetry/progress flags shared by ``sweep`` and ``campaign run``."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream schema-versioned telemetry events (engine spans, "
        "counters, gauges, worker heartbeats, campaign lifecycle) to this "
        "JSONL file; analyze it afterwards with 'repro trace'",
    )
    parser.add_argument(
        "--telemetry-cadence-us",
        type=float,
        default=50.0,
        metavar="US",
        help="sim-time gauge sampling cadence in microseconds "
        "(default 50)",
    )
    parser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="live progress/ETA line on stderr (default: on when stderr "
        "is a TTY)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NegotiaToR (SIGCOMM 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scales")

    run = sub.add_parser("run", help="regenerate tables/figures")
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(EXPERIMENT_MODULES))}",
    )
    run.add_argument(
        "--all",
        action="store_true",
        help="reproduce every experiment (specs shared between experiments "
        "execute once)",
    )
    run.add_argument("--scale", choices=sorted(SCALES), default=None)
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes for spec-declared experiments "
        "(default 1: serial, the reference behavior)",
    )
    run.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store shared across experiments; implies resume, "
        "so a repeated reproduction executes zero simulations",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit results as structured JSON instead of rendered tables",
    )

    report = sub.add_parser("report", help="emit a markdown report")
    report.add_argument("--scale", choices=sorted(SCALES), default=None)
    report.add_argument(
        "--experiments",
        nargs="*",
        metavar="EXPERIMENT",
        default=None,
        help="subset to include (default: all)",
    )
    report.add_argument("--output", default=None, help="file (default stdout)")
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the results as structured JSON instead of markdown",
    )

    sweep = sub.add_parser(
        "sweep", help="run a spec grid with fan-out, caching, and resume"
    )
    _add_grid_args(sweep)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (default 1: serial)",
    )
    sweep.add_argument(
        "--store",
        default="sweep_results.jsonl",
        help="JSONL result store (default: sweep_results.jsonl)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip specs whose hash already has a stored summary",
    )
    _add_resilience_args(sweep)
    sweep.add_argument(
        "--json",
        action="store_true",
        help="emit per-spec results as JSON instead of a table",
    )
    sweep.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list registered scenarios and their parameters, then exit",
    )
    _add_telemetry_args(sweep)

    campaign = sub.add_parser(
        "campaign",
        help="fleet campaigns: N independent workers drain one grid into "
        "one shared store via expiring leases",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    campaign_run = campaign_sub.add_parser(
        "run",
        help="join (or start) a campaign as one worker; launching this N "
        "times against the same store converges on the serial result",
    )
    _add_grid_args(campaign_run)
    campaign_run.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="the shared result store every worker writes to (.db/.sqlite "
        "for SQLite, a directory for sharded JSONL, anything else for "
        "single-file JSONL)",
    )
    campaign_run.add_argument(
        "--backend",
        choices=CLI_BACKENDS,
        default=None,
        help="store backend (default: auto-detected from the path)",
    )
    campaign_run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count when creating a new sharded store (default 16; "
        "existing stores keep their on-disk count)",
    )
    campaign_run.add_argument(
        "--cache-from",
        action="append",
        dest="cache_from",
        metavar="PATH",
        default=None,
        help="prior result store (any backend) to import finished grid "
        "specs from before executing anything (repeatable; earlier "
        "stores win)",
    )
    campaign_run.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="this worker's identity in leases, heartbeats, and the "
        "manifest (default: host-pid)",
    )
    campaign_run.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        metavar="S",
        help="lease lifetime; renewed while a spec runs, so it only "
        "expires when a worker dies (default 60; serial runs renew at "
        "attempt boundaries, so keep it above the slowest spec)",
    )
    campaign_run.add_argument(
        "--lease-batch",
        type=int,
        default=8,
        metavar="N",
        help="specs leased per claim round (default 8; smaller spreads "
        "work more evenly, larger claims less often)",
    )
    campaign_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes within this campaign worker "
        "(default 1: serial)",
    )
    _add_resilience_args(campaign_run)
    _add_telemetry_args(campaign_run)
    campaign_run.add_argument(
        "--json",
        action="store_true",
        help="emit the campaign report as JSON",
    )
    campaign_status_p = campaign_sub.add_parser(
        "status",
        help="completion counts, content digest, and live leases of a "
        "campaign store",
    )
    campaign_status_p.add_argument("path", help="campaign result store")
    campaign_status_p.add_argument(
        "--json", action="store_true", help="emit the status as JSON"
    )
    campaign_merge = campaign_sub.add_parser(
        "merge",
        help="fold stores together: rows absent from the destination are "
        "appended, first source wins, idempotent",
    )
    campaign_merge.add_argument(
        "sources", nargs="+", metavar="SRC", help="source stores (any backend)"
    )
    campaign_merge.add_argument(
        "--into",
        required=True,
        metavar="DST",
        help="destination store (created if missing)",
    )
    campaign_merge.add_argument(
        "--backend",
        choices=CLI_BACKENDS,
        default=None,
        help="destination backend (default: auto-detected from the path)",
    )
    campaign_merge.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count when creating a new sharded destination",
    )

    store = sub.add_parser(
        "store",
        help="inspect and maintain result stores (any backend)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="integrity-check every row (checksums, torn lines, backend "
        "invariants); exits non-zero on corruption",
    )
    store_verify.add_argument(
        "path", help="result store (JSONL file, sharded dir, or SQLite)"
    )
    store_verify.add_argument(
        "--digest",
        action="store_true",
        help="also print the store's order/timing-independent content "
        "digest (what resume-convergence is asserted against)",
    )
    store_compact = store_sub.add_parser(
        "compact",
        help="atomically rewrite the store in canonical form: last row "
        "per hash, sorted, checksummed, torn lines dropped",
    )
    store_compact.add_argument(
        "path", help="result store (JSONL file, sharded dir, or SQLite)"
    )
    for store_cmd in (store_verify, store_compact):
        store_cmd.add_argument(
            "--backend",
            choices=CLI_BACKENDS,
            default=None,
            help="store backend (default: auto-detected from the path)",
        )
        store_cmd.add_argument(
            "--shards",
            type=int,
            default=None,
            metavar="N",
            help="shard count for sharded stores (default: the on-disk "
            "count)",
        )

    golden = sub.add_parser(
        "golden",
        help="verify (or --record) the golden-baseline digests under "
        "tests/golden/",
    )
    golden.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="subset to check/record (default: all)",
    )
    golden.add_argument(
        "--record",
        action="store_true",
        help="re-record the baselines instead of verifying them",
    )
    golden.add_argument(
        "--golden-dir",
        default="tests/golden",
        help="baseline directory (default: tests/golden)",
    )
    golden.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scale to run at (default: micro, the recorded scale)",
    )
    golden.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (default 1)",
    )
    golden.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persist every computed summary to this JSONL store "
        "(resumable, and verifiable with 'repro store verify')",
    )

    simulate = sub.add_parser(
        "simulate", help="one-off simulation with headline metrics"
    )
    simulate.add_argument(
        "--system",
        metavar="SYSTEM",
        default="negotiator",
        help="system to simulate: negotiator, oblivious, rotor, or "
        "adaptive (default: negotiator)",
    )
    simulate.add_argument(
        "--topology", choices=["parallel", "thinclos"], default="parallel"
    )
    simulate.add_argument("--scale", choices=sorted(SCALES), default=None)
    simulate.add_argument("--load", type=float, default=0.5)
    simulate.add_argument(
        "--trace",
        default="hadoop",
        help="flow-size trace: hadoop, websearch, or google",
    )
    simulate.add_argument(
        "--duration-ms", type=float, default=None, help="simulated time"
    )
    simulate.add_argument(
        "--workload-file",
        default=None,
        help="replay a CSV workload instead of generating one",
    )
    simulate.add_argument(
        "--no-pq", action="store_true", help="disable PIAS priority queues"
    )
    simulate.add_argument("--seed", type=int, default=None)

    bench = sub.add_parser(
        "bench",
        help="run the engine hot-path benchmark suite (or, with --scale, "
        "the streaming million-flow scale benchmark)",
    )
    bench.add_argument(
        "--scale",
        action="store_true",
        help="run the streaming scale benchmark (heavy-poisson flows pulled "
        "lazily through the bounded-memory engine) instead of the "
        "hot-path suite, tracking BENCH_scale.json",
    )
    bench.add_argument(
        "--flows",
        type=int,
        default=None,
        metavar="N",
        help="scale-bench trace size in flows (default 1,000,000)",
    )
    bench.add_argument(
        "--engine",
        metavar="ENGINE",
        default=None,
        help="scale-bench engine under test: negotiator (default), rotor "
        "(the RotorNet-style baseline on thin-clos), or adaptive (the "
        "demand-aware baseline on thin-clos)",
    )
    bench.add_argument(
        "--scale-load",
        type=float,
        default=None,
        metavar="L",
        help="scale-bench offered load (default 0.5)",
    )
    bench.add_argument(
        "--scale-file",
        default="BENCH_scale.json",
        help="tracked scale baseline file (default: BENCH_scale.json)",
    )
    bench.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit non-zero if the scale run exceeds this wall-clock budget",
    )
    bench.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="SCENARIO",
        default=None,
        help="scenario to run (repeatable; default: all)",
    )
    bench.add_argument(
        "--fabric",
        action="append",
        dest="fabrics",
        metavar="TORSxPORTS",
        default=None,
        help="fabric to run, e.g. 64x8 (repeatable; default: 16x4 64x8 "
        "128x8 — with --scale: one fabric, default 8x2)",
    )
    bench.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="disable idle-epoch fast-forward for this run",
    )
    bench.add_argument(
        "--core",
        choices=["auto", "scalar", "vectorized"],
        default=None,
        help="engine core override for this run (default: SimConfig "
        "default 'auto', or the REPRO_CORE environment variable); the "
        "report names the core that actually ran",
    )
    bench.add_argument(
        "--bench-file",
        default="BENCH_engine.json",
        help="tracked baseline file (default: BENCH_engine.json)",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="record this run as the baseline in the bench file",
    )
    bench.add_argument(
        "--record",
        action="store_true",
        help="record this run as 'current' (and its vs-baseline speedup)",
    )
    bench.add_argument(
        "--check",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero if any scenario runs slower than RATIO x baseline",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="trace the hot-path run and print a per-phase wall-time "
        "breakdown per scenario (not comparable to recorded baselines)",
    )

    trace = sub.add_parser(
        "trace",
        help="analyze a telemetry JSONL file from 'sweep --telemetry'",
    )
    trace.add_argument("path", help="telemetry events JSONL file")
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the analysis as structured JSON",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="how many slowest specs to report (default 5)",
    )
    trace.add_argument(
        "--validate",
        action="store_true",
        help="strictly validate every event against the schema; exit 1 "
        "on any violation or torn line",
    )
    return parser


def resolve_scale(name: str | None):
    """Scale object from a CLI flag, falling back to REPRO_SCALE."""
    if name is None:
        return current_scale()
    return SCALES[name]


CLI_SYSTEMS = ("adaptive", "negotiator", "oblivious", "rotor")
"""Systems runnable from the CLI.  The spec-level registry
(:data:`repro.sweep.spec.SYSTEMS`) additionally holds ``relay``, which has
no CLI entry point."""


def _reject_unknown(names, registry, kind: str) -> bool:
    """Report names missing from a registry; True when any was unknown.

    The single home of the CLI's unknown-name diagnostics: every command
    that validates user-supplied experiment/scenario/system names goes
    through here, so all of them emit the identical exit-2 message shape
    (the same shape spec validation raises — see
    :func:`repro.sweep.spec.unknown_name_message`).
    """
    from .sweep.spec import unknown_name_message

    unknown = [n for n in names if n not in registry]
    if not unknown:
        return False
    print(unknown_name_message(kind, unknown, registry), file=sys.stderr)
    return True


def cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENT_MODULES):
        print(f"  {name:<10} -> repro.experiments.{EXPERIMENT_MODULES[name]}")
    print("scales:")
    for scale in SCALES.values():
        print(
            f"  {scale.name:<6} {scale.num_tors} ToRs x "
            f"{scale.ports_per_tor} ports, {scale.duration_ns / 1e6:g} ms runs"
        )
    return 0


def cmd_run(
    names: list[str],
    scale_name: str | None,
    jobs: int = 1,
    as_json: bool = False,
    run_all: bool = False,
    store_path: str | None = None,
) -> int:
    from . import golden
    from .sweep import ResultStore, SweepRunner

    if jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    if run_all:
        if names:
            print("--all replaces the experiment list", file=sys.stderr)
            return 2
        names = sorted(EXPERIMENT_MODULES)
    elif not names:
        print(
            "name at least one experiment, or pass --all",
            file=sys.stderr,
        )
        return 2
    scale = resolve_scale(scale_name)
    if _reject_unknown(names, EXPERIMENT_MODULES, "experiment"):
        return 2
    store = ResultStore(store_path) if store_path is not None else None
    # One runner for every experiment: specs common to several figures
    # execute once (in-memory memo), and a store makes the whole
    # reproduction resumable — a second run is a pure cache hit.
    runner = SweepRunner(jobs=jobs, store=store, resume=store is not None)
    results = []
    for name in names:
        result = golden.compute_result(name, scale, runner=runner)
        results.append(result)
        if not as_json:
            print(result.render())
            print()
    if as_json:
        payload = {
            "scale": scale.name,
            "results": [result.to_dict() for result in results],
        }
        print(json.dumps(payload, indent=2))
    status = sys.stderr if as_json else sys.stdout
    print(
        f"{runner.executed} simulations executed, {runner.cached} cached",
        file=status,
    )
    # Staleness (stored hashes the grid never requested) is only
    # meaningful when the runner saw the *full* grid; a subset run would
    # flag every other experiment's perfectly valid rows.
    if store is not None and run_all:
        stale = len(runner.stale_stored_hashes())
        if stale:
            print(
                f"{stale} stored rows ignored (stale spec hashes)",
                file=status,
            )
    return 0


def cmd_golden(args) -> int:
    from . import golden
    from .sweep import ResultStore, SweepRunner

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    scale = SCALES[args.scale] if args.scale else SCALES[golden.GOLDEN_SCALE]
    names = args.experiments or golden.experiment_names()
    if _reject_unknown(names, EXPERIMENT_MODULES, "experiment"):
        return 2
    if args.scale and args.scale != golden.GOLDEN_SCALE:
        if args.record:
            # Recording at another scale would write baselines the test
            # suite (which always verifies at the golden scale) can never
            # match, while labeling them with the recorded scale.
            print(
                f"--record only makes sense at the {golden.GOLDEN_SCALE} "
                "scale the test suite verifies against; drop --scale",
                file=sys.stderr,
            )
            return 2
        print(
            f"note: baselines are recorded at {golden.GOLDEN_SCALE}; "
            f"digests at {args.scale} will not match them",
            file=sys.stderr,
        )
    store = ResultStore(args.store) if args.store else None
    runner = SweepRunner(jobs=args.jobs, store=store, resume=store is not None)
    failures = 0
    for name in names:
        result = golden.compute_result(name, scale, runner=runner)
        if args.record:
            digest = golden.record_golden(args.golden_dir, name, result)
            print(f"recorded {name}: {digest[:12]}")
            continue
        check = golden.check_golden(args.golden_dir, name, result)
        if check.expected is None:
            print(f"MISSING  {name}: no baseline (run with --record)")
            failures += 1
        elif check.ok:
            print(f"ok       {name}: {check.digest[:12]}")
        else:
            print(
                f"MISMATCH {name}: got {check.digest[:12]}, "
                f"expected {check.expected[:12]}"
            )
            failures += 1
    if failures:
        print(
            f"{failures} experiment(s) diverged from tests/golden/ — "
            "re-record with 'python -m repro golden --record' if intended",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(
    names: list[str] | None,
    scale_name: str | None,
    output: str | None,
    as_json: bool = False,
) -> int:
    from .analysis.report import build_report, run_experiments

    scale = resolve_scale(scale_name)
    results = run_experiments(names, scale, verbose=output is not None)
    if as_json:
        payload = {
            "scale": scale.name,
            "results": {
                name: result.to_dict() for name, result in results.items()
            },
        }
        text = json.dumps(payload, indent=2)
    else:
        text = build_report(results, scale)
    if output is None:
        print(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}")
    return 0


def _parse_scenario_arg(arg: str) -> tuple[str, dict]:
    """Parse ``name[:k=v,...]`` into a scenario name and overrides."""
    name, _, tail = arg.partition(":")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"bad scenario parameter {item!r} (expected k=v)"
                )
            params[key] = _parse_scalar(raw)
    return name, params


def _parse_scalar(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _build_specs(args, scale):
    """The deduped spec grid for ``sweep``/``campaign run`` arguments.

    Returns None (after printing the diagnostic) when any argument is
    invalid — callers exit 2.
    """
    from .sweep import SCENARIOS, RunSpec, system_spec_fields

    try:
        scenarios = [
            _parse_scenario_arg(s) for s in (args.scenarios or ["poisson"])
        ]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    if _reject_unknown([name for name, _ in scenarios], SCENARIOS, "scenario"):
        return None
    # Resolve parameter overrides up front: --dry-run approves only grids
    # the real run would accept, workers never see bad params, and the
    # specs carry the *resolved* params so their hashes stay valid even if
    # a scenario's registered defaults change later.
    resolved_scenarios = []
    for name, overrides in scenarios:
        try:
            resolved_scenarios.append(
                (name, SCENARIOS[name].resolve_params(overrides))
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return None
    systems = args.systems or ["negotiator"]
    if _reject_unknown(systems, CLI_SYSTEMS, "system"):
        return None
    topologies = args.topologies or ["parallel"]
    loads = args.loads or list(scale.loads)
    seeds = args.seeds or [scale.seed]
    duration_ns = (
        args.duration_ms * 1e6 if args.duration_ms is not None else None
    )

    specs = []
    seen_hashes: set[str] = set()
    try:
        for scenario_name, params in resolved_scenarios:
            # Synchronous scenarios inject at fixed instants and ignore the
            # load axis — one point instead of len(loads) identical runs.
            point_loads = (
                [1.0] if SCENARIOS[scenario_name].synchronous else loads
            )
            for system in systems:
                for topology in topologies:
                    # The oblivious, rotor, and adaptive baselines only
                    # run on thin-clos (their schedules need the AWGR
                    # structure), whatever the --topology axis says;
                    # duplicates dedupe below.
                    fields = (
                        system_spec_fields(system)
                        if system in ("adaptive", "oblivious", "rotor")
                        else {"system": system, "topology": topology}
                    )
                    for load in point_loads:
                        for seed in seeds:
                            spec = RunSpec(
                                scale=scale.name,
                                **fields,
                                scheduler=args.scheduler,
                                scenario=scenario_name,
                                scenario_params=params,
                                load=load,
                                seed=seed,
                                duration_ns=duration_ns,
                                priority_queue=not args.no_pq,
                                stream=args.stream,
                            )
                            if spec.content_hash not in seen_hashes:
                                seen_hashes.add(spec.content_hash)
                                specs.append(spec)
    except (TypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None
    return specs


def cmd_sweep(args) -> int:
    from .sweep import SCENARIOS, ResultStore, SweepRunner

    if args.list_scenarios:
        print("scenarios:")
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(scenario.defaults.items())
            )
            sync = " [synchronous]" if scenario.synchronous else ""
            print(f"  {name:<15} {scenario.description}{sync}")
            if params:
                print(f"  {'':<15} params: {params}")
        return 0

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    scale = resolve_scale(args.scale)
    specs = _build_specs(args, scale)
    if specs is None:
        return 2

    if args.dry_run:
        for spec in specs:
            print(f"{spec.short_hash}  {spec.label()}")
        print(f"{len(specs)} specs")
        return 0

    from .sweep import RetryPolicy, SweepExecutionError

    if args.retries < 0:
        print("--retries must be non-negative", file=sys.stderr)
        return 2
    if args.telemetry_cadence_us <= 0:
        print("--telemetry-cadence-us must be positive", file=sys.stderr)
        return 2
    # Default: live progress only when someone is watching stderr.
    progress = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    store = ResultStore(args.store)
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            store=store,
            resume=args.resume,
            # Logs go to stderr, so verbose no longer corrupts --json stdout.
            verbose=True,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(
                max_attempts=args.retries + 1,
                backoff_base_s=args.backoff_s,
            ),
            on_error=args.on_error,
            quarantine=args.quarantine,
            telemetry=args.telemetry,
            telemetry_cadence_ns=int(args.telemetry_cadence_us * 1000),
            progress=progress,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        summaries = runner.run(specs)
    except (ValueError, SweepExecutionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — {runner.executed} completed run(s) are in "
            f"{args.store}; rerun with --resume to execute only the rest",
            file=sys.stderr,
        )
        return 130

    failed = sorted(runner.failed_hashes())
    manifest_path = None
    if runner.telemetry_path is not None:
        from pathlib import Path

        from .telemetry import default_manifest_path, write_manifest

        manifest_path = default_manifest_path(Path(args.store))
        write_manifest(manifest_path, runner.build_manifest())
    if args.json:
        rows = []
        for spec in specs:
            if spec.content_hash not in summaries:
                continue
            outcome = runner.outcomes.get(spec.content_hash)
            rows.append(
                {
                    "spec_hash": spec.content_hash,
                    "spec": spec.to_dict(),
                    "summary": summaries[spec.content_hash].to_dict(),
                    "cached": spec.content_hash in runner.cached_hashes,
                    "attempts": outcome.attempts if outcome else 0,
                    "attempt_statuses": (
                        list(outcome.attempt_statuses) if outcome else []
                    ),
                }
            )
        payload = {
            "scale": scale.name,
            "runs": rows,
            "totals": {
                "specs": len(specs),
                "executed": runner.executed,
                "cached": runner.cached,
                "retried": sum(
                    1 for o in runner.outcomes.values() if o.attempts > 1
                ),
                "quarantined": len(runner.quarantined_hashes()),
                "failed": len(failed),
            },
        }
        if failed:
            payload["failures"] = [
                runner.outcomes[spec_hash].to_dict() for spec_hash in failed
            ]
        print(json.dumps(payload, indent=2))
    else:
        header = (
            f"{'hash':<12}  {'scenario':<14}  {'system':<10}  "
            f"{'topology':<8}  {'load':>5}  {'seed':>6}  {'flows':>7}  "
            f"{'done':>7}  {'gput':>6}  {'p99 mice (us)':>13}"
        )
        print(header)
        print("-" * len(header))
        for spec in specs:
            summary = summaries.get(spec.content_hash)
            if summary is None:
                outcome = runner.outcomes.get(spec.content_hash)
                verdict = outcome.status if outcome else "missing"
                print(
                    f"{spec.short_hash:<12}  {spec.scenario:<14}  "
                    f"{spec.system:<10}  {spec.topology:<8}  "
                    f"{spec.load:>5.2f}  {spec.seed:>6}  "
                    f"{'— ' + verdict + ' —':^40}"
                )
                continue
            fct = (
                f"{summary.mice_fct_p99_ns / 1e3:.1f}"
                if summary.mice_fct_p99_ns is not None
                else "n/a"
            )
            print(
                f"{spec.short_hash:<12}  {spec.scenario:<14}  "
                f"{spec.system:<10}  {spec.topology:<8}  "
                f"{spec.load:>5.2f}  {spec.seed:>6}  "
                f"{summary.num_flows:>7}  {summary.num_completed:>7}  "
                f"{summary.goodput_normalized:>6.3f}  {fct:>13}"
            )
    status = sys.stderr if args.json else sys.stdout
    print(
        f"{len(specs)} specs: {runner.executed} executed, "
        f"{runner.cached} cached (store: {args.store})",
        file=status,
    )
    if manifest_path is not None:
        print(
            f"telemetry: {runner.telemetry_path} "
            f"(manifest: {manifest_path})",
            file=status,
        )
    if failed:
        where = (
            f" (quarantined to {runner.quarantine.path})"
            if runner.quarantine is not None
            else ""
        )
        print(
            f"{len(failed)} spec(s) failed after retries{where}; "
            "the rest of the grid completed",
            file=status,
        )
    if args.resume:
        stale = len(runner.stale_stored_hashes())
        if stale:
            print(
                f"{stale} stored rows ignored (stale spec hashes — the "
                "store holds results for specs this grid no longer "
                "requests; 'compact' keeps them, delete the store to drop "
                "them)",
                file=status,
            )
    # Partial success (some specs lost to skip/quarantine) is exit 3, so
    # campaign drivers can tell "grid complete" from "grid degraded".
    return 3 if failed else 0


def cmd_campaign(args) -> int:
    if args.campaign_command == "run":
        return _cmd_campaign_run(args)
    if args.campaign_command == "status":
        return _cmd_campaign_status(args)
    return _cmd_campaign_merge(args)


def _cmd_campaign_run(args) -> int:
    from pathlib import Path

    from .sweep import (
        ResultStore,
        RetryPolicy,
        SweepExecutionError,
        default_worker_id,
        run_campaign,
    )

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("--retries must be non-negative", file=sys.stderr)
        return 2
    if args.telemetry_cadence_us <= 0:
        print("--telemetry-cadence-us must be positive", file=sys.stderr)
        return 2
    if args.lease_ttl_s <= 0:
        print("--lease-ttl-s must be positive", file=sys.stderr)
        return 2
    if args.lease_batch < 1:
        print("--lease-batch must be at least 1", file=sys.stderr)
        return 2
    scale = resolve_scale(args.scale)
    specs = _build_specs(args, scale)
    if specs is None:
        return 2
    if args.dry_run:
        for spec in specs:
            print(f"{spec.short_hash}  {spec.label()}")
        print(f"{len(specs)} specs")
        return 0

    cache_from = []
    for path in args.cache_from or []:
        if not Path(path).exists():
            print(f"no such cache store: {path}", file=sys.stderr)
            return 2
        cache_from.append(ResultStore(path))
    try:
        store = ResultStore(
            args.store, backend=args.backend, shards=args.shards
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    worker = args.worker_id if args.worker_id else default_worker_id()
    progress = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    try:
        report = run_campaign(
            specs,
            store,
            worker=worker,
            lease_ttl_s=args.lease_ttl_s,
            lease_batch=args.lease_batch,
            cache_from=cache_from,
            jobs=args.jobs,
            verbose=True,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(
                max_attempts=args.retries + 1,
                backoff_base_s=args.backoff_s,
            ),
            on_error=args.on_error,
            quarantine=args.quarantine,
            telemetry=args.telemetry,
            telemetry_cadence_ns=int(args.telemetry_cadence_us * 1000),
            progress=progress,
        )
    except (ValueError, SweepExecutionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — completed runs are already in {args.store}; "
            f"this worker's leases expire within {args.lease_ttl_s:g}s, "
            "after which peers (or a relaunch) pick up the rest",
            file=sys.stderr,
        )
        return 130

    if args.json:
        payload = report.to_dict()
        payload["store"] = args.store
        payload["content_digest"] = store.content_digest()
        print(json.dumps(payload, indent=2))
    else:
        imported = (
            f" ({report.imported} imported from cache)"
            if report.imported
            else ""
        )
        print(
            f"worker {report.worker}: {report.total} specs — "
            f"{report.executed} executed, "
            f"{report.cached} already done{imported}, "
            f"{report.done_elsewhere} finished by peers, "
            f"{report.failed} failed, {report.rounds} lease round(s)"
        )
        print(f"store: {args.store} (digest {store.content_digest()})")
        if report.manifest_path is not None:
            print(f"manifest: {report.manifest_path}")
    return 3 if report.failed else 0


def _cmd_campaign_status(args) -> int:
    from pathlib import Path

    from .sweep import ResultStore, campaign_status

    if not Path(args.path).exists():
        print(f"no such store: {args.path}", file=sys.stderr)
        return 2
    status = campaign_status(ResultStore(args.path))
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    print(
        f"{status['store']} ({status['backend']}): "
        f"{status['completed']} completed spec(s)"
    )
    if status["content_digest"] is not None:
        print(f"content digest: {status['content_digest']}")
    leases = status["active_leases"]
    if leases:
        print(f"{len(leases)} active lease(s):")
        for spec_hash, info in leases.items():
            print(
                f"  {spec_hash[:12]}  held by {info['owner']}, "
                f"expires in {info['expires_in_s']:.1f}s"
            )
    else:
        print("no active leases")
    return 0


def _cmd_campaign_merge(args) -> int:
    from pathlib import Path

    from .sweep import ResultStore

    sources = []
    for path in args.sources:
        if not Path(path).exists():
            print(f"no such store: {path}", file=sys.stderr)
            return 2
        sources.append(ResultStore(path))
    try:
        destination = ResultStore(
            args.into, backend=args.backend, shards=args.shards
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    appended = destination.merge(sources)
    print(
        f"merged {appended} new row(s) into {args.into} "
        f"from {len(sources)} store(s)"
    )
    print(f"content digest: {destination.content_digest()}")
    return 0


def _store_size_bytes(path) -> int:
    """On-disk footprint of a store path (a file, or a sharded dir)."""
    if path.is_dir():
        return sum(
            child.stat().st_size
            for child in path.rglob("*")
            if child.is_file()
        )
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def cmd_store(args) -> int:
    from pathlib import Path

    from .sweep import ResultStore

    if not Path(args.path).exists():
        print(f"no such store: {args.path}", file=sys.stderr)
        return 2
    try:
        store = ResultStore(
            args.path, backend=args.backend, shards=args.shards
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.store_command == "compact":
        before = _store_size_bytes(Path(args.path))
        dropped = store.compact()
        after = _store_size_bytes(Path(args.path))
        print(
            f"compacted {args.path}: {dropped} row(s) dropped, "
            f"{before - after} bytes reclaimed, "
            f"{len(store.rows())} row(s) kept"
        )
        return 0

    report = store.verify()
    print(f"{args.path}: {report.lines} line(s), {report.rows} valid row(s), "
          f"{report.unique_hashes} unique spec(s)")
    if report.legacy_rows:
        print(
            f"  {report.legacy_rows} legacy row(s) without checksums "
            "(run 'repro store compact' to upgrade)"
        )
    for problem in report.problems:
        print(f"  BAD {problem}")
    if args.digest:
        print(f"content digest: {store.content_digest()}")
    if not report.ok:
        print(
            f"{report.torn_lines} torn line(s), "
            f"{report.checksum_mismatches} checksum mismatch(es) — "
            "affected runs will re-execute on --resume; "
            "'repro store compact' drops the bad lines",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_simulate(args) -> int:
    import random

    from .experiments.common import (
        run_adaptive,
        run_negotiator,
        run_oblivious,
        run_rotor,
        sim_config,
    )
    from .workloads import by_name, poisson_workload, trace_io

    if _reject_unknown([args.system], CLI_SYSTEMS, "system"):
        return 2
    scale = resolve_scale(args.scale)
    duration_ns = (
        args.duration_ms * 1e6 if args.duration_ms is not None
        else scale.duration_ns
    )
    config = sim_config(scale, priority_queue_enabled=not args.no_pq)
    if args.seed is not None:
        import dataclasses

        config = dataclasses.replace(config, seed=args.seed)

    if args.workload_file is not None:
        flows = trace_io.load(args.workload_file)
        trace_io.validate_for_fabric(flows, config.num_tors)
    else:
        distribution = by_name(args.trace)
        if scale.max_flow_bytes is not None:
            distribution = distribution.truncated(scale.max_flow_bytes)
        flows = poisson_workload(
            distribution,
            args.load,
            config.num_tors,
            config.host_aggregate_gbps,
            duration_ns,
            random.Random(config.seed),
        )

    run = {
        "oblivious": run_oblivious,
        "rotor": run_rotor,
        "adaptive": run_adaptive,
    }.get(args.system, run_negotiator)
    summary = run(
        scale, args.topology, flows, duration_ns=duration_ns, config=config
    ).summary

    print(f"system    : {args.system} on {args.topology} "
          f"({config.num_tors} ToRs x {config.ports_per_tor} ports)")
    print(f"workload  : {summary.num_flows} flows over "
          f"{duration_ns / 1e6:g} ms "
          f"({args.workload_file or args.trace + f' @ {args.load:.0%}'})")
    print(f"completed : {summary.num_completed}/{summary.num_flows}")
    print(f"goodput   : {summary.goodput_normalized:.3f} normalized "
          f"({summary.goodput_gbps:.0f} Gbps network-wide)")
    if summary.mice_fct_p99_ns is not None:
        print(f"mice FCT  : p99 {summary.mice_fct_p99_ns / 1e3:.1f} us, "
              f"mean {summary.mice_fct_mean_ns / 1e3:.1f} us")
        if summary.mice_fct_p99_epochs is not None:
            print(f"          : p99 {summary.mice_fct_p99_epochs:.1f} epochs, "
                  f"mean {summary.mice_fct_mean_epochs:.1f} epochs")
    return 0


def cmd_bench_scale(args, fabrics) -> int:
    """The streaming million-flow scale benchmark (``bench --scale``)."""
    from . import perf, scalebench

    if fabrics and len(fabrics) > 1:
        print("--scale runs one fabric; pass a single --fabric",
              file=sys.stderr)
        return 2
    if args.scenarios:
        print("--scenario names hot-path suites; --scale always runs "
              "heavy-poisson", file=sys.stderr)
        return 2
    if args.bench_file != "BENCH_engine.json":
        print("--bench-file tracks the hot-path suite; with --scale use "
              "--scale-file", file=sys.stderr)
        return 2
    tors, ports = fabrics[0] if fabrics else (
        scalebench.DEFAULT_TORS, scalebench.DEFAULT_PORTS
    )
    try:
        result = scalebench.run_scale_bench(
            args.flows if args.flows is not None else scalebench.DEFAULT_FLOWS,
            tors,
            ports,
            load=(
                args.scale_load
                if args.scale_load is not None
                else scalebench.DEFAULT_LOAD
            ),
            fast_forward=not args.no_fast_forward,
            engine=args.engine or "negotiator",
            core=args.core,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(scalebench.format_result(result))
    if not result.completed:
        print("scale bench hit its simulated-time cap before all flows "
              "completed (overloaded point?)", file=sys.stderr)
        return 1

    bench = perf.BenchFile.load(args.scale_file)
    # --check compares against the baseline that existed when the run
    # started (--update-baseline must not blind it), while the recorded
    # speedup tracks the stored baseline — 1.0 when both are recorded in
    # one invocation, mirroring the hot-path suite.
    baseline_before = bench.entries.get(result.key, {}).get("baseline")
    dirty = False
    if args.update_baseline:
        bench.record_baseline(result)
        dirty = True
    if args.record:
        bench.record_current(result)
        # BenchFile derives speedup from epochs/sec (the hot-path metric);
        # the scale gate is flows/sec, so keep the recorded trajectory
        # consistent with what --check enforces.
        stored = bench.entries[result.key].get("baseline")
        if stored and stored.get("flows_per_sec"):
            bench.entries[result.key]["speedup"] = round(
                result.flows_per_sec / stored["flows_per_sec"], 3
            )
        dirty = True
    if dirty:
        bench.write()
        print(f"wrote {args.scale_file}")

    status = 0
    if args.budget_s is not None and result.wall_s > args.budget_s:
        print(
            f"scale bench blew its wall-clock budget: {result.wall_s:.1f}s "
            f"> {args.budget_s:g}s",
            file=sys.stderr,
        )
        status = 1
    if args.check is not None:
        if baseline_before is None:
            print(
                f"warning: no scale baseline for {result.key} "
                f"in {args.scale_file}; not checked",
                file=sys.stderr,
            )
        elif result.flows_per_sec < args.check * baseline_before["flows_per_sec"]:
            print(
                f"perf regression: {result.flows_per_sec:,.0f} flows/s < "
                f"{args.check:g} x baseline "
                f"{baseline_before['flows_per_sec']:,.0f}",
                file=sys.stderr,
            )
            status = 1
    return status


def cmd_bench(args) -> int:
    from . import perf

    fabrics = None
    if args.fabrics:
        fabrics = []
        for spec in args.fabrics:
            try:
                tors, ports = (int(part) for part in spec.lower().split("x"))
            except ValueError:
                print(f"bad fabric spec {spec!r} (expected TORSxPORTS)",
                      file=sys.stderr)
                return 2
            fabrics.append((tors, ports))
    if args.scale:
        if args.profile:
            print(
                "--profile only applies to the hot-path suite (not --scale)",
                file=sys.stderr,
            )
            return 2
        return cmd_bench_scale(args, fabrics)
    for flag, name in ((args.flows, "--flows"), (args.budget_s, "--budget-s"),
                       (args.scale_load, "--scale-load"),
                       (args.engine, "--engine")):
        if flag is not None:
            print(f"{name} only applies with --scale", file=sys.stderr)
            return 2
    if args.scale_file != "BENCH_scale.json":
        print("--scale-file only applies with --scale", file=sys.stderr)
        return 2
    if _reject_unknown(args.scenarios or [], perf.SCENARIOS, "scenario"):
        return 2
    if args.profile and (
        args.record or args.update_baseline or args.check is not None
    ):
        print(
            "--profile runs are not comparable to baselines; drop "
            "--record/--update-baseline/--check",
            file=sys.stderr,
        )
        return 2

    bench = perf.BenchFile.load(args.bench_file)
    if args.profile:
        return _bench_profile(args, bench, fabrics)
    results = perf.run_suite(
        args.scenarios,
        fabrics,
        fast_forward=not args.no_fast_forward,
        core=args.core,
    )
    print(perf.format_results(results, bench))
    # Snapshot before any recording so --check compares against the
    # baseline that existed when the run started, not one this invocation
    # just overwrote.
    baseline_before = {r.key: bench.baseline_eps(r.key) for r in results}

    dirty = False
    for result in results:
        if args.update_baseline:
            bench.record_baseline(result)
            dirty = True
        if args.record:
            bench.record_current(result)
            dirty = True
    if dirty:
        bench.write()
        print(f"wrote {args.bench_file}")

    if args.check is not None:
        failed = []
        compared = 0
        for result in results:
            base = baseline_before[result.key]
            if not base:
                print(
                    f"warning: no baseline for {result.key}; not checked",
                    file=sys.stderr,
                )
                continue
            compared += 1
            if result.epochs_per_sec < args.check * base:
                failed.append(
                    f"{result.key}: {result.epochs_per_sec:.0f} epochs/s "
                    f"< {args.check:g} x baseline {base:.0f}"
                )
        if failed:
            print("perf regression:", file=sys.stderr)
            for line in failed:
                print(f"  {line}", file=sys.stderr)
            return 1
        if compared == 0:
            print(
                "perf check: no comparable baselines found "
                f"in {args.bench_file}",
                file=sys.stderr,
            )
            return 1
    return 0


def _bench_profile(args, bench, fabrics) -> int:
    """bench --profile: trace each run, print per-phase wall-time shares."""
    from . import perf
    from .telemetry import EngineTracer, MemorySink

    names = args.scenarios or sorted(perf.SCENARIOS)
    fabric_list = fabrics or list(perf.FABRICS)
    results = []
    profiles = []
    for name in names:
        for tors, ports in fabric_list:
            # One sink per run; an effectively-infinite cadence keeps the
            # tracer out of the gauge path, so only the span timers run.
            sink = MemorySink()
            tracer = EngineTracer(
                sink, "negotiator", cadence_ns=1 << 62
            )
            result = perf.run_scenario(
                name,
                tors,
                ports,
                fast_forward=not args.no_fast_forward,
                core=args.core,
                tracer=tracer,
            )
            results.append(result)
            profiles.append((result, sink.of_kind("run-end")[-1]))
    print(perf.format_results(results, bench))
    for result, run_end in profiles:
        spans = run_end["spans"]
        counters = run_end["counters"]
        traced = sum(spans.values())
        denominator = traced or 1.0
        print(
            f"\n{result.key}: phase breakdown "
            f"({traced:.3f}s traced of {result.wall_s:.3f}s wall)"
        )
        for phase, wall in sorted(spans.items(), key=lambda kv: -kv[1]):
            print(
                f"  {phase:<12} {wall:>9.4f}s  "
                f"{wall / denominator * 100:>5.1f}%"
            )
        if counters:
            tally = ", ".join(
                f"{name}={total}" for name, total in sorted(counters.items())
            )
            print(f"  counters: {tally}")
    return 0


def cmd_trace(args) -> int:
    from pathlib import Path

    from .telemetry import analyze, format_trace, read_events, validate_event

    path = Path(args.path)
    if not path.exists():
        print(f"no such telemetry file: {path}", file=sys.stderr)
        return 2
    if args.top < 1:
        print("--top must be at least 1", file=sys.stderr)
        return 2
    events, torn = read_events(path)
    if args.validate:
        violations = [
            f"event {index}: {problem}"
            for index, event in enumerate(events)
            for problem in validate_event(event)
        ]
        for line in violations[:20]:
            print(line, file=sys.stderr)
        if len(violations) > 20:
            print(f"... {len(violations) - 20} more", file=sys.stderr)
        if torn:
            print(f"{torn} torn line(s)", file=sys.stderr)
        if violations or torn:
            return 1
        print(f"{len(events)} event(s), schema valid, 0 torn lines")
        return 0
    analysis = analyze(events, top=args.top)
    analysis["torn_lines"] = torn
    if args.json:
        print(json.dumps(analysis, indent=2))
    else:
        print(format_trace(analysis))
        if torn:
            print(f"warning: {torn} torn line(s) ignored", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(
            args.experiments,
            args.scale,
            args.jobs,
            args.json,
            run_all=args.all,
            store_path=args.store,
        )
    if args.command == "golden":
        return cmd_golden(args)
    if args.command == "report":
        return cmd_report(args.experiments, args.scale, args.output, args.json)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "store":
        return cmd_store(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "trace":
        return cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
