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
* ``report`` — run a set of experiments through one shared runner and
  emit a markdown report; ``--json`` emits the results as structured JSON
  instead.
* ``simulate`` — one-off simulation with headline metrics.
* ``sweep`` — run a grid of scenario x load x seed x system points into
  a result store as one worker of the lease loop (DESIGN.md sections 8
  and 17): parallel fan-out (``--jobs``), and a spec the store already
  holds is not run again, so a rerun executes only what is missing.
  Launched N times against one store, on one host or many, the workers
  share the grid through expiring leases, run each spec once and
  converge on the serial digest; ``--cache-from`` imports finished rows
  from earlier stores.  ``--stream`` pulls each workload lazily through
  the bounded-memory tracker (DESIGN.md section 11), so a
  ``heavy-poisson`` scenario can run a million flows in flat memory.
  Fault tolerance for unattended campaigns (DESIGN.md section 13):
  ``--timeout-s`` kills hung workers, ``--retries``/``--backoff-s`` retry
  failed specs with exponential backoff, and ``--on-error quarantine``
  records exhausted specs in a sidecar JSONL so the rest of the grid
  completes (exit 3 signals partial success).
* ``campaign`` — the stores sweeps share: ``status`` shows completion
  and live leases; ``merge`` folds stores together.
* ``store`` — integrity tooling for result stores: ``verify`` checks
  every row's checksum and reports torn lines, ``compact`` atomically
  rewrites the store in canonical deduplicated form.
* ``trace`` — analyze a telemetry JSONL captured with ``sweep
  --telemetry``: per-phase time shares of every engine, slowest specs,
  retry histograms, queue-depth percentiles (DESIGN.md section 14).

Timing lives outside the CLI: ``benchmarks/e2e/run.py`` measures the
paper-scale workloads and compares two commits (DESIGN.md section 10).

Every store path a command takes picks its backend by name:
``.db``/``.sqlite``/``.sqlite3`` is SQLite, any other path one JSONL
file (DESIGN.md section 17).  A directory is refused with exit 2.

Examples::

    python -m repro list
    python -m repro run fig9 --scale tiny --jobs 4
    python -m repro run table2 fig14 efficiency
    python -m repro run --all --scale tiny --jobs 4 --store repro.jsonl
    python -m repro golden          # compare against tests/golden/
    python -m repro golden --record # refresh after an intentional change
    python -m repro report --scale small --output report.md
    python -m repro sweep --scale tiny --scenario poisson --scenario hotspot \\
        --jobs 4 --store sweep.jsonl   # again: only missing points run
    python -m repro sweep --scale tiny --jobs 8 --timeout-s 120 \\
        --retries 2 --on-error quarantine --store campaign.jsonl
    python -m repro sweep --scale tiny --store fleet.db \\
        --retries 2 --on-error quarantine   # launch on N machines/shells
    python -m repro sweep --scale tiny --store fleet.db --cache-from old.jsonl
    python -m repro campaign status fleet.db
    python -m repro campaign merge --into merged.db fleet.db old.jsonl
    python -m repro store verify campaign.jsonl --digest
    python -m repro store compact campaign.jsonl
    python -m repro sweep --stream --scale micro --load 0.5 \\
        --scenario heavy-poisson:num_flows=1000000 --duration-ms 40
    python -m repro sweep --scale tiny --jobs 4 --telemetry events.jsonl \\
        --progress --store campaign.jsonl
    python -m repro trace events.jsonl          # phase shares, retries, ETA
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXPERIMENT_MODULES,
    SCALES,
    SYSTEMS,
    current_scale,
)


STORE_KINDS = "SQLite for .db/.sqlite/.sqlite3, one JSONL file otherwise"
"""How a store path picks its backend, for ``--store`` help texts."""


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """``sweep``'s flags: the grid axes, the store and its lease loop,
    fault tolerance, telemetry and output."""
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
        help=f"system to sweep: {', '.join(SYSTEMS)} (repeatable; "
        "default: negotiator)",
    )
    parser.add_argument(
        "--topology",
        action="append",
        dest="topologies",
        choices=["parallel", "thinclos"],
        default=None,
        help="fabric to sweep (repeatable; default: parallel); a system "
        "whose registry entry lists one fabric runs on it whatever this "
        "says",
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
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (default 1: serial)",
    )
    parser.add_argument(
        "--store",
        default="sweep_results.jsonl",
        help=f"result store, {STORE_KINDS} (default: sweep_results.jsonl); "
        "specs it already holds are not run again, and any number of "
        "sweeps of one grid can share it",
    )
    parser.add_argument(
        "--cache-from",
        action="append",
        dest="cache_from",
        metavar="PATH",
        default=None,
        help="prior result store (either backend) to import finished grid "
        "specs from before executing anything (repeatable; earlier "
        "stores win)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="this worker's identity in leases, heartbeats, and the "
        "manifest (default: host-pid)",
    )
    parser.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        metavar="S",
        help="lease lifetime; renewed while this worker lives, so it only "
        "expires when a worker dies (default 60; serial runs renew at "
        "attempt boundaries, so keep it above the slowest spec)",
    )
    parser.add_argument(
        "--lease-batch",
        type=int,
        default=None,
        metavar="N",
        help="most specs leased per claim (default: 4 x --jobs); a claim "
        "never takes more than an even share of the unleased specs among "
        "the workers holding leases",
    )
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
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit per-spec results and totals as JSON instead of a table",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list registered scenarios and their parameters, then exit",
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
        help=f"result store shared across experiments ({STORE_KINDS}); "
        "implies resume, so a repeated reproduction executes zero "
        "simulations",
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
        "sweep",
        help="run a spec grid into a store as one worker of a lease loop: "
        "fan-out, resume, and any number of concurrent workers",
    )
    _add_sweep_args(sweep)

    campaign = sub.add_parser(
        "campaign",
        help="inspect and fold the stores that sweep workers share",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
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
        "sources", nargs="+", metavar="SRC", help="source stores"
    )
    campaign_merge.add_argument(
        "--into",
        required=True,
        metavar="DST",
        help=f"destination store, {STORE_KINDS} (created if missing)",
    )

    store = sub.add_parser(
        "store",
        help="inspect and maintain result stores",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="integrity-check every row (checksums, torn lines, backend "
        "invariants); exits non-zero on corruption",
    )
    store_verify.add_argument("path", help=f"result store ({STORE_KINDS})")
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
    store_compact.add_argument("path", help=f"result store ({STORE_KINDS})")

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
        help=f"persist every computed summary to this result store, "
        f"{STORE_KINDS} (resumable, and verifiable with 'repro store "
        "verify')",
    )

    simulate = sub.add_parser(
        "simulate", help="one-off simulation with headline metrics"
    )
    simulate.add_argument(
        "--system",
        metavar="SYSTEM",
        default="negotiator",
        help=f"system to simulate: {', '.join(SYSTEMS)} (default: "
        "negotiator)",
    )
    simulate.add_argument(
        "--topology",
        choices=["parallel", "thinclos"],
        default="parallel",
        help="fabric (default: parallel); a system whose registry entry "
        "lists one fabric runs on it whatever this says",
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


def _open_store(path, must_exist: bool = False):
    """The result store at ``path``, or None after saying why not.

    The one place a command opens a store the user named, so each
    refusal has one message and the caller's exit 2: a directory is no
    store (:func:`repro.sweep.backends.detect_backend_kind`), and with
    ``must_exist`` a path with nothing behind it is refused too.
    """
    from pathlib import Path

    from .sweep import ResultStore

    if must_exist and not Path(path).exists():
        print(f"no such store: {path}", file=sys.stderr)
        return None
    try:
        return ResultStore(path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


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
    from .sweep import SweepRunner

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
    store = None
    if store_path is not None:
        store = _open_store(store_path)
        if store is None:
            return 2
    # One runner for every experiment: specs common to several figures
    # execute once (in-memory memo), and a store makes the whole
    # reproduction resumable — a second run is a pure cache hit.
    results = []
    with SweepRunner(
        jobs=jobs, store=store, resume=store is not None
    ) as runner:
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
    from .sweep import SweepRunner

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
    store = None
    if args.store:
        store = _open_store(args.store)
        if store is None:
            return 2
    failures = 0
    with SweepRunner(
        jobs=args.jobs, store=store, resume=store is not None
    ) as runner:
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
    if _reject_unknown(names or [], EXPERIMENT_MODULES, "experiment"):
        return 2
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
    """The deduped spec grid for ``sweep`` arguments.

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
    if _reject_unknown(systems, SYSTEMS, "system"):
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
                    # A system runs only on the fabrics its registry
                    # entry lists, whatever the --topology axis says;
                    # duplicates dedupe below.
                    fields = system_spec_fields(system, topology)
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


def _run_flag_problem(args) -> str | None:
    """The message for the first invalid run flag, or None when all hold."""
    import math

    if args.jobs < 1:
        return "--jobs must be at least 1"
    if args.retries < 0:
        return "--retries must be non-negative"
    if not 0 <= args.backoff_s < math.inf:
        return "--backoff-s must be non-negative and finite"
    for flag, value in (
        ("--timeout-s", args.timeout_s),
        ("--lease-ttl-s", args.lease_ttl_s),
    ):
        if value is not None and not 0 < value < math.inf:
            return f"{flag} must be positive and finite"
    # The cadence runs in whole nanoseconds.
    if not args.telemetry_cadence_us >= 0.001:
        return "--telemetry-cadence-us must be at least 0.001"
    if args.telemetry_cadence_us == math.inf:
        return "--telemetry-cadence-us must be finite"
    if args.lease_batch is not None and args.lease_batch < 1:
        return "--lease-batch must be at least 1"
    return None


def cmd_sweep(args) -> int:
    """Run the grid as one worker of the lease loop on ``--store``.

    Every run flag is checked before the grid is built, so ``--dry-run``
    approves exactly what the real run accepts; a dry run then prints
    the grid and opens no store.  A failed spec under ``--on-error
    fail`` and any other ValueError exit 2 with one line, Ctrl-C exits
    130, and a grid that lost specs to skip/quarantine exits 3.
    """
    from .sweep import SCENARIOS, RetryPolicy, SweepExecutionError, run_campaign

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
    problem = _run_flag_problem(args)
    if problem is not None:
        print(problem, file=sys.stderr)
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
        source = _open_store(path, must_exist=True)
        if source is None:
            return 2
        cache_from.append(source)
    store = _open_store(args.store)
    if store is None:
        return 2
    try:
        report = run_campaign(
            specs,
            store,
            worker=args.worker_id,
            lease_ttl_s=args.lease_ttl_s,
            lease_batch=args.lease_batch,
            cache_from=cache_from,
            jobs=args.jobs,
            # Logs go to stderr, so verbose never corrupts --json stdout.
            verbose=True,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(
                max_attempts=args.retries + 1, backoff_base_s=args.backoff_s
            ),
            on_error=args.on_error,
            quarantine=args.quarantine,
            telemetry=args.telemetry,
            telemetry_cadence_ns=int(args.telemetry_cadence_us * 1000),
            # Default: live progress only when someone is watching stderr.
            progress=sys.stderr.isatty()
            if args.progress is None
            else args.progress,
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — completed runs are in {args.store} and this "
            "worker's leases are released; rerun the same command to "
            "execute only the rest",
            file=sys.stderr,
        )
        return 130
    except (ValueError, SweepExecutionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_sweep(args, scale, specs, store, report)
    # Partial success (some specs lost to skip/quarantine) is exit 3, so
    # a launching script can tell "grid complete" from "grid degraded".
    return 3 if report.failed else 0


def _print_sweep(args, scale, specs, store, report) -> None:
    """The per-spec table (or ``--json`` document) read back from the
    store for every grid spec, then the totals on the status stream."""
    runner = report.runner
    summaries = store.load()
    failed = sorted(h for h in runner.failed_hashes() if h not in summaries)
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
            "store": args.store,
            "worker": report.worker,
            "content_digest": store.content_digest(),
            "manifest_path": report.manifest_path,
            "runs": rows,
            "totals": {
                "specs": report.total,
                "executed": report.executed,
                "cached": report.cached,
                "imported": report.imported,
                "done_elsewhere": report.done_elsewhere,
                "retried": sum(
                    1 for o in runner.outcomes.values() if o.attempts > 1
                ),
                "quarantined": len(runner.quarantined_hashes()),
                "failed": report.failed,
                "rounds": report.rounds,
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
            point = (
                f"{spec.short_hash:<12}  {spec.scenario:<14}  "
                f"{spec.system:<10}  {spec.topology:<8}  "
                f"{spec.load:>5.2f}  {spec.seed:>6}  "
            )
            summary = summaries.get(spec.content_hash)
            if summary is None:
                outcome = runner.outcomes.get(spec.content_hash)
                verdict = outcome.status if outcome else "missing"
                print(point + f"{'— ' + verdict + ' —':^40}")
                continue
            fct = (
                f"{summary.mice_fct_p99_ns / 1e3:.1f}"
                if summary.mice_fct_p99_ns is not None
                else "n/a"
            )
            print(
                point + f"{summary.num_flows:>7}  {summary.num_completed:>7}  "
                f"{summary.goodput_normalized:>6.3f}  {fct:>13}"
            )
    status = sys.stderr if args.json else sys.stdout
    imported = f" ({report.imported} imported)" if report.imported else ""
    print(
        f"{report.total} specs: {report.executed} executed, "
        f"{report.cached} cached{imported}, {report.done_elsewhere} done "
        f"elsewhere (store: {args.store}, worker {report.worker}, "
        f"{report.rounds} lease round(s))",
        file=status,
    )
    if report.manifest_path is not None:
        print(
            f"telemetry: {runner.telemetry_path} "
            f"(manifest: {report.manifest_path})",
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
    stale = len(summaries.keys() - {spec.content_hash for spec in specs})
    if stale:
        print(
            f"{stale} stored rows ignored (stale spec hashes — the store "
            "holds results for specs this grid does not request; 'compact' "
            "keeps them, delete the store to drop them)",
            file=status,
        )


def cmd_campaign(args) -> int:
    if args.campaign_command == "merge":
        return _cmd_campaign_merge(args)
    from .sweep import campaign_status

    store = _open_store(args.path, must_exist=True)
    if store is None:
        return 2
    status = campaign_status(store)
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
    sources = []
    for path in args.sources:
        source = _open_store(path, must_exist=True)
        if source is None:
            return 2
        sources.append(source)
    destination = _open_store(args.into)
    if destination is None:
        return 2
    appended = destination.merge(sources)
    print(
        f"merged {appended} new row(s) into {args.into} "
        f"from {len(sources)} store(s)"
    )
    print(f"content digest: {destination.content_digest()}")
    return 0


def cmd_store(args) -> int:
    store = _open_store(args.path, must_exist=True)
    if store is None:
        return 2

    if args.store_command == "compact":
        before = store.path.stat().st_size
        dropped = store.compact()
        after = store.path.stat().st_size
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
            "affected runs re-execute on the next sweep over the store; "
            "'repro store compact' drops the bad lines",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_simulate(args) -> int:
    import math
    import random

    from .experiments.common import run_system, sim_config, workload_for
    from .sweep import system_spec_fields
    from .workloads import trace_io

    if _reject_unknown([args.system], SYSTEMS, "system"):
        return 2
    topology = system_spec_fields(args.system, args.topology)["topology"]
    scale = resolve_scale(args.scale)
    duration_ns = (
        args.duration_ms * 1e6 if args.duration_ms is not None
        else scale.duration_ns
    )
    if not 0 < duration_ns < math.inf:
        print("--duration-ms must be positive and finite", file=sys.stderr)
        return 2
    config = sim_config(scale, priority_queue_enabled=not args.no_pq)
    if args.seed is not None:
        import dataclasses

        config = dataclasses.replace(config, seed=args.seed)

    try:
        if args.workload_file is not None:
            flows = trace_io.load(args.workload_file)
            trace_io.validate_for_fabric(flows, config.num_tors)
        else:
            flows = workload_for(
                scale,
                args.load,
                trace=args.trace,
                duration_ns=duration_ns,
                rng=random.Random(config.seed),
            )
    except OSError as exc:
        print(
            f"cannot read workload file {args.workload_file}: {exc.strerror}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    summary = run_system(
        args.system,
        scale,
        topology,
        flows,
        config=config,
        duration_ns=duration_ns,
    ).summary

    print(f"system    : {args.system} on {topology} "
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
    if args.command == "trace":
        return cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
