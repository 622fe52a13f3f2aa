"""End-to-end benchmark of the NegotiaToR reproduction.

Run from the repository root.  One measured run of one workload, whose
last stdout line is the JSON result (``correct``, ``attempted``,
``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload sweep-micro --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the passes that fit in ``--seconds``; ``--trace 1`` makes one
traced serial pass and reports the per-layer metrics instead.

The suite — every workload (or each ``--workload`` given), ``--repeats``
interleaved runs each in a fresh process, then one traced run each —
prints every metric with its median and quartiles::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S] [--repeats R] [--json]

Compare two suite ``--json`` outputs under the bounds of BENCHMARK.json,
optionally appending the pair to trajectory.json, or re-pin the seed-0
output digests under expected/::

    python3 benchmarks/e2e/run.py --compare A.json B.json [--append-trajectory]
    python3 benchmarks/e2e/run.py --record [--workload W ...]

See README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

from harness_calibrate import calibration, reference_s
from harness_stats import (
    classify,
    describe,
    percentile,
    relative_spread,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
TRAJECTORY = HERE / "trajectory.json"

MIN_PASSES = 3
SETUP_PROBES = 9
RESUME_MIN_S = 0.3
CROSSCHECK_SPECS = 3
CHILD_TIMEOUT_S = 900

# Modules that import the program (harness_workloads, harness_trace,
# repro) are imported inside functions: main() first isolates the
# environment and puts src/ on the path.

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def isolate_environment() -> None:
    """Single-threaded numerics, no inherited tracing or fault plan.

    Called before numpy is first imported: the benchmark controls
    parallelism through its worker count alone.  Tracing and fault
    injection reach workers through the environment, and an untraced,
    fault-free run must inherit neither.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REPRO_TELEMETRY", None)
    os.environ.pop("REPRO_CHAOS_PLAN", None)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}


def peak_rss_mb() -> float:
    """Peak resident set of this process and every waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int, store_path: Path) -> int:
    """Everything before the first spec is dispatched, then exit."""
    from harness_workloads import WORKLOADS
    from repro.sweep import ResultStore, SweepRunner

    workload = WORKLOADS[workload_name]
    workload.inputs(seed)
    SweepRunner(
        jobs=workload.jobs, store=ResultStore(store_path), resume=True
    )
    return 0


def measure_setup(workload_name: str, seed: int, workdir: Path) -> float:
    """Median calibrated wall time of fresh processes setting up."""
    times = []
    before = reference_s()
    for k in range(SETUP_PROBES):
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload_name, "--seed", str(seed),
            "--setup-probe", str(workdir / f"probe{k}"),
        ]
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - started
        after = reference_s()
        times.append(elapsed * calibration(before, after))
        before = after
    return statistics.median(times)


def timed_resume(workload, inputs, store_path: Path, experiments: dict):
    """(median warm-store re-run time, failures) over enough re-runs."""
    from harness_workloads import mismatches, run_pass

    times: list[float] = []
    failed = 0
    while len(times) < MIN_PASSES or (
        sum(times) < RESUME_MIN_S and len(times) < 2000
    ):
        again = run_pass(workload, inputs, store_path, jobs=workload.jobs)
        times.append(again.wall_s)
        failed += again.executed + again.failed
        failed += mismatches(experiments, again.experiments)
    return statistics.median(times), failed


def serial_crosscheck(rows) -> int:
    """Re-execute a few stored specs in-process; count digest mismatches."""
    from harness_workloads import summary_digest
    from repro.sweep import RunSpec
    from repro.sweep.runner import execute_spec

    hashes = sorted(rows.specs)
    step = max(1, len(hashes) // CROSSCHECK_SPECS)
    failed = 0
    for spec_hash in hashes[::step][:CROSSCHECK_SPECS]:
        summary = execute_spec(RunSpec.from_dict(rows.specs[spec_hash]))
        failed += summary_digest(summary.to_dict()) != rows.digests[spec_hash]
    return failed


def expectation_failures(name: str, seed: int, digests: dict, experiments: dict) -> int:
    """Seed-0 output against the pinned digests (0 for other seeds)."""
    from harness_workloads import expected_path, load_expected, mismatches

    if seed != 0:
        return 0
    expected = load_expected(name)
    if expected is None:
        warnings.warn(f"{expected_path(name)} missing; run --record", RuntimeWarning)
        return 0
    return mismatches(expected["specs"], digests) + mismatches(
        expected.get("experiments", {}), experiments
    )


def model_block(rows) -> dict:
    """The simulated headline numbers: gated only through the digests."""
    return {
        "specs": len(rows.digests),
        "mice_fct_p99_us_median": (
            statistics.median(rows.fct_p99_us) if rows.fct_p99_us else None
        ),
        "goodput_normalized_median": statistics.median(rows.goodput),
    }


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced passes for ``seconds``; end-to-end metrics as medians.

    Every time is calibrated by the reference timings taken before and
    after its pass.
    """
    from harness_workloads import mismatches, read_rows, run_pass, store_files

    setup_s = measure_setup(workload.name, seed, workdir)
    inputs = workload.inputs(seed)
    samples: dict[str, list[float]] = defaultdict(list)
    raw_wall: list[float] = []
    attempted = failed = 0
    reference = None
    before = reference_s()
    deadline = time.perf_counter() + seconds
    while len(samples["wall_s"]) < MIN_PASSES or time.perf_counter() < deadline:
        path = workdir / f"pass{len(samples['wall_s'])}{workload.store_suffix}"
        first = run_pass(workload, inputs, path, jobs=workload.jobs)
        rows = read_rows(path)
        resume_s, resume_failed = timed_resume(
            workload, inputs, path, first.experiments
        )
        after = reference_s()
        scale = calibration(before, after)
        before = after
        for stale in store_files(path):
            stale.unlink()
        attempted += first.executed + first.failed
        failed += first.failed + resume_failed
        if reference is None:
            reference = (rows, first.experiments)
        else:
            failed += mismatches(reference[0].digests, rows.digests)
            failed += mismatches(reference[1], first.experiments)
        elapsed = rows.elapsed_s
        wall = first.wall_s * scale
        raw_wall.append(first.wall_s)
        samples["wall_s"].append(wall)
        samples["specs_per_s"].append(first.executed / wall)
        samples["spec_p50_ms"].append(percentile(elapsed, 50) * scale * 1e3)
        samples["spec_tail_ms"].append(
            percentile(elapsed, tail_percentile(len(elapsed))) * scale * 1e3
        )
        samples["sim_us_per_s"].append(rows.sim_us / wall)
        samples["flows_per_s"].append(rows.flows / wall)
        samples["resume_s"].append(resume_s * scale)
    rows, experiments = reference
    failed += expectation_failures(workload.name, seed, rows.digests, experiments)
    if workload.jobs > 1:
        failed += serial_crosscheck(rows)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb()
    n = len(rows.elapsed_s)
    notes = [
        f"{len(raw_wall)} passes of {n} executed specs; spec_tail_ms is "
        f"p{tail_percentile(n):g}; uncalibrated wall median "
        f"{statistics.median(raw_wall):.4g} s",
        "model: " + json.dumps(model_block(rows)),
    ]
    return {"attempted": attempted, "failed": failed, "values": values, "notes": notes}


def generate_s(specs: dict) -> float:
    """Each spec's workload generator drained alone, outside the engine."""
    from repro.sweep import RunSpec
    from repro.sweep.runner import resolve_scale
    from repro.sweep.scenarios import build_workload_iter

    started = time.perf_counter()
    for data in specs.values():
        spec = RunSpec.from_dict(data)
        for _flow in build_workload_iter(spec, resolve_scale(spec)):
            pass
    return time.perf_counter() - started


def traced_run(workload, seed: int, workdir: Path, trace_out: Path) -> dict:
    """Untraced reference passes, then one traced serial pass + resume."""
    from harness_trace import (
        BACKENDS,
        SpanRecorder,
        install,
        layer_metrics,
        write_spans,
    )
    from harness_workloads import mismatches, read_rows, run_pass
    from repro.sweep import ResultStore
    from repro.telemetry.events import read_events
    from repro.telemetry.trace import analyze

    inputs = workload.inputs(seed)
    suffix = workload.store_suffix

    def reference_pass(label: str, jobs: int):
        path = workdir / f"{label}{suffix}"
        return run_pass(workload, inputs, path, jobs=jobs), read_rows(path)

    # The untraced run at the workload's own job count comes first and
    # doubles as the warm-up, so the serial baseline of the tracing
    # overhead is measured warm, like the traced pass after it.
    untraced, untraced_rows = reference_pass("untraced", workload.jobs)
    before_serial = reference_s()
    serial, serial_rows = reference_pass("serial", 1)
    before_traced = reference_s()
    recorder = SpanRecorder()
    telemetry = workdir / "telemetry.jsonl"
    traced_path = workdir / f"traced{suffix}"
    uninstall, missing = install(recorder)
    try:
        traced = run_pass(
            workload, inputs, traced_path, jobs=1, telemetry=telemetry
        )
        first_spans = recorder.take()
        resume = run_pass(workload, inputs, traced_path, jobs=1)
        resume_spans = recorder.take()
    finally:
        uninstall()
    after_traced = reference_s()
    traced_rows = read_rows(traced_path)
    write_spans(trace_out, {"first": first_spans, "resume": resume_spans})

    failed = untraced.failed + serial.failed + traced.failed
    failed += resume.failed + resume.executed
    failed += mismatches(untraced_rows.digests, traced_rows.digests)
    failed += mismatches(serial_rows.digests, traced_rows.digests)
    failed += mismatches(untraced.experiments, traced.experiments)
    failed += mismatches(traced.experiments, resume.experiments)
    failed += expectation_failures(
        workload.name, seed, traced_rows.digests, traced.experiments
    )
    events, _skipped = read_events(telemetry)
    values = layer_metrics(
        recorder,
        first_spans,
        resume_spans,
        traced_wall_s=traced.wall_s,
        # The serial baseline, rescaled to the machine speed the traced
        # pass saw, so the overhead ratio does not read host drift.
        untraced_serial_wall_s=serial.wall_s
        * calibration(before_serial, before_traced)
        / calibration(before_traced, after_traced),
        requested=traced.executed + traced.cached,
        resumed=resume.cached,
        telemetry=analyze(events),
        missing=missing,
    )
    # Dispatch overhead of the untraced run: worker capacity not spent
    # inside a spec (pool IPC and scheduling; the serial loop at jobs=1).
    capacity = workload.jobs * untraced.wall_s
    idle = capacity - sum(untraced_rows.elapsed_s)
    values["pool.overhead_ms_per_spec"] = idle / untraced.executed * 1e3
    values["pool.idle_frac"] = idle / capacity
    values["pool.retries"] = untraced.retries
    values["runner.executed"] = traced.executed
    values["runner.cached"] = traced.cached
    values["workloads.flows"] = traced_rows.flows
    values["workloads.generate_s"] = generate_s(traced_rows.specs)
    backend = ResultStore(traced_path).backend_kind
    for kind in BACKENDS:
        values[f"store.bytes.{kind}"] = traced_rows.store_bytes if kind == backend else 0
    attempted = sum(p.executed + p.failed for p in (untraced, serial, traced))
    notes = [
        f"traced serial pass: {traced.wall_s:.3f} s, untraced serial "
        f"{serial.wall_s:.3f} s; spans written to {trace_out}",
    ]
    return {"attempted": attempted, "failed": failed, "values": values, "notes": notes}


def single_run(workload, seed: int, seconds: float, trace: int, trace_out) -> None:
    """One run of one workload; prints the JSON result as the last line."""
    section = "per_layer" if trace else "end_to_end"
    units = metric_units(section)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            trace_out = Path(
                trace_out or WORK / f"trace-{workload.name}-seed{seed}.jsonl"
            )
            result = traced_run(workload, seed, workdir, trace_out)
        else:
            result = timed_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result["values"]
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with "
            f"BENCHMARK.json {section}"
        )
    print(f"{workload.name} seed={seed} trace={trace}")
    for name in units:
        value = values[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown} {units[name]}")
    for note in result["notes"]:
        print(note)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))


# ---------------------------------------------------------------------------
# the suite: interleaved fresh-process runs of every workload
# ---------------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; its parsed result plus its model line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("model: "):
            result["model"] = json.loads(line[len("model: "):])
    return result


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def suite(args) -> int:
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs: dict[str, list[dict]] = defaultdict(list)
    # Round-robin: a noisy burst on a shared machine hits one repetition
    # of several workloads instead of every repetition of one.
    for repeat in range(args.repeats):
        for name in names:
            print(f"[{repeat + 1}/{args.repeats}] {name}", file=sys.stderr)
            runs[name].append(child_run(name, args.seed, args.seconds, 0))
    report = {
        "git": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        traced = child_run(name, args.seed, args.seconds, 1)
        results = runs[name]
        attempted = sum(r["attempted"] for r in results) + traced["attempted"]
        failed = sum(r["failed"] for r in results) + traced["failed"]
        report["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "model": results[0].get("model"),
            "metrics": {
                m["name"]: {
                    "unit": m["unit"],
                    **describe(
                        r["metrics"].get(m["name"], {}).get("value")
                        for r in results
                    ),
                }
                for m in benchmark["end_to_end"]
            },
            "per_layer": {
                m["name"]: traced["metrics"].get(m["name"], {}).get("value")
                for m in benchmark["per_layer"]
            },
        }
    print_report(report, file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json.dumps(report))
    return 0 if all(w["failed"] == 0 for w in report["workloads"].values()) else 1


def print_report(report: dict, file) -> None:
    benchmark = load_benchmark()
    units = metric_units("per_layer")
    for name, data in report["workloads"].items():
        print(
            f"== {name}: failed_frac {data['failed_frac']:.4g} "
            f"({data['failed']}/{data['attempted']})",
            file=file,
        )
        print(f"  model: {json.dumps(data['model'])}", file=file)
        for m in benchmark["end_to_end"]:
            s = data["metrics"][m["name"]]
            if s["median"] is None:
                print(f"  {m['name']:<16} missing", file=file)
                continue
            print(
                f"  {m['name']:<16} {s['median']:12.6g} {m['unit']:<6} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}",
                file=file,
            )
        print("  per layer (traced pass):", file=file)
        for metric, value in data["per_layer"].items():
            if value:
                print(f"    {metric:<36} {value:.6g} {units[metric]}", file=file)


# ---------------------------------------------------------------------------
# compare, trajectory, record
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str, append_trajectory: bool) -> int:
    """Print better/worse/within/unresolved per (metric, workload)."""
    benchmark = load_benchmark()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    verdicts = defaultdict(int)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for m in benchmark["end_to_end"]:
            base = a["workloads"][name]["metrics"][m["name"]]
            new = b["workloads"][name]["metrics"][m["name"]]
            verdict = classify(base, new, m["bound"], m["better"])
            verdicts[verdict] += 1
            print(
                f"{name:<18} {m['name']:<14} {verdict:<10} "
                f"A {base['median']:.6g} B {new['median']:.6g} {m['unit']} "
                f"(bound {m['bound']:.0%}; spread A "
                f"{_pct(relative_spread(base))} B {_pct(relative_spread(new))})"
            )
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    if append_trajectory:
        append_entry(a, b)
    return 1 if verdicts["worse"] else 0


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.1%}"


def append_entry(a: dict, b: dict) -> None:
    """Append one trajectory entry from two suite runs of one commit."""
    entry = {key: a[key] for key in ("git", "date", "nproc", "seed", "repeats", "seconds")}
    entry["workloads"] = {}
    for name, data in a["workloads"].items():
        rows = {}
        for metric, s in data["metrics"].items():
            other = b["workloads"][name]["metrics"][metric]
            rows[metric] = {
                "unit": s["unit"],
                "median": [s["median"], other["median"]],
                "q1": [s["q1"], other["q1"]],
                "q3": [s["q3"], other["q3"]],
                "run_to_run": abs(other["median"] - s["median"]) / abs(s["median"]),
            }
        entry["workloads"][name] = rows
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended an entry to {TRAJECTORY}")


def record(names: list[str]) -> int:
    """Re-pin the seed-0 digests of each named workload under expected/."""
    from harness_workloads import WORKLOADS, read_rows, run_pass, write_expected

    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = WORKLOADS[name]
            path = workdir / f"{name}{workload.store_suffix}"
            result = run_pass(workload, workload.inputs(0), path, jobs=workload.jobs)
            if result.failed:
                print(f"{name}: {result.failed} failures; not recorded", file=sys.stderr)
                return 1
            written = write_expected(name, read_rows(path).digests, result.experiments)
            print(f"recorded {written}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="span JSONL of a --trace 1 run")
    parser.add_argument("--repeats", type=int, help="suite repetitions (default 3)")
    parser.add_argument("--json", action="store_true", help="suite report as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--append-trajectory", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    isolate_environment()
    if args.compare:
        return compare(*args.compare, args.append_trajectory)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = [w["name"] for w in load_benchmark()["workloads"]]
    unknown = sorted(set(args.workload) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload[0], args.seed, Path(args.setup_probe))
    if args.record:
        return record(args.workload or known)
    if len(args.workload) == 1 and args.repeats is None:
        from harness_workloads import WORKLOADS

        single_run(
            WORKLOADS[args.workload[0]], args.seed, args.seconds, args.trace,
            args.trace_out,
        )
        return 0
    args.repeats = args.repeats or 3
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
