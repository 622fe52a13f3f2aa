"""The ``repro trace`` analyzer: summarize a telemetry JSONL.

Pure functions over the event list :func:`~repro.telemetry.events.read_events`
returns — the CLI command and the tests share them.  :func:`analyze`
computes the campaign roll-up, per-engine phase wall-time shares (from
``span`` windows, whose sums equal the ``run-end`` totals by
construction), the slowest executed specs, retry and final-status
histograms, queue-depth gauge percentiles, and heartbeat stats.
:func:`format_trace` renders the same analysis as text.
"""

from __future__ import annotations

import math

from . import events as ev


def _percentile(sorted_values: list, fraction: float) -> float | None:
    """Nearest-rank percentile over an ascending list; None when empty.

    An empty gauge series is a legitimate trace state (a run that never
    hit a gauge cadence boundary, or a truncated JSONL), not an analyzer
    error — callers render the absent value instead of crashing.
    """
    if not sorted_values:
        return None
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return float(sorted_values[max(0, min(len(sorted_values) - 1, rank))])


def analyze(events: list[dict], *, top: int = 5) -> dict:
    """Full trace summary of a telemetry event list."""
    kinds: dict[str, int] = {}
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, dict[str, int]] = {}
    queue_gauges: dict[str, list[float]] = {}
    spec_ends: list[dict] = []
    heartbeats: list[dict] = []
    campaign: dict | None = None
    for event in events:
        kind = event.get("kind")
        if not isinstance(kind, str):
            continue
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == ev.SPAN:
            engine = spans.setdefault(event["engine"], {})
            phase = event["phase"]
            engine[phase] = engine.get(phase, 0.0) + event["wall_s"]
        elif kind == ev.COUNTER:
            engine = counters.setdefault(event["engine"], {})
            name = event["name"]
            engine[name] = engine.get(name, 0) + event["delta"]
        elif kind == ev.GAUGE and event.get("name") == "queued_bytes":
            queue_gauges.setdefault(event["engine"], []).append(
                float(event["value"])
            )
        elif kind == ev.SPEC_END:
            spec_ends.append(event)
        elif kind == ev.HEARTBEAT_EVENT:
            heartbeats.append(event)
        elif kind == ev.CAMPAIGN_END:
            campaign = {
                key: event[key]
                for key in (
                    "campaign", "executed", "cached", "failed",
                    "retried", "quarantined", "elapsed_s",
                )
                if key in event
            }

    phase_shares: dict[str, dict] = {}
    for engine, phases in spans.items():
        total = sum(phases.values())
        phase_shares[engine] = {
            phase: {
                "wall_s": round(wall, 6),
                "share": round(wall / total, 4) if total > 0 else 0.0,
            }
            for phase, wall in sorted(
                phases.items(), key=lambda item: -item[1]
            )
        }

    executed_ends = [e for e in spec_ends if not e.get("cached")]
    slowest = sorted(
        executed_ends, key=lambda e: -e.get("elapsed_s", 0.0)
    )[:top]
    retry_histogram: dict[str, int] = {}
    status_counts: dict[str, int] = {}
    for event in spec_ends:
        status = event.get("status", "unknown")
        status_counts[status] = status_counts.get(status, 0) + 1
    # Cache hits never attempt anything; keep them out of the histogram.
    for event in executed_ends:
        attempts = str(event.get("attempts", 0))
        retry_histogram[attempts] = retry_histogram.get(attempts, 0) + 1

    queue_depth = {}
    for engine, values in queue_gauges.items():
        values.sort()
        queue_depth[engine] = {
            "samples": len(values),
            "p50": _percentile(values, 0.50),
            "p90": _percentile(values, 0.90),
            "p99": _percentile(values, 0.99),
            "max": values[-1] if values else None,
        }

    heartbeat_stats = None
    if heartbeats:
        rss = [
            e["rss_bytes"] for e in heartbeats
            if isinstance(e.get("rss_bytes"), int)
        ]
        heartbeat_stats = {
            "count": len(heartbeats),
            "specs": len({e.get("spec") for e in heartbeats}),
            "max_rss_bytes": max(rss) if rss else None,
        }

    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "campaign": campaign,
        "phase_time_shares": phase_shares,
        "counters": {
            engine: dict(sorted(names.items()))
            for engine, names in sorted(counters.items())
        },
        "slowest_specs": [
            {
                "spec": e.get("spec"),
                "label": e.get("label"),
                "elapsed_s": round(e.get("elapsed_s", 0.0), 6),
                "attempts": e.get("attempts"),
                "status": e.get("status"),
            }
            for e in slowest
        ],
        "retry_histogram": dict(
            sorted(retry_histogram.items(), key=lambda item: int(item[0]))
        ),
        "status_counts": dict(sorted(status_counts.items())),
        "queue_depth": queue_depth,
        "heartbeats": heartbeat_stats,
    }


def format_trace(analysis: dict) -> str:
    """Human-readable rendering of an :func:`analyze` result."""
    lines = [f"{analysis['events']} events"]
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in analysis["kinds"].items()
    )
    if kinds:
        lines.append(f"  kinds: {kinds}")
    campaign = analysis.get("campaign")
    if campaign:
        lines.append(
            "campaign: "
            f"{campaign.get('executed', 0)} executed, "
            f"{campaign.get('cached', 0)} cached, "
            f"{campaign.get('failed', 0)} failed, "
            f"{campaign.get('retried', 0)} retried, "
            f"{campaign.get('quarantined', 0)} quarantined "
            f"in {campaign.get('elapsed_s', 0.0):.2f}s"
        )
    for engine, phases in analysis["phase_time_shares"].items():
        lines.append(f"phase time ({engine}):")
        for phase, stats in phases.items():
            lines.append(
                f"  {phase:<12} {stats['wall_s'] * 1e3:9.3f} ms "
                f"({stats['share'] * 100:5.1f}%)"
            )
    if analysis["slowest_specs"]:
        lines.append("slowest specs:")
        for entry in analysis["slowest_specs"]:
            lines.append(
                f"  {entry['spec'][:12] if entry['spec'] else '?':<12} "
                f"{entry['elapsed_s']:8.3f}s  "
                f"attempts={entry['attempts']}  {entry['status']}  "
                f"{entry['label']}"
            )
    if analysis["retry_histogram"]:
        buckets = ", ".join(
            f"{attempts} attempt(s): {count}"
            for attempts, count in analysis["retry_histogram"].items()
        )
        lines.append(f"retries: {buckets}")
    if analysis["status_counts"]:
        statuses = ", ".join(
            f"{count} {status}"
            for status, count in analysis["status_counts"].items()
        )
        lines.append(f"statuses: {statuses}")
    for engine, stats in analysis["queue_depth"].items():

        def depth(key: str) -> str:
            value = stats[key]
            return "-" if value is None else f"{value:.0f}"

        lines.append(
            f"queue depth ({engine}): p50={depth('p50')} "
            f"p90={depth('p90')} p99={depth('p99')} "
            f"max={depth('max')} over {stats['samples']} samples"
        )
    heartbeats = analysis.get("heartbeats")
    if heartbeats:
        rss = heartbeats.get("max_rss_bytes")
        rss_text = f", max rss {rss / 1e6:.0f} MB" if rss else ""
        lines.append(
            f"heartbeats: {heartbeats['count']} from "
            f"{heartbeats['specs']} spec(s){rss_text}"
        )
    return "\n".join(lines)
