"""The paper's directional claims, checked over one shared reproduction run.

Each entry of ``CLAIMS`` restates one statement of the NegotiaToR paper's
evaluation (arxiv 2407.20045: Figs 6-19, Tables 2-6 and the section 3.2.2
matching-efficiency model) as a predicate over the experiment's
``ExperimentResult`` and the scale it ran at.  The golden digests under
tests/golden/ pin every table's bits at micro scale; this table pins the
directions the paper reports, which need the 16-ToR tiny fabric to show
(DESIGN.md section 9).

``main()`` runs every claimed experiment once through one ``SweepRunner``,
so specs shared between figures execute once.  It prints ``ok`` or
``FAIL`` per claim, the rendered table of any experiment with a failed
claim, and the runner's executed/cached counts, and exits 1 if any claim
fails::

    PYTHONPATH=src python benchmarks/paper_claims.py --scale tiny --jobs 2

``--store PATH`` serves the runs from a result store, so a second run
over the same store executes no simulation.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro import golden
from repro.experiments import SCALES
from repro.sweep import ResultStore, SweepRunner


def _by(result, column=0):
    """The result's rows keyed by one column's value."""
    return {row[column]: row for row in result.rows}


def _column(result, index):
    return [row[index] for row in result.rows]


def _topologies(result):
    """The parallel and thin-clos rows of a table keyed by topology."""
    rows = _by(result)
    return [rows["parallel"], rows["thinclos"]]


def _panel(result, prefix):
    """One panel's rows keyed by system, for tables that hold two panels."""
    return {row[1]: row for row in result.rows if row[0].startswith(prefix)}


def _fig6_medians_overlap(result, scale):
    parallel, thinclos = _topologies(result)
    return abs(parallel[1] - thinclos[1]) / parallel[1] < 0.25


def _fig9_fcts(result, scale):
    """(load, NT parallel, oblivious) 99p mice FCT at every load."""
    nt, oblivious = result.series["NT parallel"], result.series["oblivious"]
    return [(load, nt[load][0], oblivious[load][0]) for load in scale.loads]


def _fig9_top(result, scale, system):
    """(fct, goodput) of one Fig 9/11 system at the heaviest load."""
    return result.series[system][max(scale.loads)]


def _fig12(result, panel, column):
    return [row[column] for row in result.rows if row[0].startswith(panel)]


def _fig13_rows(result, panel, system):
    return [
        row
        for row in result.rows
        if row[0].startswith(panel) and row[1] == system
    ]


def _fig13_wins(result, holds):
    """Whether ``holds(nt, oblivious)`` on every panel's heaviest load."""
    return all(
        holds(
            _fig13_rows(result, panel, "NT parallel")[-1],
            _fig13_rows(result, panel, "oblivious")[-1],
        )
        for panel in ("a", "b", "c")
    )


def _fig15(result, scale, label, goodput=False):
    """Fig 15's FCT (or goodput) series for one system, one per load."""
    num_loads = len(scale.loads)
    row = _by(result)[label]
    return row[1 + num_loads :] if goodput else row[1 : 1 + num_loads]


def _fig15_fcts(result, scale, better, worse):
    """Two Fig 15 systems' FCTs, paired by load."""
    return zip(_fig15(result, scale, better), _fig15(result, scale, worse))


def _fig15_goodput(result, scale):
    speedup = _fig15(result, scale, "Speedup 2x", goodput=True)
    iterations = [
        _fig15(result, scale, label, goodput=True)
        for label in ("ITER_I", "ITER_III", "ITER_V")
    ]
    return all(
        gput >= max(it[i] for it in iterations) - 0.02
        for i, gput in enumerate(speedup)
    )


def _fig17_alike(result, scale):
    incast = _panel(result, "17")
    return abs(incast["parallel"][2] - incast["thinclos"][2]) < 1.0


CLAIMS = {
    "fig6": [
        (
            "Fig 6: mice FCT quantiles are ordered, p50 <= p80 <= p99, on "
            "both topologies",
            lambda r, s: all(
                row[1] <= row[2] <= row[3] for row in _topologies(r)
            ),
        ),
        (
            "Fig 6: most mice flows bypass the scheduling delay (paper: >80% "
            "within 2 epochs; the scaled trace holds >50%)",
            lambda r, s: all(row[5] > 0.5 for row in _topologies(r)),
        ),
        (
            "Fig 6: fewer mice finish within 1 epoch than within 2",
            lambda r, s: all(row[4] < row[5] for row in _topologies(r)),
        ),
        (
            "Fig 6: identical predefined phases overlap the two CDFs in the "
            "bypass region (median FCTs within 25%)",
            _fig6_medians_overlap,
        ),
    ],
    "fig7a": [
        (
            "Fig 7a: NegotiaToR's incast finish time is flat in the degree "
            "(max <= 1.5x min on parallel)",
            lambda r, s: max(_column(r, 1)) <= min(_column(r, 1)) * 1.5,
        ),
        (
            "Fig 7a: NegotiaToR finishes each incast alike on both "
            "topologies (within 20%)",
            lambda r, s: all(
                abs(par - thin) <= 0.2 * par
                for par, thin in zip(_column(r, 1), _column(r, 2))
            ),
        ),
        (
            "Fig 7a: the oblivious finish time grows with the degree",
            lambda r, s: _column(r, 3)[-1] >= _column(r, 3)[0],
        ),
        (
            "Fig 7a: the degrees are swept in increasing order",
            lambda r, s: _column(r, 0) == sorted(_column(r, 0)),
        ),
    ],
    "fig7b": [
        (
            "Fig 7b: all-to-all goodput grows with flow size on parallel",
            lambda r, s: _column(r, 1)[-1] > _column(r, 1)[0],
        ),
        (
            "Fig 7b: all-to-all goodput grows with flow size on thin-clos",
            lambda r, s: _column(r, 2)[-1] > _column(r, 2)[0],
        ),
        (
            "Fig 7b: at the heaviest size parallel beats thin-clos (full "
            "connectivity keeps links busy as flows finish)",
            lambda r, s: _column(r, 1)[-1] > _column(r, 2)[-1],
        ),
        (
            "Fig 7b: at the heaviest size the oblivious relay cannot beat "
            "parallel",
            lambda r, s: _column(r, 1)[-1] > _column(r, 3)[-1],
        ),
    ],
    "fig8": [
        (
            "Fig 8: the guardbands are swept in increasing order",
            lambda r, s: _column(r, 0) == sorted(_column(r, 0)),
        ),
        (
            "Fig 8: FCT grows with the stretched epoch on parallel",
            lambda r, s: _column(r, 1)[-1] > _column(r, 1)[0],
        ),
        (
            "Fig 8: parallel goodput stays workable (> 0.55) across the "
            "reconfiguration-delay sweep",
            lambda r, s: min(_column(r, 2)) > 0.55,
        ),
        (
            "Fig 8: thin-clos goodput stays workable (> 0.55) across the "
            "reconfiguration-delay sweep",
            lambda r, s: min(_column(r, 4)) > 0.55,
        ),
    ],
    "fig9": [
        (
            "Fig 9: oblivious 99p mice FCT above 2x NegotiaToR's from 50% "
            "load up (paper: 1-2 orders of magnitude)",
            lambda r, s: all(
                ob > 2 * nt
                for load, nt, ob in _fig9_fcts(r, s)
                if load >= 0.5
            ),
        ),
        (
            "Fig 9: oblivious 99p mice FCT above 0.7x NegotiaToR's below "
            "50% load",
            lambda r, s: all(
                ob > 0.7 * nt
                for load, nt, ob in _fig9_fcts(r, s)
                if load < 0.5
            ),
        ),
        (
            "Fig 9: at the heaviest load relayed traffic saturates the "
            "oblivious baseline (NT goodput > oblivious + 0.05)",
            lambda r, s: _fig9_top(r, s, "NT parallel")[1]
            > _fig9_top(r, s, "oblivious")[1] + 0.05,
        ),
        (
            "Fig 9: thin-clos goodput is not above parallel's (+0.02) at "
            "the heaviest load",
            lambda r, s: _fig9_top(r, s, "NT thin-clos")[1]
            <= _fig9_top(r, s, "NT parallel")[1] + 0.02,
        ),
        (
            "Fig 9: thin-clos goodput is only marginally below parallel's "
            "(> 0.8x) at the heaviest load",
            lambda r, s: _fig9_top(r, s, "NT thin-clos")[1]
            > 0.8 * _fig9_top(r, s, "NT parallel")[1],
        ),
        (
            "Fig 9: goodput tracks offered load (within 0.05) at the "
            "lightest load for NT on both fabrics and oblivious",
            lambda r, s: all(
                abs(r.series[system][min(s.loads)][1] - min(s.loads)) < 0.05
                for system in ("NT parallel", "NT thin-clos", "oblivious")
            ),
        ),
    ],
    "fig10": [
        (
            "Fig 10: more failed links cost more bandwidth (10% drop ratio "
            "below 2% drop ratio + 0.02)",
            lambda r, s: _column(r, 1)[-1] < _column(r, 1)[0] + 0.02,
        ),
        (
            "Fig 10: at 10% failed links the bandwidth loss is "
            "disproportionate but bounded (0.5 < ratio < 1; paper: 75.3%)",
            lambda r, s: 0.5 < _column(r, 1)[-1] < 1.0,
        ),
        (
            "Fig 10: repair restores the pre-failure level (drop and "
            "recovery ratios within 0.25 of each other)",
            lambda r, s: all(
                abs(drop - recovery) < 0.25
                for drop, recovery in zip(_column(r, 1), _column(r, 2))
            ),
        ),
    ],
    "fig11": [
        (
            "Fig 11: without speedup NegotiaToR still beats the oblivious "
            "baseline's goodput at the heaviest load",
            lambda r, s: _fig9_top(r, s, "NT parallel")[1]
            > _fig9_top(r, s, "oblivious")[1],
        ),
        (
            "Fig 11: without speedup oblivious 99p mice FCT is above 2x "
            "NegotiaToR's at the heaviest load",
            lambda r, s: _fig9_top(r, s, "oblivious")[0]
            > 2 * _fig9_top(r, s, "NT parallel")[0],
        ),
        (
            "Fig 11: with 1x uplinks no system exceeds 1.0 normalized goodput",
            lambda r, s: all(
                goodput <= 1.0
                for per_load in r.series.values()
                for _fct, goodput in per_load.values()
            ),
        ),
    ],
    "fig12": [
        (
            "Fig 12: both panels sweep five settings",
            lambda r, s: len(_fig12(r, "a", 0)) == 5
            and len(_fig12(r, "b", 0)) == 5,
        ),
        (
            "Fig 12b: stretching the scheduled phase raises FCT (500 slots "
            "> 3x 30 slots)",
            lambda r, s: _fig12(r, "b", 2)[-1] > 3 * _fig12(r, "b", 2)[1],
        ),
        (
            "Fig 12b: 500 scheduled slots erode goodput below 30 slots'",
            lambda r, s: _fig12(r, "b", 3)[-1] < _fig12(r, "b", 3)[1],
        ),
        (
            "Fig 12a: the default 60 ns slot is near the optimum (no "
            "setting below 0.5x its FCT)",
            lambda r, s: min(_fig12(r, "a", 2)) > 0.5 * _fig12(r, "a", 2)[2],
        ),
    ],
    "fig13": [
        (
            "Fig 13: on every workload NegotiaToR's mice FCT beats the "
            "oblivious baseline at the heaviest load",
            lambda r, s: _fig13_wins(r, lambda nt, ob: ob[3] > nt[3]),
        ),
        (
            "Fig 13: on every workload NegotiaToR's goodput is at least "
            "oblivious's (-0.02) at the heaviest load",
            lambda r, s: _fig13_wins(r, lambda nt, ob: nt[5] >= ob[5] - 0.02),
        ),
        (
            "Fig 13a: the piggyback path absorbs incasts (finish < 1 ms at "
            "every load)",
            lambda r, s: all(
                row[4] < 1.0 for row in _fig13_rows(r, "a", "NT parallel")
            ),
        ),
    ],
    "fig14": [
        (
            "Fig 14: the measured match ratio is consistent with "
            "1-(1-1/n)^n (within 0.08) on both topologies",
            lambda r, s: all(
                abs(row[2] - row[3]) < 0.08 for row in _topologies(r)
            ),
        ),
        (
            "Fig 14: the mean match ratio lies within the p10-p90 band on "
            "both topologies",
            lambda r, s: all(
                row[4] <= row[2] <= row[5] for row in _topologies(r)
            ),
        ),
        (
            "Fig 14: fewer competitors per port give thin-clos a higher "
            "expected match ratio than parallel",
            lambda r, s: _by(r)["thinclos"][3] > _by(r)["parallel"][3],
        ),
    ],
    "fig15": [
        (
            "Fig 15: the 2x speedup beats one matching iteration in FCT at "
            "every load",
            lambda r, s: all(
                a < b for a, b in _fig15_fcts(r, s, "Speedup 2x", "ITER_I")
            ),
        ),
        (
            "Fig 15: three iterations worsen FCT over one at every load",
            lambda r, s: all(
                a < b for a, b in _fig15_fcts(r, s, "ITER_I", "ITER_III")
            ),
        ),
        (
            "Fig 15: five iterations are no better than three (within 10%) "
            "at every load",
            lambda r, s: all(
                a <= b * 1.1
                for a, b in _fig15_fcts(r, s, "ITER_III", "ITER_V")
            ),
        ),
        (
            "Fig 15: iteration never buys goodput over the 2x speedup "
            "(-0.02) at any load",
            _fig15_goodput,
        ),
    ],
    "fig17_18": [
        (
            "Fig 17: the incast destination hears its first byte alike on "
            "both topologies (within 1 us)",
            _fig17_alike,
        ),
        (
            "Fig 17: NegotiaToR's incast destination hears data within "
            "roughly one epoch (< 10 us)",
            lambda r, s: _panel(r, "17")["parallel"][2] < 10.0,
        ),
        (
            "Fig 18: NegotiaToR's parallel receivers get only wanted bytes",
            lambda r, s: _panel(r, "18")["parallel"][4] == 0,
        ),
        (
            "Fig 18: NegotiaToR's thin-clos receivers get only wanted bytes",
            lambda r, s: _panel(r, "18")["thinclos"][4] == 0,
        ),
        (
            "Fig 18: the oblivious receiver spends bandwidth on relayed "
            "traffic",
            lambda r, s: _panel(r, "18")["oblivious"][4] > 0,
        ),
    ],
    "fig19": [
        (
            "Fig 19: a healthy pair never sees a zero-bandwidth epoch",
            lambda r, s: _by(r)[0][2] == "0%",
        ),
        (
            "Fig 19: a failed egress link introduces zero-bandwidth epochs",
            lambda r, s: _by(r)[1][2] != "0%",
        ),
        (
            "Fig 19: the rotating round-robin rule keeps the pair "
            "transmitting in its active epochs",
            lambda r, s: _by(r)[1][3] > 0,
        ),
        (
            "Fig 19: failed links cut the mean occupation",
            lambda r, s: _by(r)[1][1] < _by(r)[0][1],
        ),
    ],
    "table2": [
        (
            "Table 2: PB and PQ together beat no optimization in parallel "
            "99p mice FCT",
            lambda r, s: _by(r)["PB and PQ"][1] < _by(r)["-"][1],
        ),
        (
            "Table 2: PB and PQ together beat no optimization in thin-clos "
            "99p mice FCT",
            lambda r, s: _by(r)["PB and PQ"][3] < _by(r)["-"][3],
        ),
        (
            "Table 2: PB and PQ keep parallel average mice FCT near the "
            "scheduling delay (< 3.5 epochs; paper: 1.6)",
            lambda r, s: _by(r)["PB and PQ"][2] < 3.5,
        ),
        (
            "Table 2: PB and PQ keep thin-clos average mice FCT near the "
            "scheduling delay (< 3.5 epochs; paper: 1.6)",
            lambda r, s: _by(r)["PB and PQ"][4] < 3.5,
        ),
        (
            "Table 2: PQ alone beats no optimization in parallel 99p mice "
            "FCT (head-of-line blocking)",
            lambda r, s: _by(r)["PQ"][1] < _by(r)["-"][1],
        ),
    ],
    "table3": [
        (
            "Table 3: selective relay moves goodput only marginally (< 0.06) "
            "at every load",
            lambda r, s: all(abs(row[4] - row[2]) < 0.06 for row in r.rows),
        ),
        (
            "Table 3: selective relay moves 99p mice FCT only marginally "
            "(< 1.5x) at every load",
            lambda r, s: all(row[3] < row[1] * 1.5 for row in r.rows),
        ),
    ],
    "table4": [
        (
            "Table 4: data-size priority hurts tail FCT at full load",
            lambda r, s: r.rows[-1][2] > r.rows[-1][1],
        ),
        (
            "Table 4: data-size priority wins no meaningful goodput (< "
            "+0.05) at full load",
            lambda r, s: r.rows[-1][5] < r.rows[-1][4] + 0.05,
        ),
        (
            "Table 4: HoL-delay priority trims tail FCT modestly (<= 1.05x "
            "base) at full load",
            lambda r, s: r.rows[-1][3] <= r.rows[-1][1] * 1.05,
        ),
        (
            "Table 4: data-size priority leaves goodput unchanged (< 0.05) "
            "at every load",
            lambda r, s: all(abs(row[5] - row[4]) < 0.05 for row in r.rows),
        ),
        (
            "Table 4: HoL-delay priority leaves goodput unchanged (< 0.05) "
            "at every load",
            lambda r, s: all(abs(row[6] - row[4]) < 0.05 for row in r.rows),
        ),
    ],
    "table5": [
        (
            "Table 5: stateful scheduling leaves goodput unchanged (< 0.05) "
            "at every load",
            lambda r, s: all(abs(row[4] - row[2]) < 0.05 for row in r.rows),
        ),
        (
            "Table 5: stateful scheduling does not raise 99p mice FCT "
            "meaningfully (< 1.6x) at any load",
            lambda r, s: all(row[3] < row[1] * 1.6 for row in r.rows),
        ),
        (
            "Table 5: stateful scheduling does not cut 99p mice FCT "
            "meaningfully (> 0.5x) at any load",
            lambda r, s: all(row[3] > row[1] * 0.5 for row in r.rows),
        ),
    ],
    "table6": [
        (
            "Table 6: ProjecToR-style scheduling loses to NegotiaToR "
            "Matching in 99p mice FCT at every load",
            lambda r, s: all(row[3] > row[1] for row in r.rows),
        ),
        (
            "Table 6: the ProjecToR FCT gap widens past 2x at full load",
            lambda r, s: r.rows[-1][3] > 2 * r.rows[-1][1],
        ),
        (
            "Table 6: ProjecToR-style scheduling loses goodput at full load",
            lambda r, s: r.rows[-1][4] < r.rows[-1][2],
        ),
    ],
    "efficiency": [
        (
            "Sec 3.2.2: the closed form equals the binomial sum (within "
            "1e-9) for every n",
            lambda r, s: all(abs(row[1] - row[2]) <= 1e-9 for row in r.rows),
        ),
        (
            "Sec 3.2.2: Monte Carlo matching agrees with the closed form "
            "(within 0.03) for every n",
            lambda r, s: all(abs(row[3] - row[1]) <= 0.03 for row in r.rows),
        ),
        (
            "Sec 3.2.2: the paper's quoted E[Y] = 0.634 at n = 128 (within "
            "5e-4)",
            lambda r, s: abs(_by(r)[128][1] - 0.634) <= 5e-4,
        ),
        (
            "Sec 3.2.2: the paper's quoted E[Y] = 0.644 at n = 16 (within "
            "5e-4)",
            lambda r, s: abs(_by(r)[16][1] - 0.644) <= 5e-4,
        ),
    ],
}
"""Claims by experiment short name: (text, predicate(result, scale))."""


def _holds(predicate, result, scale) -> tuple[bool, str]:
    """Whether a claim holds.  A predicate that raises (a row missing, or
    an "n/a" cell where a number was expected) fails, its traceback goes
    to stderr, and the remaining claims are still checked."""
    try:
        return bool(predicate(result, scale)), ""
    except Exception as exc:  # noqa: BLE001 — a broken claim is a failure
        traceback.print_exc()
        return False, f" ({type(exc).__name__}: {exc})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (default 1: serial)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store; implies resume, so a repeated check "
        "executes zero simulations",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    scale = SCALES[args.scale]
    store = ResultStore(args.store) if args.store is not None else None
    total = failed = 0
    with SweepRunner(
        jobs=args.jobs, store=store, resume=store is not None
    ) as runner:
        for name, claims in CLAIMS.items():
            result = golden.compute_result(name, scale, runner=runner)
            verdicts = [
                (text, *_holds(predicate, result, scale))
                for text, predicate in claims
            ]
            for text, held, error in verdicts:
                print(
                    f"{'ok' if held else 'FAIL':<4} {name:<10} {text}{error}"
                )
            misses = sum(not held for _text, held, _error in verdicts)
            if misses:
                print(result.render())
            total += len(verdicts)
            failed += misses
    print(f"{runner.executed} simulations executed, {runner.cached} cached")
    print(f"{total - failed}/{total} claims hold at scale {scale.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
