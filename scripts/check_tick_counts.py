#!/usr/bin/env python
"""Guard the live and offline cost models on the counts the e2e trace already takes.

The live path folds the *tick*, not every flow's share of it (DESIGN.md §6):
one demux per tick, at most one forest call per gate that has rows due, and
no per-flow ``SessionReducerCascade.absorb`` — and every record the capture
scan found reaches that demux.  A traced run of the ``tap_small_ticks``
workload records exactly those counts —

    python3 benchmarks/e2e/run.py --workload tap_small_ticks --trace 1 --seconds 3

— and this script reads its result file and fails unless they still hold.
Given a traced ``corpus_batch`` result instead
(``benchmarks/e2e/out/result-corpus_batch-trace1.json``) it holds the offline
window chain (DESIGN.md §10) to its counts: every estimated window and every
session is folded into the fleet rollup exactly once, and every report costs
one whole-session fold.  Given a traced ``live_single`` result
(``benchmarks/e2e/out/result-live_single-trace1.json``) it holds the
single-engine live feed to one demux per tick over every packet of the
record, at most one stage-forest call per tick (plus the close), no
per-(flow, batch) cascade fold, and every estimated window folded into the
rollup once.  The rules follow the record's ``workload``.
Counts repeat exactly from run to run, so the guard holds on noisy shared
runners, where a time gate cannot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_RESULT = (
    REPO_ROOT / "benchmarks" / "e2e" / "out" / "result-tap_small_ticks-trace1.json"
)


def _tick_rules(value) -> tuple:
    """``tap_small_ticks``: the tick is the unit that is folded."""
    ticks = value("runtime.engine.ticks")
    flows = value("runtime.demux.flows")
    return (
        (
            value("ml.kernel.calls") <= ticks,
            f"ml.kernel.calls {value('ml.kernel.calls'):g} > runtime.engine.ticks "
            f"{ticks:g}: a gate calls its forest more than once per tick",
        ),
        (
            value("core.reducers.absorb_calls") <= flows / 4,
            f"core.reducers.absorb_calls {value('core.reducers.absorb_calls'):g} > "
            f"runtime.demux.flows / 4 ({flows / 4:g}): the live path folds per "
            "(flow, tick) again",
        ),
        (
            value("runtime.demux.calls") == ticks,
            f"runtime.demux.calls {value('runtime.demux.calls'):g} != "
            f"runtime.engine.ticks {ticks:g}: not one demux per tick",
        ),
        (
            value("net.pcap.records") == value("runtime.demux.rows")
            and value("net.pcap.skipped") == 0,
            f"net.pcap.records {value('net.pcap.records'):g} != runtime.demux.rows "
            f"{value('runtime.demux.rows'):g} or net.pcap.skipped "
            f"{value('net.pcap.skipped'):g} != 0: the capture scan or decode "
            "dropped records of a well-formed capture",
        ),
    )


def _window_rules(value) -> tuple:
    """``corpus_batch``: every window is estimated once and folded once."""
    return (
        (
            value("core.qoe.intervals") == value("analytics.fleet.events"),
            f"core.qoe.intervals {value('core.qoe.intervals'):g} != "
            f"analytics.fleet.events {value('analytics.fleet.events'):g}: a window "
            "or a session was estimated but not folded, or folded twice",
        ),
        (
            value("core.reducers.absorb_calls")
            == value("core.pipeline.finalize_sessions"),
            f"core.reducers.absorb_calls {value('core.reducers.absorb_calls'):g} != "
            f"core.pipeline.finalize_sessions "
            f"{value('core.pipeline.finalize_sessions'):g}: a report costs more "
            "(or less) than one whole-session fold",
        ),
    )


def _live_rules(value) -> tuple:
    """``live_single``: 1 s ticks of 24 sessions through one engine."""
    ticks = value("runtime.engine.ticks")
    bound = ticks + value("core.pipeline.finalize_sessions")
    return (
        (
            value("runtime.demux.calls") == ticks,
            f"runtime.demux.calls {value('runtime.demux.calls'):g} != "
            f"runtime.engine.ticks {ticks:g}: not one demux per tick",
        ),
        (
            value("runtime.demux.rows") == value("packets"),
            f"runtime.demux.rows {value('runtime.demux.rows'):g} != packets "
            f"{value('packets'):g}: the feed's batches lost or repeated rows",
        ),
        (
            value("core.activity_classifier.calls") <= bound,
            f"core.activity_classifier.calls "
            f"{value('core.activity_classifier.calls'):g} > runtime.engine.ticks + "
            f"core.pipeline.finalize_sessions ({bound:g}): the stage gate calls "
            "its forest more than once per tick",
        ),
        (
            value("core.reducers.absorb_calls") == 0,
            f"core.reducers.absorb_calls {value('core.reducers.absorb_calls'):g} "
            "!= 0: the live path folds per (flow, batch) again",
        ),
        (
            value("core.qoe.intervals") == value("analytics.fleet.events"),
            f"core.qoe.intervals {value('core.qoe.intervals'):g} != "
            f"analytics.fleet.events {value('analytics.fleet.events'):g}: a window "
            "or a session was estimated but not folded, or folded twice",
        ),
    )


RULES = {
    "tap_small_ticks": _tick_rules,
    "corpus_batch": _window_rules,
    "live_single": _live_rules,
}


def violations(record: dict) -> List[str]:
    """The cost-model rules a traced result breaks.

    Names are per-layer metrics, or fields of the record itself
    (``packets``).
    """
    metrics: Dict[str, dict] = record["metrics"]

    def value(name: str) -> float:
        return metrics[name]["value"] if name in metrics else record[name]

    rules = RULES[record["workload"]](value) + (
        (
            value("trace.coverage_frac") >= 0.95,
            f"trace.coverage_frac {value('trace.coverage_frac'):.3f} < 0.95: the "
            "spans no longer cover the pass, so the counts above may be partial",
        ),
    )
    return [message for holds, message in rules if not holds]


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    path = Path(arguments[0]) if arguments else DEFAULT_RESULT
    record = json.loads(path.read_text())
    if record.get("workload") not in RULES or not record.get("trace"):
        print(f"{path}: not a traced {' / '.join(RULES)} result", file=sys.stderr)
        return 2
    broken = violations(record)
    for message in broken:
        print(f"tick-count guard: {message}", file=sys.stderr)
    if not broken:
        print(f"tick-count guard passed ({path.name})")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
