"""Exact checks on what a pass produced (FlowTest's "precise" half).

Speed is gated by banded numbers in ``run.py``; correctness is gated here,
exactly, and per session — one miss fails one session, and only something
wrong with the pass as a whole (a different fleet digest, a crash) fails
them all.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.runtime import SessionReport, SessionStarted, TitleClassified
from repro.simulation.catalog import PlayerStage


@dataclasses.dataclass
class Tally:
    """Checks attempted and failed (one per session and pass), with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = dataclasses.field(default_factory=list)

    def add(self, verdicts: Sequence[Optional[str]], where: str) -> None:
        """Count one verdict per session: ``None`` passed, a string failed."""
        self.attempted += len(verdicts)
        for index, verdict in enumerate(verdicts):
            if verdict is not None:
                self.failed += 1
                if len(self.reasons) < 8:
                    self.reasons.append(f"{where} [{index}]: {verdict}")

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def split_events(events: Sequence, keys: Sequence) -> List[list]:
    """Per-session event sequences, in ``keys`` order.

    Events without a flow (worker restarts, model swaps) and events of
    flows nobody generated are left out; the packet-count check catches a
    session whose events went to a stranger.
    """
    by_flow: Dict[object, list] = {key: [] for key in keys}
    for event in events:
        bucket = by_flow.get(getattr(event, "flow", None))
        if bucket is not None:
            bucket.append(event)
    return [by_flow[key] for key in keys]


def report_diff(expected, observed) -> Optional[str]:
    """Name of the first report field that differs, or ``None``.

    Fields are compared by ``repr``: floats print with all their digits, and
    a NaN metric equals itself, which ``==`` would deny.
    """
    for field in dataclasses.fields(expected):
        if repr(getattr(expected, field.name)) != repr(getattr(observed, field.name)):
            return field.name
    return None


def _same_events(expected: list, observed: list) -> bool:
    if expected == observed:
        return True
    return len(expected) == len(observed) and all(
        repr(a) == repr(b) for a, b in zip(expected, observed)
    )


def check_live_pass(
    keys: Sequence,
    n_packets: Sequence[int],
    expected_events: Sequence,
    expected_digest: str,
    events: Sequence,
    digest: Optional[str],
    ignore: tuple = (),
) -> List[Optional[str]]:
    """One verdict per session of a streaming pass.

    A session passes when it has exactly one ``SessionStarted``,
    ``TitleClassified`` and ``SessionReport``, its report equals the
    reference pass's field by field, the report counts every generated
    packet, and its whole event sequence equals the reference's (which, over
    all sessions, makes the sharded event multiset equal the single
    engine's).  ``ignore`` names event types a faulted pass adds.
    """
    if digest != expected_digest:
        return [f"fleet digest {digest} != reference {expected_digest}"] * len(keys)
    verdicts: List[Optional[str]] = []
    reference = split_events(expected_events, keys)
    observed = split_events(
        [event for event in events if not isinstance(event, ignore)], keys
    )
    for want, got, sent in zip(reference, observed, n_packets):
        verdict = None
        for kind in (SessionStarted, TitleClassified, SessionReport):
            count = sum(1 for event in got if isinstance(event, kind))
            if count != 1:
                verdict = f"{count} {kind.__name__} events"
                break
        if verdict is None:
            report = next(e for e in got if isinstance(e, SessionReport))
            wanted = next(e for e in want if isinstance(e, SessionReport))
            field = report_diff(wanted.report, report.report)
            if field is not None:
                verdict = f"report field {field} differs from the reference"
            elif report.n_packets != sent:
                verdict = f"{report.n_packets} packets reported, {sent} generated"
            elif not _same_events(want, got):
                verdict = "event sequence differs from the reference"
        verdicts.append(verdict)
    return verdicts


def check_reports(expected: Sequence, observed: Sequence) -> List[Optional[str]]:
    """One verdict per session: its report equals the expected one."""
    if len(observed) != len(expected):
        return [f"{len(observed)} reports for {len(expected)} sessions"] * len(expected)
    verdicts = []
    for want, got in zip(expected, observed):
        field = "report" if got is None else report_diff(want, got)
        verdicts.append(None if field is None else f"{field} differs from the expected report")
    return verdicts


def check_corpus_pass(
    expected_reports: Sequence,
    expected_digest: str,
    reports: Sequence,
    digest: Optional[str],
) -> List[Optional[str]]:
    """One verdict per session of an offline pass (reports + fleet digest)."""
    if digest != expected_digest:
        return [f"fleet digest {digest} != reference {expected_digest}"] * len(
            expected_reports
        )
    return check_reports(expected_reports, reports)


def reports_of(events: Sequence, keys: Sequence) -> list:
    """The close report of every session, in ``keys`` order (``None`` if absent)."""
    by_flow = {e.flow: e.report for e in events if isinstance(e, SessionReport)}
    return [by_flow.get(key) for key in keys]


def accuracy(labels: Sequence, reports: Sequence, slot_s: float):
    """``(title_acc, stage_acc)`` of ``reports`` against the generator's labels.

    ``labels`` are the sessions in the generator's own time.  Stage accuracy
    is taken over the gameplay slots of all sessions: slot ``i`` of a report
    covers ``[i, i + 1) * slot_s`` after the session's first packet and is
    right when it equals the generator's stage at the slot's midpoint.
    """
    titles = hits = slots = 0
    for label, report in zip(labels, reports):
        if report is None:
            continue
        titles += report.title.title == label.title_name
        origin = float(label.packets.columns().timestamps[0])
        for index, stage in enumerate(report.stage_timeline):
            truth = label.stage_at(origin + (index + 0.5) * slot_s)
            if truth is not PlayerStage.LAUNCH:
                slots += 1
                hits += stage is truth
    return titles / len(labels), hits / slots if slots else 0.0
