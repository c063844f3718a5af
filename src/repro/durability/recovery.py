"""Crash recovery: snapshot restore + journal replay = the same run.

:func:`recover_run` reconstructs a crashed durable run from its run
directory alone, in two steps:

1. **Restore a consistent cut.**  Prefer the latest snapshot the
   journal *marks* (a mark is only appended after the snapshot file is
   durably on disk); one that fails to verify, decode or rebuild, for
   whatever reason, is *unusable* — never fatal, never half-trusted,
   and named with its reason in ``RecoveredRun.skipped_snapshots``:
   fall back mark by mark, then rebuild from the manifest — a pristine
   pre-init protocol clone plus the initial values — and rerun
   initialization, which is deterministic and therefore re-charges the
   exact initialization ledger.
2. **Replay the journaled suffix.**  Every event at or past the cut is
   in the journal (write-ahead: segments are journaled before they are
   applied), so replaying ``events[position:]`` through the ordinary
   session machinery *recomputes* the maintenance messages rather than
   trusting the journal's message frames.  The journal stays detached
   during this replay — recovery recomputes, it never re-journals.

Why the recovered ledger is byte-identical to the uninterrupted run's:
replay is deterministic (same sources, same protocol state, same event
order), batched replay is ledger-identical to per-event replay
(DESIGN.md §9), and segmentation cannot change a ledger: a segment is
a *frontier* inside one replay (DESIGN.md §11), which decides when the
journal hears of a record, never what applying it does.
The journal's own message frames double as an audit stream of what the
crashed process had charged, but the proof never leans on them.

Restored state tables are always RAM-backed — ``storage="mmap"`` plane
files reflect the instant of the crash (possibly *ahead* of the
journal's durable prefix, since memmap pages flush on the OS's
schedule), so reusing them could double-apply events.  The snapshot
pickles planes by value instead; a resumed mmap run therefore continues
on RAM planes.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time as _time

import numpy as np

from repro.api.report import RunReport
from repro.durability.journal import (
    Journal,
    JournalContents,
    JournaledLedger,
    load_journal,
    scan_journal,
)
from repro.durability.policy import DurabilityPolicy
from repro.durability.runner import (
    SNAPSHOT_COLUMNS,
    SNAPSHOT_MAGIC,
    _build_report,
    _replay_segments,
    build_durable_session,
)
from repro.runtime.session import ExecutionSession
from repro.sim.engine import SimulationEngine
from repro.state.sharding import shard_ranges


@dataclasses.dataclass
class RecoveredRun:
    """A reconstructed session, caught up to the journal's last event.

    ``position`` is the number of trace records already applied (and
    durably journaled); :func:`resume_run` continues the trace from
    there.  ``snapshot_file`` names the snapshot the restore used,
    ``None`` when recovery rebuilt from the manifest;
    ``skipped_snapshots`` lists every newer marked snapshot it passed
    over as ``(file, "ExceptionType: message")``, newest first.
    """

    session: ExecutionSession
    position: int
    manifest: dict
    policy: DurabilityPolicy
    snapshot_file: str | None
    scan_reason: str
    skipped_snapshots: list[tuple[str, str]]


def _load_manifest(run_dir: str) -> dict:
    path = os.path.join(run_dir, "manifest.pkl")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{run_dir} has no manifest.pkl: not a durable run directory"
        )
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _stub_trace(manifest: dict):
    """An event-less trace carrying only the initial values.

    The manifest path re-assembles the session exactly as the original
    run did — same builders, same initial values — then replays the
    journaled events instead of trace arrays.
    """
    from repro.streams.trace import StreamTrace

    return StreamTrace(
        initial_values=manifest["initial_values"],
        times=np.empty(0, dtype=np.float64),
        stream_ids=np.empty(0, dtype=np.int64),
        values=np.empty(0, dtype=np.float64),
        horizon=manifest["horizon"],
    )


def _restore_from_snapshot(path: str) -> tuple[ExecutionSession, int]:
    """The session and position of the cut at *path* — the one snapshot
    reader.  Raises on any failure to verify, decode or rebuild (the
    caller falls back): the file must be one intact frame of the current
    format, its pickle must still load, and the population's filter
    planes must equal the restored table's — in the run that wrote the
    cut they were one array (a bound population's planes are views of
    the table's columns, DESIGN.md §21), written out twice.  The planes
    are restored *before* the session binds the population:
    ``bind_state`` copies them into the table, and fresh ones would
    clobber the table's.
    """
    scan = scan_journal(path, SNAPSHOT_MAGIC)
    tags = [rtype for rtype, _ in scan.records]
    if scan.reason != "clean" or tags != [SNAPSHOT_COLUMNS]:
        raise ValueError(f"{path}: {scan.reason} scan, frame tags {tags}")
    blob = pickle.loads(scan.records[0][1])
    host, channels = blob["host"], blob["channels"]
    columns = blob["population"]
    n = len(columns["value"])
    side = {  # keyed by the table column each one mirrors
        "scannable": np.unpackbits(columns["has_filter"], count=n).view(bool),
        "inside": np.unpackbits(columns["inside"], count=n).view(bool),
        "lower": columns["lower"],
        "upper": columns["upper"],
    }
    population = host.vocabulary.population(
        columns["value"], channels, shard_ranges(n, len(channels))
    )
    population.filtered, population.inside = side["scannable"], side["inside"]
    population.lower, population.upper = side["lower"], side["upper"]
    for name, column in side.items():
        if not np.array_equal(getattr(host.state, name), column):
            raise ValueError(
                f"{path}: source-side {name!r} disagrees with the restored table"
            )
    engine = SimulationEngine()
    if blob["engine_now"] > 0.0:
        # Empty queue: run() just advances the clock to the cut's time.
        engine.run(until=blob["engine_now"])
    session = ExecutionSession(
        sources=population,
        ledger=blob["ledger"],
        engine=engine,
        channel=channels[0] if len(channels) == 1 else None,
        channels=channels,
        host=host,
    )
    return session, int(blob["position"])


def recover_run(run_dir: str) -> RecoveredRun:
    """Reconstruct the crashed run under *run_dir*; see module docs."""
    manifest = _load_manifest(run_dir)
    policy: DurabilityPolicy = manifest["policy"]
    contents: JournalContents = load_journal(policy.journal_path)

    session: ExecutionSession | None = None
    position = 0
    snapshot_file: str | None = None
    skipped: list[tuple[str, str]] = []
    for mark in reversed(contents.snapshots):
        path = os.path.join(policy.snapshot_dir, mark["file"])
        try:
            session, position = _restore_from_snapshot(path)
        except Exception as error:
            # Unusable, whatever the reason: say why, try the previous.
            skipped.append((mark["file"], f"{type(error).__name__}: {error}"))
            continue
        snapshot_file = mark["file"]
        break
    if session is None:
        # Manifest path: deterministic re-initialization re-charges the
        # initialization ledger exactly; RAM planes always (see module
        # docs for why crashed mmap planes are never reopened).
        ram_policy = dataclasses.replace(policy, storage="ram")
        ledger = JournaledLedger()
        session = build_durable_session(
            _stub_trace(manifest),
            manifest["protocol"],
            manifest,
            ram_policy,
            ledger,
        )
        session.initialize(time=0.0)

    # Replay the journaled suffix with the journal detached: recovery
    # recomputes messages, it never re-journals them.
    if position < len(contents.times):
        session.replay(
            contents.times[position:],
            contents.stream_ids[position:],
            contents.values[position:],
            horizon=None,
        )
    scan_reason = contents.scan.reason if contents.scan is not None else "clean"
    return RecoveredRun(
        session=session,
        position=len(contents.times),
        manifest=manifest,
        policy=policy,
        snapshot_file=snapshot_file,
        scan_reason=scan_reason,
        skipped_snapshots=skipped,
    )


def resume_run(run_dir: str, trace, progress=None) -> RunReport:
    """Recover the run under *run_dir* and finish it against *trace*.

    *trace* must be the original run's trace (the journal holds the
    applied prefix, the trace supplies the rest).  The journal reopens
    for append — its torn tail, if any, is physically truncated first —
    and the remaining records flow through the same WAL segment loop as
    an uninterrupted run, so the final ledger, answer, and journal are
    those of a run that never crashed.
    """
    started = _time.perf_counter()
    rec = recover_run(run_dir)
    policy = rec.policy
    manifest = rec.manifest
    if trace.n_records < rec.position:
        raise ValueError(
            f"trace has {trace.n_records} records but the journal already "
            f"holds {rec.position}: wrong trace for this run directory"
        )

    journal = Journal.open(
        policy.journal_path,
        fsync=policy.fsync,
        fsync_interval=policy.fsync_interval,
    )
    ledger = rec.session.ledger
    ledger.attach_journal(journal)
    try:
        loop = _replay_segments(
            rec.session,
            journal,
            policy,
            trace,
            rec.position,
            progress=progress,
        )
    except BaseException:
        journal.simulate_crash()
        raise
    journal.close()
    ledger.detach_journal()

    return _build_report(
        rec.session,
        trace,
        manifest,
        journal,
        loop,
        started,
        recovery={
            "position": rec.position,
            "snapshot_file": rec.snapshot_file,
            "scan_reason": rec.scan_reason,
            "skipped_snapshots": rec.skipped_snapshots,
        },
    )
