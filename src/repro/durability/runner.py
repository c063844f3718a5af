"""The durable scalar runner: WAL segments, periodic snapshots.

:func:`execute_durable_streams` is what the api engine compiles
``Deployment(durable=DurabilityPolicy(...))`` down to for the scalar
single and sharded stacks.  The write-ahead discipline in miniature
(DESIGN.md §11):

1. the trace goes through the ordinary :class:`ExecutionSession`
   machinery, one ``replay()`` per snapshot interval, every ledger
   charge mirrored into the journal by the
   :class:`~repro.durability.journal.JournaledLedger`;
2. a WAL segment is a *frontier* of that replay: its records are
   appended to the journal (``REC_EVENTS``) before replay may apply the
   first of them (:func:`_replay_segments`);
3. every ``snapshot_every`` records, between two ``replay()`` calls —
   where the system is *quiescent*: event queue drained, nothing in
   flight — the cut (host, ledger,
   channels, engine clock, the source population as columns) is written
   as one CRC frame and marked in the journal only once it is durably
   on disk.
"""

from __future__ import annotations

import copy
import os
import pickle
import time as _time

import numpy as np

from repro.api.report import RunReport
from repro.api.spec import STACK_STREAMS, Deployment
from repro.durability.journal import Journal, JournaledLedger, frame_header
from repro.durability.policy import DurabilityPolicy
from repro.runtime.replay import merge_replay_stats
from repro.runtime.session import ExecutionSession
from repro.state.table import StateTableFactory

#: Snapshot pickle protocol.  Pinned to 4: protocol 5 reconstructs
#: numpy planes as views over the pickled buffer, and numpy's
#: base-chain collapsing then reports a re-sliced shard view's ``base``
#: as that buffer instead of the parent plane — same memory, but it
#: breaks the strict ``shard.values.base is parent.values`` invariant
#: ``validate_shard_alignment`` guards.
_PICKLE_PROTOCOL = 4

#: A snapshot file is this magic plus ONE frame in the journal's idiom;
#: the frame's type byte is the format tag of its pickled body.
SNAPSHOT_MAGIC = b"REPROSN1"
SNAPSHOT_COLUMNS = 1


def _write_snapshot(
    session: ExecutionSession, position: int, policy: DurabilityPolicy
) -> tuple[str, int]:
    """Write the quiescent cut; returns ``(file name, bytes)``.

    Host, ledger and channels are pickled as a graph (channels drop
    their source bindings, so it stops short of the population), whose
    five planes ride along as they are, booleans bit-packed.  The engine
    is excluded (its queue is empty between replays and its closures do
    not pickle); only the clock rides along.
    Written atomically — tmp file, flush, fsync, rename — so a crash
    mid-snapshot leaves no partially-written ``.pkl`` behind.
    """
    os.makedirs(policy.snapshot_dir, exist_ok=True)
    name = f"snapshot_{position:012d}.pkl"
    path = os.path.join(policy.snapshot_dir, name)
    population = session.sources
    blob = {
        "host": session.host,
        "ledger": session.ledger,
        "channels": session.channels,
        "population": {
            "value": population.values,
            "has_filter": np.packbits(population.filtered),
            "lower": population.lower,
            "upper": population.upper,
            "inside": np.packbits(population.inside),
        },
        "engine_now": float(session.engine.now),
        "position": int(position),
    }
    body = pickle.dumps(blob, protocol=_PICKLE_PROTOCOL)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC + frame_header(SNAPSHOT_COLUMNS, body))
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return name, os.path.getsize(path)


def _replay_segments(
    session: ExecutionSession,
    journal: Journal,
    policy: DurabilityPolicy,
    trace,
    start: int,
    progress=None,
) -> dict:
    """The WAL loop: one replay per snapshot interval, one frontier per
    journaled segment; returns the run-level durability counters.

    ``replay`` applies nothing at or past the frontier it last took, so
    the generator it pulls them from is where write-ahead happens: a
    segment is journaled *before* its end is yielded, and *progress*
    hears of it only once replay asks for the next — with all of it
    applied.  Snapshots fall between ``replay()`` calls, at the first
    segment boundary ``snapshot_every`` records past the last cut.
    """
    columns = trace.times, trace.stream_ids, trace.values
    n = len(trace.times)
    step = policy.segment_records
    interval = -(-policy.snapshot_every // step) * step  # 0: never cut
    position = int(start)
    snapshots = {"count": 0, "bytes": 0}
    stats_parts: list[dict] = []

    def journaled(base: int, cut: int):
        for lo in range(base, cut, step):
            hi = min(lo + step, cut)
            journal.append_events(*(column[lo:hi] for column in columns))
            yield hi - base
            if hi < cut and progress is not None:
                progress(hi)

    while position < n:
        cut = min(position + interval, n) if interval else n
        session.replay(
            *(column[position:cut] for column in columns),
            horizon=None,
            frontiers=journaled(position, cut),
            previous=lambda: trace.previous_record[position:cut] - position,
        )
        stats_parts.append(dict(session.last_replay_stats))
        position = cut
        if position < n:
            name, size = _write_snapshot(session, position, policy)
            journal.append_snapshot_mark(position, name)
            snapshots["count"] += 1
            snapshots["bytes"] += size
        if progress is not None:
            progress(position)
    if trace.horizon is not None and trace.horizon > session.engine.now:
        session.engine.run(until=trace.horizon)
    return {
        # One events frame per segment, and this handle's alone.
        "segments": journal.stats["events_frames"],
        "snapshots": snapshots,
        "replay_parts": stats_parts,
    }


def _build_report(
    session: ExecutionSession,
    trace,
    manifest: dict,
    journal: Journal,
    loop: dict,
    started: float,
    recovery: dict | None = None,
) -> RunReport:
    """The finished durable run's report; *recovery* marks a resumed one."""
    policy: DurabilityPolicy = manifest["policy"]
    durability = {
        "fsync": policy.fsync,
        "fsync_interval": policy.fsync_interval,
        "storage": policy.storage,
        "snapshot_every": policy.snapshot_every,
        "segment_records": policy.segment_records,
        "run_dir": policy.run_dir,
        "journal": dict(journal.stats),
        "snapshots": dict(loop["snapshots"]),
        "segments": loop["segments"],
        "recovered": recovery is not None,
    }
    if recovery is not None:
        durability["recovery"] = recovery
    extras = {"durability": durability}
    if loop["replay_parts"]:
        merged = merge_replay_stats(loop["replay_parts"])
        merged.pop("workers", None)
        extras["replay"] = merged
    protocol = session.host.protocol
    ledger = session.snapshot()
    session.close()
    return RunReport(
        protocol=protocol.name,
        stack=STACK_STREAMS,
        topology=Deployment(
            topology=manifest["topology"],
            n_shards=manifest["n_shards"],
            durable=policy,
        ).describe(),
        ledger=ledger,
        n_streams=trace.n_streams,
        n_records=trace.n_records,
        wall_seconds=_time.perf_counter() - started,
        final_answer=protocol.answer,
        label=manifest.get("label", ""),
        extras=extras,
    )


def build_durable_session(
    trace, protocol, manifest: dict, policy: DurabilityPolicy, ledger
) -> ExecutionSession:
    """Assemble the scalar session the manifest describes."""
    state_factory = None
    if policy.storage == "mmap":
        os.makedirs(policy.planes_dir, exist_ok=True)
        state_factory = StateTableFactory(
            storage="mmap", plane_dir=policy.planes_dir
        )
    if manifest["topology"] == "sharded":
        return ExecutionSession.for_streams_sharded(
            trace,
            protocol,
            manifest["n_shards"],
            ledger=ledger,
            state_factory=state_factory,
        )
    return ExecutionSession.for_streams(
        trace, protocol, ledger=ledger, state_factory=state_factory
    )


def execute_durable_streams(
    trace, protocol, deployment, label: str = "", progress=None
) -> RunReport:
    """Run *trace* against *protocol* with a write-ahead journal.

    *deployment* must carry a :class:`DurabilityPolicy` (validated at
    ``Deployment`` construction); *progress*, if given, is called with
    the record position after every segment — the kill-and-recover
    suite injects its crash there.
    """
    started = _time.perf_counter()
    policy: DurabilityPolicy = deployment.durable
    if policy is None:
        raise ValueError("deployment has no durability policy")
    os.makedirs(policy.run_dir, exist_ok=True)
    if os.path.exists(policy.journal_path):
        raise FileExistsError(
            f"{policy.journal_path} already exists: this run directory "
            "holds a (possibly crashed) run — recover it with "
            "repro.durability.resume_run, or point the policy at a "
            "fresh directory"
        )

    # The manifest is the recovery bootstrap: a pristine (pre-init)
    # protocol clone plus everything needed to re-assemble the session.
    # Durable before the first event is applied.
    manifest = {
        "topology": deployment.topology,
        "n_shards": deployment.n_shards,
        "policy": policy,
        "protocol": copy.deepcopy(protocol),
        "initial_values": trace.initial_values.copy(),
        "horizon": trace.horizon,
        "label": label,
    }
    tmp = policy.manifest_path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(manifest, handle, protocol=_PICKLE_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, policy.manifest_path)

    journal = Journal.open(
        policy.journal_path,
        fsync=policy.fsync,
        fsync_interval=policy.fsync_interval,
    )
    journal.append_meta(
        {
            "topology": deployment.topology,
            "n_shards": deployment.n_shards,
            "n_streams": int(trace.n_streams),
            "n_records": int(trace.n_records),
            "storage": policy.storage,
        }
    )

    ledger = JournaledLedger()
    ledger.attach_journal(journal)
    session = build_durable_session(trace, protocol, manifest, policy, ledger)
    try:
        session.initialize(time=0.0)
        loop = _replay_segments(
            session, journal, policy, trace, 0, progress=progress
        )
    except BaseException:
        # Simulate a crash — buffered bytes are dropped, durable bytes
        # survive — so an in-process kill models a real process death
        # faithfully before the exception propagates.
        journal.simulate_crash()
        raise
    journal.close()
    ledger.detach_journal()

    return _build_report(session, trace, manifest, journal, loop, started)
