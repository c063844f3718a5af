"""The durable scalar runner: WAL segments, periodic snapshots.

:func:`execute_durable_streams` is what the api engine compiles
``Deployment(durable=DurabilityPolicy(...))`` down to for the scalar
single and sharded stacks.  The loop is the write-ahead discipline in
miniature:

1. append the next trace segment to the journal (``REC_EVENTS``),
2. replay it through the ordinary :class:`ExecutionSession` machinery —
   every ledger charge is mirrored into the journal by the
   :class:`~repro.durability.journal.JournaledLedger`,
3. every ``snapshot_every`` records, pickle the quiescent object graph
   (host, sources, ledger, channels, engine clock) and mark it in the
   journal only once the snapshot file is durably on disk.

Between ``replay()`` calls the system is *quiescent* — the engine's
event queue is drained (``horizon=None`` event replay runs the queue
dry), the deferred-write taps are detached, and the batched kernels'
staging buffers are flushed — which is exactly what makes the pickled
graph a consistent cut and the journal position an exact resume point.
"""

from __future__ import annotations

import os
import pickle
import time as _time

from repro.api.engine import _merge_replay_stats
from repro.api.report import RunReport
from repro.api.spec import STACK_STREAMS, Deployment
from repro.durability.journal import Journal, JournaledLedger
from repro.durability.policy import DurabilityPolicy
from repro.runtime.session import ExecutionSession
from repro.state.table import StateTableFactory

#: Snapshot pickle protocol.  Pinned to 4: protocol 5 reconstructs
#: numpy planes as views over the pickled buffer, and numpy's
#: base-chain collapsing then reports a re-sliced shard view's ``base``
#: as that buffer instead of the parent plane — same memory, but it
#: breaks the strict ``shard.values.base is parent.values`` invariant
#: ``validate_shard_alignment`` guards.
_PICKLE_PROTOCOL = 4


def _write_snapshot(
    session: ExecutionSession, position: int, policy: DurabilityPolicy
) -> tuple[str, int]:
    """Pickle the quiescent object graph; returns ``(file name, bytes)``.

    The engine itself is excluded (its queue is empty between segments
    and its closures do not pickle); only the clock value rides along.
    Written atomically — tmp file, flush, fsync, rename — so a crash
    mid-snapshot leaves no partially-written ``.pkl`` behind.
    """
    os.makedirs(policy.snapshot_dir, exist_ok=True)
    name = f"snapshot_{position:012d}.pkl"
    path = os.path.join(policy.snapshot_dir, name)
    blob = {
        "host": session.host,
        "sources": session.sources,
        "ledger": session.ledger,
        "channels": session.channels,
        "engine_now": float(session.engine.now),
        "position": int(position),
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(blob, handle, protocol=_PICKLE_PROTOCOL)
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
    manifest: dict,
    progress=None,
) -> dict:
    """The WAL loop: journal a segment, replay it, maybe snapshot.

    Returns the run-level durability counters.  On any exception the
    journal *simulates a crash* — buffered bytes are dropped, durable
    bytes survive — so in-process kill tests model a real process death
    faithfully before the exception propagates.
    """
    times, stream_ids, values = trace.times, trace.stream_ids, trace.values
    n = len(times)
    position = int(start)
    last_snapshot = position
    segments = 0
    snapshot_count = 0
    snapshot_bytes = 0
    stats_parts: list[dict] = []
    try:
        while position < n:
            end = min(position + policy.segment_records, n)
            # Write-ahead: the segment is durable (to the policy's
            # level) before any of it is applied.
            journal.append_events(
                times[position:end],
                stream_ids[position:end],
                values[position:end],
            )
            session.replay(
                times[position:end],
                stream_ids[position:end],
                values[position:end],
                horizon=None,
                mode=manifest["replay_mode"],
            )
            stats_parts.append(dict(session.last_replay_stats))
            position = end
            segments += 1
            if (
                policy.snapshot_every
                and position < n
                and position - last_snapshot >= policy.snapshot_every
            ):
                name, size = _write_snapshot(session, position, policy)
                journal.append_snapshot_mark(position, name)
                last_snapshot = position
                snapshot_count += 1
                snapshot_bytes += size
            if progress is not None:
                progress(position)
    except BaseException:
        journal.simulate_crash()
        raise
    if trace.horizon is not None and trace.horizon > session.engine.now:
        session.engine.run(until=trace.horizon)
    return {
        "segments": segments,
        "snapshots": {"count": snapshot_count, "bytes": snapshot_bytes},
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
        merged = _merge_replay_stats(loop["replay_parts"])
        merged.pop("workers", None)
        extras["replay"] = merged
    protocol = session.host.protocol
    return RunReport(
        protocol=protocol.name,
        stack=STACK_STREAMS,
        topology=Deployment(
            topology=manifest["topology"],
            n_shards=manifest["n_shards"],
            durable=policy,
        ).describe(),
        ledger=session.snapshot(),
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
    import copy

    manifest = {
        "topology": deployment.topology,
        "n_shards": deployment.n_shards,
        "replay_mode": deployment.replay_mode,
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
            session, journal, policy, trace, 0, manifest, progress=progress
        )
    except BaseException:
        # _replay_segments already crashed the journal; initialize()
        # failures crash it here so nothing half-buffered lingers.
        journal.simulate_crash()
        raise
    journal.close()
    ledger.detach_journal()

    return _build_report(session, trace, manifest, journal, loop, started)
