"""The durability knob set: one frozen policy object per run directory.

A :class:`DurabilityPolicy` is carried by
:class:`~repro.api.spec.Deployment` (which is itself frozen and
hashable), so every field here must stay hashable — ``run_dir`` is a
plain string, never a ``Path``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: When to push journal bytes to stable storage.
FSYNC_POLICIES = ("never", "interval", "every")

#: Plane backings understood by the state table.
STORAGE_BACKINGS = ("ram", "mmap")


@dataclass(frozen=True)
class DurabilityPolicy:
    """How (and how hard) a run persists itself.

    Parameters
    ----------
    run_dir:
        Directory owning the run's journal, snapshots and (under
        ``storage="mmap"``) plane files.  Created on demand.
    fsync:
        ``"never"`` flushes to the OS only when the journal's buffer
        fills, ``"interval"`` fsyncs every ``fsync_interval`` appends,
        ``"every"`` fsyncs after each append (the classical WAL
        discipline; also the slowest).
    fsync_interval:
        Append count between fsyncs under ``fsync="interval"``.
    snapshot_every:
        Snapshot the quiescent cut at the first segment boundary
        this-many trace records past the previous one.  ``0`` disables
        snapshots: recovery then rebuilds from the manifest and replays
        the whole journal.
    segment_records:
        Trace records journaled (then released to replay) per segment.
        Smaller segments bound the byte window a crash can lose under
        ``fsync="never"``; larger ones amortize framing only — a segment
        is a frontier inside one replay, not a replay of its own.
    storage:
        ``"ram"`` | ``"mmap"`` backing for the server's state planes.
    """

    run_dir: str
    fsync: str = "never"
    fsync_interval: int = 64
    snapshot_every: int = 0
    segment_records: int = 1024
    storage: str = "ram"

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_dir", os.fspath(self.run_dir))
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.storage not in STORAGE_BACKINGS:
            raise ValueError(
                f"storage must be one of {STORAGE_BACKINGS}, "
                f"got {self.storage!r}"
            )
        if self.fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.segment_records < 1:
            raise ValueError("segment_records must be >= 1")

    # -- run-directory layout ------------------------------------------
    @property
    def journal_path(self) -> str:
        return os.path.join(self.run_dir, "journal.bin")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.run_dir, "manifest.pkl")

    @property
    def snapshot_dir(self) -> str:
        return os.path.join(self.run_dir, "snapshots")

    @property
    def planes_dir(self) -> str:
        return os.path.join(self.run_dir, "planes")

    def describe(self) -> str:
        parts = [f"fsync={self.fsync}", f"storage={self.storage}"]
        if self.snapshot_every:
            parts.append(f"snapshot_every={self.snapshot_every}")
        return ", ".join(parts)
