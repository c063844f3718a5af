"""The append-only run journal: CRC-framed, torn-tail-tolerant.

File layout::

    magic  b"REPROJL1"                                  (8 bytes)
    frame* <u32 payload_len LE> <u32 crc32(payload) LE> <payload>

``payload[0]`` is the record type; the rest is type-specific:

* ``REC_META`` — UTF-8 JSON: run parameters, written once at open.
* ``REC_EVENTS`` — one trace segment, journaled *before* it is applied
  (write-ahead): ``<u32 count>`` then the ``times`` (f64), ``ids``
  (i64) and ``values`` (f64) arrays as raw little-endian bytes.
* ``REC_MESSAGES`` — one ledger charge: ``<u8 phase> <u8 kind>
  <u32 count>``, appended by :class:`JournaledLedger` at exactly the
  points the in-RAM ledger is charged.
* ``REC_SNAPSHOT`` — UTF-8 JSON ``{"position": ..., "file": ...}``,
  appended *after* the snapshot file is durably on disk, so a mark in
  the journal is a promise the snapshot loads.

Torn-tail discipline: :meth:`Journal.open` scans the file, keeps the
longest valid prefix of whole frames, and *physically truncates* the
rest — a crash mid-append (torn length/CRC/payload) costs at most the
unflushed suffix, never a parse error on recovery.  A CRC mismatch
anywhere ends the valid prefix the same way (corruption is detected,
not silently replayed).

Buffering is explicit: the journal owns a ``bytearray`` over a raw fd,
so :meth:`simulate_crash` can model a process kill faithfully — bytes
handed to the OS survive, bytes still in the Python buffer do not.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.network.accounting import MessageLedger, Phase
from repro.network.messages import Message, MessageKind

MAGIC = b"REPROJL1"

REC_META = 1
REC_EVENTS = 2
REC_MESSAGES = 3
REC_SNAPSHOT = 4

_HEADER = struct.Struct("<II")  # payload_len, crc32(payload)
_U32 = struct.Struct("<I")
_MSG = struct.Struct("<BBI")  # phase code, kind code, count

#: Stable wire codes — append-only; never renumber.
PHASE_CODES = {Phase.INITIALIZATION: 0, Phase.MAINTENANCE: 1}
PHASES_BY_CODE = {code: phase for phase, code in PHASE_CODES.items()}
KIND_CODES = {kind: code for code, kind in enumerate(MessageKind)}
KINDS_BY_CODE = {code: kind for kind, code in KIND_CODES.items()}

#: Flush the buffer to the OS at this many pending bytes under
#: ``fsync="never"``.
_FLUSH_THRESHOLD = 256 * 1024


@dataclass
class JournalScan:
    """Result of scanning a journal file for its valid prefix.

    ``records`` holds ``(rtype, payload_body)`` tuples — the payload
    *without* its leading type byte.  ``reason`` is ``"clean"`` (file
    ends exactly at a frame boundary), ``"torn"`` (trailing partial
    frame), ``"crc"`` (checksum mismatch ended the prefix), or
    ``"magic"`` (file too short / wrong magic; no records).
    """

    records: list[tuple[int, bytes]]
    valid_bytes: int
    total_bytes: int
    reason: str


@dataclass
class JournalContents:
    """Structured view of a journal's valid prefix."""

    meta: dict
    times: np.ndarray
    stream_ids: np.ndarray
    values: np.ndarray
    #: Per-segment record counts, in append order.
    segments: list[int]
    #: ``(phase, kind, count)`` charges, in append order.
    messages: list[tuple[Phase, MessageKind, int]]
    #: ``{"position": ..., "file": ...}`` marks, in append order.
    snapshots: list[dict] = field(default_factory=list)
    scan: JournalScan | None = None


def frame_header(rtype: int, body: bytes) -> bytes:
    """What precedes *body* in its CRC frame — length, checksum, type
    byte — so a large body is never copied to be framed."""
    tag = bytes((rtype,))
    return _HEADER.pack(len(body) + 1, zlib.crc32(body, zlib.crc32(tag))) + tag


def scan_journal(path: str, magic: bytes = MAGIC) -> JournalScan:
    """The longest valid frame prefix of the file at *path*, past its
    *magic* (a snapshot file is one frame under a magic of its own)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    total = len(blob)
    if total < len(magic) or blob[: len(magic)] != magic:
        return JournalScan([], 0, total, "magic")
    records: list[tuple[int, bytes]] = []
    offset = len(magic)
    reason = "clean"
    while offset < total:
        if offset + _HEADER.size > total:
            reason = "torn"
            break
        length, crc = _HEADER.unpack_from(blob, offset)
        body_start = offset + _HEADER.size
        body_end = body_start + length
        if length < 1 or body_end > total:
            reason = "torn"
            break
        payload = blob[body_start:body_end]
        if zlib.crc32(payload) != crc:
            reason = "crc"
            break
        records.append((payload[0], payload[1:]))
        offset = body_end
    return JournalScan(records, offset, total, reason)


def _decode_events(body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (count,) = _U32.unpack_from(body, 0)
    cursor = _U32.size
    times = np.frombuffer(body, dtype="<f8", count=count, offset=cursor)
    cursor += 8 * count
    ids = np.frombuffer(body, dtype="<i8", count=count, offset=cursor)
    cursor += 8 * count
    values = np.frombuffer(body, dtype="<f8", count=count, offset=cursor)
    return (
        times.astype(np.float64),
        ids.astype(np.int64),
        values.astype(np.float64),
    )


def load_journal(path: str) -> JournalContents:
    """Decode the valid prefix of the journal at *path*."""
    scan = scan_journal(path)
    meta: dict = {}
    segments: list[int] = []
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    messages: list[tuple[Phase, MessageKind, int]] = []
    snapshots: list[dict] = []
    for rtype, body in scan.records:
        if rtype == REC_META:
            meta = json.loads(body.decode("utf-8"))
        elif rtype == REC_EVENTS:
            times, ids, values = _decode_events(body)
            segments.append(len(times))
            chunks.append((times, ids, values))
        elif rtype == REC_MESSAGES:
            phase_code, kind_code, count = _MSG.unpack(body)
            messages.append(
                (PHASES_BY_CODE[phase_code], KINDS_BY_CODE[kind_code], count)
            )
        elif rtype == REC_SNAPSHOT:
            snapshots.append(json.loads(body.decode("utf-8")))
        # Unknown record types are skipped (forward compatibility).
    if chunks:
        times = np.concatenate([c[0] for c in chunks])
        stream_ids = np.concatenate([c[1] for c in chunks])
        values = np.concatenate([c[2] for c in chunks])
    else:
        times = np.empty(0, dtype=np.float64)
        stream_ids = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    return JournalContents(
        meta=meta,
        times=times,
        stream_ids=stream_ids,
        values=values,
        segments=segments,
        messages=messages,
        snapshots=snapshots,
        scan=scan,
    )


class Journal:
    """Append handle over one journal file.

    Use :meth:`Journal.open` — it creates the file with its magic, or
    scans an existing one and truncates any invalid tail before
    appending resumes.
    """

    def __init__(
        self, path: str, fd: int, *, fsync: str = "never", fsync_interval: int = 64
    ) -> None:
        if fsync not in ("never", "interval", "every"):
            raise ValueError(f"unknown fsync policy {fsync!r}")
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        self.path = path
        self._fd: int | None = fd
        self._fsync = fsync
        self._fsync_interval = int(fsync_interval)
        self._buffer = bytearray()
        self._since_fsync = 0
        self.stats = {
            "appends": 0,
            "bytes": 0,
            "flushes": 0,
            "fsyncs": 0,
            "events_frames": 0,
            "message_frames": 0,
            "snapshot_frames": 0,
        }

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def open(
        cls, path: str, *, fsync: str = "never", fsync_interval: int = 64
    ) -> "Journal":
        """Open *path* for appending, truncating any torn tail.

        A fresh file gets the magic; an existing file is scanned and
        physically cut back to its valid prefix (a wrong magic raises —
        the file is not a journal, refusing beats clobbering it).
        """
        if os.path.exists(path) and os.path.getsize(path) > 0:
            scan = scan_journal(path)
            if scan.reason == "magic":
                raise ValueError(f"{path} is not a journal (bad magic)")
            fd = os.open(path, os.O_RDWR)
            if scan.valid_bytes != scan.total_bytes:
                os.ftruncate(fd, scan.valid_bytes)
            os.lseek(fd, scan.valid_bytes, os.SEEK_SET)
            journal = cls(path, fd, fsync=fsync, fsync_interval=fsync_interval)
        else:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            journal = cls(path, fd, fsync=fsync, fsync_interval=fsync_interval)
            journal._buffer += MAGIC
            journal._flush()
        return journal

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is None:
            return
        self._flush()
        os.fsync(self._fd)
        self.stats["fsyncs"] += 1
        os.close(self._fd)
        self._fd = None

    def simulate_crash(self) -> None:
        """Model a process kill: buffered bytes vanish, OS bytes survive.

        Drops the Python-side buffer without flushing and closes the fd.
        Bytes already handed to the OS are assumed durable — faithful
        for a process kill (the kernel page cache survives), optimistic
        for a power cut (only ``fsync="every"`` bounds that case).
        """
        if self._fd is None:
            return
        self._buffer.clear()
        os.close(self._fd)
        self._fd = None

    # -- append API ----------------------------------------------------
    def append_meta(self, meta: dict) -> None:
        body = json.dumps(meta, sort_keys=True).encode("utf-8")
        self._append(REC_META, body)

    def append_events(
        self, times: np.ndarray, stream_ids: np.ndarray, values: np.ndarray
    ) -> None:
        """Write-ahead one trace segment (call *before* applying it)."""
        count = len(times)
        body = b"".join(
            (
                _U32.pack(count),
                np.ascontiguousarray(times, dtype="<f8").tobytes(),
                np.ascontiguousarray(stream_ids, dtype="<i8").tobytes(),
                np.ascontiguousarray(values, dtype="<f8").tobytes(),
            )
        )
        self._append(REC_EVENTS, body)
        self.stats["events_frames"] += 1

    def append_message(self, phase: Phase, kind: MessageKind, count: int) -> None:
        self._append(
            REC_MESSAGES, _MSG.pack(PHASE_CODES[phase], KIND_CODES[kind], count)
        )
        self.stats["message_frames"] += 1

    def append_snapshot_mark(self, position: int, file: str) -> None:
        """Promise that the snapshot at *file* is durable.  Call only
        after the snapshot file itself has been fsynced into place."""
        body = json.dumps({"position": int(position), "file": file}).encode(
            "utf-8"
        )
        self._append(REC_SNAPSHOT, body)
        # The mark must not sit in the buffer while recovery could need
        # it: a snapshot without its mark is merely unused, but a run
        # continuing past an unflushed mark could lose the pointer.
        self._flush()
        self.stats["snapshot_frames"] += 1

    def flush(self) -> None:
        self._flush()

    def sync(self) -> None:
        """Flush and fsync regardless of policy."""
        self._flush()
        if self._fd is not None:
            os.fsync(self._fd)
            self.stats["fsyncs"] += 1
            self._since_fsync = 0

    # -- internals -----------------------------------------------------
    def _append(self, rtype: int, body: bytes) -> None:
        if self._fd is None:
            raise ValueError("journal is closed")
        header = frame_header(rtype, body)
        self._buffer += header
        self._buffer += body
        self.stats["appends"] += 1
        self.stats["bytes"] += len(header) + len(body)
        if self._fsync == "every":
            self.sync()
        elif self._fsync == "interval":
            self._since_fsync += 1
            if self._since_fsync >= self._fsync_interval:
                self.sync()
        elif len(self._buffer) >= _FLUSH_THRESHOLD:
            self._flush()

    def _flush(self) -> None:
        if self._fd is None or not self._buffer:
            return
        # The memoryview pins the bytearray (clear() would raise
        # BufferError while any export lives), so release it first.
        with memoryview(self._buffer) as view:
            written = 0
            while written < len(view):
                written += os.write(self._fd, view[written:])
        self._buffer.clear()
        self.stats["flushes"] += 1


class JournaledLedger(MessageLedger):
    """A message ledger that also journals every charge.

    The charge points are unchanged — ``record``/``record_kind`` are the
    exact hooks the channel and the columnar kernel already call — so
    the journal's message stream is definitionally byte-equivalent to
    the ledger's tallies.  Detach the journal to recompute (recovery
    replays journaled events *without* re-journaling their charges);
    snapshots pickle the ledger with the handle dropped.
    """

    def __init__(self) -> None:
        super().__init__()
        self._journal: Journal | None = None

    def attach_journal(self, journal: Journal) -> None:
        self._journal = journal

    def detach_journal(self) -> None:
        self._journal = None

    def record(self, message: Message) -> None:
        super().record(message)
        if self._journal is not None:
            self._journal.append_message(self.phase, message.kind, 1)

    def record_kind(self, kind: MessageKind, count: int = 1) -> None:
        super().record_kind(kind, count)
        if self._journal is not None:
            self._journal.append_message(self.phase, kind, count)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_journal"] = None
        return state
