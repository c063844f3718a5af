"""The replay core: one step-wise cursor over a time-sorted record array.

A source reports iff a record flips one of its deployed filters, so
replay has one job: find the next record that *can* flip a filter,
bulk-apply everything before it, run it through the per-event
machinery.  :class:`ReplayCursor` does that job once (DESIGN.md §9),
driven in-process by :meth:`~repro.runtime.session.ExecutionSession.
replay` and under RPC by the shard transport's workers.  Its proofs read
the live constraint columns of the state tables, and stand while their
``constraint_epoch`` does; a record is staged only while provably unable
to flip anything, and every dispatch takes the engine's one order
(:func:`_apply`), so every strategy leaves the reference ledger.  The
**event strategy** proves nothing and hands each frontier's rest to one
per-event loop (:meth:`ReplayCursor.dispatch_to`).

For ``columnar_maintenance`` protocols :func:`replay_columnar` is the
in-process alternative (gate: :func:`columnar_table`): it lists the
trace's crossings of the one interval the reporting rows share, a block
of records at a time, and applies whole spans between them, reports
included, stopping only at a report the protocol reacts to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.latency import LatencyChannel
from repro.network.messages import MessageKind
from repro.state.runs import flips_in_stream, previous_in_stream
from repro.state.table import StreamStateTable

#: Largest chunk one pre-scan evaluates.
DEFAULT_BATCH_SIZE = 4096

#: Smallest chunk: below this, numpy call overhead beats the per-event
#: loop anyway.  A dropped claim shrinks the adaptive stretch, never below it.
DEFAULT_MIN_CHUNK = 32

#: Most records one crossings pass of :func:`replay_columnar` reads: a
#: whole-trace pass holds a few columns per record (DESIGN.md §9).
CROSSINGS_BLOCK = 1 << 16

#: ``"batch"`` proves quiescence columnarly; ``"auto"`` picks it exactly
#: when it is both sound and useful; ``"event"`` is the reference.
REPLAY_MODES = ("auto", "event", "batch")

#: The summable counters of a replay-stats dict; ``mode``, ``kernel``,
#: ``columnar_declined`` (the :func:`columnar_table` clause that sent a
#: ``columnar_maintenance`` protocol to the cursor) and
#: ``dispatch_bailout_at`` are its labels.
REPLAY_COUNTERS = (
    "records",
    "dispatches",
    "staged",
    "columnar_reports",
    "chunk_scans",
)

# Switch to the event strategy when, after a fair sample, more than this
# fraction of records dispatched: the workload is too lively for
# pre-scanning to pay off.
_BAILOUT_RATE = 0.6
_BAILOUT_MIN_DISPATCHES = 512


def replay_stats(mode: str, kernel: str | None, records: int) -> dict:
    """A fresh stats dict in the one replay-stats schema."""
    stats = {"mode": mode, "kernel": kernel, "columnar_declined": None}
    stats.update(dict.fromkeys(REPLAY_COUNTERS, 0))
    stats["records"] = int(records)
    stats["dispatch_bailout_at"] = None
    return stats


def merge_replay_stats(parts: list[dict]) -> dict:
    """Fold per-shard (or per-replay) stats into one stats dict.

    Counters sum; the mode/kernel labels collapse to ``"mixed"`` when
    the parts disagree (e.g. one shard bailed to per-event while the
    rest kept proving quiescence); a bailout position is the earliest
    any part bailed, ``None`` when none did.
    """
    merged = {
        key: sum(int(part.get(key, 0)) for part in parts)
        for key in REPLAY_COUNTERS
    }
    for label in ("mode", "kernel", "columnar_declined"):
        seen = {part.get(label) for part in parts}
        merged[label] = seen.pop() if len(seen) == 1 else "mixed"
    bailouts = [
        part["dispatch_bailout_at"]
        for part in parts
        if part.get("dispatch_bailout_at") is not None
    ]
    merged["dispatch_bailout_at"] = min(bailouts) if bailouts else None
    merged["workers"] = len(parts)
    return merged


def resolve_mode(mode, payloads, tables, latency_channels, hooked=False) -> str:
    """``"batch"`` or ``"event"`` for a requested replay mode.

    Every mode replays per event when a per-record hook must observe
    every record, when the payloads are neither scalar nor vector, or
    when any channel is latency-modeled: there per-event replay won 25
    of 28 measured cells, by up to 3.3x, and batch won three ``rtp``
    cells at 0.92-0.99, never by the 1.2x a second path needs
    (DESIGN.md §8.2).  ``auto`` also wants batching *useful*: some
    stream carries a columnar filter — scalar intervals for 1-D
    payloads, the geometric plane's region bboxes for 2-D ones.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(
            f"replay mode must be one of {REPLAY_MODES}, got {mode!r}"
        )
    ndim = np.ndim(payloads)
    if mode == "event" or hooked or latency_channels or ndim not in (1, 2):
        return "event"
    if mode == "auto":
        column = "scannable" if ndim == 1 else "geo_scannable"
        if not any(getattr(table, column).any() for table in tables):
            return "event"
    return "batch"


class ReplayCursor:
    """Step-wise replay of ``(times, ids, payloads)`` into *sources*.

    The record arrays are parallel and time-sorted; *ids* index the rows
    of *sources* — a population whose value plane is its own staging
    vector (DESIGN.md §18, §20) — and of *tables*, every state table
    whose constraint columns guard a filter; a latency-modeled one of
    *channels* selects the event strategy.  Records before ``pos`` are
    committed and ``[pos, proven)`` is proven quiescent by the potential
    crossings of the last scanned stretch, valid while no table's
    ``constraint_epoch`` has moved.  The surface is :meth:`candidate`,
    :meth:`advance`, :meth:`dispatch` / :meth:`dispatch_to` and the
    read-only ``pos`` / ``proven`` / ``mode`` / ``per_event`` (every
    record from ``pos`` is its own candidate) / ``stats``.
    """

    def __init__(
        self,
        times,
        ids,
        payloads,
        *,
        sources,
        tables: Sequence[StreamStateTable],
        channels: Sequence[Channel],
        engine,
        mode: str = "auto",
        batch_size: int = DEFAULT_BATCH_SIZE,
        min_chunk: int = DEFAULT_MIN_CHUNK,
    ) -> None:
        if min(batch_size, min_chunk) < 1:
            raise ValueError("batch_size and min_chunk must be >= 1")
        self.times = times
        self.ids = ids
        self.payloads = payloads
        self.sources = sources
        self.engine = engine
        self._n = len(times)
        self._tables = list(tables)
        latency = [c for c in channels if isinstance(c, LatencyChannel)]
        self.mode = resolve_mode(mode, payloads, self._tables, latency)
        self.per_event = self.mode == "event"
        kernel = None if self.per_event else "run"
        self.stats = replay_stats(self.mode, kernel, self._n)
        self.pos = 0
        self.proven = 0
        self._max_chunk = int(batch_size)
        self._min_chunk = int(min_chunk)
        #: The last scanned stretch ``[_base, _end)``, its potential
        #: crossings (record indices, ascending) and the tables' summed
        #: constraint epochs at the scan (each only grows, so the sum
        #: moves iff a table took a write); ``_size`` is the next stretch's.
        self._base = self._end = 0
        self._hits: list[int] = []
        self._seen = 0
        self._size = self._max_chunk
        self._prescan = _StatePrescan(self._tables)
        if sources.first_id:
            raise ValueError("a replayed population's rows must be its ids")

    # ------------------------------------------------------------------
    # The operations
    # ------------------------------------------------------------------
    def candidate(self) -> int | None:
        """The index of the next record that may flip a filter, or
        ``None`` when none is left.

        Never stages: ``[pos, proven)`` is proven against the columns
        as they are *now*, and only the driver moves ``pos`` (under RPC
        an idle shard's proof can reach back before its last stretch).
        Any constraint write since the scan drops the claim past
        ``pos``, and the next stretch re-proves from there, twice as
        long as the dropped one was consumed; else the first stored
        crossing at or past ``pos`` is the candidate, and with none left
        the next stretch is scanned, each twice as long as the last.
        """
        n = self._n
        if self.per_event:
            return self.proven if self.proven < n else None
        pos = self.pos
        epoch = sum(table.constraint_epoch for table in self._tables)
        if self._end > pos and epoch != self._seen:
            self._size = min(
                self._max_chunk, max(self._min_chunk, 2 * (pos - self._base))
            )
            self._end, self._hits = pos, []
        hits = self._hits
        at = bisect_left(hits, pos)
        while at == len(hits):
            start = max(self._end, pos)
            dispatches = self.stats["dispatches"]
            if (
                dispatches >= _BAILOUT_MIN_DISPATCHES
                and dispatches > _BAILOUT_RATE * start
            ):
                # Too lively for pre-scanning: claim nothing from here
                # on — every record from ``pos`` is its own candidate.
                self.per_event, self.proven = True, pos
                self.stats["dispatch_bailout_at"] = int(pos)
                return self.candidate()
            if start >= n:
                self.proven = n
                return None
            hits, at = self._scan(start, epoch), 0
        self.proven = k = hits[at]
        return k

    def advance(self, k: int) -> None:
        """Bulk-stage the proven-quiescent ``[pos, k)``."""
        pos = self.pos
        if k <= pos:
            return
        if k > self.proven:
            raise ValueError(
                f"past the proven frontier (to {k}, proven {self.proven})"
            )
        self.sources.stage(self.ids[pos:k], self.payloads[pos:k])
        self.stats["staged"] += k - pos
        self.pos = k

    def dispatch(self) -> None:
        """Run the record at ``pos`` through the per-event machinery:
        :meth:`dispatch_to` of one record, the batch strategy's step and
        the shard worker's RPC."""
        self.dispatch_to(self.pos + 1)

    def dispatch_to(self, stop: int, before=None, after=None) -> None:
        """Run every record in ``[pos, stop)`` through the per-event
        machinery, in one loop over plain lists (:func:`_apply`, in the
        reference order); *before* and *after* are the per-record hooks.
        A record whose reaction writes no constraint leaves the
        stretch's claim standing."""
        start, stop = self.pos, min(stop, self._n)
        if stop <= start:
            return
        payloads = self.payloads[start:stop]
        _apply(
            self.sources, self.engine, self.times[start:stop].tolist(),
            self.ids[start:stop].tolist(),
            payloads.tolist() if payloads.ndim == 1 else payloads, before, after,
        )
        self.pos = self.proven = stop
        self.stats["dispatches"] += stop - start

    # ------------------------------------------------------------------
    # The proof
    # ------------------------------------------------------------------
    def _scan(self, start: int, epoch: int) -> list[int]:
        """Evaluate the next stretch from *start* in one shot against
        the live columns at *epoch*; its potential crossings become the
        claim."""
        end = min(start + self._size, self._n)
        self.stats["chunk_scans"] += 1
        mask = self._prescan.crossing_mask(
            self.ids[start:end], self.payloads[start:end]
        )
        self._hits = hits = (np.flatnonzero(mask) + start).tolist()
        self._base, self._end, self._seen = start, end, epoch
        self._size = min(self._max_chunk, 2 * self._size)
        return hits


def _apply(sources, engine, times, ids, payloads, before=None, after=None):
    """The one per-event step of every strategy: hand each record of the
    parallel *times* / *ids* / *payloads* to the population in turn (it
    reports if a filter flips).

    Each record takes its FIFO slot among same-instant events
    (:meth:`~repro.sim.engine.SimulationEngine.advance`): whatever is due
    at or before it fires first, then the clock reads the record's time
    and it applies.  Only a latency-modeled channel schedules engine
    events.  *before* sees ``(stream id, payload)`` before a record
    applies (and before anything due fires), *after* the record's time
    once it has.
    """
    advance = engine.advance
    for time, row, payload in zip(times, ids, payloads):
        if before is not None:
            before(row, payload)
        advance(time)
        sources.apply(row, payload, time)
        if after is not None:
            after(time)


# ----------------------------------------------------------------------
# The fully-columnar strategy (in-process only)
# ----------------------------------------------------------------------
def columnar_table(payloads, tables, sources, protocol):
    """``(the one state table, None)`` when reports themselves are
    columnar, else ``(None, the clause that declined)``.

    Sound only when a quiet report's whole observable effect follows
    from the constraint columns: the protocol declares
    ``columnar_maintenance`` (the label is ``None`` when it never
    asked), one table holds every row known and filtered, no listeners
    watch per-row writes, the population is columnar over scalar
    payloads, and the rows that can report share one interval
    (:func:`live_interval`).  Anything else goes to the cursor; a
    latency model never gets here (:func:`resolve_mode`).
    """
    if not getattr(protocol, "columnar_maintenance", False):
        return None, None
    if len(tables) != 1:
        return None, "tables"
    filtered = getattr(sources, "filtered", None)
    if (
        np.ndim(payloads) != 1
        or filtered is None
        or sources.first_id
        or not filtered.all()
    ):
        return None, "membership"
    table = tables[0]
    if not (bool(table.known.all()) and bool(table.scannable.all())):
        return None, "unknown rows"
    if table._listeners:
        return None, "listeners"
    if live_interval(table)[0] is None:
        return None, "intervals"
    return table, None


def replay_columnar(
    times, stream_ids, payloads, table, sources, ledger, host, engine,
    batch_size, frontiers, previous=None,
) -> dict:
    """Apply whole spans — reports included — columnarly.

    A source believes the side of its last record, so a row on the
    :func:`live_interval` reports exactly at a *crossing*: a record
    whose containment differs from its stream's previous record's.
    Crossings are the trace's alone: one :func:`~repro.state.runs.
    flips_in_stream` pass per block of :data:`CROSSINGS_BLOCK` records
    over *previous* (built when not supplied), where a stream with no
    earlier record in the block starts on its source's value — not the
    believed plane, which a silenced row holds at its silencer's side.
    A span keeps the crossings whose row still holds the interval;
    :meth:`~repro.protocols.base.FilterProtocol.absorb_reports` says how
    many are quiet, and those cost one ledger count and one time-ordered
    scatter per plane (``tests/state/test_scatter_order.py``).  The
    first reacting report ends the span and takes :func:`_apply`; if it
    wrote a constraint, rows moved whole to one new interval have the
    crossings listed again, rows split across two replay the rest of
    the call per event (``dispatch_bailout_at``).  A span holds at most
    :data:`DEFAULT_BATCH_SIZE` crossings (twice the absorbed prefix, at
    least :data:`DEFAULT_MIN_CHUNK`, behind a reaction), *batch_size*
    records when given, and nothing past the frontier last taken; a
    frontier past the records raises.  ``chunk_scans`` counts spans.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if previous is None:
        previous = previous_in_stream(stream_ids)
    n, columns = len(times), (times, stream_ids, payloads)
    stats = replay_stats("batch", "columnar", n)
    lower, upper, held = live_interval(table)
    epoch, scanned, i, take = table.constraint_epoch, 0, 0, DEFAULT_BATCH_SIZE
    for frontier in frontiers:
        if frontier > n:
            raise ValueError("frontiers must ascend to exactly len(times)")
        while i < frontier and lower is not None:
            if scanned <= i:
                scanned, values = min(i + CROSSINGS_BLOCK, n), sources.values
                block = payloads[i:scanned]
                hits = i + np.flatnonzero(flips_in_stream(
                    (lower <= block) & (block <= upper),
                    (lower <= values) & (values <= upper),
                    stream_ids[i:scanned], previous[i:scanned] - i,
                ))
            end = min(frontier, scanned, i + (batch_size or n))
            a, b = np.searchsorted(hits, (i, end))
            if b - a > take:
                b, end = a + take, int(hits[a + take])
            at = hits[a:b]
            rows = stream_ids[at]
            if held is not None:
                keep = held[rows]
                at, rows = at[keep], rows[keep]
            quiet, reacting, take = 0, False, min(DEFAULT_BATCH_SIZE, 2 * take)
            if at.size:
                reported = payloads[at]
                entering = (lower <= reported) & (reported <= upper)
                quiet = host.protocol.absorb_reports(entering)
                reacting = quiet < at.size
                if reacting:
                    end = int(at[quiet])
                    take = min(DEFAULT_BATCH_SIZE, max(DEFAULT_MIN_CHUNK, 2 * quiet))
                    at, rows = at[:quiet], rows[:quiet]
                    reported, entering = reported[:quiet], entering[:quiet]
            if quiet:
                ledger.record_kind(MessageKind.UPDATE, quiet)
                stats["columnar_reports"] += quiet
                host.now = max(host.now, float(times[at[-1]]))
                table.values[rows] = reported
                table.report_time[rows] = times[at]
                table.inside[rows] = entering  # the sources' plane too
                table.answer_take_reports(rows, entering)
            sources.stage(stream_ids[i:end], payloads[i:end])
            stats["staged"] += end - i
            stats["chunk_scans"] += 1
            i = end
            if reacting:
                _apply(sources, engine, *(c[i:i + 1].tolist() for c in columns))
                stats["dispatches"] += 1
                i += 1
                if table.constraint_epoch != epoch:
                    epoch, interval = table.constraint_epoch, (lower, upper)
                    lower, upper, held = live_interval(table, interval)
                    if (lower, upper) != interval:
                        scanned = i
                        stats["dispatch_bailout_at"] = i if lower is None else None
        if i < frontier:  # the rows hold two intervals: per event
            _apply(sources, engine, *(c[i:frontier].tolist() for c in columns))
            stats["dispatches"] += frontier - i
            i = frontier
    return stats


def live_interval(table, guess=(math.nan, math.nan)) -> tuple:
    """``(lower, upper, held)``: the interval every row off a silencer
    (``[-inf, +inf]``, ``[+inf, +inf]``) holds and the rows that hold it
    (``None``: every row) — ``None`` bounds when such rows hold two, the
    *guess* when there are none (``nan``: containing nothing).  A few
    element-wise passes over the rows."""
    lower, upper = table.lower, table.upper
    held = (lower == guess[0]) & (upper == guess[1])
    live = ~held & ((upper != math.inf) | ~np.isinf(lower))
    if not live.any():
        return (*guess, None if held.all() else held)
    low, high = lower[live], upper[live]
    if held.any() or (low != low[0]).any() or (high != high[0]).any():
        return None, None, None
    return float(low[0]), float(high[0]), None if live.all() else live


class _StatePrescan:
    """Vectorized "can this record flip any filter?" test, read straight
    from the live table columns — the filter state at every instant.

    A record is quiescent iff, for every table, the stream has no
    columnar filter there or the filter provably keeps its believed
    side: interval containment equal to it for scalar payloads, the
    table's conservative AABB mask (:meth:`~repro.state.table.
    StreamStateTable.geometric_quiescence_mask`) for vector ones.
    Streams with no columnar filter in *any* table always dispatch: a
    filterless source reports every change, and an undecidable region
    record must run exact geometry per event.
    """

    def __init__(self, tables: Sequence[StreamStateTable]) -> None:
        self._tables = list(tables)

    def crossing_mask(self, ids_chunk, vals_chunk) -> np.ndarray:
        """Which records might flip a filter: ``False`` proves quiescence
        against the live columns; without any table every record
        dispatches."""
        geometric = vals_chunk.ndim == 2
        potential: np.ndarray | None = None
        guarded: np.ndarray | None = None
        for table in self._tables:
            if geometric:
                scan = table.geo_scannable[ids_chunk]
                quiescent = table.geometric_quiescence_mask(
                    vals_chunk, ids_chunk
                )
                flips = scan & ~quiescent
            else:
                scan = table.scannable[ids_chunk]
                new_inside = (table.lower[ids_chunk] <= vals_chunk) & (
                    vals_chunk <= table.upper[ids_chunk]
                )
                flips = scan & (new_inside != table.inside[ids_chunk])
            potential = flips if potential is None else potential | flips
            guarded = scan if guarded is None else guarded | scan
        if potential is None or guarded is None:
            return np.ones(len(ids_chunk), dtype=bool)
        # Filterless streams report every change.
        potential |= ~guarded
        return potential
