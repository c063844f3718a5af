"""The replay core: one step-wise cursor over a time-sorted record array.

A source reports iff a record flips one of its deployed filters, so
replay has one job: find the next record that *can* flip a filter,
bulk-apply everything before it, run it through the per-event
machinery.  :class:`ReplayCursor` does that job once (DESIGN.md §9) for
both of its drivers: :meth:`~repro.runtime.session.ExecutionSession.
replay` in-process (``while candidate: advance; dispatch``) and the
shard transport's workers under RPC (``repro/server/transport.py``),
where the coordinator picks the global minimum among the per-shard
candidates.

The proofs read the *live* constraint columns of the state tables —
every population writes its filter state through to them, so the
columns are the filter state, and every write to them bumps the table's
``constraint_epoch``: a proof stands while the epochs it was made at
do.  A record that may flip a filter is only ever dispatched (engine to
its time, then the population's ``apply``: one code path for every
stack and driver) and a record is only ever staged — scattered into the
population's value plane — while provably unable to flip anything, so
the message ledger is byte-identical whichever way the cursor is
driven.  In the **event strategy** nothing is proven: the session's
replay hands the rest of each frontier to one per-event loop
(:meth:`ReplayCursor.dispatch_to`, over plain lists of times, ids and
1-D payloads) that moves the engine clock to each record and applies it
directly unless an engine event is due first; ``mode="event"``,
per-record hooks, any latency-modeled channel and the dispatch-rate
bailout all select it.  Both strategies dispatch in one order, the
engine's (:func:`_apply`, whose one-record case :meth:`ReplayCursor.
dispatch` the batch strategy and the shard worker take), so every mode
leaves the reference ledger.

For ``columnar_maintenance`` protocols :func:`replay_columnar` applies
whole chunks, reports included, and stops only at a report the protocol
reacts to; it is the in-process driver's alternative to the cursor
(gate: :func:`columnar_table`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.latency import LatencyChannel
from repro.network.messages import MessageKind
from repro.state.runs import previous_in_stream
from repro.state.table import StreamStateTable

#: Largest chunk one pre-scan evaluates.
DEFAULT_BATCH_SIZE = 4096

#: Smallest chunk: below this, numpy call overhead beats the per-event
#: loop anyway.  A dropped claim shrinks the adaptive stretch, never below it.
DEFAULT_MIN_CHUNK = 32

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
    of *sources* — a population (``repro.runtime.source``) whose value
    plane is its own staging vector (``stage`` / ``apply(row, ...)``,
    DESIGN.md §18, §20) — and of *tables*, every state table whose
    constraint columns guard a filter.  *channels* carry the
    server-to-source traffic; a latency-modeled one selects the event
    strategy.  State: records before ``pos`` are committed;
    ``[pos, proven)`` is proven quiescent against the live columns; the
    one fact behind the proof is the potential crossings of the last
    scanned stretch, valid while no table's ``constraint_epoch`` has
    moved since the scan.  The whole surface is :meth:`candidate`,
    :meth:`advance`, :meth:`dispatch` (one record) / :meth:`dispatch_to`
    (a run of them) and the read-only ``pos`` / ``proven`` / ``mode`` /
    ``per_event`` / ``stats``; ``batch_size`` / ``min_chunk`` bound the
    adaptive stretch.  ``per_event``: every record from ``pos`` is its
    own candidate (the event strategy, from the start or since the
    bailout).
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
        #: constraint epochs at the scan; ``_size`` is the next stretch's.
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

        Never stages: on return ``[pos, proven)`` is proven against the
        columns as they are *now* and a candidate is the record at
        ``proven``.  Only the driver moves ``pos`` — under RPC the
        coordinator's global minimum may lie in another shard, so an
        idle shard's proof can reach back before its last stretch.

        One rule: any constraint write since the scan drops the claim
        past ``pos``, and the next stretch re-proves from there, twice
        as long as the dropped one was consumed.  Else the first stored
        crossing at or past ``pos`` is the candidate; with none left the
        next stretch is scanned, each one twice as long as the last.
        """
        n = self._n
        if self.per_event:
            return self.proven if self.proven < n else None
        pos = self.pos
        if self._end > pos and self._epoch() != self._seen:
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
                self._switch_to_event()
                return self.candidate()
            if start >= n:
                self.proven = n
                return None
            hits, at = self._scan(start), 0
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

    def _switch_to_event(self) -> None:
        """Too lively for pre-scanning: claim nothing from here on —
        every record from ``pos`` is its own candidate."""
        self.per_event = True
        self.proven = self.pos
        self.stats["dispatch_bailout_at"] = int(self.pos)

    # ------------------------------------------------------------------
    # The proof
    # ------------------------------------------------------------------
    def _epoch(self) -> int:
        """The tables' summed constraint epochs: each only grows, so the
        sum moves iff some table took a constraint write."""
        return sum(table.constraint_epoch for table in self._tables)

    def _scan(self, start: int) -> list[int]:
        """Evaluate the next stretch from *start* in one shot against
        the live columns; its potential crossings become the claim."""
        end = min(start + self._size, self._n)
        self.stats["chunk_scans"] += 1
        mask = self._prescan.crossing_mask(
            self.ids[start:end], self.payloads[start:end]
        )
        self._hits = hits = (np.flatnonzero(mask) + start).tolist()
        self._base, self._end, self._seen = start, end, self._epoch()
        self._size = min(self._max_chunk, 2 * self._size)
        return hits


def _apply(sources, engine, times, ids, payloads, before=None, after=None):
    """The one per-event step of every strategy: hand each record of the
    parallel *times* / *ids* / *payloads* to the population in turn (it
    reports if a filter flips).

    Wherever an engine event is due at or before a record, the record
    takes its FIFO slot among same-instant events — an event of its own,
    stepped to — and applies when that slot fires; else nothing can fire
    first, and the clock moves to the record's time before it applies.
    Only a latency-modeled channel schedules engine events.  *before*
    sees ``(stream id, payload)`` before a record applies (and before
    anything due fires), *after* the record's time once it has.
    """
    for time, row, payload in zip(times, ids, payloads):
        if before is not None:
            before(row, payload)
        head = engine.next_event_time
        if head is not None and head <= time:
            slot = [row]
            engine.schedule_at(time, slot.clear)
            while slot:
                engine.step()
        else:
            engine.advance(time)
        sources.apply(row, payload, time)
        if after is not None:
            after(time)


# ----------------------------------------------------------------------
# The fully-columnar strategy (in-process only)
# ----------------------------------------------------------------------
def columnar_table(payloads, tables, sources, channels, protocol):
    """``(the one state table, None)`` when reports themselves are
    columnar, else ``(None, the clause that declined)``.

    The fully-columnar strategy applies *every* record — quiescent or
    reporting — as window operations, so it is sound only when a quiet
    report's entire observable effect is derivable from the constraint
    columns: the hosted protocol declares ``columnar_maintenance`` (the
    label is ``None`` when it never asked), there is one table whose
    every row is known and filtered, no listeners or channel taps
    observe per-message traffic, and the population is columnar with a
    deployed interval in every row, over scalar payloads.  Silencers
    are such intervals — constant containment, so the diff finds no
    report.  Anything else goes to the cursor.  A latency model never
    reaches this gate: it replays per event (:func:`resolve_mode`).
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
    if any(channel._taps for channel in channels):
        return None, "taps"
    return table, None


def replay_columnar(
    times, stream_ids, payloads, table, sources, ledger, host, engine,
    batch_size, frontiers, previous=None,
) -> dict:
    """Apply whole chunks — reports included — columnarly.

    A source's belief after record ``k`` always equals record ``k``'s
    containment, so the side it believes *before* a record is the
    containment of its stream's previous record — *previous* is the
    arrays' :func:`~repro.state.runs.previous_in_stream` index, built
    here when not supplied — or, where that record lies before the
    chunk, the table's believed plane: everything below the chunk is
    applied before it is judged.  The reports are the records whose
    containment differs from that side, already in time order;
    :meth:`~repro.protocols.base.FilterProtocol.absorb_reports` says how
    many are quiet.  Those are charged to the ledger as one count and
    written with one scatter per plane in time order — value, report
    time, believed side (the population's too) and answer — so each
    reporting stream keeps its last quiet report (later rows win:
    ``tests/state/test_scatter_order.py`` pins numpy's order), and
    ``|A|`` moves by their net steps; the host clock takes the last
    one's time — byte-identical to per-event replay with no Python per
    report.
    The first report the protocol reacts to ends the chunk: that record
    takes the cursor's per-event order (engine to its time, the
    population's ``apply``) and the scan resumes behind it against the
    live columns.  No chunk crosses the frontier last taken from
    *frontiers*, so no ledger charge covers an unreleased record.
    *sources* is the columnar population :func:`columnar_table` passed.
    Returns the replay stats.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if previous is None:
        previous = previous_in_stream(stream_ids)
    stats = replay_stats("batch", "columnar", len(times))
    i, size = 0, batch_size
    for frontier in frontiers:
        while i < frontier:
            end = min(i + size, frontier)
            ids_chunk = stream_ids[i:end]
            vals_chunk = payloads[i:end]
            stats["chunk_scans"] += 1
            contains = (table.lower[ids_chunk] <= vals_chunk) & (
                vals_chunk <= table.upper[ids_chunk]
            )
            # A negative ``back`` (predecessor before the chunk) is
            # clipped and masked out: as an index it would wrap around.
            # Four mask operations, not one ``np.where``: numpy's boolean
            # ``where`` takes twice as long on a full chunk (DESIGN.md §9).
            back = previous[i:end] - i
            before = back < 0
            believed = (table.inside[ids_chunk] & before) | (
                contains.take(back, mode="clip") & ~before
            )
            at = np.nonzero(contains != believed)[0]
            quiet, reacting = 0, False
            size = min(batch_size, 2 * size)
            if at.size:
                entering = contains[at]
                quiet = host.protocol.absorb_reports(entering)
                reacting = quiet < at.size
                if reacting:
                    # End the chunk just before the reacting record;
                    # scan as far again, not a whole chunk, behind it.
                    cut = int(at[quiet])
                    size = min(batch_size, max(DEFAULT_MIN_CHUNK, 2 * cut))
                    at = at[:quiet]
                    end = i + cut
                    ids_chunk, vals_chunk = ids_chunk[:cut], vals_chunk[:cut]
            if quiet:
                ledger.record_kind(MessageKind.UPDATE, quiet)
                stats["columnar_reports"] += quiet
                host.now = max(host.now, float(times[i + at[-1]]))
                # Later rows win: what the server remembers of each
                # reporting stream is its last report, and so is the side
                # its source believes reported.
                rows, entering = ids_chunk[at], entering[:quiet]
                table.values[rows] = vals_chunk[at]
                table.report_time[rows] = times[i:end][at]
                table.inside[rows] = entering  # the sources' plane too
                table.answer_take_reports(rows, entering)
            sources.stage(ids_chunk, vals_chunk)
            stats["staged"] += end - i
            i = end
            if reacting:
                _apply(
                    sources, engine, [float(times[i])], [int(stream_ids[i])],
                    [payloads[i]],
                )
                stats["dispatches"] += 1
                i += 1
    return stats


class _StatePrescan:
    """Vectorized "can this record flip any filter?" test.

    Reads the installed bounds and believed memberships straight from
    the live :class:`~repro.state.table.StreamStateTable` columns — one
    table per standing query, whose columns the source populations'
    filter planes are — so there is nothing to poll, tap, or rebuild:
    the columns *are* the filter state at every instant.

    A record is quiescent iff, for every table, either the stream has no
    columnar filter in that table (that query cannot be proven to flip)
    or the filter provably keeps its believed membership: for scalar
    payloads an interval containment equal to the believed side, for
    vector payloads the table's conservative AABB quiescence mask
    (:meth:`~repro.state.table.StreamStateTable.
    geometric_quiescence_mask`).  Streams with no columnar filter in
    *any* table always dispatch — with no filters installed a source
    reports every change, and an undecidable region record must run
    exact geometry per-event.
    """

    def __init__(self, tables: Sequence[StreamStateTable]) -> None:
        self._tables = list(tables)

    def crossing_mask(self, ids_chunk, vals_chunk) -> np.ndarray:
        """Which records might flip a filter, evaluated columnarly.

        ``True`` marks a *potential* crossing — a record that must take
        the per-event path; ``False`` is a proof of quiescence against
        the live columns.  Without any table every record dispatches.
        """
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
