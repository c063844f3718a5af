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
columns are the filter state.  A record that may flip a filter is only
ever dispatched (engine to its time, then the population's ``apply``:
one code path for every stack and driver) and a record is only ever
staged — scattered into the population's value plane — while provably
unable to flip anything, so
the message ledger is byte-identical whichever way the cursor is
driven.  In the **event strategy** nothing is proven and every record
is its own candidate; ``mode="event"``, per-record hooks and the
dispatch-rate bailout all select it.

For ``columnar_maintenance`` protocols :func:`replay_columnar` applies
whole chunks, reports included, and stops only at a report the protocol
reacts to; it is the in-process driver's alternative to the cursor
(gate: :func:`columnar_table`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.latency import LatencyChannel
from repro.network.messages import MessageKind
from repro.state.runs import first_true_per_run, previous_in_stream, segment_runs
from repro.state.table import StreamStateTable

#: Largest chunk one pre-scan evaluates.
DEFAULT_BATCH_SIZE = 4096

#: Smallest chunk: below this, numpy call overhead beats the per-event
#: loop anyway.  Truncations shrink the adaptive chunk, never below it.
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
    "suffix_rescans",
    "broadcast_truncations",
    "inflight_truncations",
)

# Switch to the event strategy when, after a fair sample, more than this
# fraction of records dispatched: the workload is too lively for
# pre-scanning to pay off.
_BAILOUT_RATE = 0.6
_BAILOUT_MIN_DISPATCHES = 512
# A reaction that rewrites more than this many *other* streams'
# constraint rows (a broadcast/reinitialization) is cheaper to handle by
# dropping the window and rescanning than by re-validating suffixes one
# stream at a time.
_BROADCAST_CAP = 32


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


def in_flight_barrier(channels):
    """``(earliest delivery time, lagging stream ids)`` over latency
    channels, or ``(None, empty)`` when nothing flies.

    While a message is in flight a quiescence proof is unsafe in two
    ways: an in-flight stream's table row can mix deployed-but-not-
    installed bounds with the source's old filter state, and any
    delivery can run a protocol step that rewrites *other* streams'
    bounds.  The cursor therefore treats in-flight streams as always
    potential and claims nothing at or past the earliest pending
    delivery.
    """
    t_barrier = None
    lagging: set[int] = set()
    for channel in channels:
        t = channel.next_delivery_time
        if t is not None:
            t_barrier = t if t_barrier is None else min(t_barrier, t)
            lagging |= channel.in_flight_stream_ids()
    return t_barrier, lagging


def resolve_mode(mode, payloads, tables, latency_channels, hooked=False) -> str:
    """``"batch"`` or ``"event"`` for a requested replay mode.

    Batching is *sound* only without per-record hooks (they must
    observe every record) and for scalar or vector payloads; ``auto``
    additionally wants it *useful*: no channel is latency-modeled (under
    a model the batch cursor lost to per-event replay in 27 of 28
    measured cells, DESIGN.md §8.2) and some stream carries a columnar
    filter — scalar intervals for 1-D payloads, the geometric plane's
    region bboxes for 2-D ones.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(
            f"replay mode must be one of {REPLAY_MODES}, got {mode!r}"
        )
    ndim = np.ndim(payloads)
    if mode == "event" or hooked or ndim not in (1, 2):
        return "event"
    if mode == "auto":
        column = "scannable" if ndim == 1 else "geo_scannable"
        if latency_channels or not any(
            getattr(table, column).any() for table in tables
        ):
            return "event"
    return "batch"


class _Chunk:
    """One scanned stretch ``[base, end)`` of the proven window.

    ``order`` lists its record indices grouped into per-stream runs;
    ``heap`` holds ``(record index, run, run epoch, grouped index)`` —
    each run's first potential crossing, an epoch bump killing stale
    entries.  A chunk scanned without any crossing keeps no run
    structure (``order is None``).
    """

    __slots__ = ("base", "end", "heap", "order", "starts", "run_ids", "epoch")

    def __init__(self, base: int, end: int) -> None:
        self.base = base
        self.end = end
        self.heap: list[tuple[int, int, int, int]] = []
        self.order = None
        self.epoch: list[int] = []


class ReplayCursor:
    """Step-wise replay of ``(times, ids, payloads)`` into *sources*.

    The record arrays are parallel and time-sorted; *ids* index the rows
    of *sources* — a population (``repro.runtime.source``) whose value
    plane is its own staging vector (``stage`` / ``apply(row, ...)``,
    DESIGN.md §18, §20) — and of *tables*, every state table whose
    constraint columns guard a filter.  *channels* carry the
    server-to-source traffic; their latency-modeled members set the
    in-flight barrier.  State:
    records before ``pos`` are committed; ``[pos, proven)`` is proven
    quiescent against the live columns; a window of scanned chunks backs
    the proof.  The whole
    surface is :meth:`candidate`, :meth:`advance`, :meth:`dispatch`,
    :meth:`close` and the read-only ``pos`` / ``proven`` / ``mode`` /
    ``stats``; ``batch_size`` / ``min_chunk`` bound the adaptive chunk.
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
        self._latency = [c for c in channels if isinstance(c, LatencyChannel)]
        self.mode = resolve_mode(mode, payloads, self._tables, self._latency)
        self._event = self.mode == "event"
        kernel = None if self._event else "run"
        self.stats = replay_stats(self.mode, kernel, self._n)
        self.pos = 0
        self.proven = 0
        self._window: deque[_Chunk] = deque()
        self._max_chunk = int(batch_size)
        self._min_chunk = int(min_chunk)
        # Consumption-driven chunk size: truncations shrink the scan
        # window, fully consumed chunks grow it back.
        self._avg = float(batch_size)
        #: Position of the last dispatch not yet re-validated against.
        self._own: int | None = None
        #: Streams with a message in flight at the last barrier read.
        self._lagging = np.empty(0, dtype=np.int64)
        self._prescan = _StatePrescan(self._tables)
        if sources.first_id:
            raise ValueError("a replayed population's rows must be its ids")
        if not self._event:
            for table in self._tables:
                table.watch_constraints()

    # ------------------------------------------------------------------
    # The four operations
    # ------------------------------------------------------------------
    def candidate(self) -> tuple[int | None, bool]:
        """``(index of the next record that may flip a filter, blocked)``.

        Never stages: on return ``[pos, proven)`` is proven against the
        columns as they are *now* and a candidate is the record at
        ``proven``.  Only the driver moves ``pos`` — under RPC the
        coordinator's global minimum may lie in another shard, so an
        idle shard's proven window can span several scanned chunks.

        Work done, in order: drain the constraint watch and re-validate
        only the touched streams' (and the last dispatched stream's)
        pending records inside the window; else scan forward chunk by
        chunk, never past the in-flight barrier.  ``blocked`` means
        records remain behind that barrier with no candidate to show:
        the pending delivery must fire before they can be judged.
        """
        n = self._n
        if self._event:
            return (self.proven, False) if self.proven < n else (None, False)
        window = self._window
        while window and window[0].end <= self.pos:
            window.popleft()
            self._avg = min(float(self._max_chunk), 2.0 * max(self._avg, 1.0))
        # Drained even when no window is left to re-validate: stale
        # entries must not survive into a fresh scan of the live columns.
        notes = [
            note
            for table in self._tables
            for note in table.drain_constraint_watch()
        ]
        own, self._own = self._own, None
        cap = n
        if self._latency:
            t_barrier, lagging = in_flight_barrier(self._latency)
            self._lagging = np.fromiter(lagging, np.int64, len(lagging))
            if t_barrier is not None:
                cap = int(np.searchsorted(self.times, t_barrier, side="left"))
                if own is not None and window:
                    # The dispatch left a message in flight: no earlier
                    # claim is safe at or past its delivery.
                    self._drop_window("inflight_truncations")
        if window and (notes or own is not None):
            self._revalidate(notes, own)
        k = None
        for chunk in window:
            k = self._first(chunk)
            if k is not None:
                break
        while k is None:
            start = window[-1].end if window else self.pos
            dispatches = self.stats["dispatches"]
            if (
                dispatches >= _BAILOUT_MIN_DISPATCHES
                and dispatches > _BAILOUT_RATE * start
            ):
                self._switch_to_event()
                return self.candidate()
            if start >= cap:
                self.proven = start
                if start < n:
                    self.stats["inflight_truncations"] += 1
                return None, start < n
            size = int(
                min(self._max_chunk, max(self._min_chunk, 4 * self._avg))
            )
            chunk = self._scan(start, min(start + size, cap))
            window.append(chunk)
            k = self._first(chunk)
        self.proven = k
        return k, False

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
        """Run the record at ``pos`` through the per-event machinery.

        The batch strategy runs the engine up to the record's time —
        draining every delivery due by then — and applies it.  The event
        strategy is the reference order: wherever an event is due at or
        before the record, the record fires *as* an engine event, FIFO
        among same-instant events; else nothing can fire first.
        Afterwards nothing is claimed until the next :meth:`candidate`,
        which always re-validates the dispatched stream's own pending
        records: a stream that carries no filter keeps dispatching
        though no constraint write names it.
        """
        j = self.pos
        engine = self.engine
        time = float(self.times[j])
        head = engine.next_event_time if self._event else None
        if head is not None and head <= time:
            engine.schedule_at(time, self._fire)
            while self.pos == j:
                engine.step()
        else:
            if time > engine.now:
                engine.run(until=time)
            self._fire()

    def close(self) -> None:
        """Detach the constraint watches."""
        for table in self._tables:
            table.unwatch_constraints()

    # ------------------------------------------------------------------
    # Per-event machinery
    # ------------------------------------------------------------------
    def _fire(self) -> None:
        j = self.pos
        _apply(self.sources, int(self.ids[j]), self.payloads[j], float(self.times[j]))
        self.pos = self.proven = j + 1
        self._own = j
        self.stats["dispatches"] += 1

    def _switch_to_event(self) -> None:
        """Too lively for pre-scanning: claim nothing from here on —
        every record from ``pos`` is its own candidate."""
        self._event = True
        self._window.clear()
        self.proven = self.pos
        self.stats["dispatch_bailout_at"] = int(self.pos)
        for table in self._tables:
            table.unwatch_constraints()

    # ------------------------------------------------------------------
    # The proven window
    # ------------------------------------------------------------------
    def _potential(self, selection) -> np.ndarray:
        """Which of the selected records might flip a filter *now*."""
        ids = self.ids[selection]
        mask = self._prescan.crossing_mask(ids, self.payloads[selection])
        if self._lagging.size:
            # In-flight streams are never provably quiescent.
            mask |= np.isin(ids, self._lagging)
        return mask

    def _scan(self, start: int, end: int) -> _Chunk:
        """Evaluate ``[start, end)`` in one shot; group it into per-stream
        runs (stable argsort) and seed the heap with each run's first
        crossing — record index order is time order, so the heap pops
        crossings exactly as per-event replay would reach them."""
        self.stats["chunk_scans"] += 1
        chunk = _Chunk(start, end)
        mask = self._potential(slice(start, end))
        if not mask.any():
            return chunk
        order, starts, run_ids = segment_runs(self.ids[start:end])
        first = first_true_per_run(mask[order], starts)
        order += start  # chunk positions -> record indices
        chunk.order, chunk.starts, chunk.run_ids = order, starts, run_ids
        chunk.epoch = [0] * len(run_ids)
        runs = np.nonzero(first >= 0)[0]
        grouped = first[runs]
        chunk.heap = [
            (position, run, 0, at)
            for position, run, at in zip(
                order[grouped].tolist(), runs.tolist(), grouped.tolist()
            )
        ]
        heapq.heapify(chunk.heap)
        return chunk

    @staticmethod
    def _first(chunk: _Chunk) -> int | None:
        """The chunk's earliest live crossing (a record index)."""
        heap, epoch = chunk.heap, chunk.epoch
        while heap:
            position, run, run_epoch, _ = heap[0]
            if run_epoch == epoch[run]:
                return position
            heapq.heappop(heap)
        return None

    def _drop_window(self, counter: str) -> None:
        """Truncate: forget every claim past ``pos``; the next scan
        starts there, against fresh columns and a fresh barrier."""
        consumed = max(self.pos - self._window[0].base, 0)
        self._avg = 0.75 * self._avg + 0.25 * consumed
        self._window.clear()
        self.stats[counter] += 1

    def _revalidate(self, notes: list, own: int | None) -> None:
        """Re-prove the window after a reaction touched the rows in the
        tables' *notes* and the record at *own* dispatched.

        The crossing mask of a record depends only on its own stream's
        columns, so untouched streams' proofs stand.  Every chunk of the
        window is visited — an idle shard's window spans several.
        """
        own_stream = None if own is None else int(self.ids[own])
        others = {note for note in notes if type(note) is int}
        bulk = [note for note in notes if type(note) is not int]
        if bulk:
            # Distinct by sort-and-compare, and no more Python ints than
            # it takes to be a broadcast (one of them may be own_stream).
            rows = np.sort(np.concatenate(bulk))
            rows = rows[np.diff(rows, prepend=-1) > 0]
            others.update(rows[: _BROADCAST_CAP + 2].tolist())
        others.discard(own_stream)
        if len(others) > _BROADCAST_CAP:
            self._drop_window("broadcast_truncations")
            return
        window = self._window
        for index, chunk in enumerate(window):
            lo = max(self.pos, chunk.base)
            if chunk.order is None:
                window[index] = self._scan(lo, chunk.end)
                continue
            pending = others
            if own is not None:
                top = chunk.heap[0] if chunk.heap else None
                if top is not None and top[0] == own:
                    # The candidate itself dispatched (the usual case):
                    # its heap entry, still on top, knows run and place.
                    self._rescan(chunk, top[1], top[3] + 1)
                else:
                    pending = others | {own_stream}
            for stream_id in pending:
                run = int(np.searchsorted(chunk.run_ids, stream_id))
                if run == len(chunk.epoch) or chunk.run_ids[run] != stream_id:
                    continue
                # Only positions the cursor has not yet claimed are
                # still pending for this run.
                span = chunk.order[chunk.starts[run] : chunk.starts[run + 1]]
                self._rescan(
                    chunk,
                    run,
                    int(chunk.starts[run])
                    + int(np.searchsorted(span, lo)),
                )

    def _rescan(self, chunk: _Chunk, run: int, lo_grouped: int) -> None:
        """Re-validate *run* from grouped index *lo_grouped* on against
        the now-live columns; push its new first crossing."""
        chunk.epoch[run] += 1
        hi_grouped = int(chunk.starts[run + 1])
        if lo_grouped >= hi_grouped:
            return
        self.stats["suffix_rescans"] += 1
        suffix = chunk.order[lo_grouped:hi_grouped]
        hits = np.nonzero(self._potential(suffix))[0]
        if hits.size:
            hit = int(hits[0])
            heapq.heappush(
                chunk.heap,
                (int(suffix[hit]), run, chunk.epoch[run], lo_grouped + hit),
            )


def _apply(sources, stream_id: int, payload, time: float) -> None:
    """The one per-event step of every strategy: hand the population the
    record (it reports if a filter flips)."""
    sources.apply(stream_id, payload, time)


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
    label is ``None`` when it never asked), no latency model puts
    reports in flight, there is one table whose every row is known and
    filtered, no listeners or channel taps observe per-message traffic,
    and the population is columnar with a deployed interval in every
    row, over scalar payloads.  Silencers are such intervals — constant
    containment, so the diff finds no report.  Anything else goes to
    the cursor.
    """
    if not getattr(protocol, "columnar_maintenance", False):
        return None, None
    if any(isinstance(channel, LatencyChannel) for channel in channels):
        return None, "latency"
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
    many are quiet.  Those are charged to the ledger as one count, the
    value/constraint/answer planes and the population's believed side
    take each reporting stream's last quiet report, the host clock its
    time — byte-identical to per-event replay with no Python per report.
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
            back = previous[i:end] - i
            before = back < 0
            believed = (table.inside[ids_chunk] & before) | (
                contains.take(back, mode="clip") & ~before
            )
            at = np.nonzero(contains != believed)[0]
            quiet, reacting = 0, False
            size = min(batch_size, 2 * size)
            if at.size:
                quiet = host.protocol.absorb_reports(contains[at])
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
                # Each reporting stream's *last* report — its first,
                # read backwards — is what the server remembers (value
                # plane, believed side, answer membership) and the side
                # the source believes reported; rows ascend, distinct.
                rows, nth = np.unique(ids_chunk[at][::-1], return_index=True)
                pos = at[quiet - 1 - nth]
                table.values[rows] = vals_chunk[pos]
                table.report_time[rows] = times[i + pos]
                final_inside = contains[pos]
                table.inside[rows] = final_inside
                sources.inside[rows] = final_inside
                table.answer_assign_rows(rows, final_inside)
            sources.stage(ids_chunk, vals_chunk)
            stats["staged"] += end - i
            i = end
            if reacting:
                time = float(times[i])
                if time > engine.now:
                    engine.run(until=time)
                _apply(sources, int(stream_ids[i]), payloads[i], time)
                stats["dispatches"] += 1
                i += 1
    return stats


class _StatePrescan:
    """Vectorized "can this record flip any filter?" test.

    Reads the deployed bounds and believed memberships straight from the
    live :class:`~repro.state.table.StreamStateTable` columns — one table
    per standing query, written through by the source populations — so
    there is nothing to poll, tap, or rebuild: the
    columns *are* the filter state at every instant.

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
