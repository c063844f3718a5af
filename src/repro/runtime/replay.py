"""The replay core: one step-wise cursor over a time-sorted record array.

A source reports iff a record flips one of its deployed filters, so
replay has one job: find the next record that *can* flip a filter,
bulk-apply everything before it, run it through the per-event
machinery.  :class:`ReplayCursor` does that job once (DESIGN.md §9),
driven in-process by :meth:`~repro.runtime.session.ExecutionSession.
replay` and under RPC by the shard transport's workers.  Its proofs read
the live constraint columns of the state tables, and are re-tested
behind a constraint write for the rows the tables' write logs name; a
record is staged only while provably unable to flip anything, and
every dispatch takes the engine's one order
(:func:`_apply`), so every strategy leaves the reference ledger.  The
**event strategy** proves nothing and hands each frontier's rest to one
per-event loop (:meth:`ReplayCursor.dispatch_to`).

For ``columnar_maintenance`` protocols :func:`replay_columnar` is the
in-process alternative (gate: :func:`columnar_table`): it reads the
trace's crossings of the one interval the reporting rows share from a
provider and applies whole spans between them, reports included,
stopping only at a report the protocol reacts to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.network.channel import Channel
from repro.network.latency import LatencyChannel
from repro.network.messages import MessageKind
from repro.state.runs import next_in_stream, previous_in_stream
from repro.state.table import StreamStateTable
from repro.streams.trace import StreamTrace

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

#: Rows a replay reader re-checks one by one after a reaction; a write
#: log naming more (or every row) sends it back to its whole-table proof.
RECHECK_ROWS = 64

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
    crossings of the last scanned stretch, kept exact across constraint
    writes (:meth:`candidate`).  The surface is :meth:`candidate`,
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
        #: The last scanned stretch ``[_base, _end)`` and its potential
        #: crossings (record indices, ascending); ``_size`` is the next
        #: stretch's.  The tables' write logs, open from the scan on,
        #: hold the constraint writes since.
        self._base = self._end = 0
        self._hits: list[int] = []
        self._size = self._max_chunk
        self._prescan = _StatePrescan(self._tables)
        #: The stretch's per-stream links (:meth:`_recheck`): ``None``
        #: before its first re-test, ``()`` after it, then ``(start,
        #: first, next)`` from ``start`` on — each row's first record
        #: there not yet behind ``pos`` (``-1``: none) and each record's
        #: next in its stream (``end``: none).
        self._links: tuple | None = None
        if sources.first_id:
            raise ValueError("a replayed population's rows must be its ids")
        if not self.per_event:
            _open_write_logs(self._tables)

    # ------------------------------------------------------------------
    # The operations
    # ------------------------------------------------------------------
    def candidate(self) -> int | None:
        """The index of the next record that may flip a filter, or
        ``None`` when none is left.

        Never stages: ``[pos, proven)`` is proven against the columns
        as they are *now*, and only the driver moves ``pos`` (under RPC
        an idle shard's proof can reach back before its last stretch).
        A constraint write since the scan — some table's open write log
        is not empty — keeps the claim: the rows the logs name have
        their records in ``[pos, end)`` re-tested (:meth:`_recheck`),
        the others' stand.  A log naming every row or more than
        :data:`RECHECK_ROWS` (a broadcast), or a vector payload, drops
        the claim past ``pos`` instead, and the next stretch re-proves
        from there, twice as long as the dropped one was consumed.
        Then the first stored crossing at or past ``pos`` is the
        candidate; with none left the next stretch is scanned, each
        twice as long as the last.
        """
        n = self._n
        if self.per_event:
            return self.proven if self.proven < n else None
        pos = self.pos
        if self._end > pos and any(table.write_log for table in self._tables):
            if not self._recheck(pos):
                self._size = min(
                    self._max_chunk, max(self._min_chunk, 2 * (pos - self._base))
                )
                self._end, self._hits = pos, []
            elif self._bails(pos):
                return self.candidate()
        hits = self._hits
        at = bisect_left(hits, pos)
        while at == len(hits):
            start = max(self._end, pos)
            if self._bails(start):
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
        :meth:`dispatch_to` of one record — read as scalars, not sliced:
        the batch strategy's step behind every candidate, and the shard
        worker's RPC."""
        pos = self.pos
        if pos >= self._n:
            return
        payloads = self.payloads
        payload = payloads[pos : pos + 1] if payloads.ndim > 1 else (payloads.item(pos),)
        _apply(
            self.sources, self.engine, (self.times.item(pos),),
            (self.ids.item(pos),), payload,
        )
        self.pos = self.proven = pos + 1
        self.stats["dispatches"] += 1

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
    def _bails(self, start: int) -> bool:
        """Switch to the event strategy when, proving from *start*, the
        workload shows itself too lively for pre-scanning: from then on
        the cursor claims nothing — every record from ``pos`` is its own
        candidate — and reads no write log."""
        dispatches = self.stats["dispatches"]
        if dispatches < _BAILOUT_MIN_DISPATCHES or dispatches <= _BAILOUT_RATE * start:
            return False
        self.per_event, self.proven = True, self.pos
        self.stats["dispatch_bailout_at"] = int(self.pos)
        for table in self._tables:
            table.write_log = None
        return True

    def _scan(self, start: int) -> list[int]:
        """Evaluate the next stretch from *start* in one shot against
        the live columns; its potential crossings become the claim, and
        the write logs start over."""
        end = min(start + self._size, self._n)
        self.stats["chunk_scans"] += 1
        mask = self._prescan.crossing_mask(
            self.ids[start:end], self.payloads[start:end]
        )
        self._hits = hits = (np.flatnonzero(mask) + start).tolist()
        self._base, self._end = start, end
        self._size = min(self._max_chunk, 2 * self._size)
        self._links = None
        _open_write_logs(self._tables)
        return hits

    def _recheck(self, pos: int) -> bool:
        """Re-test the records in ``[pos, end)`` of the rows the write
        logs name against their rows' filters now, in Python scalars,
        and keep the claim (``True``); ``False`` when the claim must
        drop: every row or more than :data:`RECHECK_ROWS` rows named,
        or records to re-test, or vector payloads.  The first re-test of
        a stretch finds a row's records with one compare over the rest
        of it; the second links the rest (:func:`~repro.state.runs.
        next_in_stream`), so a stretch with one write pays no links and
        one with many pays them once."""
        rows = set()
        for table in self._tables:
            logged = logged_rows(table)
            if logged is None:
                return False  # the scan behind a dropped claim empties the rest
            rows.update(logged)
        if len(rows) > RECHECK_ROWS or self.payloads.ndim != 1:
            return False
        end, hits, links = self._end, self._hits, self._links
        if links is None:  # the stretch's first write: no links yet
            self._links = ()
        elif not links:  # its second: link the rest of the stretch
            rest = self.ids[pos:end]
            first = np.full(len(self.sources), -1, dtype=np.int64)
            # Written backwards, a row keeps its first record: the last
            # write wins (tests/state/test_scatter_order.py).
            first[rest[::-1]] = np.arange(end - 1, pos - 1, -1)
            following = (next_in_stream(rest) + pos).tolist()
            self._links = links = pos, first, following
        ids, payloads = self.ids, self.payloads
        budget = RECHECK_ROWS  # records: past it a re-scan is cheaper
        for row in rows:
            if links:
                base, first, following = links
                records, k = [], first.item(row)
                if base <= k < end and ids.item(k) == row:
                    while k < end:
                        if k >= pos:
                            records.append(k)
                        k = following[k - base]
                    first[row] = records[0] if records else end
            else:
                records = (np.flatnonzero(ids[pos:end] == row) + pos).tolist()
            budget -= len(records)
            if budget < 0:
                return False
            filters = self._prescan.bounds(row) if records else ()
            for k in records:
                value, crosses = payloads.item(k), filters is None
                for lower, upper, inside in filters or ():
                    if (lower <= value <= upper) != inside:
                        crosses = True
                        break
                at = bisect_left(hits, k)
                if at < len(hits) and hits[at] == k:
                    if not crosses:
                        del hits[at]
                elif crosses:
                    hits.insert(at, k)
        return True


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
    (:func:`live_interval`, the gate's one whole-table pass).  Anything
    else goes to the cursor; a latency model never gets here
    (:func:`resolve_mode`).
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
    batch_size, frontiers, crossings=None, previous=None,
) -> dict:
    """Apply whole spans — reports included — columnarly.

    A source believes the side of its last record, so a row on the
    :func:`live_interval` reports exactly at a *crossing*: a record
    whose containment differs from its stream's previous record's.
    Crossings are the trace's alone: *crossings* ``(lower, upper)``
    returns their sorted indices (none outside a span is read) — a
    trace's memo (:meth:`~repro.streams.trace.StreamTrace.crossings`),
    else the bare arrays' own, from the population's values as the call
    begins (not the believed plane: a silenced row holds its silencer's
    side) over *previous* (built when not supplied).
    A span keeps the crossings whose row still holds the interval;
    :meth:`~repro.protocols.base.FilterProtocol.absorb_reports` says how
    many are quiet, and those cost one ledger count and one time-ordered
    scatter per plane (``tests/state/test_scatter_order.py``).  The
    first reacting report ends the span and takes :func:`_apply`; if it
    wrote a constraint, only the rows the table's write log names are
    re-checked (:func:`logged_interval`): rows moved whole to one new
    interval have the provider asked again, rows split across two
    replay the rest of the call per event (``dispatch_bailout_at``).
    A span holds at most :data:`DEFAULT_BATCH_SIZE` crossings (twice
    the absorbed prefix, at least :data:`DEFAULT_MIN_CHUNK`, behind a
    reaction), *batch_size* records when given, and nothing past the
    frontier last taken; a frontier past the records raises.
    ``chunk_scans`` counts spans.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if crossings is None:
        previous = previous_in_stream(stream_ids) if previous is None else previous
        bare = StreamTrace(sources.values.copy(), times, stream_ids, payloads, math.inf)
        bare.previous_record = previous
        crossings = bare.crossings
    n, columns = len(times), (times, stream_ids, payloads)
    stats = replay_stats("batch", "columnar", n)
    lower, upper, held = live_interval(table)
    hits, i, take = None, 0, DEFAULT_BATCH_SIZE
    _open_write_logs((table,))
    for frontier in frontiers:
        if frontier > n:
            raise ValueError("frontiers must ascend to exactly len(times)")
        while i < frontier and lower is not None:
            if hits is None:
                hits = crossings(lower, upper)
            end = min(frontier, i + (batch_size or n))
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
            if table.write_log:  # the reaction wrote constraints
                interval = (lower, upper)
                lower, upper, held = logged_interval(table, interval, held)
                if (lower, upper) != interval:
                    hits = None
                    stats["dispatch_bailout_at"] = i if lower is None else None
        if i < frontier:  # the rows hold two intervals: per event
            _apply(sources, engine, *(c[i:frontier].tolist() for c in columns))
            stats["dispatches"] += frontier - i
            i = frontier
    table.write_log = None
    return stats


def logged_interval(table, interval, held) -> tuple:
    """:func:`live_interval` after a reaction, from *table*'s write log:
    the *interval* and its *held* rows stand but for the rows the log
    names, each now on the interval (held) or on a silencer (not);
    a row on any other interval, or a log naming every row or more
    than :data:`RECHECK_ROWS`, takes the whole-table pass."""
    rows = logged_rows(table)
    if rows is None:
        return live_interval(table, interval)
    lower, upper = interval
    lows, highs = table.lower, table.upper
    for row in rows:
        low, high = lows.item(row), highs.item(row)
        if low == lower and high == upper:
            if held is not None:
                held[row] = True
        elif high == math.inf and math.isinf(low):  # a silencer
            if held is None:
                held = np.ones(len(lows), dtype=bool)
            held[row] = False
        else:
            return live_interval(table, interval)
    return lower, upper, held


def live_interval(table, guess=(math.nan, math.nan)) -> tuple:
    """``(lower, upper, held)``: the interval every row off a silencer
    (``[-inf, +inf]``, ``[+inf, +inf]``) holds and the rows that hold it
    (``None``: every row) — ``None`` bounds when such rows hold two, the
    *guess* when there are none (``nan``: containing nothing).  A few
    element-wise passes over every row: the gate's and the kernel's
    first reading, then only behind a write the log cannot narrow
    (:func:`logged_interval`)."""
    lower, upper = table.lower, table.upper
    held = (lower == guess[0]) & (upper == guess[1])
    live = ~held & ((upper != math.inf) | ~np.isinf(lower))
    if not live.any():
        return (*guess, None if held.all() else held)
    low, high = lower[live], upper[live]
    if held.any() or (low != low[0]).any() or (high != high[0]).any():
        return None, None, None
    return float(low[0]), float(high[0]), None if live.all() else live


def _open_write_logs(tables) -> None:
    """Open — or empty — each table's write log: the reader's rows
    start here."""
    for table in tables:
        table.write_log = []


def logged_rows(table) -> list[int] | None:
    """The rows *table*'s open write log names (repeats kept), emptying
    it; ``None`` when an entry stands for every row or they number
    more than :data:`RECHECK_ROWS`."""
    log, table.write_log = table.write_log, []
    rows: list[int] = []
    for entry in log:
        if type(entry) is int:
            rows.append(entry)
        elif entry is None:
            return None
        elif isinstance(entry, np.integer):
            rows.append(int(entry))
        elif len(entry) > RECHECK_ROWS:  # a column, or a range: never listed
            return None
        else:
            rows.extend(entry.tolist() if isinstance(entry, np.ndarray) else entry)
    return rows if len(rows) <= RECHECK_ROWS else None


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

    def bounds(self, row: int) -> list[tuple] | None:
        """:meth:`crossing_mask` for one row's scalar records, in Python
        scalars: ``(lower, upper, inside)`` of each table whose filter
        guards *row* — a record may flip iff its containment in one
        differs from that ``inside`` — or ``None`` when none does (every
        record may report)."""
        filters = [
            (table.lower.item(row), table.upper.item(row), table.inside.item(row))
            for table in self._tables
            if table.scannable.item(row)
        ]
        return filters or None
