"""Process-parallel sharded serving for *coupled* protocols.

The fan-out path (``api.engine._execute_streams_fanout``) only covers
protocols whose maintenance is decomposable — shards replay with no
server feedback at all.  Everything else (RTP, ZT-RP, FT-RP, FT-NRP)
is coupled through the coordinator: every crossing triggers probes,
rank reads and constraint redeployments that reach across shards.  This
module runs those protocols across real worker *processes* while
keeping the message ledger byte-identical to sequential sharded
serving (DESIGN.md §10).

It serves exactly one cell of the deployment space: synchronous
delivery, no checking.  A latency model or a tolerance checker is
in-process work either way — the reaction and every check run on the
coordinator — so the engine compiles those ``parallel=True`` cells onto
the sequential sharded session instead (DESIGN.md §17), and nothing
here replays a delivery delay or an oracle across a pipe.

Three pieces:

* :class:`ShardWorker` — the per-process shard runtime.  It owns its
  shard's trace slice and a *local* :class:`~repro.state.table.
  StreamStateTable` + source population (local ids throughout; the
  coordinator translates at the RPC boundary), drives the replay
  cursor of DESIGN.md §9 over them, and answers the seven-op request
  vocabulary of :attr:`ShardWorker.OPS`: ``scan`` (the cursor's
  candidate as a *global trace position*), ``advance`` (bulk-stage a
  proven-quiescent prefix), ``dispatch`` (apply one record per-event
  and return the captured uplink messages), ``probe`` /
  ``probe_batch`` / ``deploy_batch`` (the control plane, forwarding to
  the sources through a real channel so membership semantics are
  exactly the sequential ones) and ``finish``.

* :class:`CoordinatorBus` — pipes + pickle framing to the workers.
  Replies are gathered at a barrier and handed back in posting order,
  so OS scheduling of the worker processes is invisible to the
  coordinator.  Byte counters feed the serialization cost model; every
  receive polls with a liveness check so a dead worker raises
  :class:`TransportError` instead of hanging.

* :class:`TransportShardedServer` — the coordinator.  It exposes the
  exact control plane of :class:`~repro.server.server.Server` (so the
  protocols run unmodified), mirrors the value plane in a full
  :class:`StreamStateTable` behind per-shard
  :class:`~repro.state.sharding.StateShardView`s and the k-way
  :class:`~repro.state.sharding.ShardedRankView` merge, charges *all*
  messages to its own ledger (the ledger is an order-insensitive
  (phase, kind) multiset, so charging at the coordinator instead of at
  each worker's channel cannot change it), and drives the replay in
  epochs: scan the dirty workers in parallel, pick the minimum global
  trace position among the per-shard candidates (positions are unique,
  so the winner is exactly the record sequential replay would dispatch
  next), advance everyone past it, dispatch it at its owner, and run
  the protocol's reaction through buffered, batched constraint
  deployments that preserve the sequential self-correction FIFO.

Worker and coordinator are written once against the payload
:class:`~repro.runtime.vocabulary.Vocabulary` (DESIGN.md §13): message
classes, population constructor and trace columns are fields they read, and the
one part of the wire that is a different algorithm per vocabulary —
how a deploy flush is framed (raw interval columns vs region frames)
and installed — is a pair of functions the vocabulary points to.
:class:`SpatialTransportShardedServer` is the coordinator bound to the
spatial vocabulary.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import time as _time
import traceback
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.network.accounting import MessageLedger, Phase
from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.protocols.base import FilterProtocol
from repro.runtime.dispatch import DeferredDeliveryMixin
from repro.runtime.replay import ReplayCursor
from repro.runtime.vocabulary import Vocabulary, VocabularyBound, vocabulary_of
from repro.sim.engine import SimulationEngine
from repro.state.sharding import (
    ShardedRankView,
    StateShardView,
    owner_runs,
    shard_ranges,
    validate_shard_alignment,
)
from repro.state.table import StreamStateTable
from repro.streams.control import probe_sources
from repro.streams.vocabulary import SCALAR


class TransportError(RuntimeError):
    """A shard worker died, desynchronized, or violated the protocol."""


#: Sentinel a worker handler returns for fire-and-forget requests.
_NO_REPLY = object()

#: Seconds a coordinator receive waits before declaring a worker hung.
_RECV_TIMEOUT = 60.0

#: Poll granularity of the liveness-checking receive loop.
_POLL_INTERVAL = 0.05


# ----------------------------------------------------------------------
# The worker-process side
# ----------------------------------------------------------------------
class ShardWorker:
    """One shard's runtime, living in its own process.

    Ids are *local* throughout (0-based within the shard); only the
    trace positions in ``gpos`` are global, because the coordinator's
    dispatch order is decided on them.  The worker's channel, engine,
    table and ledger are private — the ledger is a throwaway (all
    charging happens at the coordinator); the table exists so the
    population's write-through gives the replay cursor (DESIGN.md §9)
    live constraint columns; the replay ops only translate between the
    coordinator's global positions and cursor indices.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        index: int,
        initial_values: np.ndarray,
        times: np.ndarray,
        local_ids: np.ndarray,
        values: np.ndarray,
        gpos: np.ndarray,
    ) -> None:
        self.vocabulary = vocabulary
        self.index = int(index)
        self.times = np.asarray(times, dtype=np.float64)
        self.local_ids = np.asarray(local_ids, dtype=np.int64)
        #: Record payloads: ``(m,)`` scalars or an ``(m, d)`` matrix.
        self.values = np.asarray(values, dtype=np.float64)
        self.gpos = np.asarray(gpos, dtype=np.int64)
        self.engine = SimulationEngine()
        self.ledger = MessageLedger()  # throwaway; coordinator charges
        self.channel = Channel(self.ledger)
        self.sources = vocabulary.population(
            initial_values, [self.channel], [(0, len(initial_values))]
        )
        self.channel.bind_server(self._handle_uplink)
        self.table = StreamStateTable(len(self.sources))
        self.sources.bind_state(self.table)
        #: Captured uplinks: ``(local id, payload, time)``.
        self.outbox: list[tuple] = []
        self._probe_reply: Message | None = None
        self.busy_seconds = 0.0

    @cached_property
    def cursor(self) -> ReplayCursor:
        """The shard's replay cursor, built at the first replay op —
        ``auto`` must judge the filter state initialization left."""
        return ReplayCursor(
            self.times,
            self.local_ids,
            self.values,
            sources=self.sources,
            tables=[self.table],
            channels=[self.channel],
            engine=self.engine,
        )

    # -- channel plumbing ----------------------------------------------
    def _handle_uplink(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REPLY:
            self._probe_reply = message
            return
        if message.kind is MessageKind.UPDATE:
            self.outbox.append(
                (
                    int(message.stream_id),
                    self.vocabulary.payload_of(message),
                    float(message.time),
                )
            )
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"worker received unexpected uplink {message.kind}"
        )

    # -- replay: global positions <-> cursor indices ---------------------
    def scan(self) -> int | None:
        """The shard's candidate as a *global trace position*."""
        k = self.cursor.candidate()
        return None if k is None else int(self.gpos[k])

    def _advance_to(self, k: int, op: str) -> None:
        try:
            self.cursor.advance(k)
        except ValueError as exc:
            raise TransportError(f"worker {self.index}: {op} {exc}") from exc

    def advance(self, g: int) -> None:
        """Bulk-stage every local record with global position < *g*.

        Sound because the coordinator only advances to the minimum of
        the per-shard candidates: every local record before it lies in
        this worker's proven-quiescent window.
        """
        self._advance_to(
            int(np.searchsorted(self.gpos, int(g), side="left")), "advance"
        )

    def dispatch(self, g: int) -> list[tuple]:
        """Apply the record at global position *g* per-event.

        Returns the captured uplink messages (at most one: the update
        the crossing produced, or none when the conservative mask
        over-claimed), as ``(local id, payload, time)`` tuples.
        """
        self.advance(g)
        k = self.cursor.pos
        if k >= len(self.times) or int(self.gpos[k]) != int(g):
            raise TransportError(
                f"worker {self.index}: asked to dispatch position {g}, "
                f"next unconsumed is "
                f"{int(self.gpos[k]) if k < len(self.times) else None}"
            )
        self.outbox.clear()
        self.cursor.dispatch()
        return list(self.outbox)

    # -- control plane --------------------------------------------------
    def probe(self, local_id: int, time: float):
        """One probe round-trip against the local source: ``(payload,
        reply time)``."""
        self._probe_reply = None
        self.channel.send_to_source(
            self.vocabulary.probe_request(int(local_id), float(time))
        )
        reply = self._probe_reply
        if reply is None:  # pragma: no cover - defensive
            raise TransportError(
                f"worker {self.index}: source {local_id} did not reply"
            )
        return self.vocabulary.payload_of(reply), float(reply.time)

    def probe_batch(
        self, local_ids, time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe several local sources; replies as parallel arrays (the
        payloads an ``(m,)`` column or an ``(m, d)`` matrix).

        One columnar operation when the batch qualifies (DESIGN.md §12);
        region filters keep the per-message round-trips.
        """
        local_ids = np.asarray(local_ids, dtype=np.int64)
        times = np.full(len(local_ids), float(time))
        payloads = probe_sources(self.channel, self.table, local_ids)
        if payloads is None:
            payloads = np.array(
                [self.probe(local_id, time)[0] for local_id in local_ids.tolist()],
                dtype=np.float64,
            )
        return payloads, times

    def deploy_batch(self, local_ids, *wire):
        """Install one shipped constraint batch in order; return the
        self-corrections in order.

        The batch arrives in the vocabulary's wire shape (parallel
        numpy interval columns, or a region frame) followed by the
        belief codes (int8: :data:`BELIEF_NONE`, 0 outside, 1 inside)
        and the send times; installing it is the vocabulary's
        ``install_batch``.
        """
        self.outbox.clear()
        return self.vocabulary.install_batch(self, local_ids, *wire)

    def finish(self, horizon: float | None) -> dict:
        """Commit the proven-quiescent tail, settle the clock at the
        horizon, and return the replay stats."""
        self._advance_to(len(self.times), "finish")
        if horizon is not None and horizon > self.engine.now:
            self.engine.run(until=horizon)
        stats = dict(self.cursor.stats)
        stats["kernel"] = "transport"
        stats["busy_seconds"] = self.busy_seconds
        return stats

    # -- request demux ---------------------------------------------------
    #: The RPC vocabulary: op -> handler.  Every op is answered except
    #: ``advance``, which is fire-and-forget (``stop`` ends the serve
    #: loop in :func:`_worker_main` and never reaches a worker).
    OPS = {
        "scan": scan,
        "advance": advance,
        "dispatch": dispatch,
        "probe": probe,
        "probe_batch": probe_batch,
        "deploy_batch": deploy_batch,
        "finish": finish,
    }

    def handle(self, request: tuple):
        """Demux one ``(op, *arguments)`` request through :attr:`OPS`."""
        op, *arguments = request
        handler = self.OPS.get(op)
        if handler is None:
            raise TransportError(f"worker {self.index}: unknown request {op!r}")
        reply = handler(self, *arguments)
        return _NO_REPLY if op == "advance" else reply


def _worker_main(conn, spec: dict) -> None:
    """Process entrypoint: build the shard runtime, serve requests.

    Every request that expects a reply is answered with an ``("ok",
    payload)`` envelope; a handler exception sends ``("err",
    traceback)`` and exits, so the coordinator either reads the error
    or detects the dead process — never hangs.  Cumulative busy time
    (deserialize + handle + serialize) feeds the capacity model.
    """
    try:
        worker = ShardWorker(**spec)
    except Exception:  # pragma: no cover - construction is deterministic
        try:
            conn.send_bytes(pickle.dumps(("err", traceback.format_exc())))
        finally:
            conn.close()
        return
    try:
        while True:
            data = conn.recv_bytes()
            started = _time.perf_counter()
            request = pickle.loads(data)
            if request[0] == "stop":
                break
            try:
                reply = worker.handle(request)
            except BaseException:
                conn.send_bytes(pickle.dumps(("err", traceback.format_exc())))
                break
            if reply is not _NO_REPLY:
                conn.send_bytes(pickle.dumps(("ok", reply)))
            worker.busy_seconds += _time.perf_counter() - started
    except (EOFError, OSError, KeyboardInterrupt):  # coordinator went away
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The coordinator side
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    index: int
    lo: int
    hi: int
    process: object
    conn: object


@dataclass
class BusStats:
    """Serialization + coordination counters (DESIGN.md §10)."""

    posts: int = 0
    replies: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    recv_wait_seconds: float = 0.0


class CoordinatorBus:
    """Pipes to the workers + deterministic reply collection.

    Requests are posted fire-and-forget (pickle framing over
    ``Connection.send_bytes``, counted for the serialization cost
    model).  :meth:`collect` is a barrier: it receives one reply per
    requested worker — polling with a liveness check so a crashed
    worker raises :class:`TransportError` promptly — and hands them
    back in the order they were asked for.  Because the barrier waits
    for *all* replies before releasing any, OS scheduling of the worker
    processes cannot leak into the coordinator's view, which is the
    transport's determinism anchor.
    """

    def __init__(self, handles: Sequence[_WorkerHandle]) -> None:
        self._handles = list(handles)
        self.stats = BusStats()

    def handle(self, index: int) -> _WorkerHandle:
        return self._handles[index]

    def post(self, index: int, request: tuple) -> None:
        handle = self._handles[index]
        data = pickle.dumps(request)
        self.stats.posts += 1
        self.stats.bytes_out += len(data)
        try:
            handle.conn.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(
                f"shard worker {index} [{handle.lo}, {handle.hi}) is gone: "
                f"{exc}"
            ) from exc

    def _recv(self, index: int, timeout: float = _RECV_TIMEOUT):
        handle = self._handles[index]
        deadline = _time.perf_counter() + timeout
        waited_from = _time.perf_counter()
        try:
            while not handle.conn.poll(_POLL_INTERVAL):
                if not handle.process.is_alive():
                    raise TransportError(
                        f"shard worker {index} [{handle.lo}, {handle.hi}) "
                        f"died (exit code {handle.process.exitcode})"
                    )
                if _time.perf_counter() > deadline:
                    raise TransportError(
                        f"shard worker {index} did not reply within "
                        f"{timeout:.0f}s"
                    )
            data = handle.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise TransportError(
                f"shard worker {index} closed its pipe mid-reply"
            ) from exc
        finally:
            self.stats.recv_wait_seconds += _time.perf_counter() - waited_from
        self.stats.replies += 1
        self.stats.bytes_in += len(data)
        status, payload = pickle.loads(data)
        if status != "ok":
            raise TransportError(
                f"shard worker {index} failed:\n{payload}"
            )
        return payload

    def collect(self, indices: Sequence[int]) -> list:
        """Barrier-receive one reply from each of *indices*, in order."""
        return [self._recv(index) for index in indices]

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.conn.send_bytes(pickle.dumps(("stop",)))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stop suffices
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class TransportShardedServer(VocabularyBound, DeferredDeliveryMixin):
    """Coordinator for coupled protocols over worker processes.

    Exposes the Server control plane (``probe``, ``probe_all``,
    ``deploy``, ``deploy_many``, ``broadcast``, ``state``, ``rank_view``,
    ``stream_ids``, ``n_streams``, ``now``) so protocols run unmodified.

    Why the ledger is byte-identical to sequential sharded serving:

    * **Dispatch order.**  Per-shard candidates are *global trace
      positions*; positions are unique, so the minimum is exactly the
      record sequential replay dispatches next, and every earlier
      record is covered by some shard's quiescence proof.
    * **Message multiset.**  The ledger counts (phase, kind) pairs and
      is order-insensitive within a phase, so charging each probe,
      constraint, update and self-correction at the coordinator — at
      the virtual time and phase the sequential coordinator would
      charge it — yields the identical snapshot no matter how the RPC
      batching groups the wire traffic.
    * **Reaction ordering.**  Constraint deployments are buffered and
      flushed (a) before any probe, and (b) at the end of every
      protocol step; returned self-corrections join the coordinator's
      global deferred-delivery FIFO in flush order.  Both points are
      exactly where the sequential coordinator's messages take effect,
      and ``_now`` is constant within a step, so times match too.
    * **Stage-before-reaction.**  ``advance`` is posted to every other
      worker *before* the owner's dispatch reply is processed; pipe
      FIFO then guarantees each worker stages its quiescent prefix
      against the pre-reaction columns it was proven under, before any
      of the reaction's probes or deployments can touch them.
    """

    stack = SCALAR.stack

    def __init__(
        self,
        trace,
        protocol: FilterProtocol,
        n_shards: int,
    ) -> None:
        self.vocabulary = vocabulary_of(self.stack)
        self.protocol = protocol
        self._now = 0.0
        self.trace = trace
        n = trace.n_streams
        self.ranges = shard_ranges(n, n_shards)
        self._state = StreamStateTable(n)
        self.shard_views = [
            StateShardView(self._state, lo, hi) for lo, hi in self.ranges
        ]
        validate_shard_alignment(self._state, self.shard_views)
        self._bounds = [hi for _, hi in self.ranges]
        self.ledger = MessageLedger()
        #: Buffered single deploys since the last flush or column chunk
        #: (constraint messages), and the batches before them — sealed
        #: message lists and ``deploy_many`` column tuples — together,
        #: the deploys in call order.
        self._deploy_buffer: list[Message] = []
        self._deploy_batches: list = []
        self._dirty: set[int] = set(range(len(self.ranges)))
        self._epochs = 0
        self._worker_stats: list[dict] | None = None
        self.bus: CoordinatorBus | None = None
        self._init_delivery()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def launch(self) -> "TransportShardedServer":
        """Spawn one worker process per shard and open the bus."""
        if self.bus is not None:
            return self
        trace = self.trace
        vocabulary = self.vocabulary
        initials = getattr(trace, vocabulary.initial_column)
        payloads = getattr(trace, vocabulary.record_column)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # Freeze the parent heap before forking: otherwise every object
        # the coordinator process has ever allocated (and, under pytest,
        # the whole test session) lands in the workers' collectible
        # generations, and their gen-2 collections pay to traverse it on
        # every cycle of the replay hot loop.
        gc.collect()
        gc.freeze()
        handles = []
        try:
            for index, (lo, hi) in enumerate(self.ranges):
                keep = (trace.stream_ids >= lo) & (trace.stream_ids < hi)
                spec = {
                    "vocabulary": vocabulary,
                    "index": index,
                    # Copied: the spec crosses a fork.
                    "initial_values": np.array(initials[lo:hi], np.float64),
                    "times": trace.times[keep],
                    "local_ids": (trace.stream_ids[keep] - lo).astype(
                        np.int64
                    ),
                    "values": payloads[keep],
                    "gpos": np.nonzero(keep)[0].astype(np.int64),
                }
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    daemon=True,
                    name=f"shard-worker-{index}",
                )
                process.start()
                child_conn.close()
                handles.append(
                    _WorkerHandle(index, lo, hi, process, parent_conn)
                )
        except BaseException:
            for handle in handles:
                handle.process.terminate()
            raise
        finally:
            gc.unfreeze()
        self.bus = CoordinatorBus(handles)
        return self

    def close(self) -> None:
        if self.bus is not None:
            self.bus.close()
            self.bus = None

    def __enter__(self) -> "TransportShardedServer":
        return self.launch()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _require_bus(self) -> CoordinatorBus:
        if self.bus is None:
            raise TransportError(
                "transport not launched; use it as a context manager"
            )
        return self.bus

    # ------------------------------------------------------------------
    # Server-compatible surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def n_shards(self) -> int:
        return len(self.ranges)

    @property
    def n_streams(self) -> int:
        return self._state.n_streams

    @property
    def stream_ids(self) -> list[int]:
        return list(range(self._state.n_streams))

    @property
    def state(self) -> StreamStateTable:
        """The coordinator's mirror table (value + protocol planes).

        The workers own the *filter* plane (bounds or quiescence boxes
        + believed membership written through by their sources); the
        coordinator mirrors every write a sequential coordinator's table
        would see from its own half — probe replies, update deliveries,
        deploy records, protocol answer/tracked/silencer planes — which
        is all the protocols ever read.
        """
        return self._state

    def rank_view(self, distance_array: Callable) -> ShardedRankView:
        return ShardedRankView(self.shard_views, distance_array)

    def initialize(self, time: float = 0.0) -> None:
        self._require_bus()
        self.ledger.phase = Phase.INITIALIZATION
        self._now = time
        self._guarded_call(self.protocol.initialize, self)
        self.ledger.phase = Phase.MAINTENANCE

    def snapshot(self):
        return self.ledger.snapshot()

    # ------------------------------------------------------------------
    # Control plane (RPC-backed, coordinator-charged)
    # ------------------------------------------------------------------
    def _view_for(self, stream_id: int) -> tuple[int, StateShardView]:
        index = bisect_right(self._bounds, stream_id)
        return index, self.shard_views[index]

    def _rpc(self, index: int, request: tuple):
        """Post one request to worker *index* and wait for its reply."""
        bus = self._require_bus()
        bus.post(index, request)
        (reply,) = bus.collect([index])
        return reply

    def probe(self, stream_id: int):
        """Probe one source at its worker (2 messages, charged here)."""
        self._flush_deploys()
        index, view = self._view_for(stream_id)
        self.ledger.record_kind(MessageKind.PROBE_REQUEST)
        payload, time = self._rpc(
            index, ("probe", int(stream_id) - view.lo, self._now)
        )
        self.ledger.record_kind(MessageKind.PROBE_REPLY)
        view.record_report(int(stream_id) - view.lo, payload, time)
        self._dirty.add(index)
        return payload

    def probe_all(self, stream_ids=None) -> np.ndarray:
        """Probe several (default: all) sources' payloads, aligned with
        the ids; one RPC per worker run.

        The ledger charge (one request + one reply per stream) and the
        per-stream report recording are identical to probing one by
        one; only the wire framing is batched.
        """
        self._flush_deploys()
        targets = np.arange(self.n_streams) if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        runs = []
        for index, a, b in owner_runs(self._bounds, ids):
            view = self.shard_views[index]
            rows = ids[a:b] - view.lo
            self.ledger.record_kind(MessageKind.PROBE_REQUEST, b - a)
            payloads, times = self._rpc(
                index, ("probe_batch", rows, self._now)
            )
            self.ledger.record_kind(MessageKind.PROBE_REPLY, b - a)
            self._dirty.add(index)
            view.record_report_rows(rows, payloads, times)
            runs.append(payloads)
        return np.concatenate(runs) if runs else np.empty(0)

    def deploy(self, stream_id: int, *constraint, **belief) -> None:
        """Buffer a constraint message; everything lands at the next flush.

        Deferral is invisible: the ledger charge moves within one phase
        (the flush points all precede the next phase flip, and the
        snapshot is an order-insensitive per-phase multiset); the
        mirror's bounds record is scatter-written at flush, before any
        read that could observe it (no protocol reads the constraint
        columns — the coordinator never scans — and the flush precedes
        every probe); the *source* effect and any self-correction land
        at the flush points, which precede every subsequent read of
        that source.  Keeping the hot ``deploy`` a bare append is what
        lets a 10k-stream bound broadcast cost one RPC per shard.
        """
        self._deploy_buffer.append(
            self.vocabulary.constraint(
                int(stream_id), self._now, *constraint, **belief
            )
        )

    def deploy_many(
        self, stream_ids, bound, assumed_inside=None, silenced=None
    ) -> None:
        """Buffer *bound* for each stream id, in order, as the columns
        the vocabulary lowers the call to (see :meth:`~repro.server.
        sharded.ShardedServer.deploy_many`); the flush frames them per worker."""
        if stream_ids is None:
            stream_ids = np.arange(self.n_streams)
        ids, constraint, belief = self.vocabulary.constraint_columns(
            stream_ids, bound, assumed_inside, silenced
        )
        self._seal_deploy_rows()
        self._deploy_batches.append(
            (ids, *constraint, belief, np.full(len(ids), self._now))
        )

    def broadcast(self, bound, assumed_inside=None) -> None:
        self.deploy_many(None, bound, assumed_inside)

    def _seal_deploy_rows(self) -> None:
        """Move the buffered single deploys into a batch of their own."""
        if self._deploy_buffer:
            self._deploy_batches.append(self._deploy_buffer)
            self._deploy_buffer = []

    def take_deploys(self, columns_of: Callable) -> tuple:
        """Hand over the buffered deploys (at least one), in call order,
        as one tuple of concatenated columns ``(ids, *constraint, belief,
        times)``: ``deploy_many`` chunks as buffered, runs of single
        deploys (constraint messages) through *columns_of*."""
        self._seal_deploy_rows()
        batches, self._deploy_batches = self._deploy_batches, []
        chunks = [
            batch if isinstance(batch, tuple) else columns_of(batch)
            for batch in batches
        ]
        return tuple(np.concatenate(column) for column in zip(*chunks))

    def _flush_deploys(self) -> None:
        """Transmit buffered constraints; queue their self-corrections.

        How the buffer is framed and mirrored is the vocabulary's
        ``flush_deploys`` (interval columns or region frames); it ends
        in :meth:`ship_deploys`.
        """
        if self._deploy_buffer or self._deploy_batches:
            self.vocabulary.flush_deploys(self)

    def ship_deploys(self, gids, assumed, times, wire) -> None:
        """Charge and transmit one framed deploy flush.

        Batches are consecutive same-worker runs ``[a, b)`` of the
        flush, each one ``deploy_batch`` RPC carrying ``wire(a, b)``, so
        the per-source install order is the sequential deploy order.  A
        stale-belief self-correction is charged as the update message
        the source sent (at the constraint's time — ``_now`` is
        constant within a step) and appended to the deferred-delivery
        FIFO, exactly where the sequential coordinator would queue the
        mid-step update; the caller's drain point dispatches it.
        """
        self.ledger.record_kind(MessageKind.CONSTRAINT, len(gids))
        for index, a, b in owner_runs(self._bounds, gids):
            lo = self.ranges[index][0]
            corrections = self._rpc(
                index,
                (
                    "deploy_batch",
                    gids[a:b] - lo,
                    *wire(a, b),
                    assumed[a:b],
                    times[a:b],
                ),
            )
            self._dirty.add(index)
            for item in corrections:
                self.ledger.record_kind(MessageKind.UPDATE)
                message = self._uplink_message(lo, item)
                if message.time > self._now:
                    self._now = message.time
                self._pending.append(message)

    # ------------------------------------------------------------------
    # Deferred delivery (the sequential re-entrancy discipline, plus
    # deploy-buffer flushing at every step boundary)
    # ------------------------------------------------------------------
    def _guarded_call(self, fn: Callable, *args) -> None:
        self._busy = True
        try:
            fn(*args)
        finally:
            self._busy = False
        self._flush_deploys()
        self._drain_pending()

    def _dispatch_one(self, item) -> None:
        self._busy = True
        try:
            self._handle_delivery(item)
        finally:
            self._busy = False
        self._flush_deploys()

    def _receive_update(self, message: Message) -> None:
        if message.time > self._now:
            self._now = message.time
        self._deliver(message)

    def _handle_delivery(self, message: Message) -> None:
        index, view = self._view_for(message.stream_id)
        payload = self.vocabulary.payload_of(message)
        view.record_report(message.stream_id - view.lo, payload, message.time)
        self.protocol.on_update(
            self, message.stream_id, payload, message.time
        )

    # ------------------------------------------------------------------
    # The epoch replay loop
    # ------------------------------------------------------------------
    def _uplink_message(self, lo: int, item) -> Message:
        """Reconstitute one captured worker uplink as a global message."""
        local_id, payload, time = item
        return self.vocabulary.update(int(local_id) + lo, float(time), payload)

    def replay(self, horizon: float | None = None) -> list[dict]:
        """Drive the full trace; returns the per-worker replay stats."""
        bus = self._require_bus()
        workers = range(len(self.ranges))
        candidates: dict[int, int] = {}
        while True:
            # Settle anything a previous epoch left queued (defensive;
            # step boundaries flush and drain already).
            self._flush_deploys()
            self._drain_pending()
            dirty = sorted(self._dirty)
            self._dirty = set()
            for index in dirty:
                bus.post(index, ("scan",))
            for index, candidate in zip(dirty, bus.collect(dirty)):
                if candidate is None:
                    candidates.pop(index, None)
                else:
                    candidates[index] = candidate
            self._epochs += 1
            if not candidates:
                break
            owner = min(candidates, key=candidates.get)
            g = candidates.pop(owner)
            for index in workers:
                if index != owner:
                    bus.post(index, ("advance", g))
            uplinks = self._rpc(owner, ("dispatch", g))
            self._dirty.add(owner)
            lo = self.ranges[owner][0]
            for item in uplinks:
                self.ledger.record_kind(MessageKind.UPDATE)
                self._receive_update(self._uplink_message(lo, item))
        for index in workers:
            bus.post(index, ("finish", horizon))
        self._worker_stats = bus.collect(workers)
        return list(self._worker_stats)

    def transport_stats(self) -> dict:
        """Coordination + serialization counters for the cost model."""
        out = {"epochs": self._epochs, "workers": len(self.ranges)}
        if self.bus is not None:
            out.update(asdict(self.bus.stats))
        if self._worker_stats is not None:
            out["worker_busy_seconds"] = [
                float(part.get("busy_seconds", 0.0))
                for part in self._worker_stats
            ]
        return out


class SpatialTransportShardedServer(TransportShardedServer):
    """:class:`TransportShardedServer` bound to the spatial vocabulary
    (DESIGN.md §13): probes move ``(m, d)`` coordinate frames, a deploy
    flush packs each owner run's regions into one region frame, and
    self-corrections return as point-batch frames."""

    stack = "spatial"
