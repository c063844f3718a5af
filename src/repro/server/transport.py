"""Process-parallel sharded serving for *coupled* protocols.

The fan-out path (``api.engine._execute_streams_fanout``) only covers
protocols whose maintenance is decomposable — shards replay with no
server feedback at all.  Everything else (RTP, ZT-RP, FT-RP, FT-NRP)
is coupled through the coordinator: every crossing triggers probes,
rank reads and constraint redeployments that reach across shards.  This
module runs those protocols across real worker *processes* while
keeping the message ledger byte-identical to sequential sharded
serving (DESIGN.md §10).

Three pieces:

* :class:`ShardWorker` — the per-process shard runtime.  It owns its
  shard's trace slice and a *local* :class:`~repro.state.table.
  StreamStateTable` + source population (local ids throughout; the
  coordinator translates at the RPC boundary), drives the replay
  cursor of DESIGN.md §9 over them, and answers a small request
  vocabulary: ``scan`` (the cursor's candidate as a *global trace
  position*), ``advance`` / ``advance_time`` (bulk-stage a
  proven-quiescent prefix), ``dispatch`` (apply one record per-event
  and return the captured uplink messages), ``probe`` /
  ``probe_batch`` / ``deploy_batch`` (the control plane, forwarding to
  the sources through a real channel so membership semantics are
  exactly the sequential ones), ``deliver``, ``settle`` and ``finish``.

* :class:`CoordinatorBus` — pipes + pickle framing to the workers,
  with reply collection through the same deterministic ``(delivery
  time, send seq)`` heap discipline as :class:`~repro.network.latency.
  LatencyChannel`: replies are gathered at a barrier, assigned modeled
  delivery times, and released in heap order, so OS scheduling of the
  worker processes is invisible and inter-shard coordination cost and
  modeled network delay are the same quantity.  Byte counters feed the
  serialization cost model; every receive polls with a liveness check
  so a dead worker raises :class:`TransportError` instead of hanging.

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
classes, source class, trace columns and in-flight frame codec are
fields they read, and the one part of the wire that is a different
algorithm per vocabulary — how a deploy flush is framed (raw interval
columns vs region frames) and installed — is a pair of functions the
vocabulary points to.  :class:`SpatialTransportShardedServer` is the
coordinator bound to the spatial vocabulary.  Checking runs ride the
transport too: the coordinator holds
the full trace, so it applies the oracle itself and evaluates the
tolerance checker at epoch boundaries (``replay(oracle_apply=...,
after_apply=...)``) — the protocol answer only changes at dispatches,
so boundary checks see exactly the answers sequential per-event
checking sees, while the workers keep their batched pre-scan.

Nonzero latency models ride the same epoch protocol through the
coordinator's **in-flight plane** (:class:`InFlightPlane`).  Each
worker channel is *externally stepped* — it never self-delivers from
its own engine — and every reply carries an aux envelope exporting the
channel's pending heap: uplinks extracted wholesale into columnar
frames (:mod:`repro.network.frames`, or the vocabulary's point-batch
variant), pending constraint installs as
delivery-key metadata (the install stays authoritative in the worker's
local heap).  The coordinator merges everything into one global heap
keyed by the channel's own ``(delivery time, send seq)`` discipline
and the epoch stepper advances to the earliest pending delivery
instead of assuming quiescence: plane entries due at or before the
next candidate record are delivered first — uplinks by the coordinator
itself, installs by clock-carrying ``deliver`` ops that replicate the
engine's batch-drain tie order and stop early on nested sends — so the
dispatch interleaving, and hence the ledger, stays byte-identical to
sequential sharded serving under the same model
(tests/server/test_transport_latency.py).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import multiprocessing
import pickle
import time as _time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.network.accounting import MessageLedger, Phase
from repro.network.frames import pack_pending, unpack_in_flight
from repro.network.messages import Message, MessageKind
from repro.network.latency import (
    LatencyChannel,
    as_latency_model,
    make_channel,
)
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
    membership write-through gives the replay cursor (DESIGN.md §9)
    live constraint columns; the replay ops only translate between the
    coordinator's global positions and times and cursor indices.
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
        latency_model,
        replay_mode: str,
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
        self.channel = make_channel(
            self.ledger, self.engine, latency_model, channel_index=index
        )
        self._latent = isinstance(self.channel, LatencyChannel)
        if self._latent:
            # Externally stepped: the channel never self-schedules
            # delivery events — the coordinator drives every deferred
            # delivery through explicit ``deliver`` ops so global
            # delivery order is decided on the merged in-flight plane.
            self.channel.external_delivery = True
        #: Highest send seq whose pending (downlink) entry has been
        #: exported to the coordinator's plane.
        self._exported_seq = -1
        self.sources = [
            vocabulary.source(stream_id, payload, self.channel)
            for stream_id, payload in enumerate(initial_values)
        ]
        self.channel.bind_server(self._handle_uplink)
        self.table = StreamStateTable(len(self.sources))
        for source in self.sources:
            source.membership.bind_state(self.table, source.stream_id)
        self.replay_mode = replay_mode
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
            mode=self.replay_mode,
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

    # -- the in-flight plane's worker half ------------------------------
    def _collect_aux(self):
        """Export the channel's pending heap after an operation.

        Uplinks are *extracted* — the coordinator delivers them itself
        from the merged plane, so they leave the local heap (flow
        counts and FIFO floors stay up until the coordinator's acks
        arrive, preserving zero-draw inline eligibility).  Downlinks
        stay authoritative in the local heap; only their delivery keys
        cross, once each, tracked by ``_exported_seq``.
        """
        if not self._latent:
            return None
        uplinks = self.channel.extract_in_flight(uplink=True)
        pending = self.channel.pending_after(self._exported_seq)
        if pending:
            self._exported_seq = max(seq for _, seq, _ in pending)
        if not uplinks and not pending:
            return None
        return {
            "uplinks": (
                self.vocabulary.pack_in_flight(uplinks) if uplinks else None
            ),
            "pending": pack_pending(pending) if pending else None,
        }

    def _apply_acks(self, times, streams) -> None:
        """Book plane-side uplink deliveries the coordinator performed."""
        for time, stream in zip(times.tolist(), streams.tolist()):
            self.channel.acknowledge_extracted(stream, time, is_uplink=True)

    def deliver(
        self, time: float, seq_limit: int, advance: bool
    ) -> tuple[list, int, bool]:
        """Deliver local heap entries up to ``(time, seq_limit)``.

        Replicates the engine's own stepping: each entry is delivered
        with the clock advanced to *its* delivery time (so cascade
        sends sample their delay at the correct ``engine.now``), and
        the loop stops early as soon as a delivery routes a new message
        so the coordinator can run the nested reaction before later
        same-batch installs fire.  With ``advance`` false the clock is
        frozen — the end-of-replay forced drain, exactly like
        :meth:`~repro.network.latency.LatencyChannel.drain_in_flight`.
        """
        self.outbox.clear()
        limit = (float(time), int(seq_limit))
        delivered = 0
        while True:
            head = self.channel.next_delivery_key
            if head is None or head > limit:
                return list(self.outbox), delivered, False
            if advance and head[0] > self.engine.now:
                self.engine.run(until=head[0])
            count, stopped = self.channel.deliver_due(
                head[0], head[1], stop_after_send=True
            )
            delivered += count
            if stopped:
                return list(self.outbox), delivered, True

    # -- replay: global positions and times <-> cursor indices ----------
    def scan(self) -> tuple[int | None, bool]:
        """The shard's candidate as a *global trace position*, and
        whether records remain behind the in-flight barrier with no
        candidate to show (the coordinator must then deliver from the
        plane before this shard can make progress)."""
        k, blocked = self.cursor.candidate()
        return (None if k is None else int(self.gpos[k])), blocked

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

    def advance_time(self, t: float) -> None:
        """Bulk-stage the proven-quiescent records with time below *t*.

        Issued to every worker just before the coordinator fires a
        plane delivery at *t*: the sequential engine consumes exactly
        the records strictly below a delivery's time before the
        delivery event fires, and the reaction's probes must read the
        sources at that same frontier.  Every such record is inside the
        proven window — the plane head is a lower bound on all
        candidates and on every worker's in-flight barrier.
        """
        self._advance_to(
            int(np.searchsorted(self.times, float(t), side="left")),
            "advance_time",
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
    def _advance_clock(self, clock) -> None:
        """Catch the local engine up to the coordinator's global clock.

        Externally-stepped channels schedule no engine events, so this
        moves time only — any delay sampling during the operation then
        happens at the same ``engine.now`` as in the sequential run.
        """
        if clock is not None and float(clock) > self.engine.now:
            self.engine.run(until=float(clock))

    def probe(self, local_id: int, time: float, clock: float | None = None):
        """One probe round-trip against the local source: ``(payload,
        reply time)``."""
        self._advance_clock(clock)
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
        self, local_ids, time: float, clock: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe several local sources; replies as parallel arrays (the
        payloads an ``(m,)`` column or an ``(m, d)`` matrix).

        One columnar operation when the batch qualifies (DESIGN.md §12);
        region filters and latency-modeled channels keep the per-message
        round-trips.
        """
        self._advance_clock(clock)
        local_ids = np.asarray(local_ids, dtype=np.int64)
        times = np.full(len(local_ids), float(time))
        payloads = probe_sources(self.channel, self.table, local_ids)
        if payloads is None:
            payloads = np.array(
                [self.probe(local_id, time)[0] for local_id in local_ids.tolist()],
                dtype=np.float64,
            )
        return payloads, times

    def deploy_batch(self, local_ids, *wire_and_clock):
        """Install one shipped constraint batch in order; return the
        self-corrections in order.

        The batch arrives in the vocabulary's wire shape (parallel
        numpy interval columns, or a region frame) followed by the
        belief codes (int8: :data:`BELIEF_NONE`, 0 outside, 1 inside),
        the send times and the coordinator clock; installing it is the
        vocabulary's ``install_batch``.
        """
        *wire, clock = wire_and_clock
        self._advance_clock(clock)
        self.outbox.clear()
        return self.vocabulary.install_batch(self, local_ids, *wire)

    def settle(self, horizon: float | None) -> None:
        """Commit the proven-quiescent tail and settle the clock.

        The worker half of the sequential end-of-replay sequence: stage
        everything proven, flush the staged writes, and run the engine
        out to the horizon (which fires nothing — deliveries are
        externally stepped — but freezes ``engine.now`` where the
        forced drain of the remaining plane entries expects it).
        """
        self._advance_to(len(self.times), "settle")
        self.cursor.close()
        if horizon is not None and horizon > self.engine.now:
            self.engine.run(until=horizon)

    def finish(self, horizon: float | None) -> dict:
        """Settle (idempotent after an explicit ``settle``) + stats."""
        self.settle(horizon)
        stats = dict(self.cursor.stats)
        stats["kernel"] = "transport"
        stats["busy_seconds"] = self.busy_seconds
        return stats

    # -- request demux ---------------------------------------------------
    def handle(self, request: tuple):
        """Demux one request; replied ops get an ``(payload, aux)``
        envelope whose aux half exports the channel's pending heap."""
        op = request[0]
        if op == "ack":
            self._apply_acks(request[1], request[2])
            return _NO_REPLY
        payload = self._handle_op(op, request)
        if payload is _NO_REPLY:
            return _NO_REPLY
        return payload, self._collect_aux()

    def _handle_op(self, op: str, request: tuple):
        if op == "scan":
            return self.scan()
        if op == "advance":
            self.advance(request[1])
            return _NO_REPLY
        if op == "advance_time":
            self.advance_time(request[1])
            return _NO_REPLY
        if op == "dispatch":
            return self.dispatch(request[1])
        if op == "deliver":
            return self.deliver(request[1], request[2], request[3])
        if op == "probe":
            return self.probe(request[1], request[2], request[3])
        if op == "probe_batch":
            return self.probe_batch(request[1], request[2], request[3])
        if op == "deploy_batch":
            return self.deploy_batch(*request[1:])
        if op == "settle":
            return self.settle(request[1])
        if op == "finish":
            return self.finish(request[1])
        raise TransportError(f"worker {self.index}: unknown request {op!r}")


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
    clock: float = 0.0

    def as_dict(self) -> dict:
        return {
            "posts": self.posts,
            "replies": self.replies,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "recv_wait_seconds": self.recv_wait_seconds,
            "coordination_clock": self.clock,
        }


class CoordinatorBus:
    """Pipes to the workers + deterministic reply collection.

    Requests are posted fire-and-forget (pickle framing over
    ``Connection.send_bytes``, counted for the serialization cost
    model).  :meth:`collect` is a barrier: it receives one reply per
    requested worker — polling with a liveness check so a crashed
    worker raises :class:`TransportError` promptly — then assigns each
    reply a modeled delivery time and releases them through the same
    ``(delivery time, send seq)`` heap discipline as ``LatencyChannel``.
    Because the barrier waits for *all* replies before releasing any,
    the release order is a pure function of the modeled delays and the
    posting order: OS scheduling of the worker processes cannot leak
    into the coordinator's view, which is the transport's determinism
    anchor.
    """

    def __init__(self, handles: Sequence[_WorkerHandle], latency_model=None) -> None:
        self._handles = list(handles)
        self._seq = itertools.count()
        sampler = (
            latency_model.make_sampler(channel=len(handles))
            if latency_model is not None
            else None
        )
        self._sample: Callable[[], float] = (
            (lambda: sampler(True)) if sampler is not None else (lambda: 0.0)
        )
        self.stats = BusStats()

    @property
    def n_workers(self) -> int:
        return len(self._handles)

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

    def collect(self, indices: Sequence[int]) -> list[tuple[int, object]]:
        """Barrier-receive from *indices*; release in deterministic order."""
        heap: list[tuple[float, int, int, object]] = []
        for index in indices:
            payload = self._recv(index)
            delivery = self.stats.clock + float(self._sample())
            heapq.heappush(heap, (delivery, next(self._seq), index, payload))
        out: list[tuple[int, object]] = []
        while heap:
            delivery, _, index, payload = heapq.heappop(heap)
            if delivery > self.stats.clock:
                self.stats.clock = delivery
            out.append((index, payload))
        return out

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


@dataclass(frozen=True)
class _PlaneEntry:
    """One in-flight message on the coordinator's merged plane."""

    time: float  #: modeled delivery time
    lseq: int  #: send seq on the owning worker's channel (FIFO tiebreak)
    worker: int
    stream: int  #: global stream id
    lstream: int  #: local stream row (ack + deliver vocabulary)
    uplink: bool
    send_time: float
    payload: object = field(default=None, compare=False)


class InFlightPlane:
    """The coordinator's merged in-flight heap (DESIGN.md §10.4).

    The cross-process generalization of one
    :class:`~repro.network.latency.LatencyChannel` heap: every worker's
    pending entries, merged under the same ``(delivery time, send seq)``
    discipline.  Global order is tracked by a lazy head heap ``(time,
    arrival seq, worker)`` — the transport analogue of the engine's
    one-event-per-send schedule, where an event that finds its message
    already delivered fires as a no-op — while each worker's entries
    live in a per-worker heap keyed ``(time, local send seq)``, because
    that local key is the order the worker's own engine would have
    delivered them in.

    The plane doubles as the latency *evidence* provider: it implements
    the :class:`~repro.correctness.staleness.StalenessWindow` channel
    API (``in_flight_count``, ``deferred_delivered_count``,
    ``in_flight_stream_ids``, ``recently_delivered_streams``,
    ``any_recently_delivered``) for
    messages whose flight crosses the process boundary.
    """

    def __init__(self) -> None:
        self._arrival = itertools.count()
        self._heads: list[tuple[float, int, int]] = []
        self._queues: dict[int, list[tuple[float, int, _PlaneEntry]]] = {}
        self._count = 0
        self._delivered = 0
        self._last_delivery: dict[int, float] = {}

    def push(self, entry: _PlaneEntry) -> None:
        heapq.heappush(
            self._heads, (entry.time, next(self._arrival), entry.worker)
        )
        heapq.heappush(
            self._queues.setdefault(entry.worker, []),
            (entry.time, entry.lseq, entry),
        )
        self._count += 1

    # -- stepping -------------------------------------------------------
    @property
    def next_delivery_time(self) -> float | None:
        """Earliest pending delivery time across all workers (exact)."""
        times = [queue[0][0] for queue in self._queues.values() if queue]
        return min(times) if times else None

    def next_group(self, limit: float) -> tuple[int, float] | None:
        """Consume the earliest head due at or before *limit*.

        Returns ``(worker, trigger time)`` for a head whose worker
        still has an entry due at that time; stale heads (their entry
        was delivered by an earlier group's drain) are discarded, the
        engine's no-op-event semantics.
        """
        while self._heads and self._heads[0][0] <= limit:
            time, _, worker = heapq.heappop(self._heads)
            queue = self._queues.get(worker)
            if queue and queue[0][0] <= time:
                return worker, time
        return None

    def take_run(self, worker: int, limit: float) -> list[_PlaneEntry]:
        """Remove and return what one delivery step of *worker* covers —
        nothing when it has no entry due at or before *limit*, else the
        uplink at the head of its queue, or its leading consecutive
        downlinks due by *limit* (the run one ``deliver`` op may
        consume).  A run stops at the first uplink because that
        delivery (and its reaction) belongs to the coordinator and must
        interleave at its exact heap position.

        The run leaves the queue *before* the RPC: the reply's aux can
        push entries that sort ahead of it (a self-correction sent
        under a frozen clock is due at ``horizon + delay``), so what
        was delivered cannot be found afterwards by position.
        """
        queue = self._queues.get(worker) or []
        run: list[_PlaneEntry] = []
        while (
            queue
            and queue[0][0] <= limit
            and not (run and (run[0].uplink or queue[0][2].uplink))
        ):
            run.append(heapq.heappop(queue)[2])
        return run

    def settle_run(
        self, worker: int, run: list[_PlaneEntry], delivered: int
    ) -> None:
        """Book the first *delivered* entries of a taken *run* as
        delivered and return the rest to the worker's queue (their
        heads are still on the head heap)."""
        for entry in run[:delivered]:
            self._count -= 1
            self._delivered += 1
            previous = self._last_delivery.get(entry.stream)
            if previous is None or entry.time > previous:
                self._last_delivery[entry.stream] = entry.time
        for entry in run[delivered:]:
            heapq.heappush(
                self._queues[worker], (entry.time, entry.lseq, entry)
            )

    def worker_pending(self, worker: int) -> bool:
        return bool(self._queues.get(worker))

    # -- staleness evidence (the LatencyChannel channel API) ------------
    @property
    def in_flight_count(self) -> int:
        return self._count

    @property
    def deferred_delivered_count(self) -> int:
        return self._delivered

    def in_flight_stream_ids(self) -> set[int]:
        return {
            entry.stream
            for queue in self._queues.values()
            for _, _, entry in queue
        }

    def recently_delivered_streams(
        self, time: float, window: float
    ) -> set[int]:
        cutoff = time - window
        return {
            stream
            for stream, delivered in self._last_delivery.items()
            if cutoff <= delivered <= time
        }

    def any_recently_delivered(self, time: float, window: float) -> bool:
        cutoff = time - window
        return any(
            cutoff <= delivered <= time
            for delivered in self._last_delivery.values()
        )


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
    * **In-flight order.**  Under a nonzero model every deferred
      message lives on the merged plane under its channel's own
      ``(delivery time, send seq)`` key, worker channels never
      self-deliver, and the stepper fires plane groups before any
      record at or past their delivery times — so deliveries, nested
      reactions, and dispatches interleave exactly as the sequential
      engine's event loop would have fired them (measure-zero
      cross-shard delivery-time ties excepted, where the global
      arrival order replaces the engine's insertion order).
    """

    stack = SCALAR.stack

    def __init__(
        self,
        trace,
        protocol: FilterProtocol,
        n_shards: int,
        latency=None,
        replay_mode: str = "auto",
    ) -> None:
        model = as_latency_model(latency)
        self.vocabulary = vocabulary_of(self.stack)
        self.protocol = protocol
        self._now = 0.0
        self.trace = trace
        self._latency_model = model
        self._replay_mode = replay_mode
        n = trace.n_streams
        self.ranges = shard_ranges(n, n_shards)
        self._state = StreamStateTable(n)
        self.shard_views = [
            StateShardView(self._state, lo, hi) for lo, hi in self.ranges
        ]
        validate_shard_alignment(self._state, self.shard_views)
        self._shard_of = np.empty(n, dtype=np.int64)
        for index, (lo, hi) in enumerate(self.ranges):
            self._shard_of[lo:hi] = index
        self.ledger = MessageLedger()
        #: Buffered single deploys since the last flush or column chunk
        #: (constraint messages), and the batches before them — sealed
        #: message lists and ``deploy_many`` column tuples — together,
        #: the deploys in call order.
        self._deploy_buffer: list[Message] = []
        self._deploy_batches: list = []
        self._dirty: set[int] = set(range(len(self.ranges)))
        #: Whether the model can defer deliveries across epochs; drives
        #: the in-flight-plane stepping and the settle/drain end phase.
        self._coupled = model is not None and not model.is_zero
        self._plane = InFlightPlane()
        #: Global event-time mirror (≥ every processed delivery/record
        #: time); distinct from ``_now``, which tracks message *send*
        #: times exactly as the sequential coordinator's clock does.
        self._clock = 0.0
        #: Per-worker buffered delivery acks, posted before the next op.
        self._acks: list[list[tuple[float, int]]] = [
            [] for _ in self.ranges
        ]
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
                    "latency_model": self._latency_model,
                    "replay_mode": self._replay_mode,
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
        self.bus = CoordinatorBus(handles, self._latency_model)
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
        self._clock = float(time)
        self._guarded_call(self.protocol.initialize, self)
        self.ledger.phase = Phase.MAINTENANCE

    def snapshot(self):
        return self.ledger.snapshot()

    # ------------------------------------------------------------------
    # Control plane (RPC-backed, coordinator-charged)
    # ------------------------------------------------------------------
    def _view_for(self, stream_id: int) -> tuple[int, StateShardView]:
        index = int(self._shard_of[int(stream_id)])
        return index, self.shard_views[index]

    def _post(self, index: int, request: tuple) -> None:
        """Post a request, preceded by any buffered delivery acks.

        Acks retire the worker-local flow bookkeeping of uplinks the
        coordinator delivered from the plane; batching them onto the
        next real request keeps them off the hot path while pipe FIFO
        guarantees they land before the operation that might send on
        the same flow.
        """
        bus = self._require_bus()
        acks = self._acks[index]
        if acks:
            self._acks[index] = []
            n = len(acks)
            times = np.fromiter((a[0] for a in acks), np.float64, n)
            streams = np.fromiter((a[1] for a in acks), np.int64, n)
            bus.post(index, ("ack", times, streams))
        bus.post(index, request)

    def _absorb(self, index: int, reply):
        """Unwrap one ``(payload, aux)`` envelope, merging the aux's
        exported heap entries into the plane."""
        payload, aux = reply
        if aux:
            lo = self.ranges[index][0]
            uplinks = aux.get("uplinks")
            if uplinks is not None:
                for delivery, lseq, lstream, send, value in (
                    self.vocabulary.unpack_in_flight(uplinks)
                ):
                    # Charged here — export time is send time, the same
                    # MAINTENANCE/INITIALIZATION slot the sequential
                    # channel charges the send in.
                    self.ledger.record_kind(MessageKind.UPDATE)
                    self._plane.push(
                        _PlaneEntry(
                            time=delivery,
                            lseq=lseq,
                            worker=index,
                            stream=lstream + lo,
                            lstream=lstream,
                            uplink=True,
                            send_time=send,
                            payload=value,
                        )
                    )
            pending = aux.get("pending")
            if pending is not None:
                for delivery, lseq, lstream, send, _ in unpack_in_flight(
                    pending
                ):
                    # Metadata only: the install was already charged at
                    # deploy flush; the worker's heap stays
                    # authoritative for its payload.
                    self._plane.push(
                        _PlaneEntry(
                            time=delivery,
                            lseq=lseq,
                            worker=index,
                            stream=lstream + lo,
                            lstream=lstream,
                            uplink=False,
                            send_time=send,
                        )
                    )
        return payload

    def _collect_one(self, index: int):
        ((_, reply),) = self._require_bus().collect([index])
        return self._absorb(index, reply)

    def _rpc(self, index: int, request: tuple):
        self._post(index, request)
        return self._collect_one(index)

    def probe(self, stream_id: int):
        """Probe one source at its worker (2 messages, charged here)."""
        self._flush_deploys()
        index, view = self._view_for(stream_id)
        self.ledger.record_kind(MessageKind.PROBE_REQUEST)
        payload, time = self._rpc(
            index, ("probe", int(stream_id) - view.lo, self._now, self._clock)
        )
        self.ledger.record_kind(MessageKind.PROBE_REPLY)
        view.record_report(int(stream_id) - view.lo, payload, time)
        self._dirty.add(index)
        return payload

    def probe_all(self, stream_ids: list[int] | None = None) -> dict:
        """Probe several (default: all) sources; one RPC per worker run.

        The ledger charge (one request + one reply per stream) and the
        per-stream report recording are identical to probing one by
        one; only the wire framing is batched.
        """
        self._flush_deploys()
        targets = self.stream_ids if stream_ids is None else stream_ids
        ids = np.asarray(targets, dtype=np.int64)
        results: dict = {}
        for index, a, b in owner_runs(self._shard_of, ids):
            view = self.shard_views[index]
            rows = ids[a:b] - view.lo
            self.ledger.record_kind(MessageKind.PROBE_REQUEST, b - a)
            payloads, times = self._rpc(
                index, ("probe_batch", rows, self._now, self._clock)
            )
            self.ledger.record_kind(MessageKind.PROBE_REPLY, b - a)
            self._dirty.add(index)
            view.record_report_rows(rows, payloads, times)
            results.update(
                zip(ids[a:b].tolist(), self.vocabulary.payload_items(payloads))
            )
        return results

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
        the vocabulary lowers the call to (see :meth:`repro.server.
        server.Server.deploy_many`); the flush frames them per worker."""
        ids, constraint, belief = self.vocabulary.constraint_columns(
            stream_ids, bound, assumed_inside, silenced
        )
        self._seal_deploy_rows()
        self._deploy_batches.append(
            (ids, *constraint, belief, np.full(len(ids), self._now))
        )

    def broadcast(self, bound, assumed_inside=None) -> None:
        self.deploy_many(self.stream_ids, bound, assumed_inside)

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
        for index, a, b in owner_runs(self._shard_of, gids):
            lo = self.ranges[index][0]
            corrections = self._rpc(
                index,
                (
                    "deploy_batch",
                    gids[a:b] - lo,
                    *wire(a, b),
                    assumed[a:b],
                    times[a:b],
                    self._clock,
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

    def replay(
        self,
        horizon: float | None = None,
        oracle_apply: Callable | None = None,
        after_apply: Callable | None = None,
    ) -> list[dict]:
        """Drive the full trace; returns the per-worker replay stats.

        With ``oracle_apply``/``after_apply`` callbacks this is a
        *checking* run: the coordinator — which holds the full trace —
        applies the oracle itself, record by record in global order, and
        evaluates the checker at epoch boundaries.  Between two
        dispatches every record is quiescent (its source emits no
        message, so the protocol's answer cannot move), which makes the
        boundary evaluation order-identical to sequential per-event
        checking; for the dispatched record itself the oracle applies
        before the dispatch and the check runs after the reaction
        settles, exactly the sequential ``oracle_apply → apply →
        after_apply`` sandwich.  Checks charge nothing, so the ledger is
        untouched — and the workers keep their batched pre-scan, which
        sequential checking (forced per-event) gives up.
        """
        bus = self._require_bus()
        n_workers = len(self.ranges)
        candidates: dict[int, tuple[int | None, bool]] = {}
        checking = oracle_apply is not None or after_apply is not None
        trace = self.trace
        payloads = getattr(trace, self.vocabulary.record_column)
        n_records = len(trace.times)
        cursor = 0
        plane = self._plane

        def settle(upto: int) -> None:
            """Oracle-apply + check the quiescent records [cursor, upto)."""
            nonlocal cursor
            while cursor < upto:
                if oracle_apply is not None:
                    oracle_apply(
                        int(trace.stream_ids[cursor]), payloads[cursor]
                    )
                if after_apply is not None:
                    after_apply(float(trace.times[cursor]))
                cursor += 1

        while True:
            # Settle anything a previous epoch left queued (defensive;
            # step boundaries flush and drain already).
            self._flush_deploys()
            self._drain_pending()
            dirty = sorted(self._dirty)
            self._dirty = set()
            for index in dirty:
                self._post(index, ("scan",))
            for index, reply in bus.collect(dirty):
                candidates[index] = self._absorb(index, reply)
            self._epochs += 1
            live = {
                index: candidate
                for index, (candidate, _) in candidates.items()
                if candidate is not None
            }
            if live:
                owner = min(live, key=live.get)
                g = live[owner]
                limit = float(trace.times[g])
            else:
                owner = g = None
                limit = math.inf if horizon is None else float(horizon)
                if any(b for _, b in candidates.values()):
                    # Some worker's proofs are capped behind a pending
                    # install; it cannot show a candidate until the
                    # plane delivers, however late the delivery falls.
                    head = plane.next_delivery_time
                    if head is None:  # pragma: no cover - defensive
                        raise TransportError(
                            "workers blocked behind the in-flight "
                            "barrier with an empty plane"
                        )
                    limit = max(limit, head)
            head = plane.next_delivery_time
            if head is not None and head <= limit:
                # Advance to the earliest pending delivery instead of
                # assuming quiescence: the plane group due first fires,
                # then the loop restarts so the dirty workers rescan —
                # one group at a time, because an install changes the
                # constraint columns candidates were proven against,
                # and the record it flips may precede the next head.
                group = plane.next_group(limit)
                if group is not None:
                    if checking:
                        # Keep the oracle sandwich exact: check the
                        # quiescent records that precede this delivery
                        # before its reaction can move the answer.
                        bound = g if g is not None else n_records
                        settle(
                            int(
                                np.searchsorted(
                                    trace.times[:bound],
                                    group[1],
                                    side="left",
                                )
                            )
                        )
                    # Sequential replay consumes every record strictly
                    # below a delivery's time before the delivery event
                    # fires; the reaction's probes read the sources at
                    # that frontier.  Catch every shard up first.
                    for index in range(n_workers):
                        self._post(index, ("advance_time", group[1]))
                    self._deliver_plane_group(*group)
                    continue
            if owner is None:
                break
            if checking:
                settle(g)
                if oracle_apply is not None:
                    oracle_apply(int(trace.stream_ids[g]), payloads[g])
            if limit > self._clock:
                self._clock = limit
            for index in range(n_workers):
                if index != owner:
                    self._post(index, ("advance", g))
            self._post(owner, ("dispatch", g))
            uplinks = self._collect_one(owner)
            candidates[owner] = (None, False)
            self._dirty.add(owner)
            lo = self.ranges[owner][0]
            for item in uplinks:
                self.ledger.record_kind(MessageKind.UPDATE)
                self._receive_update(self._uplink_message(lo, item))
            if checking:
                # Settle the reaction (deploy flush + self-correction
                # drain) before the boundary check, as inline delivery
                # would have in the sequential coordinator.
                self._flush_deploys()
                self._drain_pending()
                if after_apply is not None:
                    after_apply(float(trace.times[g]))
                cursor = g + 1
        if checking:
            settle(n_records)
        if self._coupled:
            # The sequential end-of-replay sequence, across the pipe:
            # every worker stages its proven tail and runs its engine
            # out to the horizon (firing nothing — deliveries are
            # externally stepped), then the plane's leftovers are
            # force-delivered in worker order, heap order within —
            # channel-by-channel drain_in_flight(), exactly.
            for index in range(n_workers):
                self._post(index, ("settle", horizon))
            for index, reply in bus.collect(range(n_workers)):
                self._absorb(index, reply)
            if horizon is not None and float(horizon) > self._clock:
                self._clock = float(horizon)
            self._drain_remaining()
        for index in range(n_workers):
            self._post(index, ("finish", horizon))
        stats = [None] * n_workers
        for index, reply in bus.collect(range(n_workers)):
            stats[index] = self._absorb(index, reply)
        self._worker_stats = stats
        return list(stats)

    def _deliver_plane_group(
        self, worker: int, t0: float, advance: bool = True
    ) -> None:
        """Deliver one worker's plane entries due at or before *t0*.

        Entries go in ``(time, local send seq)`` order — the order the
        worker's own engine would have fired them.  Uplinks are
        delivered by the coordinator itself (ack buffered, reaction run
        through the deferred-delivery discipline); runs of consecutive
        downlinks become one ``deliver`` op, re-issued after any
        early stop so nested reactions interleave exactly as the
        engine's.  With ``advance`` false the worker clocks stay frozen
        (the end-of-replay forced drain).
        """
        plane = self._plane
        lo = self.ranges[worker][0]
        while True:
            run = plane.take_run(worker, t0)
            if not run:
                return
            entry = run[0]
            if entry.uplink:
                plane.settle_run(worker, run, 1)
                if advance and entry.time > self._clock:
                    self._clock = entry.time
                self._acks[worker].append((entry.time, entry.lstream))
                self._receive_update(
                    self._uplink_message(
                        lo, (entry.lstream, entry.payload, entry.send_time)
                    )
                )
                continue
            outbox, delivered, _ = self._rpc(
                worker, ("deliver", run[-1].time, run[-1].lseq, advance)
            )
            plane.settle_run(worker, run, delivered)
            if delivered < 1:  # pragma: no cover - defensive
                raise TransportError(
                    f"worker {worker}: deliver op consumed nothing at "
                    f"({run[-1].time}, {run[-1].lseq})"
                )
            if advance and run[delivered - 1].time > self._clock:
                self._clock = run[delivered - 1].time
            self._dirty.add(worker)
            for item in outbox:
                # Inline self-corrections the installs provoked,
                # charged at their send exactly as a deploy flush's.
                self.ledger.record_kind(MessageKind.UPDATE)
                self._receive_update(self._uplink_message(lo, item))

    def _drain_remaining(self) -> None:
        """Force-deliver every remaining plane entry, worker by worker.

        Cascades that land on a not-yet-drained worker are picked up by
        its turn; cascades onto an already-drained worker stay pending
        — precisely the sequential coordinator's channel-order
        ``drain_in_flight()`` semantics.
        """
        for worker in range(len(self.ranges)):
            while self._plane.worker_pending(worker):
                self._deliver_plane_group(worker, math.inf, advance=False)

    @property
    def in_flight_plane(self) -> InFlightPlane:
        """The merged cross-process in-flight heap (latency evidence)."""
        return self._plane

    def transport_stats(self) -> dict:
        """Coordination + serialization counters for the cost model."""
        bus = self.bus
        out = {
            "epochs": self._epochs,
            "workers": len(self.ranges),
            "in_flight_deliveries": self._plane.deferred_delivered_count,
            "in_flight_leaked": self._plane.in_flight_count,
        }
        if bus is not None:
            out.update(bus.stats.as_dict())
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
