"""The execution session: one assembly for all stacks.

An :class:`ExecutionSession` owns the Figure-3 system of one run — the
discrete-event engine, the message ledger, the channel(s), the sources
and the host (server or coordinator).

Assembly is written once, in :meth:`ExecutionSession.assemble`: the
payload :class:`~repro.runtime.vocabulary.Vocabulary` of the stack names
the population constructor and the trace's initial-payload column, the
topology is one shard range or several, and the host is the one the
protocol declares (a query group's coordinator) or ``Server`` /
``ShardedServer`` bound to that vocabulary, serving the protocol over
the population it declares (the value windows, a query group's slots)
or the vocabulary's.  The ``for_*`` classmethods are one-line bindings
of it.

:meth:`ExecutionSession.replay` is the in-process driver of the replay
core in :mod:`repro.runtime.replay` (DESIGN.md §9).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.network.accounting import MessageLedger, Phase
from repro.network.channel import Channel
from repro.network.latency import LatencyChannel, make_channel
from repro.runtime.replay import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MIN_CHUNK,
    ReplayCursor,
    columnar_table,
    replay_columnar,
    resolve_mode,
)
from repro.sim.engine import SimulationEngine


class ExecutionSession:
    """Engine + ledger + channel + sources + host, assembled once.

    Parameters
    ----------
    sources:
        The source population (``repro.runtime.source``), indexed by
        stream id.
    host:
        The server-side owner (``Server``, ``ShardedServer`` or
        ``MultiQueryCoordinator``): its ``state_tables`` take the
        sources' filter planes.
    """

    def __init__(
        self,
        *,
        sources: Sequence,
        ledger: MessageLedger | None = None,
        engine: SimulationEngine | None = None,
        channel: Channel | None = None,
        channels: Sequence[Channel] | None = None,
        host,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.ledger = ledger or MessageLedger()
        self.channel = channel
        #: Every channel in the assembly: one for single-server
        #: topologies, one per shard for sharded ones.
        if channels is not None:
            self.channels = list(channels)
        else:
            self.channels = [channel] if channel is not None else []
        #: Channels with a latency-modeled delivery discipline: any of
        #: them makes replay per-event, and they drain at end of run.
        self.latency_channels = [
            c for c in self.channels if isinstance(c, LatencyChannel)
        ]
        self.sources = sources
        self.host = host
        #: The payload vocabulary; set by :meth:`assemble`.
        self.vocabulary = None
        #: Counters of the most recent :meth:`replay`, in the schema of
        #: :func:`~repro.runtime.replay.replay_stats`; surfaced through
        #: ``RunReport`` extras.
        self.last_replay_stats: dict | None = None
        sources.bind_state(*host.state_tables)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @classmethod
    def assemble(
        cls,
        stack: str,
        trace,
        protocol,
        n_shards: int | None = None,
        latency=None,
        *,
        ledger=None,
        state_factory=None,
    ) -> "ExecutionSession":
        """The one assembler: engine, ledger, channel(s), sources, host.

        *stack* names the payload vocabulary (DESIGN.md §13).
        ``n_shards=None`` is the single topology — one channel, hosted
        by ``Server``; an integer partitions the population into
        contiguous id ranges (:func:`~repro.state.sharding.shard_ranges`),
        one channel per range, every channel charging the *same* ledger
        and compiled to the deployment's delivery discipline, hosted by
        a ``ShardedServer`` whose ledgers are byte-identical to the
        single topology's (see ``repro.server.sharded``).

        The sources are the population *protocol* declares
        (``FilterProtocol.population``, called ``(initial payloads,
        channels, ranges)``), else the vocabulary's, and the host is
        the one it declares (``FilterProtocol.host``, called
        ``(channels, ranges)``), else the topology's.  *ledger*
        substitutes the accounting object (the durability tier passes a
        journaling subclass) and *state_factory* the host's state-table
        constructor (memmap-backed planes).
        """
        from repro.runtime.vocabulary import vocabulary_of
        from repro.server.server import Server
        from repro.server.sharded import ShardedServer
        from repro.state.sharding import shard_ranges

        vocabulary = vocabulary_of(stack)
        engine = SimulationEngine()
        ledger = ledger if ledger is not None else MessageLedger()
        ranges = (
            [(0, trace.n_streams)]
            if n_shards is None
            else shard_ranges(trace.n_streams, n_shards)
        )
        channels = [
            make_channel(ledger, engine, latency, channel_index=index)
            for index in range(len(ranges))
        ]
        initials = getattr(trace, vocabulary.initial_column)
        population = protocol.population or vocabulary.population
        sources = population(initials, channels, ranges)
        if protocol.host is not None:
            host = protocol.host(channels, ranges)
        elif n_shards is None:
            host = Server.speaking(stack)(
                channels[0], protocol, state_factory=state_factory
            )
        else:
            host = ShardedServer.speaking(stack)(
                channels, protocol, ranges, state_factory=state_factory
            )
        session = cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=channels[0] if n_shards is None else None,
            channels=channels,
            host=host,
        )
        session.vocabulary = vocabulary
        return session

    @classmethod
    def for_streams(
        cls, trace, protocol, latency=None, *, ledger=None, state_factory=None
    ) -> "ExecutionSession":
        """Scalar stack, single topology."""
        return cls.assemble(
            "streams", trace, protocol, None, latency,
            ledger=ledger, state_factory=state_factory,
        )

    @classmethod
    def for_streams_sharded(
        cls,
        trace,
        protocol,
        n_shards: int,
        latency=None,
        *,
        ledger=None,
        state_factory=None,
    ) -> "ExecutionSession":
        """Scalar stack, sharded topology."""
        return cls.assemble(
            "streams", trace, protocol, n_shards, latency,
            ledger=ledger, state_factory=state_factory,
        )

    @classmethod
    def for_spatial(cls, trace, protocol, latency=None) -> "ExecutionSession":
        """Spatial stack, single topology."""
        return cls.assemble("spatial", trace, protocol, None, latency)

    @classmethod
    def for_spatial_sharded(
        cls, trace, protocol, n_shards: int, latency=None
    ) -> "ExecutionSession":
        """Spatial stack, sharded topology."""
        return cls.assemble("spatial", trace, protocol, n_shards, latency)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, time: float = 0.0) -> None:
        """Run the initialization phase; messages are charged to it."""
        self.ledger.phase = Phase.INITIALIZATION
        self.host.initialize(time)
        self.ledger.phase = Phase.MAINTENANCE

    def snapshot(self):
        """Freeze the ledger for results reporting."""
        return self.ledger.snapshot()

    def close(self) -> None:
        """Unwire a finished run: the channels forget their handlers,
        the state tables their rank listeners, a sharded host its shards'
        back references.  Those are the assembly's reference cycles;
        without them its planes are freed the moment the caller lets
        go, not at some later full collection."""
        for channel in self.channels:
            channel.unbind()
        for table in self.host.state_tables:
            table._listeners.clear()
        self.host.close()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(
        self,
        times: np.ndarray,
        stream_ids: np.ndarray,
        payloads: np.ndarray,
        *,
        horizon: float | None = None,
        oracle_apply: Callable[[int, float], None] | None = None,
        after_apply: Callable[[float], None] | None = None,
        mode: str = "auto",
        batch_size: int | None = None,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        frontiers=None,
        previous=None,
    ) -> None:
        """Feed the record arrays through the assembled system.

        Parameters
        ----------
        times, stream_ids, payloads:
            Parallel, time-sorted record arrays (``payloads`` is 1-D for
            scalar stacks, ``(m, d)`` for spatial).
        horizon:
            Virtual end time; the engine clock is advanced to it, and
            records past it stay unapplied.
        oracle_apply, after_apply:
            Per-record hooks: ground-truth maintenance, called *before*
            each record is applied, and the correctness check, called
            with the record time *after* it.  Either forces per-event
            replay.
        mode:
            ``"auto"`` | ``"event"`` | ``"batch"``
            (:func:`~repro.runtime.replay.resolve_mode`).  Any
            latency-modeled channel replays per event whatever was
            asked; every mode leaves the same ledger.  No deployment
            knob sets it: every engine run asks for ``"auto"``, and
            only session-level callers force a strategy.
        batch_size, min_chunk:
            Bounds of the cursor's adaptive stretch (*batch_size*
            ``None``: :data:`~repro.runtime.replay.DEFAULT_BATCH_SIZE`);
            *batch_size* also caps a columnar span in records.  Only
            tests set them.
        frontiers:
            Ascending record positions ending at ``len(times)``
            (default: just that).  Replay *applies* — stages or
            dispatches — no record at or past the frontier it last
            took, and takes the next only once every record below it is
            applied; scanning ahead only reads.  The durable runner's
            iterator journals a WAL segment before yielding its end
            (DESIGN.md §11); an exception it raises propagates.
        previous:
            The arrays' :func:`~repro.state.runs.previous_in_stream`
            index, or a callable returning it — called only if the
            columnar kernel runs, which else builds one (DESIGN.md §9).
        """
        if horizon is not None:
            n = int(np.searchsorted(times, horizon, side="right"))
            times, stream_ids, payloads = times[:n], stream_ids[:n], payloads[:n]
        if frontiers is None:
            frontiers = (len(times),)
        tables = self.host.state_tables
        hooked = oracle_apply is not None or after_apply is not None
        mode = resolve_mode(
            mode, payloads, tables, self.latency_channels, hooked
        )
        table = declined = None
        if mode == "batch":
            table, declined = columnar_table(
                payloads, tables, self.sources, self.host.protocol
            )
        if table is not None:
            if callable(previous):
                previous = previous()
            stats = replay_columnar(
                times, stream_ids, payloads, table, self.sources,
                self.ledger, self.host, self.engine, batch_size, frontiers,
                previous,
            )
        else:
            cursor = ReplayCursor(
                times, stream_ids, payloads, sources=self.sources,
                tables=tables, channels=self.channels, engine=self.engine,
                mode=mode, min_chunk=min_chunk,
                batch_size=DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
            )
            stats = cursor.stats
            stats["columnar_declined"] = declined
            for frontier in frontiers:
                while True:
                    k = cursor.candidate()
                    if k is None or k >= frontier:
                        break
                    cursor.advance(k)
                    if not cursor.per_event:  # so no hook is set
                        cursor.dispatch()
                        continue
                    # The rest of the frontier, as one per-event loop.
                    cursor.dispatch_to(frontier, oracle_apply, after_apply)
                cursor.advance(frontier)
        if stats["staged"] + stats["dispatches"] != len(times):
            raise ValueError("frontiers must ascend to exactly len(times)")
        self.last_replay_stats = stats
        self.engine.run(until=horizon)
        # A bounded run can leave messages scheduled past the horizon;
        # deliver them so the final state reflects every sent message
        # (a no-op for the synchronous discipline and for latency=0).
        for channel in self.latency_channels:
            channel.drain_in_flight()

    def replay_trace(self, trace, **kwargs) -> None:
        """Replay a trace object (its record payloads are the column the
        session's vocabulary names)."""
        self.replay(
            trace.times,
            trace.stream_ids,
            getattr(trace, self.vocabulary.record_column),
            horizon=trace.horizon,
            previous=lambda: trace.previous_record,
            **kwargs,
        )
