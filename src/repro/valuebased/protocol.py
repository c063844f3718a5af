"""The value-tolerance top-k protocol and its measurement harness.

The server answers a top-k query from the window centres it knows; the
value guarantee is ``eps`` (every known value is within ``eps/2`` of the
truth, so every returned stream's true value is within ``eps`` of the
true k-th best).  The harness additionally measures what the user
actually cares about for an entity-based query — the *true ranks* of the
returned streams — to quantify Figure 1's complaint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.correctness.oracle import Oracle
from repro.network.accounting import LedgerSnapshot
from repro.queries.base import RankBasedQuery
from repro.queries.rank import ranked_ids
from repro.runtime.session import ExecutionSession
from repro.sim.stats import Tally
from repro.streams.trace import StreamTrace


class ValueToleranceTopKProtocol:
    """Server side of the value-window scheme for a rank-based query."""

    name = "value-eps"

    def __init__(self, query: RankBasedQuery, eps: float) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.query = query
        self.eps = float(eps)
        self._known: np.ndarray | None = None
        self._cache: frozenset[int] | None = None

    def seed(self, values: dict[int, float]) -> None:
        """Install the initial collection of window centres."""
        self._known = np.empty(len(values), dtype=np.float64)
        for stream_id, value in values.items():
            self._known[stream_id] = value
        self._cache = None

    def on_update(self, stream_id: int, value: float) -> None:
        assert self._known is not None, "seed() must run first"
        self._known[stream_id] = value
        self._cache = None

    @property
    def answer(self) -> frozenset[int]:
        """The k best streams by *known* (window-centre) values."""
        if self._known is None:
            return frozenset()
        if self._cache is None:
            order = ranked_ids(self.query, self._known)
            self._cache = frozenset(int(i) for i in order[: self.query.k])
        return self._cache


@dataclass
class ValueToleranceResult:
    """Cost and answer-quality outcome of a value-tolerance run."""

    eps: float
    maintenance_messages: int
    worst_rank: int
    mean_rank_error: float
    value_guarantee_held: bool
    rank_samples: int = 0
    extras: dict = field(default_factory=dict)
    #: Full message-ledger snapshot (for the unified RunReport).
    ledger: "LedgerSnapshot | None" = None


def run_value_tolerance(
    trace: StreamTrace,
    query: RankBasedQuery,
    eps: float,
    check_every: int = 1,
    n_shards: int = 1,
    latency=None,
) -> ValueToleranceResult:
    """Replay *trace* under value tolerance *eps*; measure rank quality.

    ``worst_rank`` is the worst true rank any returned stream held at a
    checkpoint; ``mean_rank_error`` averages ``max(0, rank - k)`` over
    all sampled answer members.  ``value_guarantee_held`` verifies the
    scheme's own contract: every known value within ``eps/2`` of truth.
    With ``check_every=0`` no rank quality is sampled and the batched
    replay fast path applies.  ``n_shards > 1`` partitions the sources
    over per-shard channels (one ledger); window reports are purely
    local decisions, so the ledger is identical to the single-channel
    run.
    """
    if n_shards > 1:
        session = ExecutionSession.for_windows_sharded(
            trace, width=eps, n_shards=n_shards, latency=latency
        )
    else:
        session = ExecutionSession.for_windows(trace, width=eps, latency=latency)
    protocol = ValueToleranceTopKProtocol(query, eps)
    for channel in session.channels:
        channel.bind_server(
            lambda message: protocol.on_update(message.stream_id, message.value)
        )

    # Initialization: one snapshot of every value (charged separately).
    session.initialize(
        run=lambda time: protocol.seed(
            {
                stream_id: source.value
                for stream_id, source in enumerate(session.sources)
            }
        )
    )

    worst_rank = query.k
    rank_error = Tally("rank-error")
    guarantee_held = True
    oracle_apply = None
    after_apply = None
    if check_every:
        oracle = Oracle(trace.initial_values)
        oracle_apply = oracle.apply
        tick = 0

        def after_apply(time: float) -> None:
            nonlocal tick, worst_rank, guarantee_held
            tick += 1
            if tick % check_every != 0:
                return
            order = ranked_ids(query, oracle.values)
            positions = np.empty(len(order), dtype=np.int64)  # 1-based ranks
            positions[order] = np.arange(1, len(order) + 1)
            for member in protocol.answer:
                rank = positions.item(member)
                worst_rank = max(worst_rank, rank)
                rank_error.record(max(0, rank - query.k))
            drift = np.max(
                np.abs(oracle.values - protocol._known)  # noqa: SLF001
            )
            if drift > eps / 2.0 + 1e-9:
                guarantee_held = False

    session.replay_trace(
        trace,
        oracle_apply=oracle_apply,
        after_apply=after_apply,
    )

    return ValueToleranceResult(
        eps=eps,
        maintenance_messages=session.ledger.maintenance_total,
        worst_rank=worst_rank,
        mean_rank_error=rank_error.mean if rank_error.count else 0.0,
        value_guarantee_held=guarantee_held,
        rank_samples=rank_error.count,
        ledger=session.snapshot(),
    )
