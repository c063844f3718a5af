"""Replay a trace against several standing queries at once.

Assembly and replay are the runtime kernel's
:class:`~repro.runtime.session.ExecutionSession` (the multi-query
coordinator is the session host); with checking disabled the batched
fast path pre-scans records against every query's slot bounds at once.
:func:`execute_multi_query` is the mechanism
:meth:`repro.api.Engine.run_queries` compiles onto; the old
:func:`run_multi_query` name survives as a deprecation shim returning
identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.correctness.oracle import Oracle
from repro.harness.config import RunConfig
from repro.network.accounting import LedgerSnapshot
from repro.protocols.base import FilterProtocol
from repro.queries.base import EntityQuery, RankBasedQuery
from repro.runtime.session import ExecutionSession
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

Tolerance = RankTolerance | FractionTolerance | None


@dataclass
class MultiQueryResult:
    """Outcome of a shared multi-query run."""

    ledger: LedgerSnapshot
    shared_updates: int
    logical_deliveries: int
    answers: dict[str, frozenset[int]]
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def maintenance_messages(self) -> int:
        return self.ledger.maintenance_total

    @property
    def tolerance_ok(self) -> bool:
        return not self.violations

    @property
    def sharing_factor(self) -> float:
        """Average queries served per physical update (>= 1)."""
        if self.shared_updates == 0:
            return 1.0
        return self.logical_deliveries / self.shared_updates


def run_multi_query(
    trace: StreamTrace,
    queries: dict[str, tuple[FilterProtocol, EntityQuery, Tolerance]],
    config: RunConfig | None = None,
) -> MultiQueryResult:
    """Deprecated: use :meth:`repro.api.Engine.run_queries`."""
    warnings.warn(
        "repro.multiquery.runner.run_multi_query is deprecated; use "
        "repro.api.Engine().run_queries({'q1': QuerySpec(...), ...}, "
        "Workload.from_trace(trace))",
        DeprecationWarning,
        stacklevel=2,
    )
    return execute_multi_query(trace, queries, config=config)


def execute_multi_query(
    trace: StreamTrace,
    queries: dict[str, tuple[FilterProtocol, EntityQuery, Tolerance]],
    config: RunConfig | None = None,
) -> MultiQueryResult:
    """Run every registered query's protocol over one shared population.

    Parameters
    ----------
    trace:
        The shared workload.
    queries:
        ``query_id -> (protocol, query, tolerance)``.  The protocol is a
        normal single-query protocol instance; the query/tolerance pair
        is used for the optional correctness checking.
    config:
        ``check_every`` / ``strict`` as in the single-query runner.
    """
    config = config or RunConfig()
    session = ExecutionSession.for_multiquery(trace.initial_values)
    coordinator = session.host
    for query_id, (protocol, _, _) in queries.items():
        coordinator.register(query_id, protocol)

    oracle: Oracle | None = None
    if config.check_every > 0:
        oracle = Oracle(trace.initial_values)
        for _, (_, query, _) in queries.items():
            oracle.register_query(query)

    session.initialize(time=0.0)

    result = MultiQueryResult(
        ledger=session.snapshot(),
        shared_updates=0,
        logical_deliveries=0,
        answers={},
    )

    def check(time: float) -> None:
        assert oracle is not None
        result.checks += 1
        for query_id, (protocol, query, tolerance) in queries.items():
            reason = _evaluate(protocol, oracle, query, tolerance)
            if reason is not None:
                note = f"t={time} [{query_id}]: {reason}"
                if len(result.violations) < 100:
                    result.violations.append(note)
                if config.strict:
                    raise AssertionError(note)

    oracle_apply = None
    after_apply = None
    if oracle is not None:
        check(0.0)
        oracle_apply = oracle.apply
        tick = 0

        def after_apply(time: float) -> None:
            nonlocal tick
            tick += 1
            if tick % config.check_every == 0:
                check(time)

    session.replay(
        trace.times,
        trace.stream_ids,
        trace.values,
        horizon=trace.horizon,
        oracle_apply=oracle_apply,
        after_apply=after_apply,
        mode=config.replay_mode,
        batch_size=config.batch_size,
        min_chunk=config.min_chunk,
    )

    result.ledger = session.snapshot()
    result.shared_updates = coordinator.shared_updates
    result.logical_deliveries = coordinator.logical_deliveries
    result.answers = {
        query_id: coordinator.answer(query_id) for query_id in queries
    }
    return result


def _evaluate(
    protocol: FilterProtocol,
    oracle: Oracle,
    query: EntityQuery,
    tolerance: Tolerance,
) -> str | None:
    answer = set(protocol.answer)
    if isinstance(tolerance, RankTolerance):
        assert isinstance(query, RankBasedQuery)
        return tolerance.violation(answer, query, oracle.values)
    true_set = oracle.true_answer(query)
    if isinstance(tolerance, FractionTolerance):
        return tolerance.violation(answer, true_set)
    if answer != true_set:
        return (
            f"exact answer required: {len(answer - true_set)} spurious, "
            f"{len(true_set - answer)} missing"
        )
    return None
