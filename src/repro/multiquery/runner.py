"""Replay a trace against several standing queries at once.

Assembly and replay are the runtime kernel's
:class:`~repro.runtime.session.ExecutionSession` (the multi-query
coordinator is the session host); with checking disabled the batched
fast path pre-scans records against every query's slot bounds at once.
:func:`execute_multi_query` is the stack runner
:meth:`repro.api.Engine.run_queries` compiles onto, and the direct entry
for pre-built protocol instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from repro.correctness.checker import ToleranceChecker
from repro.correctness.oracle import Oracle
from repro.network.accounting import LedgerSnapshot
from repro.protocols.base import FilterProtocol
from repro.queries.base import EntityQuery
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
    #: Ticks checked (every query is checked on each of them).
    checks: int = 0
    #: ``t=... [query_id]: reason`` lines of the retained breaches, at
    #: most ``max_violations`` per query; :attr:`violation_count` counts
    #: every breach regardless.
    violations: list[str] = field(default_factory=list)
    violation_count: int = 0

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


def execute_multi_query(
    trace: StreamTrace,
    queries: dict[str, tuple[FilterProtocol, EntityQuery, Tolerance]],
    check_every: int = 0,
    strict: bool = False,
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
    check_every, strict:
        As the :class:`repro.api.Deployment` fields of the same names.
    """
    session = ExecutionSession.for_multiquery(trace.initial_values)
    coordinator = session.host
    for query_id, (protocol, _, _) in queries.items():
        coordinator.register(query_id, protocol)

    oracle: Oracle | None = None
    checkers: dict[str, ToleranceChecker] = {}
    if check_every > 0:
        oracle = Oracle(trace.initial_values)
        for query_id, (protocol, query, tolerance) in queries.items():
            oracle.register_query(query)
            checkers[query_id] = ToleranceChecker(
                oracle=oracle,
                query=query,
                tolerance=tolerance,
                answer_of=partial(getattr, protocol, "answer_mask"),
                every=check_every,
                # Ticks every, 2*every, ... (recorded results pin it).
                check_offset=-1 % check_every,
            )

    session.initialize(time=0.0)

    def check(time: float, now: bool = False) -> None:
        for query_id, checker in checkers.items():
            violation = (
                checker.check_now(time) if now else checker.check(time)
            )
            if violation is not None and strict:
                raise AssertionError(
                    f"t={time} [{query_id}]: {violation.reason}"
                )

    if checkers:
        check(0.0, now=True)

    session.replay(
        trace.times,
        trace.stream_ids,
        trace.values,
        horizon=trace.horizon,
        oracle_apply=oracle.apply if oracle is not None else None,
        after_apply=check if checkers else None,
    )

    # Retained records of all queries in time order (query order within
    # one instant); each query keeps its checker's ``max_violations``.
    retained = sorted(
        (
            (violation.time, f"t={violation.time} [{query_id}]: {violation.reason}")
            for query_id, checker in checkers.items()
            for violation in checker.report.violations
        ),
        key=itemgetter(0),
    )
    reports = [checker.report for checker in checkers.values()]
    return MultiQueryResult(
        ledger=session.snapshot(),
        shared_updates=coordinator.shared_updates,
        logical_deliveries=coordinator.logical_deliveries,
        answers={
            query_id: coordinator.answer(query_id) for query_id in queries
        },
        # Every checker fires on the same ticks: ticks, not ticks x queries.
        checks=max((report.checks for report in reports), default=0),
        violations=[line for _, line in retained],
        violation_count=sum(report.violation_count for report in reports),
    )
