"""A query group: several standing queries hosted as one protocol.

:meth:`repro.api.Engine.run_queries` compiles its specs into one
:class:`QueryGroup` and runs it through the engine's one hosted
executor, like any protocol :meth:`~repro.api.Engine.run` is given.  The
group declares what differs from a single query, as data: its sources
(:meth:`QueryGroup.population`, a :class:`~repro.multiquery.source.
SlotPopulation` on the session's channel), its host
(:meth:`QueryGroup.host`, the :class:`~repro.multiquery.coordinator.
MultiQueryCoordinator`) and its checker kind
(:class:`QueryGroupChecker`, one tolerance checker per query).
"""

from __future__ import annotations

from functools import cache, partial
from typing import Mapping

from repro.correctness.checker import (
    CheckerReport,
    ToleranceChecker,
    with_truncation_note,
)
from repro.correctness.staleness import tag_reason
from repro.multiquery.coordinator import MultiQueryCoordinator
from repro.multiquery.source import SlotPopulation
from repro.state.runs import previous_in_stream


class QueryGroupChecker:
    """The query group's checker kind: one
    :class:`~repro.correctness.checker.ToleranceChecker` per standing
    query, each with its own oracle, all firing on the same ticks
    (``every, 2*every, ...``, after the initial check).  Strict mode
    raises on the first breach, naming its query; the report's
    ``checks`` counts ticks, not ticks x queries."""

    def __init__(self, group, checkers: dict) -> None:
        self.group = group
        self.checkers = checkers
        self._applies = [checker.apply for checker in checkers.values()]
        self._checks = [checker.check for checker in checkers.values()]

    @classmethod
    def for_run(
        cls, session, trace, group, query, tolerance, deployment
    ) -> "QueryGroupChecker":
        """A checker per query of *group*, over its query's table."""
        return cls(
            group,
            {
                query_id: ToleranceChecker.for_run(
                    session, trace, protocol, query, tolerance, deployment,
                    table=session.host.contexts[query_id].state,
                    check_offset=-1,
                    label=f" [{query_id}]",
                )
                for query_id, (protocol, query, tolerance) in group.queries.items()
            },
        )

    def start(self, time: float, stream_ids, payloads) -> None:
        """Check the initialized answers, then bind the records to every
        checker — over one predecessor index, built at most once."""
        previous = cache(partial(previous_in_stream, stream_ids))
        for checker in self.checkers.values():
            checker.check_now(time)
            checker.bind_records(stream_ids, payloads, previous)

    def apply(self, stream_id: int, value) -> None:
        for apply in self._applies:
            apply(stream_id, value)

    def check(self, time: float) -> None:
        for check in self._checks:
            check(time)

    def finish(self) -> None:
        for checker in self.checkers.values():
            checker.finish()

    def report_fields(self) -> dict:
        """The group's answers and sharing, every query's retained
        violations in time order (query order within one instant), each
        tagged with its query, and the merged :class:`CheckerReport`."""
        reports = {
            query_id: checker.report for query_id, checker in self.checkers.items()
        }
        retained = sorted(
            (
                (violation, query_id)
                for query_id, report in reports.items()
                for violation in report.violations
            ),
            key=lambda pair: pair[0].time,
        )
        merged = CheckerReport(
            # Every checker fires on the same ticks.
            checks=max((r.checks for r in reports.values()), default=0),
            violation_count=sum(r.violation_count for r in reports.values()),
            violations=[violation for violation, _ in retained],
            classified=any(r.classified for r in reports.values()),
            inherent_count=sum(r.inherent_count for r in reports.values()),
            protocol_bug_count=sum(r.protocol_bug_count for r in reports.values()),
        )
        lines = tuple(
            f"t={violation.time} [{query_id}]: "
            + tag_reason(violation.reason, violation.classification)
            for violation, query_id in retained
        )
        fields = self.unchecked_fields(self.group)
        if merged.classified:
            fields["extras"]["violations_inherent_latency"] = merged.inherent_count
            fields["extras"]["violations_protocol_bug"] = merged.protocol_bug_count
        fields.update(
            checks=merged.checks,
            violations=with_truncation_note(lines, merged.violation_count),
            checker=merged,
        )
        return fields

    @staticmethod
    def unchecked_fields(group) -> dict:
        """Every query's answer; the sharing counters and their ratio,
        queries served per physical update (>= 1)."""
        shared, logical = group.shared_updates, group.logical_deliveries
        return {
            "answers": {
                query_id: protocol.answer
                for query_id, (protocol, _, _) in group.queries.items()
            },
            "extras": {
                "shared_updates": shared,
                "logical_deliveries": logical,
                "sharing_factor": logical / shared if shared else 1.0,
            },
        }


class QueryGroup:
    """Several standing queries over one shared population, hosted as
    one protocol.

    *queries* maps each query id to ``(protocol, query, tolerance)``:
    a fresh single-query protocol instance, and the query / tolerance
    pair a checked run judges it by.  The host calls :meth:`initialize`
    and :meth:`on_update` as a ``Server`` calls a protocol's; each query's
    protocol runs against its own :class:`~repro.multiquery.coordinator.
    QueryContext`, so it sees exactly its solo message sequence.
    """

    name = "multi-query"
    checker_kind = QueryGroupChecker
    #: The group has no answer of its own: a report's ``answers`` holds
    #: each query's.
    answer: frozenset[int] = frozenset()

    def __init__(self, queries: Mapping[str, tuple]) -> None:
        self.queries = dict(queries)
        self._protocols = {
            query_id: protocol for query_id, (protocol, _, _) in self.queries.items()
        }
        #: Physical updates delivered (each possibly serving several
        #: queries), and the query deliveries they fanned out to.
        self.shared_updates = 0
        self.logical_deliveries = 0

    def population(self, initial_values, channels, ranges) -> SlotPopulation:
        """One filter slot per query at every source."""
        return SlotPopulation(initial_values, channels, ranges, tuple(self.queries))

    def host(self, channels, ranges) -> MultiQueryCoordinator:
        """The coordinator, at the server end of the one channel."""
        return MultiQueryCoordinator(channels[0], self)

    def initialize(self, coordinator: MultiQueryCoordinator) -> None:
        """Every query's initialization phase, in query order."""
        for query_id, protocol in self._protocols.items():
            protocol.initialize(coordinator.contexts[query_id])

    def on_update(
        self, coordinator: MultiQueryCoordinator, stream_id: int, value,
        time: float, queries: tuple[str, ...] | None,
    ) -> None:
        """One shared update, forwarded to the *queries* it is tagged
        with (``None``: every query); a tag naming no query of the group
        raises rather than leave that query's run silently different."""
        self.shared_updates += 1
        for query_id in self._protocols if queries is None else queries:
            protocol = self._protocols.get(query_id)
            if protocol is None:
                raise ValueError(
                    f"update of stream {stream_id} at t={time} is tagged "
                    f"with query {query_id!r}, which the group does not hold"
                )
            self.logical_deliveries += 1
            # Refresh exactly the forwarded queries' value planes: each
            # protocol's knowledge stays identical to its solo run.
            context = coordinator.contexts[query_id]
            context.state.record_report(stream_id, value, time)
            protocol.on_update(context, stream_id, value, time)
