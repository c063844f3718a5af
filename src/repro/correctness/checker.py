"""Continuous validation of tolerance constraints.

The paper's Correctness Requirements (Section 3.5):

1. at every point in time with no resolution in progress, all running
   queries remain valid within their tolerance constraints;
2. immediately after a resolution completes, the constraint is satisfied
   (values assumed frozen during resolution).

Our default channel delivers messages synchronously, so "resolution" is
atomic within a simulation event; checking right after each applied trace
record therefore validates both requirements at every instant the paper
quantifies over.

Under a latency-modeled channel requirement 2 is deliberately relaxed, so
the checker gains a *staleness-window mode*: pass a
:class:`~repro.correctness.staleness.StalenessWindow` and every observed
violation is classified as ``inherent-latency`` (the network was active —
some data-plane message in flight or recently delivered, so belief and
truth legitimately diverge) or ``protocol-bug`` (the network was quiet,
the state is indistinguishable from a zero-latency quiescent instant, and
the protocol's own guarantee should have held).  See
``repro.correctness.staleness`` for why the split is network-level.

Truth and answer are compared as **columns** (DESIGN.md §14): the
oracle's boolean truth column against the protocol's boolean answer
column, by :func:`violation_reason` — the one evaluator every stack
(scalar, spatial, multi-query) is checked by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.correctness.oracle import Oracle
from repro.correctness.staleness import (
    INHERENT_LATENCY,
    PROTOCOL_BUG,
    StalenessWindow,
    strict_should_raise,
)
from repro.queries.rank import top_mask
from repro.state.runs import flips_in_stream, previous_in_stream
from repro.state.table import StreamStateTable, membership_mask
from repro.tolerance.fraction_tolerance import FractionReport, FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


class ToleranceViolationError(AssertionError):
    """Raised in strict mode when a protocol breaks its tolerance."""


@dataclass(frozen=True)
class Violation:
    """One observed tolerance breach.

    ``classification`` is empty outside staleness-window mode; in it,
    either ``"inherent-latency"`` or ``"protocol-bug"``.
    """

    time: float
    reason: str
    classification: str = ""


@dataclass
class CheckerReport:
    """Aggregate outcome of a checked run.

    ``violations`` retains at most ``max_violations`` detailed records;
    ``violation_count`` counts every breach regardless.
    """

    checks: int = 0
    violation_count: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Staleness-window mode tallies; both stay zero outside it.
    classified: bool = False
    inherent_count: int = 0
    protocol_bug_count: int = 0

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    @property
    def latency_clean(self) -> bool:
        """In staleness-window mode: no violation blamed on the protocol."""
        return self.protocol_bug_count == 0

    @property
    def violation_rate(self) -> float:
        if self.checks == 0:
            return 0.0
        return self.violation_count / self.checks


def violation_reason(
    answer: np.ndarray,
    oracle: Oracle,
    query,
    tolerance: RankTolerance | FractionTolerance | None,
) -> str | None:
    """Why the boolean *answer* column breaks *tolerance* now, if it does.

    Definition 1 for a :class:`RankTolerance` (``|A| = k`` and no member
    outside the true top ``k + r``, the lowest straggler id named),
    Definitions 2-3 for a :class:`FractionTolerance`, exact match for
    ``None`` — each from ``count_nonzero`` reductions over *answer* and
    the oracle's truth column, for scalar and point payloads alike.
    The reason strings are those of the set-based
    ``RankTolerance.violation`` / ``FractionTolerance.violation``.
    """
    answer_size = int(np.count_nonzero(answer))
    if isinstance(tolerance, RankTolerance):
        reason = tolerance.size_violation(answer_size)
        if reason is not None:
            return reason
        admissible = top_mask(
            query.distance_array(oracle.values), tolerance.eps
        )
        stragglers = answer & ~admissible
        if stragglers.any():
            return tolerance.straggler_violation(int(stragglers.argmax()))
        return None
    truth = oracle.truth_mask(query)
    true_size = int(np.count_nonzero(truth))
    hits = int(np.count_nonzero(answer & truth))
    return membership_reason(answer_size, true_size, hits, tolerance)


def membership_reason(answer_size, true_size, hits, tolerance) -> str | None:
    """The membership verdict from ``|A|``, ``|T|`` and ``|A ∩ T|`` —
    :func:`violation_reason`'s membership branch, and all of a
    running-count check (:class:`ToleranceChecker`)."""
    e_plus, e_minus = answer_size - hits, true_size - hits
    if isinstance(tolerance, FractionTolerance):
        return tolerance.report_violation(
            FractionReport(answer_size, true_size, e_plus, e_minus)
        )
    if e_plus or e_minus:
        return f"exact answer required: {e_plus} spurious, {e_minus} missing"
    return None


def truth_flips(query, truth, stream_ids, payloads, previous) -> np.ndarray:
    """Which of the time-ordered records ``(stream_ids, payloads)`` flip
    the membership *query*'s truth: :func:`~repro.state.runs.
    flips_in_stream` of ``matches_array`` over the payloads, from the
    *truth* column the records start from — no protocol state, so known
    before the run (DESIGN.md §14)."""
    after = np.asarray(query.matches_array(payloads), dtype=bool)
    return flips_in_stream(after, truth, stream_ids, previous)


class ToleranceChecker:
    """Validates a protocol's answer set against ground truth.

    Parameters
    ----------
    oracle:
        The ground-truth value store.
    query:
        The standing query under test.
    tolerance:
        Either a :class:`RankTolerance` or a :class:`FractionTolerance`;
        ``None`` demands the exact answer (zero tolerance).
    answer_of:
        Callable returning the protocol's current answer: its boolean
        answer column (``FilterProtocol.answer_mask`` — what the engine
        passes), or any iterable of stream ids, which is scattered into
        a column first.  Either way :func:`violation_reason` judges it.
    every:
        Check every *every*-th invocation (1 = every event).  One check
        is a handful of O(n) boolean reductions (plus one O(n)
        partition for a rank tolerance) — no sort, no Python set — so
        checking every event is affordable well past n = 1000;
        sampling is for populations where even that dominates.
    strict:
        Raise :class:`ToleranceViolationError` on the first breach instead
        of accumulating it — the mode unit tests use.  In
        staleness-window mode only ``protocol-bug`` violations raise;
        inherent-latency breaches are the phenomenon under study and are
        accumulated even when strict.
    max_violations:
        Retain at most this many violation records (counters keep going).
    staleness:
        A :class:`~repro.correctness.staleness.StalenessWindow` enabling
        classification of every violation; ``None`` (the default, and
        the only sound choice under the synchronous channel) records
        violations unclassified.
    evaluate:
        Test seam: a callable returning a violation reason string or
        ``None``, run in place of :func:`violation_reason` (the
        differential suite plugs the set-based reference in here).
        With an override, ``oracle``/``query``/``tolerance``/
        ``answer_of`` are unused and may be ``None``.
    error_cls:
        The exception type strict mode raises — stacks keep their own
        (e.g. ``SpatialToleranceViolationError``).
    answer_table:
        The table whose answer column *answer_of* returns.  Given it, a
        membership query registered with *oracle* is checked from
        **running counts** (DESIGN.md §14), recounted only when the
        table's ``answer_epoch`` moved; records must then reach the
        oracle through :meth:`apply`.
    check_offset:
        Which of each ``every``-length window's ticks fires, in
        ``[0, every)``.  The scalar engine checks ticks ``1, 1+every,
        ...`` (offset 0); the spatial runner historically checked ticks
        ``every, 2*every, ...`` (offset ``every - 1``), and its check
        count — and thus its strict-mode behaviour — is part of the
        recorded results, so the phase is a parameter rather than a
        convention change.
    """

    def __init__(
        self,
        oracle: Oracle | None,
        query,
        tolerance: RankTolerance | FractionTolerance | None,
        answer_of: Callable[[], np.ndarray | Iterable[int]] | None,
        every: int = 1,
        strict: bool = False,
        max_violations: int = 100,
        staleness: StalenessWindow | None = None,
        evaluate: Callable[[], str | None] | None = None,
        error_cls: type[AssertionError] = ToleranceViolationError,
        check_offset: int = 0,
        answer_table: StreamStateTable | None = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if not 0 <= check_offset < every:
            raise ValueError("check_offset must be in [0, every)")
        if evaluate is None:
            if oracle is None or query is None or answer_of is None:
                raise TypeError(
                    "oracle, query and answer_of are required without an "
                    "evaluate override"
                )
            if isinstance(tolerance, RankTolerance) and not getattr(
                query, "is_rank_based", False
            ):
                raise TypeError("rank tolerance requires a rank-based query")
        self.oracle = oracle
        self.query = query
        self.tolerance = tolerance
        self.answer_of = answer_of
        self.every = every
        self.strict = strict
        self.max_violations = max_violations
        self.staleness = staleness
        self.error_cls = error_cls
        self.check_offset = check_offset
        if evaluate is not None:
            self._evaluate = evaluate
        self.report = CheckerReport(classified=staleness is not None)
        self._tick = 0
        #: Running counts: the table and live truth column (``None``:
        #: every check recounts), ``[|A|, |T|, |A ∩ T|]``, the answer
        #: epoch they were recounted at, how many truth flips :meth:`apply`
        #: has folded in, and the last reason with the flip count it
        #: was derived at (``-1``: derive it again).
        self._table = self._truth = None
        live = evaluate is None and query in oracle.registered_queries
        if answer_table is not None and live and not query.is_rank_based:
            self._table, self._truth = answer_table, oracle.truth_mask(query)
            self._counts, self._epoch, self._flips = [0, 0, 0], -1, 0
            self._reason, self._reason_at = None, -1
        #: :meth:`bind_records`' ``(stream id, flips)`` pairs and columns.
        self._bound = self._records = None

    def check(self, time: float) -> Violation | None:
        """Validate the current answer; honours the sampling interval."""
        self._tick += 1
        if (self._tick - 1) % self.every != self.check_offset:
            return None
        return self.check_now(time)

    def check_now(self, time: float) -> Violation | None:
        """Validate immediately, ignoring the sampling interval."""
        self.report.checks += 1
        reason = self._evaluate() if self._table is None else self._counted()
        if reason is None:
            return None
        classification = ""
        if self.staleness is not None:
            classification = self.staleness.classify(time)
            if classification == INHERENT_LATENCY:
                self.report.inherent_count += 1
            else:
                assert classification == PROTOCOL_BUG
                self.report.protocol_bug_count += 1
        violation = Violation(
            time=time, reason=reason, classification=classification
        )
        self.report.violation_count += 1
        if len(self.report.violations) < self.max_violations:
            self.report.violations.append(violation)
        if self.strict and strict_should_raise(classification):
            raise self.error_cls(f"t={time}: {reason}")
        return violation

    def bind_records(self, stream_ids, payloads) -> None:
        """Learn, before the run, the :func:`truth_flips` of every record
        it will hand :meth:`apply` in order: a record that flips nothing
        then costs the hook O(1), and the oracle's values wait for
        :meth:`settle_records`.  A no-op without running counts, where
        every record must reach :meth:`Oracle.apply`."""
        if self._table is None:
            return
        flips = truth_flips(
            self.query, self._truth, stream_ids, payloads,
            previous_in_stream(stream_ids),
        )
        self._bound = zip(stream_ids.tolist(), flips.tolist())
        self._records = (stream_ids, payloads)

    def settle_records(self) -> None:
        """End of the bound run: every bound record must have reached
        :meth:`apply`, and the oracle takes each stream's last payload
        in one scatter (later rows win)."""
        if self._records is None:
            return
        if next(self._bound, None) is not None:
            raise ValueError("the oracle hook saw fewer records than were bound")
        self.oracle.apply_many(*self._records)
        self._bound = self._records = None

    def apply(self, stream_id: int, value) -> None:
        """Apply one trace record to the oracle — the run's
        ``oracle_apply`` hook — and fold its truth flip, if any, into
        the running counts.  With records bound (:meth:`bind_records`)
        a record that flips nothing returns at once; one the hook sees
        out of order, or past the last bound record, raises rather
        than miscount."""
        if self._bound is not None:
            expected, flips = next(self._bound, (None, False))
            if expected != stream_id:
                raise ValueError(
                    f"the oracle hook saw stream {stream_id} where the "
                    f"bound records hold {expected}"
                )
            if not flips:
                return
        truth = self._truth
        was = truth is not None and truth.item(stream_id)
        self.oracle.apply(stream_id, value)
        if truth is not None and truth.item(stream_id) != was:
            step = -1 if was else 1
            self._counts[1] += step
            if self._table.answer_mask.item(stream_id):
                self._counts[2] += step
            self._flips += 1

    def _counted(self) -> str | None:
        table = self._table
        if table.answer_epoch != self._epoch:  # the answer moved: recount
            answer, truth = table.answer_mask, self._truth
            columns = (answer, truth, answer & truth)
            self._counts = [int(np.count_nonzero(c)) for c in columns]
            self._epoch = table.answer_epoch
            self._reason_at = -1
        if self._reason_at != self._flips:  # a flip or a recount since
            self._reason = membership_reason(*self._counts, self.tolerance)
            self._reason_at = self._flips
        return self._reason

    def _evaluate(self) -> str | None:
        assert self.answer_of is not None and self.oracle is not None
        answer = self.answer_of()
        if not (isinstance(answer, np.ndarray) and answer.dtype == bool):
            answer = membership_mask(answer, self.oracle.n_streams)
        return violation_reason(
            answer, self.oracle, self.query, self.tolerance
        )
