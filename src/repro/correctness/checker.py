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
the checker gains a *staleness mode*: pass a
:class:`~repro.correctness.staleness.StalenessWindow` and every observed
violation is classified as ``inherent-latency`` (a data-plane message
was in flight, or one had already arrived late, so belief and truth may
legitimately diverge) or ``protocol-bug`` (the run so far is
indistinguishable from a zero-latency one, and the protocol's own
guarantee should have held).  See ``repro.correctness.staleness`` for
why the split is network-level.

Truth and answer are compared as **columns** (DESIGN.md §14): the
oracle's boolean truth column against the protocol's boolean answer
column, by :func:`violation_reason` — the one evaluator every stack
(scalar, spatial, multi-query) is checked by.

A hosted run is judged by the *checker kind* its protocol names
(``checker_kind``): :class:`ToleranceChecker`, or the value-window
scheme's :class:`RankQualityChecker`, which measures rank quality
instead.  The engine drives both through one interface: ``for_run``
builds the kind for an assembled session, ``start`` precedes the
replay, ``apply`` and ``check`` are its per-record hooks, ``finish``
follows it, and ``report_fields`` — ``unchecked_fields`` for a run
nothing checked — is what the kind adds to the run's report.
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
    tag_reason,
)
from repro.queries.rank import ranks_in, top_mask
from repro.state.runs import flips_in_stream, previous_in_stream
from repro.state.table import StreamStateTable, membership_mask
from repro.tolerance.fraction_tolerance import FractionReport, FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


class ToleranceViolationError(AssertionError):
    """Raised in strict mode when a protocol breaks its tolerance."""


@dataclass(frozen=True)
class Violation:
    """One observed tolerance breach.

    ``classification`` is empty outside staleness mode; in it,
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
    #: Staleness mode tallies; both stay zero outside it.
    classified: bool = False
    inherent_count: int = 0
    protocol_bug_count: int = 0

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    @property
    def latency_clean(self) -> bool:
        """In staleness mode: no violation blamed on the protocol."""
        return self.protocol_bug_count == 0

    @property
    def violation_rate(self) -> float:
        if self.checks == 0:
            return 0.0
        return self.violation_count / self.checks


def with_truncation_note(
    lines: tuple[str, ...], violation_count: int
) -> tuple[str, ...]:
    """*lines* plus, when the checker retained fewer records than it
    counted, the ``... and N more`` line."""
    if violation_count > len(lines):
        lines += (f"... and {violation_count - len(lines)} more",)
    return lines


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
        staleness mode only ``protocol-bug`` violations raise;
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
    error_cls, label:
        The exception type strict mode raises — stacks keep their own
        (e.g. ``SpatialToleranceViolationError``) — and what its message
        names after the time (a query group's `` [query id]``).
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
        label: str = "",
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
        self.label = label
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

    @classmethod
    def for_run(
        cls, session, trace, protocol, query, tolerance, deployment,
        table=None, check_offset=None, label="",
    ) -> "ToleranceChecker":
        """The checker of *protocol* hosted by the assembled *session*:
        the vocabulary's oracle over *trace*'s initial payloads, its
        strict-mode error (tagged *label*) and check phase (or
        *check_offset*), and — under a latency model — the staleness
        classifier over the session's channels.  *query* defaults to the
        protocol's; *table* is the state table it answers from
        (default: the host's)."""
        from repro.protocols.base import FilterProtocol

        if query is None:
            query = getattr(protocol, "query", None)
        if query is None:
            raise ValueError("checking requires a query")
        vocabulary = session.vocabulary
        if check_offset is None:
            check_offset = vocabulary.check_offset
        oracle = vocabulary.oracle(getattr(trace, vocabulary.initial_column))
        oracle.register_query(query)
        return cls(
            oracle=oracle,
            query=query,
            tolerance=tolerance,
            answer_of=lambda: protocol.answer_mask,
            every=deployment.check_every,
            strict=deployment.strict,
            # Latency-modeled run: classify each violation as inherent
            # to the modeled staleness vs a genuine protocol bug.
            staleness=(
                StalenessWindow(session.latency_channels)
                if deployment.latency is not None
                else None
            ),
            error_cls=vocabulary.violation_error,
            check_offset=check_offset % deployment.check_every,
            # Unless the answer is derived elsewhere (no-filter).
            answer_table=(table if table is not None else session.host.state)
            if type(protocol).answer is FilterProtocol.answer
            else None,
            label=label,
        )

    def start(self, time: float, stream_ids, payloads, previous) -> None:
        """Before a replay of the records ``(stream_ids, payloads)``:
        check the initialized answer, then :meth:`bind_records` over
        *previous*, which returns the trace's predecessor index."""
        self.check_now(time)
        self.bind_records(stream_ids, payloads, previous)

    def finish(self) -> None:
        """After the replay: :meth:`settle_records`."""
        self.settle_records()

    def report_fields(self) -> dict:
        """What this checker adds to the run's report: the check count,
        one line per retained violation, the staleness split, and the
        structured :class:`CheckerReport`."""
        report = self.report
        lines = tuple(
            f"t={violation.time}: "
            + tag_reason(violation.reason, violation.classification)
            for violation in report.violations
        )
        extras = {}
        if report.classified:
            # Staleness mode: surface the violation split.
            extras["violations_inherent_latency"] = report.inherent_count
            extras["violations_protocol_bug"] = report.protocol_bug_count
        return {
            "checks": report.checks,
            "violations": with_truncation_note(lines, report.violation_count),
            "extras": extras,
            "checker": report,
        }

    @staticmethod
    def unchecked_fields(protocol) -> dict:
        """What a run this kind did not check reports: nothing."""
        return {}

    def check(self, time: float) -> Violation | None:
        """Validate the current answer; honours the sampling interval."""
        tick = self._tick
        self._tick = tick + 1
        if tick % self.every == self.check_offset:
            return self.check_now(time)
        return None

    def check_now(self, time: float) -> Violation | None:
        """Validate immediately, ignoring the sampling interval."""
        self.report.checks += 1
        reason = self._evaluate() if self._table is None else self._counted()
        if reason is None:
            return None
        classification = ""
        if self.staleness is not None:
            classification = self.staleness.classify()
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
            raise self.error_cls(f"t={time}{self.label}: {reason}")
        return violation

    def bind_records(self, stream_ids, payloads, previous=None) -> None:
        """Learn, before the run, the :func:`truth_flips` of every record
        it will hand :meth:`apply` in order: a record that flips nothing
        then costs the hook O(1), and the oracle's values wait for
        :meth:`settle_records`.  A no-op without running counts, where
        every record must reach :meth:`Oracle.apply`.  *previous* returns
        the records' :func:`~repro.state.runs.previous_in_stream` index
        when called (default: it is built here), so checkers that share
        one run can share one index."""
        if self._table is None:
            return
        flips = truth_flips(
            self.query, self._truth, stream_ids, payloads,
            previous() if previous else previous_in_stream(stream_ids),
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


class RankQualityChecker:
    """The value-window scheme's checker kind: how its answer ranks.

    A value tolerance bounds values, not ranks (Figure 1), so this kind
    judges no tolerance; it measures.  At every *every*-th record —
    ticks ``every, 2*every, ...``, none at ``t = 0`` — each answer
    member's true rank is sampled (:func:`~repro.queries.rank.ranks_in`
    over the oracle's values), and the scheme's own contract is
    verified: every *known* value within ``eps/2`` of the truth.
    ``samples`` counts member samples; strict mode does not apply.
    """

    def __init__(
        self,
        oracle: Oracle,
        query,
        answer_of: Callable[[], np.ndarray],
        known: np.ndarray,
        eps: float,
        every: int,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.oracle = oracle
        self.query = query
        self.answer_of = answer_of
        self.known = known
        self.eps = eps
        self.every = every
        #: The replay's oracle hook: every record reaches the truth.
        self.apply = oracle.apply
        self._tick = 0
        self.samples = 0
        #: Sum of ``max(0, rank - k)`` over the samples (exact).
        self.rank_error = 0
        self.worst_rank = query.k
        self.guarantee_held = True

    @classmethod
    def for_run(
        cls, session, trace, protocol, query, tolerance, deployment
    ) -> "RankQualityChecker":
        """Sample *protocol*'s answer against *trace*'s truth; its known
        values are the host table's value column."""
        vocabulary = session.vocabulary
        return cls(
            vocabulary.oracle(getattr(trace, vocabulary.initial_column)),
            protocol.query,
            lambda: protocol.answer_mask,
            session.host.state.values,
            protocol.eps,
            deployment.check_every,
        )

    def start(self, time: float, stream_ids, payloads, previous) -> None:
        """Nothing is sampled before the first record."""

    def check(self, time: float) -> None:
        """Sample the answer's true ranks and the value guarantee."""
        self._tick += 1
        if self._tick % self.every:
            return
        truth = self.oracle.values
        members = np.flatnonzero(self.answer_of())
        ranks = ranks_in(self.query.distance_array(truth), members)
        k = self.query.k
        self.samples += len(ranks)
        self.rank_error += int(np.maximum(ranks - k, 0).sum())
        self.worst_rank = max(self.worst_rank, int(ranks.max(initial=k)))
        if np.max(np.abs(truth - self.known)) > self.eps / 2.0 + 1e-9:
            self.guarantee_held = False

    def finish(self) -> None:
        """Nothing is pending after the replay."""

    def report_fields(self) -> dict:
        """The rank quality as report extras; a broken value guarantee is
        the run's one violation line."""
        mean = self.rank_error / self.samples if self.samples else 0.0
        return self._fields(
            self.eps, self.worst_rank, mean, self.guarantee_held, self.samples
        )

    @classmethod
    def unchecked_fields(cls, protocol) -> dict:
        """A run nothing sampled: the answer's best worst rank, ``k``."""
        return cls._fields(protocol.eps, protocol.query.k, 0.0, True, 0)

    @staticmethod
    def _fields(eps, worst_rank, mean_rank_error, held, samples) -> dict:
        return {
            "checks": samples,
            "violations": () if held else ("value guarantee violated",),
            "extras": {
                "eps": eps,
                "worst_rank": worst_rank,
                "mean_rank_error": mean_rank_error,
                "value_guarantee_held": held,
            },
        }
