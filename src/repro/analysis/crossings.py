"""Crossing and churn profiles of a workload against a query."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queries.base import RankBasedQuery
from repro.queries.range_query import RangeQuery
from repro.streams.trace import StreamTrace


@dataclass(frozen=True)
class CrossingProfile:
    """How a trace's updates interact with a range boundary.

    Attributes
    ----------
    total_updates:
        Number of records in the trace.
    crossings:
        Updates that flipped range membership — ZT-NRP's exact cost.
    crossing_streams:
        Number of distinct streams that crossed at least once.
    per_stream:
        ``stream_id -> crossing count`` for every crossing stream.
    initial_selectivity:
        Fraction of streams initially inside the range.
    """

    total_updates: int
    crossings: int
    crossing_streams: int
    per_stream: dict[int, int]
    initial_selectivity: float

    @property
    def crossing_rate(self) -> float:
        """Crossings per update — the fraction of traffic filters pass."""
        if self.total_updates == 0:
            return 0.0
        return self.crossings / self.total_updates

    def concentration(self, top: int) -> float:
        """Fraction of all crossings owned by the *top* busiest streams.

        High concentration is what silencer placement exploits: silencing
        `top` well-chosen streams suppresses this fraction of messages.
        """
        if self.crossings == 0:
            return 0.0
        busiest = sorted(self.per_stream.values(), reverse=True)[:top]
        return sum(busiest) / self.crossings


def range_crossing_profile(
    trace: StreamTrace, query: RangeQuery
) -> CrossingProfile:
    """Tally *trace*'s crossings of *query*'s boundary
    (:meth:`~repro.streams.trace.StreamTrace.crossings`)."""
    inside = np.asarray(query.matches_array(trace.initial_values), dtype=bool)
    flips = trace.crossings(query.lower, query.upper)
    counts = np.bincount(trace.stream_ids[flips], minlength=len(inside))
    crossing = np.flatnonzero(counts)
    return CrossingProfile(
        total_updates=trace.n_records,
        crossings=len(flips),
        crossing_streams=len(crossing),
        per_stream=dict(zip(crossing.tolist(), counts[crossing].tolist())),
        initial_selectivity=float(inside.mean()) if len(inside) else 0.0,
    )


@dataclass(frozen=True)
class RankChurnProfile:
    """Stability of a rank-based query's answer over a trace.

    ``boundary_crossings`` counts updates that moved a stream across the
    k-th/(k+1)-st rank boundary (the events ZT-RP pays ~3n for);
    ``answer_changes`` counts updates after which the true top-k set
    differs from before.
    """

    total_updates: int
    answer_changes: int
    boundary_crossings: int

    @property
    def churn_rate(self) -> float:
        if self.total_updates == 0:
            return 0.0
        return self.answer_changes / self.total_updates


def rank_churn_profile(
    trace: StreamTrace, query: RankBasedQuery, sample_every: int = 1
) -> RankChurnProfile:
    """Measure how often the true top-k answer changes along *trace*.

    ``sample_every`` thins the (O(n) per record) evaluation for large
    traces; counts are then extrapolations of the sampled records only.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    values = trace.initial_values.copy()
    previous = query.true_answer(values)
    answer_changes = 0
    boundary_crossings = 0
    sampled = 0
    for i in range(trace.n_records):
        stream_id = int(trace.stream_ids[i])
        values[stream_id] = trace.values[i]
        if i % sample_every != 0:
            continue
        sampled += 1
        current = query.true_answer(values)
        if current != previous:
            answer_changes += 1
            symmetric_difference = previous ^ current
            if stream_id in symmetric_difference:
                boundary_crossings += 1
        previous = current
    return RankChurnProfile(
        total_updates=sampled,
        answer_changes=answer_changes,
        boundary_crossings=boundary_crossings,
    )
