"""Rank-based tolerance (Definition 1).

Given a rank-based query with rank requirement ``k`` and a slack
``r >= 0``, an answer set ``A(t)`` is correct iff ``|A(t)| = k`` and every
member's true rank is at most ``eps = k + r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.queries.base import RankBasedQuery
from repro.queries.rank import ranked_ids


@dataclass(frozen=True)
class RankTolerance:
    """Definition 1: maximum rank tolerance ``eps_k^r = k + r``.

    ``r = 0`` demands the exact answer (up to ties); larger ``r`` lets the
    system return any ``k`` streams from the true top ``k + r``.
    """

    k: int
    r: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.r < 0:
            raise ValueError("r must be non-negative")

    @property
    def eps(self) -> int:
        """The maximum admissible true rank, ``k + r``."""
        return self.k + self.r

    def is_correct(
        self,
        answer: Iterable[int],
        query: RankBasedQuery,
        values: np.ndarray,
    ) -> bool:
        """Whether *answer* satisfies Definition 1 against true *values*."""
        return self.violation(answer, query, values) is None

    def violation(
        self,
        answer: Iterable[int],
        query: RankBasedQuery,
        values: np.ndarray,
    ) -> str | None:
        """``None`` if correct, else a human-readable reason.

        Evaluates all member ranks with a single sort rather than one
        ``rank_of`` call per member.
        """
        answer_set = set(int(i) for i in answer)
        if query.k != self.k:
            raise ValueError(
                f"tolerance k={self.k} does not match query k={query.k}"
            )
        reason = self.size_violation(len(answer_set))
        if reason is not None:
            return reason
        order = ranked_ids(query, values)
        admissible = set(int(i) for i in order[: self.eps])
        stragglers = answer_set - admissible
        if stragglers:
            # Deterministic pick for the message.
            return self.straggler_violation(min(stragglers))
        return None

    def size_violation(self, answer_size: int) -> str | None:
        """Definition 1's first clause: ``|A(t)| = k``."""
        if answer_size != self.k:
            return f"|A| = {answer_size}, expected exactly k = {self.k}"
        return None

    def straggler_violation(self, stream_id: int) -> str:
        """The reason naming *stream_id* as ranked worse than ``eps``."""
        return (
            f"stream {stream_id} ranks worse than eps = {self.eps} "
            f"(admissible top-{self.eps} set excludes it)"
        )
