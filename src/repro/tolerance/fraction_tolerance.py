"""Fraction-based tolerance (Definitions 2-3, Equations 1-4).

For an answer set ``A(t)`` and the true satisfying set ``T(t)``:

* ``E+(t) = |A - T|`` (false positives), ``E-(t) = |T - A|`` (false
  negatives);
* ``F+(t) = E+ / |A|`` — fraction of returned answers that are wrong;
* ``F-(t) = E- / (|A| - E+ + E-) = E- / |T|`` — fraction of correct
  answers that are missing;
* the answer is correct iff ``F+ <= eps+`` and ``F- <= eps-``.

Both tolerances are assumed ``< 0.5`` (Section 3.4); the protocols'
correctness proofs rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable


@dataclass(frozen=True)
class FractionReport:
    """The error bookkeeping of Definition 2 for one time instant."""

    answer_size: int
    true_size: int
    e_plus: int
    e_minus: int

    @property
    def f_plus(self) -> float:
        """``F+(t)``; zero for an empty answer (no wrong answers returned)."""
        if self.answer_size == 0:
            return 0.0
        return self.e_plus / self.answer_size

    @property
    def f_minus(self) -> float:
        """``F-(t)``; zero when nothing truly satisfies the query."""
        if self.true_size == 0:
            return 0.0
        return self.e_minus / self.true_size


@dataclass(frozen=True)
class FractionTolerance:
    """Definition 3: maximum tolerable ``F+`` and ``F-`` fractions."""

    eps_plus: float
    eps_minus: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_plus < 0.5:
            raise ValueError(
                f"eps_plus must be in [0, 0.5), got {self.eps_plus}"
            )
        if not 0.0 <= self.eps_minus < 0.5:
            raise ValueError(
                f"eps_minus must be in [0, 0.5), got {self.eps_minus}"
            )

    @property
    def is_zero(self) -> bool:
        """True when no error at all is tolerated."""
        return self.eps_plus == 0.0 and self.eps_minus == 0.0

    # ------------------------------------------------------------------
    # Budgets (Equations 3-4)
    # ------------------------------------------------------------------
    def emax_plus(self, answer_size: int) -> int:
        """``Emax+``: largest integer false-positive count with
        ``Emax+ / answer_size <= eps+`` (Equation 3)."""
        if answer_size < 0:
            raise ValueError("answer_size must be non-negative")
        return math.floor(self.eps_plus * answer_size + 1e-9)

    def emax_minus(self, answer_size: int) -> int:
        """``Emax-``: largest integer false-negative count.

        Solving Definition 2's ``F- = E- / (|A| - E+ + E-) <= eps-`` for
        ``E-`` with ``E+`` at its ``Emax+ = eps+ |A|`` budget gives the
        paper's initialization formula (Section 5.1.1):

            ``Emax- = |A| * eps- * (1 - eps+) / (1 - eps-)``.
        """
        if answer_size < 0:
            raise ValueError("answer_size must be non-negative")
        exact = (
            answer_size
            * self.eps_minus
            * (1.0 - self.eps_plus)
            / (1.0 - self.eps_minus)
        )
        return math.floor(exact + 1e-9)

    # ------------------------------------------------------------------
    # Evaluation (Definitions 2-3)
    # ------------------------------------------------------------------
    def report(
        self, answer: Iterable[int], true_set: AbstractSet[int]
    ) -> FractionReport:
        """Compute ``E+/E-/F+/F-`` for *answer* against *true_set*."""
        answer_set = set(int(i) for i in answer)
        e_plus = len(answer_set - true_set)
        e_minus = len(true_set - answer_set)
        return FractionReport(
            answer_size=len(answer_set),
            true_size=len(true_set),
            e_plus=e_plus,
            e_minus=e_minus,
        )

    def is_satisfied(
        self, answer: Iterable[int], true_set: AbstractSet[int]
    ) -> bool:
        return self.violation(answer, true_set) is None

    def violation(
        self, answer: Iterable[int], true_set: AbstractSet[int]
    ) -> str | None:
        """``None`` if Definition 3 holds, else a human-readable reason."""
        return self.report_violation(self.report(answer, true_set))

    def report_violation(self, report: FractionReport) -> str | None:
        """Definition 3's verdict on an already-counted *report*."""
        # Tolerate float round-off at the boundary: a report with exactly
        # Emax+ errors must pass.
        slack = 1e-12
        if report.f_plus > self.eps_plus + slack:
            return (
                f"F+ = {report.f_plus:.4f} exceeds eps+ = {self.eps_plus} "
                f"(E+ = {report.e_plus}, |A| = {report.answer_size})"
            )
        if report.f_minus > self.eps_minus + slack:
            return (
                f"F- = {report.f_minus:.4f} exceeds eps- = {self.eps_minus} "
                f"(E- = {report.e_minus}, |T| = {report.true_size})"
            )
        return None
