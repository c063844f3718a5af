"""The set-based evaluation the checker ran before it went columnar.

Kept for the tests to compare the columnar evaluator against: Python
sets, the tolerance classes' public ``violation`` methods, truth by
brute force from the oracle's payload array (never its truth columns).
"""

from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


def reference_reason(answer: set, oracle, query, tolerance):
    if isinstance(tolerance, RankTolerance):
        return tolerance.violation(answer, query, oracle.values)
    true_set = query.true_answer(oracle.values)
    if isinstance(tolerance, FractionTolerance):
        return tolerance.violation(answer, true_set)
    if answer != true_set:
        return (
            f"exact answer required: {len(answer - true_set)} spurious, "
            f"{len(true_set - answer)} missing"
        )
    return None
