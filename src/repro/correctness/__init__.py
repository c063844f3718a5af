"""Ground-truth tracking and tolerance validation.

The simulator — unlike the server — sees every stream's true value.  The
:class:`~repro.correctness.oracle.Oracle` maintains that ground truth as
trace records are applied; the
:class:`~repro.correctness.checker.ToleranceChecker` compares the
protocol's answer set against it after every processed event, verifying
the paper's Correctness Requirements 1 and 2 continuously.  Under a
latency-modeled channel the checker's staleness mode
(:class:`~repro.correctness.staleness.StalenessWindow`) additionally
classifies each violation as inherent-to-latency or a protocol bug.
"""

from repro.correctness.checker import (
    CheckerReport,
    ToleranceChecker,
    ToleranceViolationError,
    Violation,
)
from repro.correctness.oracle import Oracle
from repro.correctness.staleness import (
    INHERENT_LATENCY,
    PROTOCOL_BUG,
    StalenessWindow,
)

__all__ = [
    "CheckerReport",
    "INHERENT_LATENCY",
    "Oracle",
    "PROTOCOL_BUG",
    "StalenessWindow",
    "ToleranceChecker",
    "ToleranceViolationError",
    "Violation",
]
