"""The deployment rule every stack shares, and its columnar form.

Every stack implements the same Section-3.1 contract — a source reports
iff its membership (as the server believes it) flips — over a population
of planes (``repro.runtime.source``): scalar intervals, recentering
windows, regions, or one interval per standing query.  What all of them
share is the rule for a *new* filter, :func:`deployment_outcome`: the
believed side converges to the actual containment, and a stale belief
self-corrects with one report.  :func:`deployment_outcome_columns` is
that rule over whole columns of intervals (the bulk install), and the
``BELIEF_*`` codes are how a deployment column carries the server's
belief.
"""

from __future__ import annotations

import numpy as np


def deployment_outcome(
    container, assumed_inside: bool | None, payload
) -> tuple[bool, bool]:
    """The deployment rule every stack shares, in one place.

    Returns ``(believed_inside, must_report)``.  The post-deployment
    belief always converges to the actual containment: a silencing
    filter's belief is irrelevant, fresh knowledge (``assumed_inside is
    None``) is exact, a matching belief already agrees, and a stale one
    is self-corrected.  A report is due exactly in that last case — a
    non-silencing deployment carrying a belief the payload contradicts.
    """
    actual = container.contains(payload)
    must_report = (
        not container.is_silencing
        and assumed_inside is not None
        and bool(assumed_inside) != actual
    )
    return actual, must_report


#: int8 codes of the ``assumed_inside`` belief in a deployment column:
#: no belief attached (fresh knowledge), believed outside, believed inside.
BELIEF_NONE, BELIEF_OUTSIDE, BELIEF_INSIDE = -1, 0, 1


def belief_codes(beliefs, count: int) -> np.ndarray:
    """The int8 code column of *count* ``assumed_inside`` beliefs."""
    return np.fromiter(
        (BELIEF_NONE if belief is None else int(belief) for belief in beliefs),
        np.int8,
        count,
    )


def belief_column(assumed_inside, shape) -> np.ndarray:
    """``deploy_many``'s belief argument as an int8 code column of
    *shape*: ``None`` (fresh knowledge everywhere) or a code column."""
    return np.broadcast_to(
        np.asarray(
            BELIEF_NONE if assumed_inside is None else assumed_inside,
            dtype=np.int8,
        ),
        shape,
    )


def deployment_outcome_columns(
    values: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    belief: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`deployment_outcome` over whole columns of scalar intervals.

    Row ``i`` deploys ``[lower[i], upper[i]]`` at a source holding
    ``values[i]`` under the belief code ``belief[i]``; returns the
    ``(believed_inside, must_report)`` columns.  The scalar function
    stays the oracle: the property suite holds the two equal row by row,
    silencers and on-the-bound values included.
    """
    actual = (lower <= values) & (values <= upper)
    # FilterConstraint.is_silencing: [-inf, +-inf] or [+inf, +inf].
    silencing = np.isinf(lower) & ((lower > 0) | np.isinf(upper))
    stale = (belief != BELIEF_NONE) & ((belief == BELIEF_INSIDE) != actual)
    return actual, stale & ~silencing
