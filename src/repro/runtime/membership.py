"""Membership strategies: the policy half of the runtime kernel.

Every stack in this repo implements the same Section-3.1 contract — a
source reports iff its *membership* (as the server believes it) flips —
but each stack flips membership against a different shape of state:

* one scalar :class:`FilterConstraint` (the paper's adaptive filters,
  ``repro.streams``) — held as columns, with no strategy object: the
  rows of :class:`repro.streams.source.ScalarPopulation`;
* :class:`RegionMembership` — one d-dimensional :class:`Region`
  (``repro.spatial``);
* :class:`RecenteringWindowMembership` — an Olston-style value window
  that recenters on every report (``repro.valuebased``);
* :class:`SlottedMembership` — one constraint slot per standing query
  (``repro.multiquery``).

A strategy owns the belief state and answers three questions: does this
new payload demand a report (:meth:`~MembershipStrategy.evaluate`), how
to resynchronize after a probe (:meth:`~MembershipStrategy.resync`), and
— for the batched replay fast path — which scalar interval bounds make a
record provably quiescent (:meth:`~MembershipStrategy.quiescence_rows`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class _Report:
    """Sentinel: report with no slot tags (single-filter stacks)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<REPORT>"


#: Returned by :meth:`MembershipStrategy.evaluate` to demand an untagged
#: report.  Distinct from a (possibly empty) slot-tag list so that
#: multi-query sources can tell "no filters at all: notify everyone"
#: apart from "these specific slots flipped".
REPORT = _Report()

#: A quiescence row: ``(lower, upper, believed_inside)``.  A scalar value
#: ``v`` is quiescent for the row iff ``(lower <= v <= upper)`` equals
#: ``believed_inside``.
QuiescenceRow = tuple[float, float, bool]


def run_flip_index(rows, values) -> int | None:
    """Scalar-loop oracle for a run's first filter-flipping record.

    Given one stream's quiescence *rows* and the run of scalar payloads
    *values* it is about to report (time-ascending), return the index of
    the first payload whose containment disagrees with a row's believed
    membership, or ``None`` when the whole run is provably quiescent.
    ``rows`` follows the :meth:`MembershipStrategy.quiescence_rows`
    contract, so ``None`` rows (unbatchable source) flip at index 0.

    This is deliberately the naive per-event loop: the columnar dispatch
    kernel's vectorized first-crossing (``repro.state.runs``) must agree
    with it on every input — the property suite checks exactly that.
    Bulk application of the quiescent prefix ``values[:flip]`` is then
    sound by construction: none of those payloads would have reported.
    """
    if rows is None:
        return 0 if len(values) else None
    for index, value in enumerate(values):
        value = float(value)
        for lower, upper, believed_inside in rows:
            if (lower <= value <= upper) != bool(believed_inside):
                return index
    return None


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


class MembershipStrategy(ABC):
    """The report-iff-membership-flips policy of one source."""

    def bind_state(self, table, stream_id: int) -> None:
        """Attach a :class:`~repro.state.table.StreamStateTable` row.

        Bound strategies *write through* their filter state — scalar
        bounds (or region quiescence boxes) and believed membership — to
        the table's constraint columns, making the table the single
        source of truth the batched replay pre-scan reads.  The default
        is a no-op: strategies with no columnar form stay unbound, and
        their sources always dispatch per-event.
        """

    @abstractmethod
    def evaluate(self, payload):
        """Judge a freshly-installed *payload*.

        Returns ``None`` for "stay silent", :data:`REPORT` for a plain
        report, or a non-empty list of slot tags for a tagged report.
        Implementations mutate their belief state as a side effect, so
        the caller must emit the report whenever the return is not
        ``None``.
        """

    @abstractmethod
    def resync(self, payload) -> None:
        """Probe semantics: align every belief with the actual payload."""

    def install(self, container, assumed_inside: bool | None, payload) -> bool:
        """Deploy *container* as the new filter; return ``True`` iff the
        server's *assumed_inside* belief was stale and one self-correcting
        report must be sent (the deployment rule shared by all stacks)."""
        raise TypeError(f"{type(self).__name__} does not accept deployments")

    def quiescence_rows(self) -> list[QuiescenceRow] | None:
        """Scalar bounds for the batched-replay quiescence pre-scan.

        ``None`` means this source is not batchable right now (no filter
        installed, or non-scalar membership): every record targeting it
        must take the per-event path.  Otherwise, a record is quiescent —
        provably unable to flip any filter — iff *every* returned row
        agrees that containment equals the believed membership.
        """
        return None


class RegionMembership(MembershipStrategy):
    """Membership against one installed d-dimensional region, batched
    via quiescence boxes.

    The region only needs ``contains(payload) -> bool`` and an
    ``is_silencing`` property; with none installed the source reports
    every change (the bare-stream baseline).  When bound to a state
    table the installed region's axis-aligned quiescence boxes
    (:meth:`repro.spatial.geometry.Region.quiescence_bboxes`) and the
    believed membership are written through to the table's *geometric
    plane* on every mutation — the spatial mirror of the scalar
    population's write-through.  The batched replay pre-scan then
    decides quiescence columnar-side with one vectorized AABB test;
    regions that cannot bound themselves with boxes
    (``quiescence_bboxes`` returning ``None``) leave the row unscannable
    and their sources dispatch per-event as before.
    """

    def __init__(self) -> None:
        self.container = None
        self.reported_inside = False
        self._table = None
        self._row = -1
        self._dimension: int | None = None

    def bind_state(self, table, stream_id: int) -> None:
        self._table = table
        self._row = int(stream_id)
        self._write_through()

    def _write_through(self) -> None:
        if self._table is None:
            return
        if self.container is None or self._dimension is None:
            self._table.clear_region_filter(self._row)
            return
        boxes = self.container.quiescence_bboxes(self._dimension)
        if boxes is None:
            self._table.clear_region_filter(self._row)
        else:
            self._table.record_region_deploy(self._row, *boxes)
        self._table.set_inside(self._row, self.reported_inside)

    def evaluate(self, payload):
        if self.container is not None:
            inside = self.container.contains(payload)
            if inside == self.reported_inside:
                return None
            self.reported_inside = inside
        if self._table is not None:
            self._table.set_inside(self._row, self.reported_inside)
        return REPORT

    def resync(self, payload) -> None:
        if self.container is not None:
            self.reported_inside = self.container.contains(payload)
            if self._table is not None:
                self._table.set_inside(self._row, self.reported_inside)

    def install(self, container, assumed_inside: bool | None, payload) -> bool:
        self.container = container
        self.reported_inside, must_report = deployment_outcome(
            container, assumed_inside, payload
        )
        self._dimension = len(payload)
        self._write_through()
        return must_report


class RecenteringWindowMembership(MembershipStrategy):
    """An Olston-style ``±width/2`` window that travels with the data.

    A payload inside the window is, by definition, what the server
    believes; escaping it triggers a report *and* recenters the window on
    the reported value, so the believed membership is always "inside".
    No constraints are deployed during maintenance.
    """

    def __init__(self, width: float, center: float) -> None:
        if width < 0:
            raise ValueError("window width must be non-negative")
        self.width = float(width)
        self.center = float(center)
        self._table = None
        self._row = -1

    def bind_state(self, table, stream_id: int) -> None:
        self._table = table
        self._row = int(stream_id)
        self._write_through()

    def _write_through(self) -> None:
        if self._table is None:
            return
        half = self.width / 2.0
        self._table.set_filter(
            self._row, self.center - half, self.center + half, True
        )

    def evaluate(self, payload):
        # Written as the same closed-interval comparison the batched
        # pre-scan uses (quiescence_rows), not abs(payload - center):
        # the two are equivalent in real arithmetic but can disagree by
        # one ulp in floating point, which would let batch mode stage a
        # record the per-event path reports and break byte-identity.
        half = self.width / 2.0
        if not (self.center - half <= payload <= self.center + half):
            self.center = payload
            self._write_through()
            return REPORT
        return None

    def resync(self, payload) -> None:
        self.center = payload
        self._write_through()

    def quiescence_rows(self) -> list[QuiescenceRow] | None:
        half = self.width / 2.0
        return [(self.center - half, self.center + half, True)]


class SlottedMembership(MembershipStrategy):
    """One constraint slot per standing query (multi-query sharing).

    Each slot holds the constraint a query deployed plus the membership
    that query's protocol believes.  Evaluation returns the list of
    flipped slot tags so one physical update can be forwarded precisely;
    with no slots installed at all the source behaves like a bare stream
    (:data:`REPORT`: notify every query).
    """

    def __init__(self) -> None:
        self.constraints: dict[str, object] = {}
        self.reported_inside: dict[str, bool] = {}
        self._tables: dict[str, object] | None = None
        self._row = -1

    def bind_slot_states(self, tables: dict, stream_id: int) -> None:
        """Attach the per-query state-table registry (shared, live dict).

        Each slot tag that also keys *tables* writes its filter state
        through to that query's table row; tags without a registered
        table (ad-hoc slots in unit tests) are simply not mirrored.
        """
        self._tables = tables
        self._row = int(stream_id)
        for tag in self.constraints:
            self._write_slot(tag)

    def _write_slot(self, tag: str) -> None:
        if self._tables is None:
            return
        table = self._tables.get(tag)
        if table is None:
            return
        constraint = self.constraints[tag]
        table.set_filter(
            self._row,
            constraint.lower,
            constraint.upper,
            self.reported_inside[tag],
        )

    def _write_slot_inside(self, tag: str) -> None:
        if self._tables is None:
            return
        table = self._tables.get(tag)
        if table is not None:
            table.set_inside(self._row, self.reported_inside[tag])

    def evaluate(self, payload):
        if not self.constraints:
            return REPORT
        flipped: list[str] | None = None
        for tag, constraint in self.constraints.items():
            if constraint.is_silencing:
                continue
            inside = constraint.contains(payload)
            if inside != self.reported_inside[tag]:
                self.reported_inside[tag] = inside
                self._write_slot_inside(tag)
                if flipped is None:
                    flipped = []
                flipped.append(tag)
        return flipped

    def resync(self, payload) -> None:
        for tag, constraint in self.constraints.items():
            self.reported_inside[tag] = constraint.contains(payload)
            self._write_slot_inside(tag)

    def resync_slot(self, tag: str, payload) -> None:
        """Probe semantics for one slot only."""
        constraint = self.constraints.get(tag)
        if constraint is not None:
            self.reported_inside[tag] = constraint.contains(payload)
            self._write_slot_inside(tag)

    def install_slot(
        self, tag: str, constraint, assumed_inside: bool | None, payload
    ) -> bool:
        """Deploy into one slot; returns ``True`` iff the slot must
        self-correct with a report tagged *tag*."""
        self.constraints[tag] = constraint
        self.reported_inside[tag], must_report = deployment_outcome(
            constraint, assumed_inside, payload
        )
        self._write_slot(tag)
        return must_report

    def slot(self, tag: str):
        """The constraint currently installed for *tag* (or ``None``)."""
        return self.constraints.get(tag)

    def quiescence_rows(self) -> list[QuiescenceRow] | None:
        if not self.constraints:
            return None
        return [
            (c.lower, c.upper, self.reported_inside[tag])
            for tag, c in self.constraints.items()
        ]
