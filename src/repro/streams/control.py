"""The columnar control plane of the scalar stack (DESIGN.md §12).

A whole-population deployment is ``n`` constraint messages, and the
per-message path pays each as a dozen nested calls.  The two kernels
here deliver such a batch as column operations instead — one ledger
charge, one vectorized :func:`~repro.runtime.membership.
deployment_outcome_columns`, one scatter per constraint column — with
the observable outcome of the ordered per-message loop: the same ledger,
the same table columns and per-source filter state, the same
self-corrections in the same order.

Both kernels decide from what they observe whether a batch qualifies,
and touch nothing when it does not (the caller then sends the messages
one by one): the channel must be synchronous with every tap bulk-capable
(:meth:`~repro.network.channel.Channel.bulk_sources`), the ids distinct,
and every target a plain :class:`IntervalMembership` bound to *table* at
its own id — so the table's constraint columns are those sources'
filter state, and a scatter is a write-through.  That is also how the
hosts' shared ``deploy_columns`` / ``probe_columns`` serve the spatial
stack with no branch: region-filtered sources never qualify, so their
batches are the ordered per-message loop (DESIGN.md §15).
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.runtime.membership import (
    BELIEF_NONE,
    REPORT,
    IntervalMembership,
    belief_column,
    deployment_outcome_columns,
)
from repro.state.table import StreamStateTable
from repro.streams.filters import FilterConstraint


def constraint_columns(stream_ids, bound, assumed_inside=None, silenced=None):
    """Lower a ``deploy_many`` call to ``(ids, (lower, upper), belief)``
    columns: int64 ids, *bound*'s endpoints as float64 columns — with
    ``[-inf, +inf]`` for the false-positive and ``[+inf, +inf]`` for the
    false-negative members of the *silenced* pools — and int8 belief
    codes (``None``: no belief anywhere)."""
    ids = np.asarray(stream_ids, dtype=np.int64)
    lower = np.full(ids.shape, bound.lower, dtype=np.float64)
    upper = np.full(ids.shape, bound.upper, dtype=np.float64)
    if silenced is not None:
        in_fp = np.isin(ids, list(silenced.fp))
        in_fn = np.isin(ids, list(silenced.fn))
        lower[in_fn] = math.inf
        lower[in_fp] = -math.inf
        upper[in_fn | in_fp] = math.inf
    return ids, (lower, upper), belief_column(assumed_inside, ids.shape)


def deploy_each(host, ids, constraint, belief) -> None:
    """The per-message form of ``deploy_many``: ordered ``host.deploy``
    of each row of the *constraint* payload columns."""
    columns = [column.tolist() for column in constraint]
    for stream_id, code, *payload in zip(
        ids.tolist(), belief.tolist(), *columns
    ):
        host.deploy(
            stream_id,
            *payload,
            assumed_inside=None if code == BELIEF_NONE else bool(code),
        )


def deploy_columns(host, channel, table, guarded: bool, columns) -> None:
    """``host.deploy_many`` over one channel: *columns* as one columnar
    install when *guarded* (the host is inside a protocol step, so
    self-corrections queue rather than re-enter) and the batch
    qualifies, else as the ordered ``host.deploy`` loop."""
    if not (
        guarded and install_constraints(channel, table, *columns, host.now)
    ):
        deploy_each(host, *columns)


def probe_columns(host, channel, table, ids, reports, offset=0) -> dict:
    """``host.probe_all`` over one channel: id -> value for *ids*, as one
    columnar probe whose replies are recorded in *reports* (the table
    the host records this channel's reports in, at row ``id - offset``)
    when the batch qualifies, else as the ordered ``host.probe`` loop."""
    values = probe_sources(channel, table, ids)
    if values is None:
        return {stream_id: host.probe(stream_id) for stream_id in ids.tolist()}
    reports.record_report_rows(ids - offset, values, host.now)
    return dict(zip(ids.tolist(), values.tolist()))


_MEMBERSHIP = attrgetter("membership")
_TABLE = attrgetter("_table")
_ROW = attrgetter("_row")
_VALUE = attrgetter("value")


def _interval_targets(channel: Channel, table: StreamStateTable, ids):
    """``(sources, memberships)`` behind *ids* when the batch qualifies
    for a columnar operation against *table*, else ``None``."""
    id_list = ids.tolist()
    sources = channel.bulk_sources(id_list)
    if sources is None or len(set(id_list)) != len(id_list):
        return None
    try:
        memberships = list(map(_MEMBERSHIP, sources))
    except AttributeError:  # a handler of something that is no source
        return None
    # Every target a plain IntervalMembership, bound to *table*, at the
    # row of its own id (C-level passes: this runs per batch).
    if (
        set(map(type, memberships)) != {IntervalMembership}
        or set(map(_TABLE, memberships)) != {table}
        or list(map(_ROW, memberships)) != id_list
    ):
        return None
    return sources, memberships


def _current_values(sources) -> np.ndarray:
    return np.fromiter(map(_VALUE, sources), np.float64, len(sources))


def _shared_constraints(lower: np.ndarray, upper: np.ndarray) -> list:
    """One frozen :class:`FilterConstraint` per distinct bound pair,
    aligned with the columns.  Construction validates, so a NaN or
    inverted pair raises ``FilterConstraint``'s own ``ValueError``."""
    if len(lower) and (lower == lower[0]).all() and (upper == upper[0]).all():
        return [FilterConstraint(float(lower[0]), float(upper[0]))] * len(lower)
    shared: dict[tuple[float, float], FilterConstraint] = {}
    constraints = []
    for pair in zip(lower.tolist(), upper.tolist()):
        constraint = shared.get(pair)
        if constraint is None:
            constraint = shared[pair] = FilterConstraint(*pair)
        constraints.append(constraint)
    return constraints


def install_constraints(
    channel: Channel,
    table: StreamStateTable,
    ids: np.ndarray,
    constraint: tuple,
    belief: np.ndarray,
    time,
) -> bool:
    """Install ``[lower[i], upper[i]]`` — *constraint* is the ``(lower,
    upper)`` column pair — at source ``ids[i]`` as one columnar
    operation; ``False`` (nothing touched) when the batch must travel
    per-message, which includes every batch whose targets do not hold
    intervals (*constraint* is then not looked at).

    Validation comes first — an unbound id or an invalid bound raises
    with the ledger, the table and every source untouched.  Then the
    ``n`` constraint messages are charged at once, staged replay values
    are flushed for the targeted rows (the taps' ``bulk`` form), the
    deployment rule runs over the value/bound/belief columns, and the
    outcome is written to the memberships and scattered into *table*.
    Self-corrections are emitted last, in batch order, through the
    sources' ordinary ``_emit``: *time* (a scalar or a column) and the
    sources' values are fixed across the batch, so each report is the
    one its own message would have sent — the caller must only ensure
    that emitting cannot re-enter it (a guarded host step queues them).
    """
    targets = _interval_targets(channel, table, ids)
    if targets is None:
        return False
    sources, memberships = targets
    lower, upper = constraint
    constraints = _shared_constraints(lower, upper)
    channel.charge_bulk(ids, MessageKind.CONSTRAINT)
    values = _current_values(sources)
    inside, must_report = deployment_outcome_columns(
        values, lower, upper, belief
    )
    for membership, constraint, side in zip(
        memberships, constraints, inside.tolist()
    ):
        membership.container = constraint
        membership.reported_inside = side
    table.set_filter_rows(ids, lower, upper, inside)
    reporting = np.nonzero(must_report)[0]
    if reporting.size:
        times = np.broadcast_to(np.asarray(time, dtype=np.float64), ids.shape)
        for position in reporting.tolist():
            sources[position]._emit(float(times[position]), REPORT)
    return True


def probe_sources(
    channel: Channel, table: StreamStateTable, ids: np.ndarray
) -> np.ndarray | None:
    """Probe the sources behind *ids* as one columnar operation: their
    current values, or ``None`` (nothing touched) when the batch must
    travel per-message.

    Charges the ``2n`` request/reply messages, flushes staged replay
    values for the probed rows, and resynchronizes every installed
    filter's believed side with the value read — *table*'s bound columns
    are the targets' containers, so the resync is one comparison and one
    scatter.  Recording the replies is the caller's half, as in
    ``probe``.
    """
    targets = _interval_targets(channel, table, ids)
    if targets is None:
        return None
    sources, memberships = targets
    channel.charge_bulk(
        ids, MessageKind.PROBE_REQUEST, MessageKind.PROBE_REPLY
    )
    values = _current_values(sources)
    filtered = table.scannable[ids]
    inside = (table.lower[ids] <= values) & (values <= table.upper[ids])
    flipped = filtered & (inside != table.inside[ids])
    for position in np.nonzero(flipped)[0].tolist():
        memberships[position].reported_inside = bool(inside[position])
    table.set_inside_rows(ids[filtered], inside[filtered])
    return values
