"""The columnar control plane of the scalar stack (DESIGN.md §12).

A whole-population deployment is ``n`` constraint messages, and the
per-message path pays each as a dozen nested calls.  The two kernels
here deliver such a batch as column operations instead — one ledger
charge, one vectorized :func:`~repro.runtime.membership.
deployment_outcome_columns`, one scatter per constraint column — with
the observable outcome of the ordered per-message loop: the same ledger,
the same table columns (the sources' filter planes), the same
self-corrections in the same order.

Both kernels decide from what they observe whether a batch qualifies,
and touch nothing when it does not (the caller then sends the messages
one by one): the channel must hand the whole batch to one
:class:`~repro.streams.source.ScalarPopulation`
(:meth:`~repro.network.channel.Channel.bulk_target`) bound to *table*,
and the ids must be distinct — an O(1) test plus one pass over the
batch, never over the population.  The kernels are then column
operations on the population's planes, which are *table*'s columns
(DESIGN.md §21), plus one constraint note per batch, whose
write-log entry is the batch's ids (a broadcast's one ``range``).  That is
also how the hosts' shared ``deploy_columns`` / ``probe_columns`` serve
the spatial stack with no branch: a point population never qualifies,
so its batches are the ordered per-message loop (DESIGN.md §15) — as
are those of a window population (its probes recenter) and of a
hand-built list of one-row populations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.runtime.membership import (
    BELIEF_NONE,
    belief_column,
    deployment_outcome_columns,
)
from repro.state.sharding import id_column
from repro.state.table import StreamStateTable
from repro.streams.filters import FilterConstraint
from repro.streams.source import ScalarPopulation


def constraint_columns(stream_ids, bound, assumed_inside=None, silenced=None):
    """Lower a ``deploy_many`` call to ``(ids, (lower, upper), belief)``
    columns: int64 ids, *bound*'s endpoints as float64 columns — with
    ``[-inf, +inf]`` for the false-positive and ``[+inf, +inf]`` for the
    false-negative members of the *silenced* pools — and int8 belief
    codes (``None``: no belief anywhere).  Without pools every row holds
    the one bound, so its columns are stride-0 views of it, which an
    install compares as scalars.  A ``range`` of ids (a broadcast) stays
    one: the kernels write it as a plane slice."""
    ids = stream_ids if isinstance(stream_ids, range) else id_column(stream_ids)
    shape = (len(ids),)
    if silenced is None:  # read-only stride-0 views of one 8-byte buffer
        lower, upper = (
            np.ndarray(shape, np.float64, np.float64(end).tobytes(), strides=(0,))
            for end in (bound.lower, bound.upper)
        )
    else:
        lower = np.full(shape, bound.lower, dtype=np.float64)
        upper = np.full(shape, bound.upper, dtype=np.float64)
        column = id_column(ids)
        in_fp = np.isin(column, list(silenced.fp))
        in_fn = np.isin(column, list(silenced.fn))
        lower[in_fn] = math.inf
        lower[in_fp] = -math.inf
        upper[in_fn | in_fp] = math.inf
    return ids, (lower, upper), belief_column(assumed_inside, shape)


def deploy_each(host, ids, constraint, belief) -> None:
    """The per-message form of ``deploy_many``: ordered ``host.deploy``
    of each row of the *constraint* payload columns."""
    columns = [column.tolist() for column in constraint]
    for stream_id, code, *payload in zip(
        id_column(ids).tolist(), belief.tolist(), *columns
    ):
        host.deploy(
            stream_id,
            *payload,
            assumed_inside=None if code == BELIEF_NONE else bool(code),
        )


def deploy_columns(host, channel, table, guarded: bool, columns) -> None:
    """``host.deploy_many`` over one channel: *columns* as one columnar
    install — a columnar send under a latency model — when *guarded*
    (the host is inside a protocol step, so self-corrections queue
    rather than re-enter) and the batch qualifies, else as the ordered
    ``host.deploy`` loop."""
    if not (
        guarded
        and (
            install_constraints(channel, table, *columns, host.now)
            or send_constraints(channel, table, *columns, host.now)
        )
    ):
        deploy_each(host, *columns)


def probe_columns(host, channel, table, ids, reports, offset) -> np.ndarray:
    """``host.probe_all`` over one channel: the payloads of *ids*, aligned
    with them, as one columnar probe whose replies are recorded in
    *reports* (the table the host records this channel's reports in, at
    row ``id - offset``) when the batch qualifies, else as the ordered
    ``host.probe`` loop."""
    values = probe_sources(channel, table, ids)
    if values is None:
        return np.array([host.probe(stream_id) for stream_id in ids.tolist()])
    reports.record_report_rows(ids - offset, values, host.now)
    return values


def _bulk_population(channel: Channel, table: StreamStateTable, ids):
    """``(population, rows)`` when the batch qualifies for a columnar
    operation against *table*, else ``None``: one
    :class:`ScalarPopulation` handles every id on *channel*, it is bound
    to *table*, and the ids are distinct.  *rows* are the
    population rows the ids name — a basic slice when they ascend
    without a gap (a broadcast's ``range``, or one shard's run of it,
    needs no pass to show it), so the batch's reads and writes are plane
    slices, not gathers."""
    population = channel.bulk_target(ids)
    if type(population) is not ScalarPopulation or population.table is not table:
        return None
    if isinstance(ids, range):
        start = ids.start - population.first_id
        return population, slice(start, start + len(ids))
    if (ids[1:] > ids[:-1]).all():
        start = int(ids[0]) - population.first_id
        if int(ids[-1]) - int(ids[0]) == len(ids) - 1:
            return population, slice(start, start + len(ids))
    elif len(np.unique(ids)) != len(ids):
        return None
    return population, ids - population.first_id


def check_bounds(lower, upper) -> None:
    """Raise :class:`FilterConstraint`'s ``ValueError`` for the first NaN
    or inverted pair of the *lower* / *upper* bounds — columns, or a
    scalar standing for a column of it — building no per-row object."""
    valid = lower <= upper  # False for a NaN bound too
    if not np.all(valid):
        first = int(np.argmin(valid))
        lower, upper = np.broadcast_arrays(lower, upper)
        FilterConstraint(float(lower.flat[first]), float(upper.flat[first]))


def _charged_population(channel: Channel, table: StreamStateTable, ids, constraint):
    """``(population, rows, (lower, upper))`` for a qualifying constraint
    batch — the bound columns with a stride-0 one (one bound for every
    row) as its scalar — once its bounds are validated and its ``n``
    messages charged; or ``None`` (nothing touched)."""
    found = _bulk_population(channel, table, ids)
    if found is None:
        return None
    lower, upper = (c[0] if len(c) and not c.strides[0] else c for c in constraint)
    check_bounds(lower, upper)
    channel.charge_bulk(ids, MessageKind.CONSTRAINT)
    return (*found, (lower, upper))


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
    intervals (*constraint* is then not looked at) and every batch on a
    channel whose constraints fly (:func:`send_constraints`).

    Validation comes first — an unbound id or an invalid bound raises
    with the ledger, the table and every source untouched.  Then the
    ``n`` constraint messages are charged at once, the deployment rule
    runs over the population's value plane and the bound/belief columns,
    and the outcome is scattered into the population's filter planes —
    *table*'s columns.  Self-corrections are emitted last, in batch
    order: *time* (a scalar or a column) and the sources' values
    are fixed across the batch, so each report is the one its own
    message would have sent — the caller must only ensure that emitting
    cannot re-enter it (a guarded host step queues them).
    """
    if not channel.constraints_inline:
        return False
    found = _charged_population(channel, table, ids, constraint)
    if found is None:
        return False
    population, rows, (lower, upper) = found
    values = population.values[rows]
    inside, must_report = deployment_outcome_columns(
        values, lower, upper, belief
    )
    population.lower[rows] = lower
    population.upper[rows] = upper
    population.filtered[rows] = True
    population.inside[rows] = inside
    table._note_constraint(ids)
    reporting = np.nonzero(must_report)[0]
    if reporting.size:
        times = np.broadcast_to(np.asarray(time, dtype=np.float64), len(ids))
        for row, value, at in zip(
            (id_column(ids)[reporting] - population.first_id).tolist(),
            values[reporting].tolist(),
            times[reporting].tolist(),
        ):
            population._report(row, value, at)
    return True


def send_constraints(
    channel: Channel,
    table: StreamStateTable,
    ids: np.ndarray,
    constraint: tuple,
    belief: np.ndarray,
    time,
) -> bool:
    """:func:`install_constraints` on a latency-modeled channel: one
    columnar *send*, validated and charged the same way, each row
    installed — into the population's planes, which are *table*'s
    columns — when :meth:`~repro.network.latency.LatencyChannel.
    send_constraint_rows` delivers it.  ``False`` (nothing touched) on a
    synchronous channel or for a batch that must travel per-message."""
    if channel.constraints_inline:
        return False
    found = _charged_population(channel, table, ids, constraint)
    if found is None:
        return False
    lower, upper = constraint
    channel.send_constraint_rows(
        found[0],
        id_column(ids).tolist(),
        lower.tolist(),
        upper.tolist(),
        [None if code == BELIEF_NONE else bool(code) for code in belief.tolist()],
        [float(time)] * len(ids) if np.ndim(time) == 0 else time.tolist(),
    )
    return True


def probe_sources(
    channel: Channel, table: StreamStateTable, ids: np.ndarray
) -> np.ndarray | None:
    """Probe the sources behind *ids* as one columnar operation: their
    current values, or ``None`` (nothing touched) when the batch must
    travel per-message.

    Charges the ``2n`` request/reply messages and resynchronizes every
    installed filter's believed side with the value read — one
    comparison over the population's planes and one scatter into them
    (*table*'s columns).  Recording the replies is the caller's half, as in
    ``probe``.
    """
    found = _bulk_population(channel, table, ids)
    if found is None:
        return None
    channel.charge_bulk(
        ids, MessageKind.PROBE_REQUEST, MessageKind.PROBE_REPLY
    )
    population = found[0]
    rows = ids - population.first_id
    values = population.values[rows]
    filtered = population.filtered[rows]
    inside = (
        (population.lower[rows] <= values) & (values <= population.upper[rows])
    )[filtered]
    population.inside[rows[filtered]] = inside
    table._note_constraint(ids)
    return values
