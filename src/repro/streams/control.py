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
one by one): the channel must be synchronous — or, for a probe batch,
latency-modeled, since probes never queue — with every tap bulk-capable
and hand the whole batch to one
:class:`~repro.streams.source.ScalarPopulation`
(:meth:`~repro.network.channel.Channel.bulk_target`) that writes through
to *table*, and the ids must be distinct — an O(1) test plus one pass
over the batch, never over the population.  The kernels are then column
operations on the population's planes plus the same scatters into the
table a per-message write-through makes.  That is also how the hosts'
shared ``deploy_columns`` / ``probe_columns`` serve the spatial stack
with no branch: a point population never qualifies, so its batches are
the ordered per-message loop (DESIGN.md §15) — as are those of a
window population (its probes recenter) and of a hand-built list of
one-row populations.
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
from repro.state.table import StreamStateTable
from repro.streams.filters import FilterConstraint
from repro.streams.source import ScalarPopulation


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


def _bulk_population(channel: Channel, table: StreamStateTable, ids, probe):
    """The :class:`ScalarPopulation` whose rows *ids* name when the batch
    (of probes if *probe*) qualifies for a columnar operation against
    *table*, else ``None``: one population handles every id on *channel*,
    it writes through to *table*, and the ids are distinct."""
    population = channel.bulk_target(ids, probe)
    if type(population) is not ScalarPopulation or population.table is not table:
        return None
    if not (ids[1:] > ids[:-1]).all() and len(np.unique(ids)) != len(ids):
        return None
    return population


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
    ``n`` constraint messages are charged at once, the deployment rule
    runs over the population's value plane and the bound/belief columns,
    and the outcome is scattered into the population's filter planes and
    written through to *table*.  Self-corrections are emitted last, in
    batch order: *time* (a scalar or a column) and the sources' values
    are fixed across the batch, so each report is the one its own
    message would have sent — the caller must only ensure that emitting
    cannot re-enter it (a guarded host step queues them).
    """
    population = _bulk_population(channel, table, ids, probe=False)
    if population is None:
        return False
    lower, upper = constraint
    bad = np.isnan(lower) | np.isnan(upper) | (lower > upper)
    if bad.any():  # FilterConstraint's own ValueError, first bad pair
        first = int(np.argmax(bad))
        FilterConstraint(float(lower[first]), float(upper[first]))
    channel.charge_bulk(ids, MessageKind.CONSTRAINT)
    rows = ids - population.first_id
    values = population.values[rows]
    inside, must_report = deployment_outcome_columns(
        values, lower, upper, belief
    )
    population.lower[rows] = lower
    population.upper[rows] = upper
    population.filtered[rows] = True
    population.inside[rows] = inside
    table.set_filter_rows(ids, lower, upper, inside)
    reporting = np.nonzero(must_report)[0]
    if reporting.size:
        times = np.broadcast_to(np.asarray(time, dtype=np.float64), ids.shape)
        for row, value, at in zip(
            rows[reporting].tolist(),
            values[reporting].tolist(),
            times[reporting].tolist(),
        ):
            population._report(row, value, at)
    return True


def probe_sources(
    channel: Channel, table: StreamStateTable, ids: np.ndarray
) -> np.ndarray | None:
    """Probe the sources behind *ids* as one columnar operation: their
    current values, or ``None`` (nothing touched) when the batch must
    travel per-message.

    Charges the ``2n`` request/reply messages and resynchronizes every
    installed filter's believed side with the value read — one
    comparison over the population's planes, one scatter into them and
    one into *table*.  Recording the replies is the caller's half, as in
    ``probe``.
    """
    population = _bulk_population(channel, table, ids, probe=True)
    if population is None:
        return None
    channel.charge_bulk(
        ids, MessageKind.PROBE_REQUEST, MessageKind.PROBE_REPLY
    )
    rows = ids - population.first_id
    values = population.values[rows]
    filtered = population.filtered[rows]
    inside = (
        (population.lower[rows] <= values) & (values <= population.upper[rows])
    )[filtered]
    population.inside[rows[filtered]] = inside
    table.set_inside_rows(ids[filtered], inside)
    return values
