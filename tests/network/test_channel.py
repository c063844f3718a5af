"""Unit tests for the synchronous channel."""

import math
import pickle

import numpy as np
import pytest

from repro.network.accounting import MessageLedger
from repro.network.channel import Channel
from repro.network.messages import (
    MessageKind,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.runtime.membership import BELIEF_INSIDE, BELIEF_NONE, belief_column
from repro.state.table import StreamStateTable
from repro.streams.control import (
    check_bounds,
    constraint_columns,
    install_constraints,
    probe_sources,
)
from repro.streams.filters import FilterConstraint
from repro.streams.source import ScalarPopulation


def raw_columns(stream_ids, lower, upper):
    """``(ids, (lower, upper), belief)`` from per-row endpoints — bounds
    ``constraint_columns`` cannot produce from a (validated) bound."""
    ids = np.asarray(stream_ids, dtype=np.int64)
    bounds = tuple(
        np.broadcast_to(np.asarray(column, dtype=np.float64), ids.shape)
        for column in (lower, upper)
    )
    return ids, bounds, belief_column(None, ids.shape)


def test_update_reaches_server_and_is_recorded(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_server(UpdateMessage(stream_id=0, time=1.0, value=5.0))
    assert len(received) == 1
    assert received[0].value == 5.0
    assert ledger.count(MessageKind.UPDATE) == 1


def test_probe_request_routes_to_right_source(wired_channel):
    channel, ledger, sources, received = wired_channel
    channel.send_to_source(ProbeRequestMessage(stream_id=2, time=0.0))
    # Source 2 replies with its current value (20.0).
    assert len(received) == 1
    assert received[0].kind is MessageKind.PROBE_REPLY
    assert received[0].value == 20.0
    assert ledger.count(MessageKind.PROBE_REQUEST) == 1
    assert ledger.count(MessageKind.PROBE_REPLY) == 1


def test_send_without_server_raises():
    channel = Channel(MessageLedger())
    with pytest.raises(RuntimeError):
        channel.send_to_server(UpdateMessage(0, 0.0, 1.0))


def test_send_to_unknown_source_raises(wired_channel):
    channel, *_ = wired_channel
    with pytest.raises(RuntimeError):
        channel.send_to_source(ProbeRequestMessage(stream_id=99, time=0.0))


def test_source_ids_sorted(wired_channel):
    channel, *_ = wired_channel
    assert channel.source_ids == [0, 1, 2]


def test_a_pickle_that_still_carries_a_tap_list_loads_and_works(
    wired_population, monkeypatch
):
    """A run directory written before the tap list was retired pickled
    its channel with a ``_taps`` key; that channel still loads,
    delivers, charges and takes whole batches once rewired."""
    channel, *_ = wired_population
    current = Channel.__getstate__

    def with_taps(self):
        return {**current(self), "_taps": []}

    monkeypatch.setattr(Channel, "__getstate__", with_taps)
    blob = pickle.dumps(channel)
    monkeypatch.undo()
    restored = pickle.loads(blob)
    assert restored._taps == []  # inert: nothing reads it
    received: list = []
    restored.bind_server(received.append)
    population = ScalarPopulation([0.0, 10.0, 20.0], [restored], [(0, 3)])
    before = restored.ledger.total
    restored.send_to_source(ProbeRequestMessage(stream_id=2, time=1.0))
    assert [(m.stream_id, m.value) for m in received] == [(2, 20.0)]
    assert restored.ledger.total == before + 2
    assert restored.bulk_target(np.array([0, 1, 2])) is population


def test_source_ids_cache_follows_bind_source(wired_channel):
    """The sorted id list is cached; a later bind must invalidate it, and
    callers get a copy they can mutate freely."""
    channel, *_ = wired_channel
    first = channel.source_ids
    first.append(99)
    assert channel.source_ids == [0, 1, 2]
    channel.bind_source(-1, lambda message: None)
    assert channel.source_ids == [-1, 0, 1, 2]


# ----------------------------------------------------------------------
# The columnar control plane's channel half (DESIGN.md §12)
# ----------------------------------------------------------------------
@pytest.fixture
def wired_population():
    """``wired_channel``'s system with the three sources as ONE columnar
    population bound to a table — what the bulk kernels qualify; a list
    of hand-built ``StreamSource`` objects travels per-message.

    Returns ``(channel, ledger, population, table, received)``.
    """
    ledger = MessageLedger()
    channel = Channel(ledger)
    received: list = []
    channel.bind_server(received.append)
    population = ScalarPopulation([0.0, 10.0, 20.0], [channel], [(0, 3)])
    table = StreamStateTable(3)
    population.bind_state(table)
    return channel, ledger, population, table, received


def _fingerprint(ledger, table, sources):
    return (
        ledger.snapshot(),
        table.lower.tolist(),
        table.upper.tolist(),
        table.inside.tolist(),
        table.scannable.tolist(),
        [(s.constraint, s.reported_inside, s.value) for s in sources],
    )


def test_one_range_binding_serves_the_whole_population(wired_population):
    channel, ledger, population, _, received = wired_population
    assert len(channel._source_ranges) == 1
    assert channel.source_ids == [0, 1, 2] and channel.n_sources == 3
    channel.send_to_source(ProbeRequestMessage(stream_id=2, time=1.0))
    assert [(m.stream_id, m.value) for m in received] == [(2, 20.0)]
    assert type(received[0].value) is float
    with pytest.raises(RuntimeError, match="no source 3 bound"):
        channel.send_to_source(ProbeRequestMessage(stream_id=3, time=1.0))
    assert ledger.total == 2


def test_bulk_install_matches_per_message_sends(wired_population):
    channel, ledger, sources, table, received = wired_population
    beliefs = [BELIEF_INSIDE, BELIEF_NONE, BELIEF_INSIDE]
    assert install_constraints(
        channel, table, *constraint_columns([2, 0, 1], FilterConstraint(5.0, 15.0), beliefs), 7.0
    )
    assert ledger.count(MessageKind.CONSTRAINT) == 3
    # Values are 0, 10, 20: source 2 is believed inside but is not (one
    # self-correction, at the batch's time); source 1 is inside; source
    # 0 carries no belief.
    assert [(m.stream_id, m.time, m.value) for m in received] == [(2, 7.0, 20.0)]
    assert ledger.count(MessageKind.UPDATE) == 1
    assert [s.reported_inside for s in sources] == [False, True, False]
    assert sources[0].constraint == sources[2].constraint == FilterConstraint(5.0, 15.0)
    assert table.inside.tolist() == [False, True, False]
    assert table.scannable.all()


@pytest.mark.parametrize(
    "lower, upper",
    [([1.0, math.nan, 1.0], 5.0), ([1.0, 9.0, 1.0], [5.0, 3.0, 5.0])],
    ids=["nan", "inverted"],
)
def test_bulk_install_rejects_bad_bounds_before_charging(
    wired_population, lower, upper
):
    """Same ``ValueError`` as ``FilterConstraint``; nothing touched."""
    channel, ledger, sources, table, received = wired_population
    before = _fingerprint(ledger, table, sources)
    with pytest.raises(ValueError) as bulk:
        install_constraints(
            channel, table, *raw_columns([0, 1, 2], lower, upper), 1.0
        )
    _, (bad_lower, bad_upper), _ = raw_columns([0, 1, 2], lower, upper)
    with pytest.raises(ValueError) as scalar:
        FilterConstraint(float(bad_lower[1]), float(bad_upper[1]))
    assert str(bulk.value) == str(scalar.value)
    assert _fingerprint(ledger, table, sources) == before
    assert received == []


def test_bulk_install_rejects_unbound_id_before_charging(wired_population):
    """Same ``RuntimeError`` as ``send_to_source``; nothing touched."""
    channel, ledger, sources, table, received = wired_population
    before = _fingerprint(ledger, table, sources)
    with pytest.raises(RuntimeError) as bulk:
        install_constraints(
            channel, table, *constraint_columns([0, 99, 2], FilterConstraint(1.0, 5.0)), 1.0
        )
    with pytest.raises(RuntimeError) as scalar:
        channel.send_to_source(ProbeRequestMessage(stream_id=99, time=0.0))
    assert str(bulk.value) == str(scalar.value)
    with pytest.raises(RuntimeError):
        probe_sources(channel, table, np.array([0, 99]))
    assert _fingerprint(ledger, table, sources) == before
    assert received == []


def test_bulk_operations_decline_what_they_cannot_batch(
    wired_population, wired_channel
):
    """A duplicated id, a population bound to another table, a handler
    that is no source's method — shadowing an id of the population or
    bound beside it —, a list of hand-built sources: the kernels return
    their "send it per-message" value with nothing charged."""
    channel, ledger, sources, table, _ = wired_population
    ids = np.array([0, 1, 2])

    def declined(on_channel, on_table, stream_ids):
        columns = constraint_columns(stream_ids, FilterConstraint(1.0, 5.0))
        return (
            install_constraints(on_channel, on_table, *columns, 0.0) is False
            and probe_sources(on_channel, on_table, columns[0]) is None
        )

    assert declined(channel, table, [0, 1, 0])
    assert declined(channel, StreamStateTable(3), ids)
    for handler in (lambda message: None, [].append):
        channel.bind_source(1, handler)
        assert declined(channel, table, ids)
    channel.bind_source(1, sources.handle)
    channel.bind_source(3, handler)
    assert declined(channel, table, [0, 1, 2, 3])
    assert ledger.total == 0
    # One-row populations, each bound to the table at its own row.
    listed, listed_ledger, hand_built, _ = wired_channel
    shared = StreamStateTable(3)
    for source in hand_built:
        source._population.bind_state(shared)
    assert declined(listed, shared, ids) and listed_ledger.total == 0
    # ... and the population's own batch goes through, charged at once.
    assert probe_sources(channel, table, ids).tolist() == [0.0, 10.0, 20.0]
    assert ledger.count(MessageKind.PROBE_REQUEST) == 3
    assert ledger.count(MessageKind.PROBE_REPLY) == 3


@pytest.mark.parametrize(
    "lower, upper, first_bad",
    [
        ([1.0, 9.0, 7.0], [5.0, 3.0, 2.0], (9.0, 3.0)),
        (6.0, np.array([8.0, 5.0, 9.0]), (6.0, 5.0)),
        (np.array([1.0, 1.0]), np.array([2.0, math.nan]), (1.0, math.nan)),
    ],
    ids=["first-of-two-inverted", "scalar-lower", "nan-upper"],
)
def test_check_bounds_raises_for_the_first_bad_pair(lower, upper, first_bad):
    """The batch check raises what ``FilterConstraint`` raises for the
    first NaN or inverted pair, a scalar standing for its column."""
    with pytest.raises(ValueError) as batch:
        check_bounds(np.asarray(lower), np.asarray(upper))
    with pytest.raises(ValueError) as scalar:
        FilterConstraint(*first_bad)
    assert str(batch.value) == str(scalar.value)


def test_check_bounds_passes_point_and_degenerate_intervals():
    inf = math.inf
    check_bounds(np.array([5.0, -inf, inf]), np.array([5.0, inf, inf]))
    check_bounds(2.0, np.array([2.0, 3.0]))
    check_bounds(np.empty(0), np.empty(0))
