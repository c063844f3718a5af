"""The scalar payload vocabulary (DESIGN.md §13).

A stream value is a float, a constraint a closed interval ``[lower,
upper]``.  Interval constraints are columns — two float arrays — so a
``deploy_many`` lowers its bound to them (``constraint_columns``), a
qualifying batch installs as one columnar operation, and the transport
deploy path ships raw ``lower`` / ``upper`` columns.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.correctness.checker import ToleranceViolationError
from repro.correctness.oracle import Oracle
from repro.network.messages import (
    ConstraintMessage,
    ProbeReplyMessage,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.runtime.membership import BELIEF_NONE, belief_codes
from repro.runtime.vocabulary import Vocabulary
from repro.streams.control import constraint_columns, install_constraints
from repro.streams.source import ScalarPopulation


def _interval_columns(messages) -> tuple[np.ndarray, ...]:
    """Buffered constraint messages as ``(ids, lower, upper, belief,
    times)`` columns — the shape of a ``deploy_many`` chunk."""
    n = len(messages)
    return (
        np.fromiter((m.stream_id for m in messages), np.int64, n),
        np.fromiter((m.lower for m in messages), np.float64, n),
        np.fromiter((m.upper for m in messages), np.float64, n),
        belief_codes((m.assumed_inside for m in messages), n),
        np.fromiter((m.time for m in messages), np.float64, n),
    )


def flush_interval_deploys(coordinator) -> None:
    """Ship the transport coordinator's buffered interval deploys.

    Single deploys are framed as typed columns and concatenated with
    the ``deploy_many`` chunks in call order; the mirror table takes the
    bounds in one scatter (duplicates: numpy fancy assignment keeps the
    last write, which is exactly the in-order per-message outcome)
    and each worker run travels as raw ``lower`` / ``upper`` columns.
    """
    gids, lowers, uppers, assumed, times = coordinator.take_deploys(
        _interval_columns
    )
    state = coordinator.state
    state.lower[gids] = lowers
    state.upper[gids] = uppers
    state.scannable[gids] = True
    coordinator.ship_deploys(
        gids, assumed, times, lambda a, b: (lowers[a:b], uppers[a:b])
    )


def install_interval_batch(
    worker, local_ids, lowers, uppers, assumed, times
) -> list:
    """Install one shipped interval batch at a shard worker's sources,
    in order; returns the self-corrections as ``(local id, value,
    time)`` tuples.  One columnar operation when the batch qualifies
    (DESIGN.md §12); per-message for a batch naming a stream twice.
    """
    if not install_constraints(
        worker.channel, worker.table, local_ids, (lowers, uppers), assumed, times
    ):
        send = worker.channel.send_to_source
        for local_id, lower, upper, belief, time in zip(
            local_ids.tolist(),
            lowers.tolist(),
            uppers.tolist(),
            assumed.tolist(),
            times.tolist(),
        ):
            send(
                ConstraintMessage(
                    local_id,
                    time,
                    lower,
                    upper,
                    None if belief == BELIEF_NONE else bool(belief),
                )
            )
    return list(worker.outbox)


SCALAR = Vocabulary(
    stack="streams",
    probe_request=ProbeRequestMessage,
    probe_reply=ProbeReplyMessage,
    update=UpdateMessage,
    constraint=ConstraintMessage,
    payload_of=attrgetter("value"),
    population=ScalarPopulation,
    initial_column="initial_values",
    record_column="values",
    constraint_columns=constraint_columns,
    oracle=Oracle,
    violation_error=ToleranceViolationError,
    check_offset=0,
    flush_deploys=flush_interval_deploys,
    install_batch=install_interval_batch,
)
