"""The spatial payload vocabulary (DESIGN.md §13).

A stream value is a d-dimensional point, a constraint a
:class:`~repro.spatial.geometry.Region` object.  Regions are not
columns, so this vocabulary has no interval bulk operations, and its
transport deploy path — the one genuinely different algorithm — frames
each worker run as a :class:`~repro.spatial.messages.RegionBatchFrame`
and takes the self-corrections back as a point-batch frame.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.runtime.membership import BELIEF_NONE, belief_codes
from repro.runtime.vocabulary import Vocabulary, no_interval_bulk
from repro.spatial.messages import (
    PointProbeReplyMessage,
    PointProbeRequestMessage,
    PointUpdateMessage,
    RegionConstraintMessage,
    pack_point_in_flight,
    pack_points,
    pack_regions,
    unpack_point_in_flight,
    unpack_regions,
)
from repro.spatial.oracle import SpatialOracle
from repro.spatial.source import SpatialStreamSource
from repro.state.sharding import scatter_region_deploys


class SpatialToleranceViolationError(AssertionError):
    """Raised in strict mode when a spatial protocol breaks tolerance."""


def record_region_deploy(
    table, row: int, message: RegionConstraintMessage
) -> None:
    table.record_container_deploy(row, message.region)


def flush_region_deploys(coordinator) -> None:
    """Ship the transport coordinator's buffered region deploys.

    One :class:`RegionBatchFrame` per consecutive same-worker run, so
    the per-source install order is the sequential deploy order; the
    mirror's containers column and geometric plane are scattered in
    bulk before any RPC reply can be observed.
    """
    messages = [m for batch in coordinator.take_deploys() for m in batch]
    n = len(messages)
    gids = np.fromiter((m.stream_id for m in messages), np.int64, n)
    regions = [m.region for m in messages]
    times = np.fromiter((m.time for m in messages), np.float64, n)
    dimension = coordinator.trace.dimension
    scatter_region_deploys(coordinator.state, gids, regions, dimension)
    coordinator.ship_deploys(
        gids,
        belief_codes((m.assumed_inside for m in messages), n),
        times,
        lambda a, b: (pack_regions(regions[a:b], dimension),),
    )


def install_region_batch(worker, local_ids, frame, assumed, times):
    """Install one shipped region frame at a shard worker's sources, in
    order; returns the self-corrections as a point-batch frame.

    The frame decodes once (shared instances per distinct encoding,
    mirroring the sequential coordinator's shared region objects) and
    installs through the sources, whose membership write-through
    scatters the quiescence boxes into the worker's geometric plane.
    """
    send = worker.channel.send_to_source
    for local_id, region, belief, time in zip(
        local_ids.tolist(),
        unpack_regions(frame),
        assumed.tolist(),
        times.tolist(),
    ):
        send(
            RegionConstraintMessage(
                local_id,
                time,
                region,
                None if belief == BELIEF_NONE else bool(belief),
            )
        )
    outbox = worker.outbox
    dimension = worker.values.shape[1]
    return pack_points(
        [entry[0] for entry in outbox],
        np.asarray([entry[1] for entry in outbox], np.float64).reshape(
            len(outbox), dimension
        ),
        [entry[2] for entry in outbox],
        dimension,
    )


SPATIAL = Vocabulary(
    stack="spatial",
    probe_request=PointProbeRequestMessage,
    probe_reply=PointProbeReplyMessage,
    update=PointUpdateMessage,
    constraint=RegionConstraintMessage,
    payload_of=attrgetter("point"),
    source=SpatialStreamSource,
    initial_column="initial_points",
    record_column="points",
    record_deploy=record_region_deploy,
    constraint_columns=no_interval_bulk,
    oracle=SpatialOracle,
    violation_error=SpatialToleranceViolationError,
    check_offset=-1,
    pack_in_flight=pack_point_in_flight,
    unpack_in_flight=unpack_point_in_flight,
    payload_items=list,
    flush_deploys=flush_region_deploys,
    install_batch=install_region_batch,
)
