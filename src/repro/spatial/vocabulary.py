"""The spatial payload vocabulary (DESIGN.md §13).

A stream value is a d-dimensional point, a constraint a
:class:`~repro.spatial.geometry.Region` object.  Regions are not float
columns: a ``deploy_many`` lowers its bound to one object column
(``region_columns``) that the in-process hosts send per stream, and the
transport deploy path frames each worker run as a
:class:`~repro.spatial.messages.RegionBatchFrame` and takes the
self-corrections back as a point-batch frame.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.membership import BELIEF_NONE, belief_codes, belief_column
from repro.runtime.vocabulary import Vocabulary
from repro.spatial.geometry import ALL_SPACE, EMPTY_REGION
from repro.spatial.messages import (
    RegionConstraintMessage,
    pack_points,
    pack_regions,
    unpack_regions,
)
from repro.spatial.oracle import SpatialOracle
from repro.spatial.source import PointPopulation
from repro.state.sharding import id_column, scatter_region_deploys


def region_columns(stream_ids, bound, assumed_inside=None, silenced=None):
    """Lower a ``deploy_many`` call to ``(ids, (regions,), belief)``
    columns: int64 ids, an object column holding *bound* — ``ALL_SPACE``
    for the false-positive and ``EMPTY_REGION`` for the false-negative
    members of the *silenced* pools — and int8 belief codes.  Regions
    have no columnar install, so the in-process hosts send the column
    as their ordered per-stream ``deploy`` loop."""
    ids = id_column(stream_ids)
    regions = np.empty(ids.shape, dtype=object)
    regions.fill(bound)
    if silenced is not None:
        regions[np.isin(ids, list(silenced.fp))] = ALL_SPACE
        regions[np.isin(ids, list(silenced.fn))] = EMPTY_REGION
    return ids, (regions,), belief_column(assumed_inside, ids.shape)


def _region_columns(messages) -> tuple[np.ndarray, ...]:
    """Buffered constraint messages as ``(ids, regions, belief, times)``
    columns — the shape of a ``deploy_many`` chunk."""
    n = len(messages)
    regions = np.empty(n, dtype=object)
    regions[:] = [m.region for m in messages]
    return (
        np.fromiter((m.stream_id for m in messages), np.int64, n),
        regions,
        belief_codes((m.assumed_inside for m in messages), n),
        np.fromiter((m.time for m in messages), np.float64, n),
    )


def flush_region_deploys(coordinator) -> None:
    """Ship the transport coordinator's buffered region deploys.

    One :class:`RegionBatchFrame` per consecutive same-worker run, so
    the per-source install order is the sequential deploy order; the
    mirror's containers column and geometric plane are scattered in
    bulk before any RPC reply can be observed.
    """
    gids, regions, assumed, times = coordinator.take_deploys(_region_columns)
    regions = regions.tolist()
    dimension = coordinator.trace.values.shape[1]
    scatter_region_deploys(coordinator.state, gids, regions, dimension)
    coordinator.ship_deploys(
        gids,
        assumed,
        times,
        lambda a, b: (pack_regions(regions[a:b], dimension),),
    )


def install_region_batch(worker, local_ids, frame, assumed, times):
    """Install one shipped region frame at a shard worker's sources, in
    order; returns the self-corrections as a point-batch frame.

    The frame decodes once (shared instances per distinct encoding,
    mirroring the sequential coordinator's shared region objects) and
    installs through the point population, which scatters the
    quiescence boxes into the worker's geometric plane.
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
    constraint=RegionConstraintMessage,
    population=PointPopulation,
    constraint_columns=region_columns,
    oracle=SpatialOracle,
    check_offset=-1,
    flush_deploys=flush_region_deploys,
    install_batch=install_region_batch,
)
