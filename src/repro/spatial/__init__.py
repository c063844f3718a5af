"""Multi-dimensional extension of the filter protocols (Section 7).

The paper's protocols are presented in one dimension but "can be
extended to multiple dimensions": filter constraints become *regions*
(axis-aligned boxes for range queries, balls around the query point for
k-NN), and the violation rule is unchanged — a source reports exactly
when its point's membership in the deployed region flips.

This subpackage provides that extension end to end:

* :mod:`repro.spatial.geometry` — regions (box, ball, all-space and
  empty silencers) with containment and boundary-distance operations;
* :mod:`repro.spatial.queries` — box range queries and Euclidean k-NN;
* :mod:`repro.spatial.source` / :mod:`repro.spatial.workloads` — the
  point population and moving-object workloads;
* :mod:`repro.spatial.messages` — the region constraint message and the
  transport's region / point frame codec;
* :mod:`repro.spatial.vocabulary` — the spatial payload vocabulary
  (DESIGN.md §13): what the shared servers, session assembler and
  engine executor read to host ``-2d`` specs, bound by name through
  :class:`~repro.spatial.server.SpatialServer` and the ``Spatial*``
  coordinators in ``repro.server``.

Dimension is data below the filter too: a moving-objects workload is a
:class:`~repro.streams.trace.StreamTrace` whose value columns are
``(n, d)`` / ``(m, d)``, a point travels in the scalar stack's
``UpdateMessage`` / ``ProbeReplyMessage`` ``value`` field, and a strict
run raises the one ``ToleranceViolationError``.  There are no spatial
protocols: the six algorithms in :mod:`repro.protocols` are written
against a bound value — of which ``[l, u]`` and a region are two
instances — so a ``-2d`` spec runs the very class its scalar namesake
runs, hosted on this package's vocabulary (DESIGN.md §15).
"""

from repro.spatial.geometry import (
    ALL_SPACE,
    EMPTY_REGION,
    BallRegion,
    BoxRegion,
    Region,
    UnionRegion,
)
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.server import SpatialServer
from repro.spatial.vocabulary import SPATIAL
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)

__all__ = [
    "ALL_SPACE",
    "BallRegion",
    "BoxRegion",
    "EMPTY_REGION",
    "MovingObjectsConfig",
    "Region",
    "SPATIAL",
    "SpatialKnnQuery",
    "SpatialRangeQuery",
    "SpatialServer",
    "UnionRegion",
    "generate_moving_objects_trace",
]
