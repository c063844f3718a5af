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
* :mod:`repro.spatial.source` / :mod:`repro.spatial.trace` /
  :mod:`repro.spatial.workloads` — vector-valued sources and
  moving-object workloads;
* :mod:`repro.spatial.protocols` — spatial counterparts of ZT-NRP,
  FT-NRP, RTP, ZT-RP and FT-RP;
* :mod:`repro.spatial.vocabulary` — the spatial payload vocabulary
  (DESIGN.md §13): what the shared servers, session assembler and
  engine executor read to host ``-2d`` specs, bound by name through
  :class:`~repro.spatial.server.SpatialServer` and the ``Spatial*``
  coordinators in ``repro.server`` (the deprecated
  :func:`~repro.spatial.runner.run_spatial_protocol` shim delegates to
  the engine).

The 1-D implementation in the parent package follows the paper line by
line; this package re-derives the same logic over regions so the 1-D
code stays textually faithful.
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
from repro.spatial.protocols import (
    SpatialFractionKnnProtocol,
    SpatialFractionRangeProtocol,
    SpatialNoFilterProtocol,
    SpatialRankToleranceProtocol,
    SpatialZeroKnnProtocol,
    SpatialZeroRangeProtocol,
)
from repro.spatial.runner import run_spatial_protocol
from repro.spatial.server import SpatialServer
from repro.spatial.trace import SpatialTrace
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
    "SpatialFractionKnnProtocol",
    "SpatialFractionRangeProtocol",
    "SpatialKnnQuery",
    "SpatialNoFilterProtocol",
    "SpatialRangeQuery",
    "SpatialRankToleranceProtocol",
    "SpatialServer",
    "SpatialTrace",
    "SpatialZeroKnnProtocol",
    "SpatialZeroRangeProtocol",
    "UnionRegion",
    "generate_moving_objects_trace",
    "run_spatial_protocol",
]
