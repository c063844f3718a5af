"""The spatial server: region deployments and point probes."""

from __future__ import annotations

from repro.server.server import Server


class SpatialServer(Server):
    """:class:`~repro.server.server.Server` bound to the spatial
    vocabulary (DESIGN.md §13): ``probe`` returns a point,
    ``deploy(stream_id, region)`` installs a region."""

    stack = "spatial"
