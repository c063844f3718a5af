"""Moving-object workloads for the spatial protocols.

The paper motivates k-NN queries with location monitoring of moving
objects (Section 1, [21]).  This generator produces objects moving in a
d-dimensional box as reflected Gaussian random walks with exponential
report times — the natural multi-dimensional analogue of the Section 6.2
synthetic model, drawn and sorted by the same ``walk_records`` into the
same :class:`~repro.streams.trace.StreamTrace`, with ``(n, d)`` /
``(m, d)`` value columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import RandomStreams
from repro.streams.generators import BoundedRandomWalk
from repro.streams.synthetic import walk_records
from repro.streams.trace import StreamTrace


@dataclass(frozen=True)
class MovingObjectsConfig:
    """Parameters of the moving-objects workload.

    Attributes
    ----------
    n_objects:
        Number of moving objects (streams).
    dimension:
        Spatial dimension (2 for the location scenarios).
    horizon:
        Virtual duration.
    mean_interarrival:
        Mean gap between an object's position reports.
    sigma:
        Per-dimension Gaussian step deviation per report.
    extent:
        Objects live in ``[0, extent]^dimension`` (reflecting walls).
    seed:
        Master seed.
    """

    n_objects: int = 200
    dimension: int = 2
    horizon: float = 300.0
    mean_interarrival: float = 20.0
    sigma: float = 20.0
    extent: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects <= 0:
            raise ValueError("n_objects must be positive")
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.extent <= 0:
            raise ValueError("extent must be positive")


def generate_moving_objects_trace(
    config: MovingObjectsConfig | None = None, **overrides
) -> StreamTrace:
    """Materialize a moving-objects workload as a replayable trace."""
    if config is None:
        config = MovingObjectsConfig()
    if overrides:
        config = MovingObjectsConfig(**{**config.__dict__, **overrides})
    rng = RandomStreams(config.seed)
    position_rng = rng.get("initial-positions")
    arrival_rng = rng.get("report-times")
    step_rng = rng.get("steps")

    initial = position_rng.uniform(
        0.0, config.extent, size=(config.n_objects, config.dimension)
    )

    times, points, ids = walk_records(
        BoundedRandomWalk(config.sigma, low=0.0, high=config.extent),
        initial, arrival_rng, step_rng, config.mean_interarrival, config.horizon,
    )
    return StreamTrace(
        initial, times, ids, points,
        horizon=config.horizon,
        metadata={
            "workload": "moving-objects",
            "n_objects": config.n_objects,
            "dimension": config.dimension,
            "sigma": config.sigma,
            "seed": config.seed,
        },
    )
