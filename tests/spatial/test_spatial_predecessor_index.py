"""A point trace keeps its predecessor index as a scalar trace does.

A moving-objects workload is a :class:`~repro.streams.trace.StreamTrace`
of points, so its ``previous_record`` is the records'
:func:`~repro.state.runs.previous_in_stream` index, built on first use
and kept on the instance, and every checked run over one trace reads one
index (DESIGN.md §9).  The index's own contract is tested on scalar
and point traces alike in ``tests/streams/test_trace.py``.
"""

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness import checker as checker_module
from repro.runtime import replay as replay_module
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialRangeQuery
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)
from repro.state.runs import previous_in_stream
from repro.streams import trace as trace_module
from repro.tolerance.fraction_tolerance import FractionTolerance


def test_two_checked_runs_build_one_index(monkeypatch):
    """A checked spatial run reads the trace's index: two of them over
    one fresh trace build it once, and leave it on the trace."""
    calls = []

    def spy(stream_ids):
        calls.append(len(stream_ids))
        return previous_in_stream(stream_ids)

    for module in (trace_module, checker_module, replay_module):
        monkeypatch.setattr(module, "previous_in_stream", spy)
    trace = generate_moving_objects_trace(
        MovingObjectsConfig(n_objects=40, horizon=60.0, seed=1)
    )
    query = SpatialRangeQuery(BoxRegion([350.0, 350.0], [650.0, 650.0]))
    checked = Deployment.single(check_every=1, strict=True)
    for spec in (
        QuerySpec("zt-nrp-2d", query),
        QuerySpec("ft-nrp-2d", query, FractionTolerance(0.2, 0.2)),
    ):
        result = Engine().run(spec, Workload.from_trace(trace), checked)
        assert result.tolerance_ok
    assert calls == [trace.n_records]
    assert "previous_record" in vars(trace)
