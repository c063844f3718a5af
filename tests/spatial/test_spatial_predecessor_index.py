"""A spatial trace keeps its predecessor index as a stream trace does.

``SpatialTrace.previous_record`` is the records'
:func:`~repro.state.runs.previous_in_stream` index, built on first use
and kept on the instance, so every checked run over one trace reads one
index (DESIGN.md §9).
"""

import dataclasses

import numpy as np

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness import checker as checker_module
from repro.runtime import replay as replay_module
from repro.spatial import trace as spatial_trace_module
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)
from repro.state.runs import previous_in_stream
from repro.tolerance.fraction_tolerance import FractionTolerance


def _manual_trace():
    return SpatialTrace(
        initial_points=np.zeros((4, 2)),
        times=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        stream_ids=np.array([0, 1, 2, 0, 3]),
        points=np.arange(10.0).reshape(5, 2),
        horizon=6.0,
    )


def test_built_once_and_correct():
    trace = _manual_trace()
    index = trace.previous_record
    assert index.tolist() == [-1, -1, -1, 0, -1]
    assert trace.previous_record is index


def test_not_a_field():
    trace = _manual_trace()
    trace.previous_record
    names = {f.name for f in dataclasses.fields(trace)}
    assert "previous_record" not in names
    assert dataclasses.asdict(trace).keys() == names
    assert "previous_record" not in vars(dataclasses.replace(trace))


def test_two_checked_runs_build_one_index(monkeypatch):
    """A checked spatial run reads the trace's index: two of them over
    one fresh trace build it once, and leave it on the trace."""
    calls = []

    def spy(stream_ids):
        calls.append(len(stream_ids))
        return previous_in_stream(stream_ids)

    for module in (spatial_trace_module, checker_module, replay_module):
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
