"""The block generator draws the per-stream generator's variates.

``generate_synthetic_trace`` walks the random sequence one block of
streams at a time (DESIGN.md §19); the per-stream loop it replaced lives
here as the oracle.  A different trace would silently move every ledger
and figure in the repository, so the criterion is ``np.array_equal`` on
all four trace arrays — also the guard for a numpy upgrade that changes
how a sized draw consumes its generator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import figure01, figure12, figure13, figure14, figure15
from repro.sim.rng import RandomStreams
from repro.streams import synthetic
from repro.streams.generators import (
    BoundedRandomWalk,
    RandomWalk,
    ValueProcess,
)
from repro.streams.synthetic import (
    BLOCK_STREAMS,
    SyntheticConfig,
    _arrival_block,
    generate_synthetic_trace,
)
from repro.streams.trace import StreamTrace


# ----------------------------------------------------------------------
# The oracle: one stream at a time, as the generator was written first
# ----------------------------------------------------------------------
def reference_arrivals(rng, mean, horizon, width=None) -> np.ndarray:
    """One stream's arrivals: a row of *width* gaps, extended row by
    row as ``times[-1] + cumsum(more)`` until the horizon is passed."""
    if width is None:
        width = max(8, int(horizon / mean * 1.3) + 8)
    times = np.cumsum(rng.exponential(mean, size=width))
    while times[-1] < horizon:
        more = rng.exponential(mean, size=width)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times <= horizon]


def reference_trace(config, process=None, streams=RandomStreams) -> StreamTrace:
    rng_streams = streams(config.seed)
    init_rng = rng_streams.get("initial-values")
    arrival_rng = rng_streams.get("interarrival-times")
    step_rng = rng_streams.get("value-steps")
    walk = process if process is not None else RandomWalk(sigma=config.sigma)
    initial_values = init_rng.uniform(
        config.value_low, config.value_high, size=config.n_streams
    )
    all_times, all_ids, all_values = [], [], []
    for stream_id in range(config.n_streams):
        times = reference_arrivals(
            arrival_rng, config.mean_interarrival, config.horizon
        )
        if len(times) == 0:
            continue
        values = walk.steps(float(initial_values[stream_id]), len(times), step_rng)
        all_times.append(times)
        all_ids.append(np.full(len(times), stream_id, dtype=np.int64))
        all_values.append(values)
    if all_times:
        times = np.concatenate(all_times)
        ids = np.concatenate(all_ids)
        values = np.concatenate(all_values)
        order = np.argsort(times, kind="stable")
        times, ids, values = times[order], ids[order], values[order]
    else:
        times, ids, values = np.empty(0), np.empty(0, np.int64), np.empty(0)
    return StreamTrace(
        initial_values=initial_values,
        times=times,
        stream_ids=ids,
        values=values,
        horizon=config.horizon,
    )


def assert_same_trace(config, process=None) -> StreamTrace:
    expected = reference_trace(config, process)
    trace = generate_synthetic_trace(config, process)
    for column in ("initial_values", "times", "stream_ids", "values"):
        got, want = getattr(trace, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column
    return trace


# ----------------------------------------------------------------------
# Every configuration a ledger in the repository depends on
# ----------------------------------------------------------------------
def _figure_configs():
    for module in (figure01, figure12, figure13, figure14, figure15):
        for profile, params in module._PROFILES.items():
            for sigma in params.get("sigma_values", [20.0]):
                yield pytest.param(
                    dict(
                        n_streams=params["n_streams"],
                        horizon=params["horizon"],
                        sigma=sigma,
                    ),
                    id=f"{module.__name__.rsplit('.', 1)[1]}-{profile.value}"
                    f"-sigma{sigma:g}",
                )


#: ``benchmarks/e2e/workloads.py``'s synthetic workloads (``expected_seed0
#: .json`` pins their seed-0 outputs) at full and ``--smoke`` horizons.
E2E_WORKLOADS = {
    "range_filter": dict(n_streams=10_000, horizon=1600.0),
    "range_checked_latency": dict(n_streams=1000, horizon=120.0),
    "topk": dict(n_streams=10_000, horizon=2.5),
    "range_transport_latency": dict(n_streams=1000, horizon=20.0),
    "range_durable": dict(n_streams=10_000, horizon=300.0, sigma=150.0),
}

#: The golden ``journal.bin`` workloads (tests/durability) and the
#: population-scale ones (tests/runtime/test_population_scale.py).
PINNED = {
    "durability-small": dict(n_streams=40, horizon=100.0, sigma=60.0, seed=23),
    "durability-recovery": dict(n_streams=120, horizon=400.0, seed=23),
    "population-100k": dict(n_streams=100_000, horizon=2.0, seed=1),
    "population-2k": dict(n_streams=2_000, horizon=20.0, seed=2),
    "conftest-small": dict(n_streams=100, horizon=200.0, seed=7),
    "conftest-tiny": dict(n_streams=20, horizon=150.0, seed=3),
}


@pytest.mark.parametrize("params", _figure_configs())
def test_figure_workloads(params):
    assert_same_trace(SyntheticConfig(seed=0, **params))


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("name", sorted(E2E_WORKLOADS))
def test_e2e_workloads_at_seed0(name, smoke):
    params = dict(E2E_WORKLOADS[name], seed=0)
    if smoke:
        params["horizon"] /= 20
    assert_same_trace(SyntheticConfig(**params))


@pytest.mark.parametrize("seed", range(5))
def test_range_filter_seeds(seed):
    assert_same_trace(SyntheticConfig(n_streams=10_000, horizon=1600.0, seed=seed))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_workloads(name):
    assert_same_trace(SyntheticConfig(**PINNED[name]))


# ----------------------------------------------------------------------
# The walk's corners
# ----------------------------------------------------------------------
def test_many_short_rows():
    """n = 100k at h = 160: one row in ~650 is short (a stream holds at
    least a full row of arrivals only then), so nearly every block
    shifts its tail and draws extra rows at its end."""
    config = SyntheticConfig(n_streams=100_000, horizon=160.0, seed=0)
    width = int(160.0 / 20.0 * 1.3) + 8
    trace = assert_same_trace(config)
    per_stream = np.bincount(trace.stream_ids, minlength=config.n_streams)
    assert np.count_nonzero(per_stream >= width) > 100


def test_dense_arrivals():
    assert_same_trace(
        SyntheticConfig(n_streams=3000, horizon=1.0, mean_interarrival=0.05, seed=4)
    )


@pytest.mark.parametrize("n_streams", [1, BLOCK_STREAMS - 1, BLOCK_STREAMS, 4097])
def test_block_edges(n_streams):
    assert_same_trace(SyntheticConfig(n_streams=n_streams, horizon=300.0, seed=9))


def test_streams_without_records():
    for horizon in (0.01, 0.5):
        trace = assert_same_trace(
            SyntheticConfig(n_streams=3000, horizon=horizon, seed=5)
        )
    assert 0 < len(np.unique(trace.stream_ids)) < 3000


def test_horizon_before_every_arrival():
    trace = assert_same_trace(
        SyntheticConfig(n_streams=10, horizon=1e-9, seed=0)
    )
    assert trace.n_records == 0


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 12),
    count=st.integers(1, 40),
    horizon=st.floats(0.01, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_arrival_block_walks_like_the_stream_loop(width, count, horizon, seed):
    """Narrow rows make nearly every stream short, several rows deep, and
    move the block's last streams past everything drawn — the walk must
    still hand each stream exactly its rows and leave the sequence where
    the loop leaves it."""
    reference_rng = np.random.default_rng(seed)
    want = [reference_arrivals(reference_rng, 5.0, horizon, width) for _ in range(count)]
    rng = np.random.default_rng(seed)
    times, counts = _arrival_block(rng, 5.0, horizon, width, count)
    assert counts.tolist() == [len(w) for w in want]
    assert np.array_equal(times, np.concatenate(want))
    assert rng.random() == reference_rng.random()


# ----------------------------------------------------------------------
# Value processes: vectorized where the process says how, else per stream
# ----------------------------------------------------------------------
class Doubling(ValueProcess):
    """A custom process with only ``step``: the default ``walks``."""

    def step(self, current, rng):
        return 0.5 * current + rng.normal(0.0, 3.0)


@pytest.mark.parametrize(
    "process",
    [
        BoundedRandomWalk(sigma=150.0, low=0.0, high=1000.0),
        Doubling(),
    ],
    ids=lambda p: type(p).__name__,
)
@pytest.mark.parametrize("n_streams", [1, 300, 2500])
def test_value_processes(process, n_streams):
    assert_same_trace(
        SyntheticConfig(n_streams=n_streams, horizon=150.0, seed=11), process
    )


def test_custom_process_takes_the_default_path():
    assert type(Doubling()).walks is ValueProcess.walks
    assert RandomWalk.walks is not ValueProcess.walks


# ----------------------------------------------------------------------
# Tied times: the stable fallback keeps stream order
# ----------------------------------------------------------------------
class _RegularArrivals:
    """Seeded streams whose arrival gaps are all exactly the mean, so
    every stream arrives at the same instants."""

    def __init__(self, seed):
        self._streams = RandomStreams(seed)

    def get(self, name):
        rng = self._streams.get(name)
        if name != "interarrival-times":
            return rng

        class Regular:
            def exponential(self, mean, size):
                return np.full(size, float(mean))

        return Regular()


def test_tied_times_keep_stream_order(monkeypatch):
    config = SyntheticConfig(n_streams=3000, horizon=400.0, seed=6)
    monkeypatch.setattr(synthetic, "RandomStreams", _RegularArrivals)
    trace = generate_synthetic_trace(config)
    expected = reference_trace(config, streams=_RegularArrivals)
    for column in ("times", "stream_ids", "values"):
        assert np.array_equal(getattr(trace, column), getattr(expected, column))
    # Twenty instants, each shared by every stream in id order.
    assert len(np.unique(trace.times)) == 20
    assert np.array_equal(trace.stream_ids, np.tile(np.arange(3000), 20))
