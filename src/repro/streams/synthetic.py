"""The synthetic workload of Section 6.2.

Quoting the paper: "We assume 5000 data streams, and data values are
initially uniformly distributed in the range [0, 1000].  The time between
each data item is generated follows an exponential distribution with a
mean of 20 time units.  When a new data value is generated, its difference
from the previous value follows a normal distribution with a mean of 0 and
standard deviation (sigma) of 20."

:func:`generate_synthetic_trace` reproduces exactly that process.  The
stream count, horizon and sigma are parameters because Figures 12-15 sweep
them; defaults match the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import RandomStreams
from repro.state.runs import sort_columns
from repro.streams.generators import RandomWalk, ValueProcess
from repro.streams.trace import StreamTrace

#: Streams generated per block: bounds the generator's temporaries (a
#: ``(block, e)`` gap matrix, the padded walk) independently of n.
BLOCK_STREAMS = 2048


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the Section 6.2 synthetic workload.

    Attributes
    ----------
    n_streams:
        Number of stream sources (paper: 5000).
    horizon:
        Virtual duration of the run; each stream produces on average
        ``horizon / mean_interarrival`` updates.
    mean_interarrival:
        Mean of the exponential inter-update time (paper: 20).
    sigma:
        Standard deviation of the Gaussian step (paper default: 20;
        Fig. 13 sweeps 20..100).
    value_low, value_high:
        Range of the uniform initial values (paper: [0, 1000]).
    seed:
        Master seed; two configs with equal fields produce identical traces.
    """

    n_streams: int = 5000
    horizon: float = 2000.0
    mean_interarrival: float = 20.0
    sigma: float = 20.0
    value_low: float = 0.0
    value_high: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_streams <= 0:
            raise ValueError("n_streams must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.value_low >= self.value_high:
            raise ValueError("value_low must be < value_high")


def generate_synthetic_trace(
    config: SyntheticConfig | None = None,
    process: ValueProcess | None = None,
    **overrides,
) -> StreamTrace:
    """Materialize a Section 6.2 workload as a replayable trace.

    Parameters
    ----------
    config:
        Workload parameters; keyword *overrides* are applied on top, so
        ``generate_synthetic_trace(sigma=60)`` tweaks a single field.
    process:
        Optional alternative value-evolution process; defaults to the
        paper's unbounded Gaussian :class:`RandomWalk` with ``config.sigma``.

    Returns
    -------
    StreamTrace
        Time-sorted updates for all streams over ``[0, horizon]``.
    """
    if config is None:
        config = SyntheticConfig()
    if overrides:
        config = SyntheticConfig(
            **{**config.__dict__, **overrides}  # dataclass is flat/frozen
        )
    rng_streams = RandomStreams(config.seed)
    init_rng = rng_streams.get("initial-values")
    arrival_rng = rng_streams.get("interarrival-times")
    step_rng = rng_streams.get("value-steps")
    walk = process if process is not None else RandomWalk(sigma=config.sigma)

    initial_values = init_rng.uniform(
        config.value_low, config.value_high, size=config.n_streams
    )

    times, values, ids = walk_records(
        walk, initial_values, arrival_rng, step_rng,
        config.mean_interarrival, config.horizon,
    )
    return StreamTrace(
        initial_values, times, ids, values,
        horizon=config.horizon,
        metadata={
            "workload": "synthetic",
            "n_streams": config.n_streams,
            "horizon": config.horizon,
            "mean_interarrival": config.mean_interarrival,
            "sigma": config.sigma,
            "seed": config.seed,
        },
    )


def walk_records(walk, initials, arrival_rng, step_rng, mean, horizon) -> list:
    """``[times, values, stream_ids]``, sorted by time, of streams that
    start at *initials*, report after exponential gaps of mean *mean*
    within ``[0, horizon]`` and move by *walk*'s steps.

    Stream order first (DESIGN.md §19): every stream's arrivals, one
    block of streams at a time, then each block's walk into one value
    column; then one sort, equal times keeping stream order.
    """
    n, width = len(initials), max(8, int(horizon / mean * 1.3) + 8)
    starts = range(0, n, BLOCK_STREAMS)
    blocks = [
        _arrival_block(arrival_rng, mean, horizon, width, min(BLOCK_STREAMS, n - at))
        for at in starts
    ]
    times, counts = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    values = np.empty((len(times), *initials.shape[1:]))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for at in starts:
        stop = min(at + BLOCK_STREAMS, n)
        values[offsets[at] : offsets[stop]] = walk.walks(
            initials[at:stop], counts[at:stop], step_rng
        )
    columns = [times, values]
    del times, values
    sort_columns(columns, counts)
    return columns


def _arrival_block(rng, mean: float, horizon: float, width: int, count: int):
    """Poisson arrivals of *count* consecutive streams within ``[0,
    horizon]``, concatenated in stream order, and how many each has.

    The variates are one sequence of rows of *width* gaps.  A stream
    takes the next row's ``cumsum`` and, while its last arrival is short
    of the horizon, the row after as ``last + cumsum(row)``, shifting
    every later stream down a row.  Rows are drawn once surely needed;
    only the short ones are walked (DESIGN.md §19).
    """
    rows = np.empty((0, width))
    short, tails = [], {}  # short rows; short stream -> arrivals past its row
    extra = np.zeros(count, dtype=np.int64)  # rows past the first, by stream
    spent = done = 0  # extra rows so far; rows spoken for
    while short or count + spent > len(rows):
        if not short:  # the streams so far have their rows: draw the rest
            more = rng.exponential(mean, size=(count + spent - len(rows), width))
            more = np.cumsum(more, axis=1)
            short = (np.flatnonzero(more[:, -1] < horizon) + len(rows)).tolist()
            rows = np.concatenate([rows, more])
            continue
        row = short.pop(0)
        if row < done:  # already a continuation of an earlier stream
            continue
        stream, last, parts, done = row - spent, rows[row, -1], [], row + 1
        while last < horizon:
            if done == len(rows):
                more = rng.exponential(mean, size=(1, width))
                rows = np.concatenate([rows, np.cumsum(more, axis=1)])
            parts.append(last + rows[done])
            last, done = parts[-1][-1], done + 1
        extra[stream] = len(parts)
        spent += len(parts)
        tails[stream] = np.concatenate(parts)
    arrivals = rows[np.arange(count) + np.cumsum(extra) - extra]
    if tails:  # widen the first rows, padded past any horizon
        longest = max(len(tail) for tail in tails.values())
        arrivals = np.hstack([arrivals, np.full((count, longest), np.inf)])
        for stream, tail in tails.items():
            arrivals[stream, width : width + len(tail)] = tail
    inside = arrivals <= horizon
    return arrivals[inside], np.count_nonzero(inside, axis=1)
