"""Replayable update traces.

A :class:`StreamTrace` is the full input to a simulation run: one initial
value per stream plus a time-ordered sequence of ``(time, stream_id,
value)`` records.  Materializing workloads as traces (instead of sampling
inside the run) guarantees that every protocol in a comparison processes
*identical* data — the paper's figures compare protocols on the same trace.

Traces serialize to ``.npz`` for caching expensive workloads between
benchmark invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.state.runs import flips_in_stream, previous_in_stream

#: :meth:`StreamTrace.crossings`' records per pass and intervals kept (DESIGN.md §9).
CROSSINGS_BLOCK, CROSSINGS_KEPT = 1 << 16, 4


@dataclass(frozen=True)
class TraceRecord:
    """A single stream update: at *time*, stream *stream_id* takes *value*."""

    time: float
    stream_id: int
    value: float


@dataclass
class StreamTrace:
    """A complete, time-ordered workload for one simulation run.

    Attributes
    ----------
    initial_values:
        ``initial_values[i]`` is stream ``i``'s value at virtual time 0.
    times, stream_ids, values:
        Parallel arrays of update records, sorted by time (FIFO-stable).
    horizon:
        Virtual end time of the run (>= the last record's time).
    metadata:
        Generator parameters, for provenance in results.
    """

    initial_values: np.ndarray
    times: np.ndarray
    stream_ids: np.ndarray
    values: np.ndarray
    horizon: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.initial_values = np.asarray(self.initial_values, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.stream_ids = np.asarray(self.stream_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (len(self.times) == len(self.stream_ids) == len(self.values)):
            raise ValueError("record arrays must have equal length")
        if len(self.times) and np.any(np.diff(self.times) < 0):
            raise ValueError("trace records must be sorted by time")
        if len(self.times):
            if self.times[0] < 0:
                raise ValueError("record times must be non-negative")
            if self.horizon < self.times[-1]:
                raise ValueError("horizon precedes the last record")
            bad = (self.stream_ids < 0) | (
                self.stream_ids >= len(self.initial_values)
            )
            if np.any(bad):
                raise ValueError("record references an unknown stream id")

    @property
    def n_streams(self) -> int:
        return len(self.initial_values)

    @property
    def n_records(self) -> int:
        return len(self.times)

    def __len__(self) -> int:
        return self.n_records

    @cached_property
    def previous_record(self) -> np.ndarray:
        """The records' :func:`~repro.state.runs.previous_in_stream`
        index, which :meth:`crossings` reads.  Built on first use and
        shared by every run over this trace; not a field — never
        compared, saved, or carried into a derived trace — and stale if
        the record arrays are rewritten afterwards."""
        return previous_in_stream(self.stream_ids)

    def crossings(self, lower: float, upper: float) -> np.ndarray:
        """The sorted indices of the records whose containment in the
        closed ``[lower, upper]`` differs from their stream's previous
        record's, or initial value's: blockwise :func:`~repro.state.runs.
        flips_in_stream`, kept read-only for the last few intervals like
        :attr:`previous_record`.  An empty interval lists nothing."""
        if not lower <= upper:  # nan or inverted bounds: not kept
            return np.empty(0, dtype=np.intp)
        memo = self.__dict__.setdefault("_crossings", {})
        if (lower, upper) not in memo:
            side = (lower <= self.initial_values) & (self.initial_values <= upper)
            hits = [np.empty(0, dtype=np.intp)]
            for a in range(0, self.n_records, CROSSINGS_BLOCK):
                b = a + CROSSINGS_BLOCK
                block, ids = self.values[a:b], self.stream_ids[a:b]
                after = (lower <= block) & (block <= upper)
                back = self.previous_record[a:b] - a
                hits.append(a + np.flatnonzero(flips_in_stream(after, side, ids, back)))
                side[ids] = after  # each stream's last side (test_scatter_order.py)
            if len(memo) == CROSSINGS_KEPT:
                del memo[next(iter(memo))]
            memo[lower, upper] = np.concatenate(hits)
            memo[lower, upper].flags.writeable = False
        return memo[lower, upper]

    def __iter__(self) -> Iterator[TraceRecord]:
        for time, stream_id, value in zip(
            self.times, self.stream_ids, self.values
        ):
            yield TraceRecord(float(time), int(stream_id), float(value))

    def restrict_streams(self, n_streams: int) -> "StreamTrace":
        """Project the trace onto the first *n_streams* streams.

        Used by the scalability experiment (Fig. 11): one master trace is
        generated once and sliced per population size, so smaller systems
        see a strict subset of the same update sequence.
        """
        if not 0 < n_streams <= self.n_streams:
            raise ValueError(
                f"n_streams must be in [1, {self.n_streams}], got {n_streams}"
            )
        keep = self.stream_ids < n_streams
        return StreamTrace(
            initial_values=self.initial_values[:n_streams].copy(),
            times=self.times[keep],
            stream_ids=self.stream_ids[keep],
            values=self.values[keep],
            horizon=self.horizon,
            metadata={**self.metadata, "restricted_to": n_streams},
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace to an ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            initial_values=self.initial_values,
            times=self.times,
            stream_ids=self.stream_ids,
            values=self.values,
            horizon=np.array([self.horizon]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "StreamTrace":
        """Read a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(
                initial_values=data["initial_values"],
                times=data["times"],
                stream_ids=data["stream_ids"],
                values=data["values"],
                horizon=float(data["horizon"][0]),
                metadata={"loaded_from": str(path)},
            )

