"""The first stretch of a trace, for tests that want a short run.

Traces carry no truncation of their own (no workload cuts one);
:func:`head` builds the prefix a test needs — ``head(trace, 0.0)`` is
the initialization-only run.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def head(trace, horizon: float):
    """*trace*'s records at or before *horizon*, over the same streams,
    ending at *horizon* (a scalar or a point trace)."""
    keep = int(np.searchsorted(trace.times, horizon, side="right"))
    return dataclasses.replace(
        trace,
        times=trace.times[:keep],
        stream_ids=trace.stream_ids[:keep],
        values=trace.values[:keep],
        horizon=horizon,
    )
