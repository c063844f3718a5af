"""Outside-in layer tracing: timing wrappers on public entry points.

The traced run is the same ``Engine.run`` call as an untraced one,
executed while :class:`Tracer` has replaced a fixed table of class (and
a few module) attributes with timing wrappers.  Each wrapper records a
span — name, start, end, parent — and the tracer folds spans into
per-name aggregates as they close:

* ``calls``   — spans closed under that name,
* ``total_s`` — sum of span durations,
* ``self_s``  — sum of (duration minus the part covered by child spans).

Self times of all names therefore sum to the root span's duration, so
the root's own self time is exactly the wall no listed layer accounts
for.  Nothing under ``src/`` knows about this module; an entry point
that a later refactor renames or removes is reported in
``Tracer.missing`` and its metrics read 0 — it never breaks a run.

Workers forked by the shard transport restore the original attributes
in the child (``os.register_at_fork``): spans are coordinator-side
only, and worker code runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable, Mapping


def _spans(prefix: str, *attrs: str) -> dict[str, str]:
    """attribute -> ``prefix.attribute`` span name."""
    return {attr: f"{prefix}.{attr}" for attr in attrs}


_CONTROL_PLANE = _spans("server", "probe", "probe_all", "deploy", "broadcast")
_SPATIAL_CONTROL_PLANE = _spans("server", "probe", "probe_all", "deploy")
_STATE = {
    "record_deploy": "state.record_deploy",
    "record_region_deploy": "state.record_deploy",
    "geometric_quiescence_mask": "state.geo_mask",
}
_SEND = {"send_to_server": "network.send", "send_to_source": "network.send"}

#: (module, class or None for a module-level function) -> {attribute: span}.
#: An inherited attribute is covered by its defining class's row; a row
#: that resolves to nothing lands in ``Tracer.missing``.
EntryPoints = Mapping[tuple[str, str | None], Mapping[str, str]]
ENTRY_POINTS: EntryPoints = {
    ("repro.api.engine", "Engine"): {"run": "api.run"},
    ("repro.api.spec", "QuerySpec"): {"build": "api.build"},
    ("repro.runtime.session", "ExecutionSession"): {
        "for_streams": "runtime.assemble",
        "for_streams_sharded": "runtime.assemble",
        "for_spatial": "runtime.assemble",
        "for_spatial_sharded": "runtime.assemble",
        "initialize": "runtime.initialize",
        "replay": "runtime.replay",
    },
    # The source side of a dispatch: per-event apply, and the handler a
    # channel delivery lands in (probe reply / constraint install).
    # ``_handle_message`` and ``_write_snapshot`` (last row) are the only
    # private names wrapped: no public call sits at those two boundaries,
    # and without them 30-40% of the rank workloads would read as
    # ``network.send`` self time.
    ("repro.runtime.source", "FilteredSource"): {"apply": "runtime.source_apply"},
    ("repro.runtime.source", "ChannelFilteredSource"): {
        "_handle_message": "runtime.source_handle"
    },
    ("repro.server.server", "Server"): _CONTROL_PLANE,
    ("repro.server.sharded", "ShardedServer"): _CONTROL_PLANE,
    ("repro.server.sharded", "ShardedSpatialServer"): _SPATIAL_CONTROL_PLANE,
    ("repro.spatial.server", "SpatialServer"): _SPATIAL_CONTROL_PLANE,
    ("repro.server.transport", "TransportShardedServer"): {
        **_CONTROL_PLANE,
        **_spans("server.transport", "launch", "initialize", "replay", "close"),
    },
    ("repro.server.transport", "SpatialTransportShardedServer"): _CONTROL_PLANE,
    ("repro.state.table", "StreamStateTable"): _STATE,
    ("repro.state.sharding", "StateShardView"): _STATE,
    ("repro.state.rank", "RankView"): {
        "leaders": "state.rank",
        "leader_pairs": "state.rank",
        "order": "state.rank",
    },
    ("repro.state.sharding", "ShardedRankView"): {
        "leaders": "state.rank",
        "order": "state.rank",
    },
    ("repro.network.channel", "Channel"): _SEND,
    ("repro.network.latency", "LatencyChannel"): {
        **_SEND,
        "drain_in_flight": "network.drain",
    },
    ("repro.correctness.checker", "ToleranceChecker"): {"check": "correctness.check"},
    ("repro.correctness.oracle", "Oracle"): {"apply": "correctness.oracle_apply"},
    ("repro.spatial.oracle", "SpatialOracle"): {"apply": "correctness.oracle_apply"},
    ("repro.durability.journal", "Journal"): {
        "append_events": "durability.append",
        "append_message": "durability.append",
        "append_snapshot_mark": "durability.append",
        "sync": "durability.sync",
        "flush": "durability.sync",
    },
    ("repro.durability.runner", None): {"_write_snapshot": "durability.snapshot"},
}

#: Spans kept verbatim for ``--json``; the aggregates cover every span.
SPAN_LOG_CAP = 20_000


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        span_cap: int = SPAN_LOG_CAP,
    ) -> None:
        self._clock = clock
        self._span_cap = span_cap
        #: (owner object, attribute, original raw attribute) per wrapper.
        self._installed: list[tuple[object, str, object]] = []
        self._fork_hook_registered = False
        #: Table rows whose module/class/attribute did not resolve.
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop collected spans (wrappers stay installed)."""
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        #: [name, start, end, parent index or -1], first ``span_cap`` only.
        self.spans: list[list] = []
        self.spans_dropped = 0
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* timed as one span named *name* per call."""
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            spans = self.spans
            if len(spans) < self._span_cap:
                index = len(spans)
                parent = stack[-1][2] if stack else -1
                row = [name, 0.0, 0.0, parent]
                spans.append(row)
            else:
                index = -1
                row = None
                self.spans_dropped += 1
            # frame: [child seconds, start, span index]
            frame = [0.0, clock(), index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][0] += duration
                total = self.totals.get(name)
                if total is None:
                    total = self.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if row is not None:
                    row[1] = frame[1]
                    row[2] = end

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(
        self,
        entry_points: EntryPoints = ENTRY_POINTS,
        protocol_class: type | None = None,
    ) -> "Tracer":
        """Wrap every resolvable entry point; use as a context manager.

        *protocol_class* is the concrete class ``spec.build()`` returns:
        its ``on_update`` / ``initialize`` are wrapped on whichever
        class in its MRO defines them.
        """
        for (module_name, class_name), attrs in entry_points.items():
            prefix = f"{module_name}.{class_name}" if class_name else module_name
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.extend(f"{prefix}.{attr}" for attr in attrs)
                continue
            for attr, name in attrs.items():
                if attr in vars(owner):
                    self._wrap_attribute(name, owner, attr)
                elif not hasattr(owner, attr):
                    self.missing.append(f"{prefix}.{attr}")
                # else: inherited — the defining class has its own row.
        if protocol_class is not None:
            for span, attr in (
                ("protocols.on_update", "on_update"),
                ("protocols.initialize", "initialize"),
            ):
                for klass in protocol_class.__mro__:
                    if attr in vars(klass):
                        self._wrap_attribute(span, klass, attr)
                        break
                else:
                    self.missing.append(f"{protocol_class.__name__}.{attr}")
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self.remove)
            self._fork_hook_registered = True
        return self

    def _wrap_attribute(self, name: str, owner: object, attr: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(self.wrap(name, raw.__func__))
        elif callable(raw):
            wrapped = self.wrap(name, raw)
        else:  # a property or data attribute is not a call boundary
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.remove()
        return False
