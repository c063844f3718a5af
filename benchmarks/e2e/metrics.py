"""Metric tables and the arithmetic that fills them.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` repeats them (plus the
end-to-end bounds) for the driver, and ``test_harness.py`` checks the
two agree.

The end-to-end time metrics are per *work item* — one trace record
consumed or one protocol message charged to the ledger — because the
driver judges steadiness across ``--seed`` values, and on the rank
workloads the seed moves the work itself: ten seeds of ``topk_reinit``
spread the ledger, and with it the wall and records/s, by 0.6-0.75
(IQR / median) while the cost per item spreads by 0.04-0.09.  The item
count is meant as an input-side constant, not something a change may
trade against time: the ledger of a given trace is this repo's
specification (ROADMAP: "never trade away byte-identical ledgers").  A
seed-0 run whose ledger differs from ``expected_seed0.json`` is a failed
run, and ``compare`` calls any ``network.ledger.*`` difference between
two reports ``worse`` — so a change that moves the message count is
caught there, before its per-item rates are read.  The raw wall, CPU,
records/s and maintenance-message count of the same runs are reported
under the ``api`` and ``network`` layers.
"""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

#: (name, unit, better) — reported with ``--trace 0``.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("items_per_s", "items/s", "higher"),
    ("cpu_us_per_item", "us/item", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

_SPAN_SELF = "s", "lower"
_COUNT = "count", "lower"

#: (name, unit, better) — reported with ``--trace 1``.  A metric whose
#: layer does not run on a workload (or whose entry point is gone)
#: reads 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("streams.materialize_s", "s", "lower"),
    ("streams.records", "count", "higher"),
    ("streams.trace_mb", "MiB", "lower"),
    ("api.run_s", "s", "lower"),
    ("api.cpu_s", "s", "lower"),
    ("api.records_per_s", "records/s", "higher"),
    ("api.run_s_iqr_ratio", "ratio", "lower"),
    ("host.slowdown_ratio", "ratio", "lower"),
    ("api.run_self_s", *_SPAN_SELF),
    ("api.run_self_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("runtime.assemble_s", *_SPAN_SELF),
    ("runtime.initialize_s", *_SPAN_SELF),
    ("runtime.replay_self_s", *_SPAN_SELF),
    ("runtime.replay.ns_per_record", "ns", "lower"),
    ("runtime.source_apply_self_s", *_SPAN_SELF),
    ("runtime.source_handle_self_s", *_SPAN_SELF),
    ("runtime.source_handle_calls", *_COUNT),
    ("runtime.replay.dispatches", *_COUNT),
    ("runtime.replay.staged", "count", "higher"),
    ("runtime.replay.staged_share", "ratio", "higher"),
    ("runtime.replay.chunk_scans", *_COUNT),
    ("runtime.replay.suffix_rescans", *_COUNT),
    ("runtime.replay.broadcast_truncations", *_COUNT),
    ("runtime.replay.inflight_truncations", *_COUNT),
    ("runtime.replay.bailout_at", *_COUNT),
    ("protocols.on_update_self_s", *_SPAN_SELF),
    ("protocols.on_update_calls", *_COUNT),
    ("protocols.initialize_self_s", *_SPAN_SELF),
    ("server.deploy_self_s", *_SPAN_SELF),
    ("server.deploy_calls", *_COUNT),
    ("server.deploy_us_per_call", "us", "lower"),
    ("server.probe_self_s", *_SPAN_SELF),
    ("server.probe_calls", *_COUNT),
    ("server.probe_all_self_s", *_SPAN_SELF),
    ("server.broadcast_self_s", *_SPAN_SELF),
    ("state.record_deploy_self_s", *_SPAN_SELF),
    ("state.record_deploy_calls", *_COUNT),
    ("state.rank_self_s", *_SPAN_SELF),
    ("state.rank_calls", *_COUNT),
    ("state.geo_mask_self_s", *_SPAN_SELF),
    ("state.geo_mask_calls", *_COUNT),
    ("network.send_self_s", *_SPAN_SELF),
    ("network.send_calls", *_COUNT),
    ("network.drain_self_s", *_SPAN_SELF),
    ("network.ledger.updates", *_COUNT),
    ("network.ledger.probes", *_COUNT),
    ("network.ledger.constraints", *_COUNT),
    ("network.ledger.initialization", *_COUNT),
    ("network.ledger.maintenance", *_COUNT),
    ("correctness.check_self_s", *_SPAN_SELF),
    ("correctness.checks", *_COUNT),
    ("correctness.check_us_per_call", "us", "lower"),
    ("correctness.oracle_apply_self_s", *_SPAN_SELF),
    ("correctness.violations_inherent", *_COUNT),
    ("correctness.violations_protocol_bug", *_COUNT),
    ("server.transport.launch_s", *_SPAN_SELF),
    ("server.transport.initialize_s", *_SPAN_SELF),
    ("server.transport.replay_s", *_SPAN_SELF),
    ("server.transport.close_s", *_SPAN_SELF),
    ("server.transport.epochs", *_COUNT),
    ("server.transport.posts", *_COUNT),
    ("server.transport.replies", *_COUNT),
    ("server.transport.bytes_out", "bytes", "lower"),
    ("server.transport.bytes_in", "bytes", "lower"),
    ("server.transport.recv_wait_s", "s", "lower"),
    ("server.transport.worker_busy_max_s", "s", "lower"),
    ("server.transport.worker_busy_sum_s", "s", "lower"),
    ("server.transport.in_flight_deliveries", *_COUNT),
    ("server.transport.coord_self_s", "s", "lower"),
    ("server.transport.us_per_epoch", "us", "lower"),
    ("server.transport.bytes_per_record", "bytes", "lower"),
    ("server.transport.modeled_wall_s", "s", "lower"),
    ("server.transport.model_gap_ratio", "ratio", "lower"),
    ("server.transport.vs_sequential_ratio", "ratio", "lower"),
    ("durability.append_self_s", *_SPAN_SELF),
    ("durability.sync_self_s", *_SPAN_SELF),
    ("durability.snapshot_self_s", *_SPAN_SELF),
    ("durability.journal.appends", *_COUNT),
    ("durability.journal.bytes", "bytes", "lower"),
    ("durability.journal.fsyncs", *_COUNT),
    ("durability.journal.flushes", *_COUNT),
    ("durability.snapshots.count", *_COUNT),
    ("durability.snapshots.bytes", "bytes", "lower"),
    ("durability.resume_s", "s", "lower"),
    ("durability.vs_nondurable_ratio", "ratio", "lower"),
)

def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_ratio(values: Sequence[float]) -> float:
    """(q3 - q1) / median — the noise reading printed beside a median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def ledger_counts(ledger) -> dict:
    """Per-phase, per-kind message counts in a JSON-comparable shape."""
    return {
        phase: {
            str(getattr(kind, "value", kind)): int(count)
            for kind, count in sorted(
                getattr(ledger, phase).items(), key=lambda item: str(item[0])
            )
            if count
        }
        for phase in ("initialization", "maintenance")
    }


def work_items(report) -> int:
    """Trace records consumed plus ledger messages charged."""
    return int(report.n_records) + int(report.ledger.total)


def report_metrics(report) -> dict[str, float]:
    """Per-layer numbers carried by a (traced or untraced) ``RunReport``."""
    out: dict[str, float] = {}
    extras = report.extras
    replay = extras.get("replay") or {}
    records = int(report.n_records)
    out["streams.records"] = records
    for key in (
        "dispatches",
        "staged",
        "chunk_scans",
        "suffix_rescans",
        "broadcast_truncations",
        "inflight_truncations",
    ):
        out[f"runtime.replay.{key}"] = int(replay.get(key) or 0)
    out["runtime.replay.staged_share"] = (
        out["runtime.replay.staged"] / records if records else 0.0
    )
    bailout = replay.get("dispatch_bailout_at")
    out["runtime.replay.bailout_at"] = -1 if bailout is None else int(bailout)

    out["network.ledger.updates"] = report.update_messages
    out["network.ledger.probes"] = report.probe_messages
    out["network.ledger.constraints"] = report.constraint_messages
    out["network.ledger.initialization"] = report.initialization_messages
    out["network.ledger.maintenance"] = report.maintenance_messages

    out["correctness.checks"] = int(report.checks)
    out["correctness.violations_inherent"] = int(
        extras.get("violations_inherent_latency", 0)
    )
    out["correctness.violations_protocol_bug"] = int(
        extras.get("violations_protocol_bug", 0)
    )

    transport = replay.get("transport")
    if transport:
        busy = transport.get("worker_busy_seconds") or [0.0]
        for key in ("epochs", "posts", "replies", "bytes_out", "bytes_in"):
            out[f"server.transport.{key}"] = int(transport.get(key, 0))
        out["server.transport.in_flight_deliveries"] = int(
            transport.get("in_flight_deliveries", 0)
        )
        out["server.transport.recv_wait_s"] = float(
            transport.get("recv_wait_seconds", 0.0)
        )
        out["server.transport.worker_busy_max_s"] = max(busy)
        out["server.transport.worker_busy_sum_s"] = sum(busy)
        out["server.transport.bytes_per_record"] = (
            (out["server.transport.bytes_out"] + out["server.transport.bytes_in"])
            / records
            if records
            else 0.0
        )

    durability = extras.get("durability")
    if durability:
        journal = durability.get("journal", {})
        for key in ("appends", "bytes", "fsyncs", "flushes"):
            out[f"durability.journal.{key}"] = int(journal.get(key, 0))
        snapshots = durability.get("snapshots", {})
        out["durability.snapshots.count"] = int(snapshots.get("count", 0))
        out["durability.snapshots.bytes"] = int(snapshots.get("bytes", 0))
    return out


def transport_wall_metrics(wall_s: float, from_report: Mapping) -> dict:
    """Transport figures that combine a run's wall with its own report."""
    epochs = from_report.get("server.transport.epochs")
    if not epochs:
        return {}
    coord = wall_s - from_report["server.transport.recv_wait_s"]
    modeled = coord + from_report["server.transport.worker_busy_max_s"]
    return {
        "server.transport.coord_self_s": coord,
        "server.transport.us_per_epoch": wall_s / epochs * 1e6,
        "server.transport.modeled_wall_s": modeled,
        "server.transport.model_gap_ratio": wall_s / modeled if modeled else 0.0,
    }


def span_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers read off a traced run's span aggregates."""
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    out = {
        "api.run_self_s": self_s("api.run"),
        "api.run_self_share": (
            self_s("api.run") / total_s("api.run") if total_s("api.run") else 0.0
        ),
        "runtime.assemble_s": total_s("runtime.assemble"),
        "runtime.initialize_s": total_s("runtime.initialize"),
        "runtime.replay_self_s": self_s("runtime.replay"),
        "runtime.source_apply_self_s": self_s("runtime.source_apply"),
        "runtime.source_handle_self_s": self_s("runtime.source_handle"),
        "runtime.source_handle_calls": calls("runtime.source_handle"),
        "protocols.on_update_self_s": self_s("protocols.on_update"),
        "protocols.on_update_calls": calls("protocols.on_update"),
        "protocols.initialize_self_s": self_s("protocols.initialize"),
        "server.deploy_self_s": self_s("server.deploy"),
        "server.deploy_calls": calls("server.deploy"),
        "server.probe_self_s": self_s("server.probe"),
        "server.probe_calls": calls("server.probe"),
        "server.probe_all_self_s": self_s("server.probe_all"),
        "server.broadcast_self_s": self_s("server.broadcast"),
        "state.record_deploy_self_s": self_s("state.record_deploy"),
        "state.record_deploy_calls": calls("state.record_deploy"),
        "state.rank_self_s": self_s("state.rank"),
        "state.rank_calls": calls("state.rank"),
        "state.geo_mask_self_s": self_s("state.geo_mask"),
        "state.geo_mask_calls": calls("state.geo_mask"),
        "network.send_self_s": self_s("network.send"),
        "network.send_calls": calls("network.send"),
        "network.drain_self_s": self_s("network.drain"),
        "correctness.check_self_s": self_s("correctness.check"),
        "correctness.oracle_apply_self_s": self_s("correctness.oracle_apply"),
        "server.transport.launch_s": total_s("server.transport.launch"),
        "server.transport.initialize_s": total_s("server.transport.initialize"),
        "server.transport.replay_s": total_s("server.transport.replay"),
        "server.transport.close_s": total_s("server.transport.close"),
        "durability.append_self_s": self_s("durability.append"),
        "durability.sync_self_s": self_s("durability.sync"),
        "durability.snapshot_self_s": self_s("durability.snapshot"),
    }
    if calls("server.deploy"):
        out["server.deploy_us_per_call"] = (
            self_s("server.deploy") / calls("server.deploy") * 1e6
        )
    if calls("correctness.check"):
        out["correctness.check_us_per_call"] = (
            self_s("correctness.check") / calls("correctness.check") * 1e6
        )
    return out


def median_of(rows: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Key-wise median over per-run metric dicts (keys may be sparse)."""
    keys = {key for row in rows for key in row}
    return {
        key: statistics.median([row[key] for row in rows if key in row])
        for key in keys
    }
