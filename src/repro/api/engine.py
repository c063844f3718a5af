"""The deployment compiler: specs in, unified reports out.

:class:`Engine` turns a ``(QuerySpec, Workload, Deployment)`` triple
into an executable plan and runs it.  Compilation is a pair of small
decisions:

1. **Assembly** — the spec's stack names the payload vocabulary its
   host speaks (:data:`~repro.api.spec.HOST_VOCABULARY`, DESIGN.md §13;
   the value-window and multi-query stacks speak the scalar one) and
   the deployment's topology the host: the :class:`~repro.runtime.session.
   ExecutionSession` assembler in-process (``for_<vocabulary>`` /
   ``for_<vocabulary>_sharded``), or :class:`repro.server.transport.
   TransportShardedServer` bound to the same vocabulary across worker
   processes.
2. **Schedule** — whether the plan runs in-process or across
   processes.  ``parallel=True`` on a sharded deployment is
   *permission* to use worker processes, taken only where a process
   executor earns its keep: a *decomposable* scalar protocol (no server
   feedback during maintenance, e.g. ZT-NRP) without checking replays
   its shards on independent pool workers and merges the per-shard
   ledgers (``+fanout``); a *coupled* protocol — scalar (RTP, ZT-RP,
   FT-RP, FT-NRP) or spatial (the ``-2d`` protocols) — under
   synchronous delivery and no checking runs on the shard transport,
   worker processes replaying their shards under an epoch-stepped
   coordinator (``+transport``).  Every other cell — a latency model,
   ``check_every > 0``, the value windows or a query group (a protocol
   on its own population) — runs the sequential coordinator in-process,
   the sibling every process executor is byte-identical to: deliveries
   and checks are coordinator work either way, so workers could only
   add a pipe round trip to each (DESIGN.md §17).
   ``RunReport.topology`` names the executor that ran.

:func:`_execute_hosted` is the one executor of a hosted protocol — host
assembly, the protocol's checker kind, initialize, replay, report — for
every protocol :meth:`Engine.run` is given and for the query group
:meth:`Engine.run_queries` compiles its specs into, both vocabularies
and all three topologies; :func:`_execute` only routes around it
(durability, fan-out).  Every executor builds its
:class:`~repro.api.report.RunReport` once, at its return site, and every
``(stack, workload, deployment)`` cell the engine cannot run is refused
in one place, :func:`_refuse_unsupported`, before anything is built.
:class:`Engine` is the only way in (DESIGN.md §16).
"""

from __future__ import annotations

import copy
import time as _time
from concurrent.futures import ProcessPoolExecutor
from typing import Mapping

# Registers the scalar vocabulary ``_execute_hosted`` resolves by name;
# the spatial one arrives with the ``repro.spatial`` query or trace a
# ``-2d`` run is handed.
import repro.streams.vocabulary  # noqa: F401
from repro.api.report import RunReport
from repro.api.spec import (
    HOST_VOCABULARY,
    STACK_MULTIQUERY,
    STACK_SPATIAL,
    STACK_STREAMS,
    STACK_VALUEBASED,
    Deployment,
    QuerySpec,
    Workload,
)
from repro.correctness.checker import ToleranceChecker
from repro.network.accounting import LedgerSnapshot
from repro.runtime.replay import merge_replay_stats
from repro.runtime.session import ExecutionSession


def _as_workload(workload) -> Workload:
    """Accept a Workload or a bare trace object."""
    if isinstance(workload, Workload):
        return workload
    return Workload.from_trace(workload)


def _collect_extras(protocol) -> dict:
    """Harvest optional protocol-specific counters for the result row."""
    extras: dict = {}
    for attr in (
        "reinitializations",
        "recomputations",
        "expansions",
        "n_plus",
        "n_minus",
        "count",
    ):
        value = getattr(protocol, attr, None)
        if isinstance(value, (int, float)):
            extras[attr] = value
    return extras


# ----------------------------------------------------------------------
# What the engine refuses, and the router around the hosted executor
# ----------------------------------------------------------------------
#: Stack -> why it cannot run under a durability policy (the scalar
#: streams stack, single or sharded, is the one that can).
_NOT_DURABLE = {
    STACK_SPATIAL: (
        "durable deployments are not yet supported for spatial "
        "protocols: the spatial stack's object-dtype containers "
        "column cannot live in a memmap plane and its point traces "
        "have no journal record type yet; use the scalar stacks for "
        "durable runs"
    ),
    STACK_MULTIQUERY: (
        "durable deployments are not supported for the multi-query "
        "stack: a snapshot holds one state table and one scalar "
        "population, and a query group keeps a table per query and a "
        "slot plane per query at every source; run each query durably "
        "on its own single-query deployment instead"
    ),
    STACK_VALUEBASED: (
        "durable deployments are not yet supported for the "
        "value-window stack: recovery rebuilds a snapshot's sources as "
        "the vocabulary's plain scalar population, with no window "
        "population to restore them into; use the scalar stacks for "
        "durable runs"
    ),
}


def _refuse_unsupported(
    stack: str,
    subject: str,
    workload: Workload,
    deployment: Deployment,
    specs: Mapping[str, QuerySpec] | None = None,
) -> None:
    """Raise for a ``(stack, workload, deployment)`` cell no executor runs.

    The one rejection site of the engine: called once the trace is
    materialized and before any protocol, session or process is built.
    *subject* names what was asked for (a protocol, ``run_queries``);
    *specs* are the per-query specs of a multi-query run.
    """
    trace = workload.materialize()
    if specs is not None:
        for query_id, spec in specs.items():
            if spec.stack != STACK_STREAMS:
                raise ValueError(
                    f"query {query_id!r}: protocol {spec.protocol!r} runs "
                    f"on the {spec.stack!r} stack, but the multi-query "
                    "stack shares one scalar population and hosts only "
                    f"{STACK_STREAMS!r} protocols; run it on its own "
                    "through Engine.run"
                )
    if hasattr(trace, "initial_points") != (stack == STACK_SPATIAL):
        needs = "point" if stack == STACK_SPATIAL else "scalar"
        raise ValueError(
            f"{subject} runs on the {stack!r} stack, which replays "
            f"{needs} traces, but the {workload.kind!r} workload is a "
            f"{type(trace).__name__}; pair scalar protocols with scalar "
            "workloads and '-2d' protocols with Workload.moving_objects"
        )
    if deployment.durable is not None and stack in _NOT_DURABLE:
        raise ValueError(_NOT_DURABLE[stack])
    if stack == STACK_MULTIQUERY and deployment.topology != "single":
        raise ValueError(
            "the multi-query stack supports only Deployment.single(): its "
            "coordinator serves every query's table from one channel"
        )


def _execute(
    stack: str,
    trace,
    protocol,
    query,
    tolerance,
    deployment: Deployment,
    label: str,
) -> RunReport:
    """Route one hosted *protocol* to the executor *deployment* selects."""
    if deployment.durable is not None:
        # _refuse_unsupported and Deployment validation already rejected
        # the incompatible cells (spatial; parallel, latency,
        # check_every); both scalar topologies run the durable WAL loop.
        from repro.durability.runner import execute_durable_streams

        return execute_durable_streams(trace, protocol, deployment, label)
    if (
        stack == STACK_STREAMS
        and deployment.topology == "sharded"
        and deployment.parallel
        and deployment.check_every == 0
        and getattr(protocol, "decomposable_maintenance", False)
    ):
        return _execute_streams_fanout(trace, protocol, deployment, label)
    return _execute_hosted(
        stack, trace, protocol, query, tolerance, deployment, label
    )


# ----------------------------------------------------------------------
# The hosted executor (every stack Engine.run takes, all three topologies)
# ----------------------------------------------------------------------
def _execute_hosted(
    stack: str,
    trace,
    protocol,
    query=None,
    tolerance=None,
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Run one hosted *protocol* over *trace*: any vocabulary, any topology.

    ``Deployment.single()`` and ``Deployment.sharded(n)`` assemble an
    :class:`ExecutionSession` (ledgers byte-identical across the two).
    A sharded ``parallel=True`` run with synchronous delivery and no
    checking moves the shards onto worker processes under the
    epoch-stepped transport coordinator (``repro/server/transport.py``,
    DESIGN.md §10), byte-identical to sequential sharded serving; with
    a latency model, ``check_every > 0`` or a protocol that runs on its
    own population (the value windows, a query group) it is that
    sequential session (DESIGN.md §17).  *stack* names the report's
    stack; the host speaks its :data:`~repro.api.spec.HOST_VOCABULARY`.
    A checking run drives
    the protocol's checker kind (:mod:`repro.correctness.checker`): its
    ``apply`` before each record and ``check`` after, per event — with
    running counts, every record's truth flip is bound before the run
    and the oracle's values settle after it (DESIGN.md §14); checks
    charge nothing, so ledger and violation sequence agree across
    topologies.
    """
    started = _time.perf_counter()
    deployment = deployment or Deployment.single()
    speaks = HOST_VOCABULARY[stack]
    sharded = deployment.topology == "sharded"
    topology = deployment.describe()
    kind = protocol.checker_kind or ToleranceChecker
    checker = None
    if (
        sharded
        and deployment.parallel
        and deployment.latency is None
        and deployment.check_every == 0
        and protocol.population is None
    ):
        from repro.server.transport import TransportShardedServer

        topology += "+transport"
        transported = TransportShardedServer.speaking(speaks)
        with transported(trace, protocol, deployment.n_shards) as transport:
            transport.initialize(0.0)
            replay = merge_replay_stats(transport.replay(horizon=trace.horizon))
            replay["transport"] = transport.transport_stats()
        ledger = transport.snapshot()
    else:
        # Through the per-stack builder names: they are the assembler's
        # public (and traced) entry points.
        builder = f"for_{speaks}_sharded" if sharded else f"for_{speaks}"
        shards = (deployment.n_shards,) if sharded else ()
        session = getattr(ExecutionSession, builder)(
            trace, protocol, *shards, latency=deployment.latency
        )
        if deployment.check_every > 0:
            checker = kind.for_run(
                session, trace, protocol, query, tolerance, deployment
            )
        session.initialize(time=0.0)
        if checker is not None:
            # A trace ends at or after its horizon: replay applies it all.
            checker.start(
                0.0,
                trace.stream_ids,
                getattr(trace, session.vocabulary.record_column),
            )
        session.replay_trace(
            trace,
            oracle_apply=checker.apply if checker is not None else None,
            after_apply=checker.check if checker is not None else None,
        )
        if checker is not None:
            checker.finish()
        replay = dict(session.last_replay_stats)
        ledger = session.snapshot()
        session.close()

    fields = (
        checker.report_fields()
        if checker is not None
        else kind.unchecked_fields(protocol)
    )
    extras = _collect_extras(protocol)
    extras["replay"] = replay
    extras.update(fields.pop("extras", {}))
    return RunReport(
        protocol=protocol.name,
        stack=stack,
        topology=topology,
        ledger=ledger,
        n_streams=trace.n_streams,
        n_records=trace.n_records,
        wall_seconds=_time.perf_counter() - started,
        final_answer=protocol.answer,
        label=label,
        extras=extras,
        **fields,
    )


# ----------------------------------------------------------------------
# Fan-out: independent shard replays of a decomposable scalar protocol
# ----------------------------------------------------------------------
def _restrict_to_shard(trace, lo: int, hi: int):
    """The shard's sub-trace, re-indexed to local stream ids."""
    from repro.streams.trace import StreamTrace

    keep = (trace.stream_ids >= lo) & (trace.stream_ids < hi)
    return StreamTrace(
        initial_values=trace.initial_values[lo:hi].copy(),
        times=trace.times[keep],
        stream_ids=trace.stream_ids[keep] - lo,
        values=trace.values[keep],
        horizon=trace.horizon,
        metadata={**trace.metadata, "shard": (lo, hi)},
    )


def _shard_replay_worker(job):
    """One shard's independent replay (runs in a pool worker).

    Valid only for decomposable protocols: maintenance sends nothing
    server-to-source, so the shard's message sequence depends only on
    its own records and the merged per-shard ledgers equal the
    single-server ledger exactly.  A latency model rides along (frozen
    dataclasses pickle): each worker drains its own engine, and since
    decomposable sources decide reports locally at record time, delivery
    timing never changes which messages are sent.
    """
    shard_trace, protocol, lo, latency = job
    session = ExecutionSession.for_streams(shard_trace, protocol, latency=latency)
    session.initialize(time=0.0)
    session.replay_trace(shard_trace)
    answer = frozenset(int(i) + lo for i in protocol.answer)
    extras = _collect_extras(protocol)
    extras["replay"] = dict(session.last_replay_stats)
    return session.snapshot(), answer, extras


def _merge_snapshots(parts: list[LedgerSnapshot]) -> LedgerSnapshot:
    initialization: dict = {}
    maintenance: dict = {}
    for part in parts:
        for kind, count in part.initialization.items():
            initialization[kind] = initialization.get(kind, 0) + count
        for kind, count in part.maintenance.items():
            maintenance[kind] = maintenance.get(kind, 0) + count
    return LedgerSnapshot(
        initialization=initialization, maintenance=maintenance
    )


def _execute_streams_fanout(
    trace, protocol, deployment: Deployment, label: str
) -> RunReport:
    """Sharded + parallel replay of a decomposable protocol."""
    from repro.state.sharding import shard_ranges

    started = _time.perf_counter()
    ranges = shard_ranges(trace.n_streams, deployment.n_shards)
    jobs = [
        (
            _restrict_to_shard(trace, lo, hi),
            copy.deepcopy(protocol),
            lo,
            deployment.latency,
        )
        for lo, hi in ranges
    ]
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(_shard_replay_worker, jobs))

    answer: frozenset[int] = frozenset()
    extras: dict = {}
    replay_parts: list[dict] = []
    for _, shard_answer, shard_extras in parts:
        answer |= shard_answer
        for key, value in shard_extras.items():
            if key == "replay":
                replay_parts.append(value)
                continue
            extras[key] = extras.get(key, 0) + value
    extras["replay"] = merge_replay_stats(replay_parts)
    return RunReport(
        protocol=protocol.name,
        stack=STACK_STREAMS,
        topology=deployment.describe() + "+fanout",
        ledger=_merge_snapshots([snapshot for snapshot, _, _ in parts]),
        n_streams=trace.n_streams,
        n_records=trace.n_records,
        wall_seconds=_time.perf_counter() - started,
        final_answer=answer,
        label=label,
        extras=extras,
    )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class Engine:
    """Compiles declarative run descriptions into executions.

    >>> from repro.api import Deployment, Engine, QuerySpec, Workload
    >>> from repro import RangeQuery
    >>> engine = Engine()
    >>> report = engine.run(
    ...     QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0)),
    ...     Workload.synthetic(n_streams=100, horizon=100.0, seed=1),
    ... )
    >>> report.tolerance_ok
    True

    The engine itself is stateless apart from its default deployment;
    one instance can run any number of specs, and the same ``(spec,
    workload)`` pair re-runs identically under any topology.
    """

    def __init__(self, deployment: Deployment | None = None) -> None:
        self.deployment = deployment or Deployment.single()

    # ------------------------------------------------------------------
    # Declarative entry
    # ------------------------------------------------------------------
    def run(
        self,
        spec: QuerySpec,
        workload: Workload,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Execute one spec over one workload; returns a unified report."""
        deployment = deployment or self.deployment
        workload = _as_workload(workload)
        trace = workload.materialize()
        _refuse_unsupported(
            spec.stack, f"protocol {spec.protocol!r}", workload, deployment
        )
        return _execute(
            spec.stack,
            trace,
            spec.build(),
            spec.query,
            spec.tolerance,
            deployment,
            label,
        )

    def run_queries(
        self,
        specs: Mapping[str, QuerySpec],
        workload: Workload,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Run several specs as one shared multi-query deployment: one
        :class:`~repro.multiquery.group.QueryGroup`, hosted like any
        protocol; ``report.answers`` holds each query's answer and
        ``extras`` the sharing counters."""
        from repro.multiquery.group import QueryGroup

        deployment = deployment or self.deployment
        workload = _as_workload(workload)
        trace = workload.materialize()
        _refuse_unsupported(
            STACK_MULTIQUERY, "Engine.run_queries", workload, deployment, specs
        )
        group = QueryGroup(
            {
                query_id: (spec.build(), spec.query, spec.tolerance)
                for query_id, spec in specs.items()
            }
        )
        return _execute(
            STACK_MULTIQUERY, trace, group, None, None, deployment, label
        )

    # ------------------------------------------------------------------
    # Escape hatch for pre-built protocol instances
    # ------------------------------------------------------------------
    def run_protocol(
        self,
        trace,
        protocol,
        query=None,
        tolerance=None,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Run an already-constructed scalar protocol instance, or a
        :class:`~repro.multiquery.group.QueryGroup` of them.

        For ablations and tests that tweak protocol internals before
        running; figure-style runs should prefer :meth:`run` with a
        :class:`QuerySpec`.
        """
        from repro.multiquery.group import QueryGroup

        deployment = deployment or self.deployment
        stack = (
            STACK_MULTIQUERY if isinstance(protocol, QueryGroup) else STACK_STREAMS
        )
        _refuse_unsupported(
            stack, f"protocol {protocol.name!r}", _as_workload(trace), deployment
        )
        return _execute(
            stack, trace, protocol, query, tolerance, deployment, label
        )


def run(
    spec: QuerySpec,
    workload: Workload,
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Module-level convenience: ``Engine().run(...)``."""
    return Engine().run(spec, workload, deployment, label=label)
