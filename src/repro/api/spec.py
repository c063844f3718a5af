"""The declarative vocabulary: a run is a value.

Three frozen dataclasses describe everything about a run *before* any
execution machinery exists:

* :class:`QuerySpec` — *what* is asked: the standing query, the
  tolerance, and which protocol exploits it.
* :class:`Workload` — *what happens*: a replayable trace, either given
  directly or described by generator parameters and materialized
  lazily (and cached, so one ``Workload`` value feeds many runs with
  the identical record sequence — the paper's same-trace comparison
  discipline for free).
* :class:`Deployment` — *where and how*: the physical topology
  (``single()`` or ``sharded(n)``), correctness checking, process
  parallelism, the channel's latency and durability.

The :class:`~repro.api.engine.Engine` compiles a ``(spec, workload,
deployment)`` triple into an executable plan; protocol and trace
construction happen lazily at build/materialize time, so specs are
cheap to construct, compare by value, and ship across process
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.network.latency import as_latency_model
from repro.protocols import (
    FractionToleranceKnnProtocol,
    FractionToleranceRangeProtocol,
    NoFilterProtocol,
    RankToleranceProtocol,
    ZeroToleranceKnnProtocol,
    ZeroToleranceRangeProtocol,
)
from repro.tolerance import FractionTolerance, RankTolerance

#: Stack identifiers (which execution assembly a protocol runs on).
STACK_STREAMS = "streams"
STACK_SPATIAL = "spatial"
STACK_VALUEBASED = "valuebased"
#: Several ``streams`` protocols over one shared population, hosted as
#: one query group (:meth:`repro.api.Engine.run_queries`); no protocol
#: names it.
STACK_MULTIQUERY = "multiquery"

#: The payload vocabulary (DESIGN.md §13) each hosted stack's host
#: speaks: the value-window scheme is scalar streams on window sources,
#: a query group scalar streams on slotted ones.
HOST_VOCABULARY = {
    STACK_STREAMS: STACK_STREAMS,
    STACK_SPATIAL: STACK_SPATIAL,
    STACK_VALUEBASED: STACK_STREAMS,
    STACK_MULTIQUERY: STACK_STREAMS,
}

TOPOLOGIES = ("single", "sharded")


#: The protocol family: paper name -> (class, the tolerance class its
#: constructor takes with the spec's options, or ``None``).  One class
#: per algorithm, whatever the dimension (DESIGN.md §15).
_FAMILY: dict[str, tuple[type, type | None]] = {
    "no-filter": (NoFilterProtocol, None),
    "zt-nrp": (ZeroToleranceRangeProtocol, None),
    "ft-nrp": (FractionToleranceRangeProtocol, FractionTolerance),
    "rtp": (RankToleranceProtocol, RankTolerance),
    "zt-rp": (ZeroToleranceKnnProtocol, None),
    "ft-rp": (FractionToleranceKnnProtocol, FractionTolerance),
}


def _builder(cls: type, tolerant: type | None, display: str) -> Callable:
    def build(spec: "QuerySpec"):
        if tolerant:
            protocol = cls(
                spec.query, spec.require_tolerance(), **spec.options
            )
        else:
            protocol = cls(spec.query)
        protocol.name = display
        return protocol

    return build


def _build_value_eps(spec: "QuerySpec"):
    # Imported on first build, not with repro.api.
    from repro.valuebased.protocol import ValueToleranceTopKProtocol

    return ValueToleranceTopKProtocol(spec.query, float(spec.options["eps"]))


#: Protocol name -> (stack, builder).  Names are the paper's, lowercased;
#: ``-2d`` hosts the same class on the spatial stack (reports print the
#: suffix) and ``value-eps`` is the Olston-style value-window scheme
#: Figure 1 compares against.
PROTOCOLS: dict[str, tuple[str, Callable]] = {
    name + suffix: (stack, _builder(cls, tolerant, cls.name + suffix))
    for name, (cls, tolerant) in _FAMILY.items()
    for stack, suffix in ((STACK_STREAMS, ""), (STACK_SPATIAL, "-2d"))
}
PROTOCOLS["value-eps"] = (STACK_VALUEBASED, _build_value_eps)


@dataclass(frozen=True)
class QuerySpec:
    """One standing query plus the protocol chosen to serve it.

    Attributes
    ----------
    protocol:
        Protocol name (see :data:`PROTOCOLS`): ``"rtp"``, ``"zt-nrp"``,
        ``"ft-nrp"``, ``"zt-rp"``, ``"ft-rp"``, ``"no-filter"``, their
        ``-2d`` spatial variants, or ``"value-eps"``.
    query:
        The standing query object (``RangeQuery``, ``TopKQuery``,
        ``KnnQuery``, ``KMinQuery``, or a spatial query).
    tolerance:
        ``RankTolerance`` / ``FractionTolerance``; required by the
        tolerance-exploiting protocols, optional (checking-only) for the
        exact ones.
    options:
        Protocol-specific keyword options (e.g. ``selection=`` for
        FT-NRP, ``expand_search=False`` for RTP ablations,
        ``eps=50.0`` for ``value-eps``).
    """

    protocol: str
    query: Any
    tolerance: Any = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        name = str(self.protocol).lower()
        if name not in PROTOCOLS:
            known = ", ".join(sorted(PROTOCOLS))
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose one of: {known}"
            )
        object.__setattr__(self, "protocol", name)
        if self.query is None:
            raise ValueError("QuerySpec requires a query")
        if name == "value-eps" and "eps" not in self.options:
            raise ValueError("value-eps requires options={'eps': <width>}")
        expected = _FAMILY.get(name.removesuffix("-2d"), (None, None))[1]
        if expected and not isinstance(self.tolerance, (expected, type(None))):
            raise TypeError(
                f"protocol {name!r} takes a {expected.__name__}, "
                f"not {type(self.tolerance).__name__}"
            )

    @property
    def stack(self) -> str:
        """Which execution stack serves this spec."""
        return PROTOCOLS[self.protocol][0]

    def require_tolerance(self):
        if self.tolerance is None:
            raise ValueError(
                f"protocol {self.protocol!r} requires a tolerance"
            )
        return self.tolerance

    def build(self):
        """A fresh protocol instance (protocols are single-use)."""
        return PROTOCOLS[self.protocol][1](self)


@dataclass(frozen=True)
class Workload:
    """A replayable trace, given directly or described by parameters.

    Use the constructors — :meth:`from_trace`, :meth:`synthetic`,
    :meth:`tcp`, :meth:`moving_objects` — rather than ``__init__``.
    ``materialize()`` generates (once, cached) and returns the trace;
    generation is deterministic in the parameters, so equal workload
    values always produce identical record sequences.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    # The cached trace is derived state: equal-parameter workloads stay
    # equal after one materializes (see :meth:`__eq__`).
    trace: Any = field(default=None, compare=False, repr=False)

    _KINDS = ("trace", "synthetic", "tcp", "moving_objects")

    def __eq__(self, other) -> bool:
        """Same kind and parameters; a ``"trace"`` one, the same trace."""
        if not isinstance(other, Workload):
            return NotImplemented
        same = self.kind != "trace" or self.trace is other.trace
        return same and (self.kind, self.params) == (other.kind, other.params)

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"workload kind must be one of {self._KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "trace" and self.trace is None:
            raise ValueError("kind='trace' requires a trace object")

    @classmethod
    def from_trace(cls, trace) -> "Workload":
        """Wrap an already-materialized trace."""
        return cls(kind="trace", trace=trace)

    @classmethod
    def synthetic(cls, **params) -> "Workload":
        """The Section-6.2 synthetic model; params as
        :class:`repro.streams.synthetic.SyntheticConfig`."""
        return cls(kind="synthetic", params=dict(params))

    @classmethod
    def tcp(cls, **params) -> "Workload":
        """The TCP connection workload; params as
        :class:`repro.streams.tcp.TcpTraceConfig`."""
        return cls(kind="tcp", params=dict(params))

    @classmethod
    def moving_objects(cls, **params) -> "Workload":
        """The spatial moving-objects workload; params as
        :class:`repro.spatial.workloads.MovingObjectsConfig`."""
        return cls(kind="moving_objects", params=dict(params))

    def materialize(self):
        """The trace (generated on first call, then cached)."""
        if self.trace is not None:
            return self.trace
        if self.kind == "synthetic":
            from repro.streams.synthetic import (
                SyntheticConfig,
                generate_synthetic_trace,
            )

            trace = generate_synthetic_trace(SyntheticConfig(**self.params))
        elif self.kind == "tcp":
            from repro.streams.tcp import TcpTraceConfig, generate_tcp_trace

            trace = generate_tcp_trace(TcpTraceConfig(**self.params))
        else:
            assert self.kind == "moving_objects"
            from repro.spatial.workloads import (
                MovingObjectsConfig,
                generate_moving_objects_trace,
            )

            trace = generate_moving_objects_trace(
                MovingObjectsConfig(**self.params)
            )
        object.__setattr__(self, "trace", trace)
        return trace


@dataclass(frozen=True)
class Deployment:
    """The physical shape of a run.

    How a run replays is no knob: the engine picks per-event or
    batched replay from what it observes
    (:func:`repro.runtime.replay.resolve_mode`), both leave one ledger,
    and ``RunReport.extras["replay"]`` names what ran.

    Attributes
    ----------
    topology:
        ``"single"`` — the paper's one logical server — or
        ``"sharded"`` — the population partitioned into ``n_shards``
        contiguous ranges behind per-shard servers with a k-way-merge
        coordinator (rank-query ledger semantics unchanged; see
        ``repro.server.sharded``).  Every stack shards: the scalar
        protocols, the value-window scheme, and — via the geometric
        quiescence planes — the spatial ``-2d`` protocols.
    n_shards:
        Shard count (``>= 1``; must be ``>= 2`` for ``sharded``).
    check_every, strict:
        Validate tolerance every N-th applied record; ``0`` disables
        checking entirely (benchmark mode — checking a rank query costs
        O(n) per check), ``1`` checks after every record (test mode).
        Checking forces per-event replay.  ``strict`` raises on the
        first violation instead of recording it.
    parallel:
        *Permission* to use worker processes, which the engine takes
        only where it has a process executor worth keeping, both under
        ``sharded``: protocols whose maintenance needs no server
        feedback (``decomposable_maintenance``) replay their shards
        concurrently on a process pool when ``check_every == 0``; and
        coupled protocols — scalar (RTP, ZT-RP, FT-RP, FT-NRP) or
        spatial (the ``-2d`` protocols) — run on the shard transport
        (worker processes behind an epoch-stepped coordinator,
        ``repro/server/transport.py``) when ``latency is None`` and
        ``check_every == 0``.  Every other cell runs the in-process
        sharded session those executors are byte-identical to: a
        latency model's deliveries and a checker's checks are
        coordinator work either way, so workers could only add a pipe
        round trip to each (DESIGN.md §17).  ``RunReport.topology``
        names the executor that ran (``+fanout`` / ``+transport``, or
        the bare topology for an in-process run).
    latency:
        The channel delivery discipline.  ``None`` (default) is the
        paper's synchronous channel; a non-negative number is a
        symmetric fixed delay; a :class:`repro.network.latency.
        LatencyModel` (``FixedLatency``, ``UniformLatency``,
        ``ExponentialLatency``) gives per-direction / distributional
        delays.  ``latency=0`` deliberately compiles to the
        latency-modeled channel with inline delivery — the
        differential-testing configuration proven byte-identical to the
        synchronous channel.  With checking enabled, a latency-modeled
        run classifies each violation as inherent-to-latency vs a
        protocol bug (DESIGN.md §8) — on every stack.  A
        latency-modeled run is always in-process, with one
        exception that needs no cross-process delivery: under
        ``parallel=True`` decomposable protocols still fan out (each
        worker drains its own engine; decomposable sources decide
        reports locally, so delivery timing never changes the message
        multiset).
    durable:
        ``None`` (default) or a :class:`repro.durability.policy.
        DurabilityPolicy`: the run keeps a write-ahead journal (and,
        per the policy, periodic snapshots and memmap-backed state
        planes) under the policy's run directory, recoverable to a
        byte-identical message ledger after a crash.  Scalar single and
        sharded stacks only; the incompatible knob combinations —
        ``parallel=True`` (worker processes own the sources, so one
        journal cannot observe their charges), a latency model (the
        engine queue is never empty between segments, so no consistent
        snapshot cut exists yet), and ``check_every > 0`` (oracle
        callbacks are not journaled) — are rejected here, at
        construction.
    """

    topology: str = "single"
    n_shards: int = 1
    check_every: int = 0
    strict: bool = False
    parallel: bool = False
    latency: Any = None
    durable: Any = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if not isinstance(self.n_shards, int) or isinstance(
            self.n_shards, bool
        ):
            raise TypeError("n_shards must be an int")
        if self.topology == "single" and self.n_shards != 1:
            raise ValueError("single topology runs exactly one shard")
        if self.topology == "sharded" and self.n_shards < 2:
            raise ValueError(
                "sharded topology needs n_shards >= 2 "
                "(use Deployment.single() for one server)"
            )
        # Reject wrong shapes eagerly and loudly: a malformed knob that
        # slips through here surfaces far downstream as a silently wrong
        # replay path or an opaque numpy error mid-replay.
        if isinstance(self.check_every, bool) or not isinstance(
            self.check_every, int
        ):
            raise TypeError(
                f"check_every must be an int, got "
                f"{type(self.check_every).__name__}"
            )
        if self.check_every < 0:
            raise ValueError(
                f"check_every must be >= 0 (0 disables checking), "
                f"got {self.check_every}"
            )
        for name in ("strict", "parallel"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(
                    f"{name} must be a bool, got {type(value).__name__}"
                )
        # Normalize the latency knob to a model (or None) up front, so
        # invalid values fail at construction and equal deployments
        # compare equal whether built from a number or a model.
        object.__setattr__(self, "latency", as_latency_model(self.latency))
        if self.durable is not None:
            from repro.durability.policy import DurabilityPolicy

            if not isinstance(self.durable, DurabilityPolicy):
                raise TypeError(
                    "durable must be a DurabilityPolicy (or None), got "
                    f"{type(self.durable).__name__}"
                )
            if self.parallel:
                raise ValueError(
                    "durable runs do not support parallel=True: worker "
                    "processes own the sources, so a single write-ahead "
                    "journal cannot observe their ledger charges; drop "
                    "parallel or the durability policy"
                )
            if self.latency is not None:
                raise ValueError(
                    "durable runs do not support a latency model: with "
                    "messages in flight the engine queue is never empty "
                    "between segments, so no consistent snapshot cut "
                    "exists; drop latency or the durability policy"
                )
            if self.check_every > 0:
                raise ValueError(
                    "durable runs do not support check_every > 0: oracle "
                    "callbacks are not journaled, so a recovered run "
                    "could not reproduce the checker's observations; "
                    "check the same spec in a separate non-durable run"
                )

    @classmethod
    def single(cls, **knobs) -> "Deployment":
        """One logical server (the paper's Figure-3 system)."""
        return cls(topology="single", n_shards=1, **knobs)

    @classmethod
    def sharded(cls, n_shards: int, **knobs) -> "Deployment":
        """``n_shards`` shard servers behind a merging coordinator."""
        return cls(topology="sharded", n_shards=n_shards, **knobs)

    def with_checking(self, check_every: int, strict: bool = False):
        """A copy with a different checking cadence."""
        return replace(self, check_every=check_every, strict=strict)

    def describe(self) -> str:
        """Human-readable topology tag for reports."""
        base = (
            "single"
            if self.topology == "single"
            else f"sharded({self.n_shards})"
        )
        if self.latency is not None:
            base = f"{base}+latency"
        if self.durable is not None:
            base = f"{base}+durable"
        return base
