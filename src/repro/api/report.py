"""The unified run report: one result shape across all four stacks,
built once, by the executor that ran."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any, Mapping

from repro.correctness.checker import CheckerReport
from repro.network.accounting import LedgerSnapshot
from repro.network.messages import MessageKind


def _json_safe(value: Any, path: str) -> Any:
    """Normalize *value* to plain JSON types, or raise naming *path*.

    ``extras`` feed straight into artifact files and result rows
    (``json.dumps(report.row())``), so anything a stack tucks in here
    must serialize.  Rather than finding out at dump time — far from
    the offending producer — the report normalizes at construction:
    numpy scalars unwrap, mappings/sequences/sets recurse (sets sort,
    for deterministic artifacts), paths become strings, and anything
    else fails *now* with the key path that put it there.
    """
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        # numpy scalar (0-d): unwrap to the matching Python type.
        # Checked before the primitive passthrough — np.float64 and
        # np.bool_ subclass float/int and would otherwise slip through
        # still carrying their numpy type.
        return _json_safe(value.item(), path)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {
            str(key): _json_safe(item, f"{path}.{key}")
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            _json_safe(item, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(item, f"{path}{{}}") for item in value)
    if isinstance(value, PurePath):
        return str(value)
    raise TypeError(
        f"RunReport extras must be JSON-serializable: {path} holds "
        f"{type(value).__name__} ({value!r})"
    )


@dataclass(frozen=True)
class RunReport:
    """Outcome of one run — ledger, violations, timing.

    Every run — :meth:`~repro.api.Engine.run` on the scalar, spatial and
    value-window stacks, :meth:`~repro.api.Engine.run_queries` on the
    multi-query one, every topology, durable or not — is hosted and
    builds this shape directly, so comparisons across stacks and
    topologies read the same fields.
    """

    protocol: str
    stack: str
    #: ``Deployment.describe()``, plus ``+transport`` / ``+fanout`` when
    #: the run took the worker processes ``parallel=True`` permits.
    topology: str
    ledger: LedgerSnapshot
    n_streams: int
    n_records: int
    wall_seconds: float
    final_answer: frozenset[int] = frozenset()
    checks: int = 0
    violations: tuple[str, ...] = ()
    label: str = ""
    extras: Mapping[str, Any] = field(default_factory=dict)
    #: Per-query answers (multi-query runs only; ``extras`` holds their
    #: sharing counters).
    answers: Mapping[str, frozenset[int]] | None = None
    #: The structured checker outcome of a run the tolerance checker
    #: judged (retained :class:`~repro.correctness.checker.Violation`
    #: records, the inherent-latency / protocol-bug tallies; summed over
    #: a multi-query run's queries); ``checks`` and ``violations`` are
    #: its stack-independent summary.  A value-window run's rank
    #: quality is in ``extras`` instead.
    checker: CheckerReport | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "extras", _json_safe(dict(self.extras), "extras")
        )

    # ------------------------------------------------------------------
    # The paper's metrics
    # ------------------------------------------------------------------
    @property
    def maintenance_messages(self) -> int:
        """The headline metric: total maintenance-phase messages."""
        return self.ledger.maintenance_total

    @property
    def initialization_messages(self) -> int:
        return self.ledger.initialization_total

    @property
    def total_messages(self) -> int:
        return self.ledger.total

    @property
    def update_messages(self) -> int:
        return self.ledger.maintenance_of(MessageKind.UPDATE)

    @property
    def probe_messages(self) -> int:
        return self.ledger.maintenance_of(
            MessageKind.PROBE_REQUEST
        ) + self.ledger.maintenance_of(MessageKind.PROBE_REPLY)

    @property
    def constraint_messages(self) -> int:
        return self.ledger.maintenance_of(MessageKind.CONSTRAINT)

    @property
    def tolerance_ok(self) -> bool:
        """True when every sampled check passed (or checking was off)."""
        return not self.violations

    def row(self) -> dict:
        """Flatten into a reporting-friendly dict."""
        row = {
            "protocol": self.protocol,
            "stack": self.stack,
            "topology": self.topology,
            "label": self.label,
            "messages": self.maintenance_messages,
            "updates": self.update_messages,
            "probes": self.probe_messages,
            "constraints": self.constraint_messages,
            "n_streams": self.n_streams,
            "n_records": self.n_records,
            "tolerance_ok": self.tolerance_ok,
            "wall_seconds": self.wall_seconds,
        }
        row.update(self.extras)
        return row
