"""Multiple standing queries over one stream population (Section 7).

The paper's future work: "We plan to extend the protocols to support
multiple queries."  The natural win is on the uplink — when several
queries install filters at the same source, one physical update message
can serve every query whose filter it violates.

Design: each source keeps one *filter slot per query*.  A value change
that flips membership in at least one non-silenced slot costs **one**
physical update; the query group forwards it only to the protocols whose
slot actually flipped, so every protocol observes exactly the message
sequence it would have seen running alone (its correctness argument is
untouched), while the ledger records the shared physical cost.
Control-plane messages (probes, constraint deployments) remain
per-query.  Every message crosses the session's channel, which charges
it, as on every other stack.

Run shared deployments through the facade —
:meth:`repro.api.Engine.run_queries` with one :class:`~repro.api.
QuerySpec` per standing query, which hosts one :class:`QueryGroup` on the
engine's one executor; with pre-built protocol instances, assemble a
session for a :class:`QueryGroup` directly
(:meth:`repro.runtime.session.ExecutionSession.assemble`).
``benchmarks/bench_extension_multiquery.py`` quantifies the sharing gain
against independent deployments.
"""

from repro.multiquery.coordinator import MultiQueryCoordinator, QueryContext
from repro.multiquery.group import QueryGroup
from repro.multiquery.source import SlotPopulation

__all__ = [
    "MultiQueryCoordinator",
    "QueryContext",
    "QueryGroup",
    "SlotPopulation",
]
