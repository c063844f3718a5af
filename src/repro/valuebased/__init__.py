"""Value-based tolerance: the prior art the paper argues against.

Earlier adaptive-filter work (Olston et al., SIGMOD 2003 — reference [17]
of the paper) expresses error tolerance as a *numeric* bound ``eps``:
each source holds a window of width ``eps`` centred on its last reported
value and reports only when its value escapes the window, so the server
knows every value to within ``eps/2``.  For a top-k query this guarantees
the *values* of the returned streams are within ``eps`` of the true
k-th-best value — but says nothing directly about their *ranks*.

Figure 1 of the paper argues this is the wrong interface for
entity-based queries: a small ``eps`` wastes the tolerance (no message
savings), a large one lets the returned entity rank arbitrarily far from
the true answer, and picking a good ``eps`` requires knowing the data's
spread.  This package implements the value-based protocol so the
argument can be *measured*: ``repro.experiments.figure01`` sweeps
``eps`` and reports messages and observed rank error side by side with
RTP, whose rank guarantee is direct.

The scheme is a hosted protocol like any other (``QuerySpec("value-eps",
...)``): the scalar ``Server`` / ``ShardedServer`` serves
:class:`ValueToleranceTopKProtocol` over the window population it
declares, and a checked run drives its checker kind,
:class:`~repro.correctness.checker.RankQualityChecker`, instead of the
tolerance checker.  Its ``QuerySpec.stack`` is ``"valuebased"``, which
``repro.api.spec.HOST_VOCABULARY`` maps to the scalar vocabulary.
"""

from repro.valuebased.protocol import ValueToleranceTopKProtocol
from repro.valuebased.source import WindowFilterSource

__all__ = ["ValueToleranceTopKProtocol", "WindowFilterSource"]
