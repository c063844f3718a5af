"""Staleness classification of tolerance violations.

Under the synchronous channel, correctness requirement 2 holds by
construction and every checker violation is a protocol bug.  Under a
:class:`~repro.network.latency.LatencyChannel` the requirement is
deliberately relaxed, so the checker must split observed violations into
two populations:

* **inherent to latency** — the modeled staleness can account for the
  breach;
* **protocol bug** — it provably cannot, so the implementation itself is
  wrong.

The split rests on one exact fact and one conservative regime rule:

1. **The synchronous prefix is provable.**  Until the first *deferred*
   delivery (a message that actually spent time in flight), a
   latency-modeled run is byte-identical to a synchronous run of the
   same trace: every message so far was delivered inline.  A violation
   observed in that prefix with nothing in flight would occur verbatim
   at ``latency=0`` — a protocol bug, exactly.
2. **Beyond the prefix, attribution is conservative toward latency.**
   Once any message has arrived late, the server may have resolved
   constraints against stale knowledge and deployed mis-sized bounds; the
   resulting violating state can persist long after the network goes
   quiet (observed with FT-RP: a bound computed from in-flight-stale
   ranks keeps the answer out of tolerance through an otherwise silent
   stretch).  No check-time evidence can cheaply distinguish that from a
   genuine bug, so every violation with a message in flight or after
   the first late delivery is classified inherent.

A real protocol bug is therefore *never* mislabeled in the prefix, and a
bug that only manifests after staleness begins is deliberately deferred
to the other half of the harness: the differential ``latency=0`` suite
(tests/network/test_latency_equivalence.py), whose byte-identity and
violation-freedom checks expose it without any staleness ambiguity.
See DESIGN.md §8.3.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.network.latency import LatencyChannel

#: Classification labels attached to :class:`repro.correctness.checker.
#: Violation` records in staleness mode.
INHERENT_LATENCY = "inherent-latency"
PROTOCOL_BUG = "protocol-bug"


def strict_should_raise(classification: str) -> bool:
    """The strict-mode policy, shared by every checking stack: abort on
    anything except an inherent-latency breach — those are the
    phenomenon a latency study observes, not a failure."""
    return classification != INHERENT_LATENCY


def tag_reason(reason: str, classification: str) -> str:
    """Render a violation reason with its classification suffix."""
    if classification:
        return f"{reason} [{classification}]"
    return reason


class StalenessWindow:
    """Classifies check-time violations by latency evidence.

    Parameters
    ----------
    channels:
        The session's channels; non-latency channels are ignored (they
        are never "active" — delivery is instantaneous).
    """

    def __init__(self, channels: Iterable) -> None:
        # Every latency-modeled run is in-process (DESIGN.md §17), so
        # the evidence is always the session's own latency channels.
        self.channels: Sequence[LatencyChannel] = [
            channel
            for channel in channels
            if isinstance(channel, LatencyChannel)
        ]

    @property
    def stale_regime(self) -> bool:
        """True once any message has been delivered late.

        Before that instant the run is byte-identical to a synchronous
        run (every delivery so far was inline), so violations are
        provably the protocol's own; after it, deployed constraints may
        derive from stale resolutions indefinitely.
        """
        return any(
            channel.deferred_delivered_count for channel in self.channels
        )

    def classify(self) -> str:
        """Attribute a violation observed now: inherent to latency while
        a message is in flight or once the run left its synchronous
        prefix (:attr:`stale_regime`), else a protocol bug."""
        if self.stale_regime or any(
            channel.in_flight_count for channel in self.channels
        ):
            return INHERENT_LATENCY
        return PROTOCOL_BUG
