"""Staleness-window classification of tolerance violations.

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
   genuine bug, so every violation in the stale regime — in flight,
   recently delivered within ``window``, or merely after the first late
   delivery — is classified inherent.

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
#: Violation` records in staleness-window mode.
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
    window:
        Look-back horizon in virtual time.  ``0`` (the default) counts
        only messages literally in flight plus the stale-regime rule; a
        positive window additionally counts streams whose last delivery
        happened within ``[t - window, t]`` as lagging.
    """

    def __init__(self, channels: Iterable, window: float = 0.0) -> None:
        # Every latency-modeled run is in-process (DESIGN.md §17), so
        # the evidence is always the session's own latency channels.
        self.channels: Sequence[LatencyChannel] = [
            channel
            for channel in channels
            if isinstance(channel, LatencyChannel)
        ]
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = float(window)

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def in_flight_count(self) -> int:
        """Messages currently held in flight across all channels."""
        return sum(channel.in_flight_count for channel in self.channels)

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

    def lagging_streams(self, time: float) -> set[int]:
        """Streams whose server-side belief may legitimately be stale.

        The union of streams with a message in flight and — when the
        window is positive — streams delivered within the window.
        """
        lagging: set[int] = set()
        for channel in self.channels:
            lagging |= channel.in_flight_stream_ids()
            if self.window > 0.0:
                lagging |= channel.recently_delivered_streams(
                    time, self.window
                )
        return lagging

    def quiet(self, time: float) -> bool:
        """True when no latency evidence is live at virtual *time*.

        Quiet does **not** imply trustworthy: in the stale regime a quiet
        instant can still carry mis-sized constraints (see the module
        docstring) — which is why :meth:`classify` consults both.
        """
        for channel in self.channels:
            if channel.in_flight_count:
                return False
            if self.window > 0.0 and channel.any_recently_delivered(
                time, self.window
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, time: float) -> str:
        """Attribute a violation observed at virtual *time*."""
        if self.quiet(time) and not self.stale_regime:
            return PROTOCOL_BUG
        return INHERENT_LATENCY
