"""The generic filtered source: the mechanism half of the runtime kernel.

:class:`FilteredSource` implements, exactly once, the behaviour every
stack's source used to duplicate: install the new payload, ask the
membership strategy whether that flips a filter, and report if so.
:class:`ChannelFilteredSource` adds the control plane shared by the
channel-backed stacks — probe requests resync-and-reply, constraint
deployments run the self-correction rule.

Stack-specific classes (``SpatialStreamSource``, ``WindowFilterSource``,
``MultiQuerySource``) are thin specializations: a payload codec
(:meth:`FilteredSource._coerce`), a message vocabulary, and a membership
strategy.  The scalar stack's population is columns instead
(:class:`repro.streams.source.ScalarPopulation`, DESIGN.md §18); a
*population* is either that or the list :func:`wire_sources` builds.
"""

from __future__ import annotations

from repro.network.channel import Channel
from repro.network.messages import Message, MessageKind
from repro.runtime.membership import REPORT, MembershipStrategy


def wire_sources(make_source, payloads, channels, ranges) -> list:
    """A population of source objects in id order, source ``i`` holding
    ``payloads[i]`` and bound to the channel of its id range — for
    assembly (a trace's initial payloads) and snapshot restore alike."""
    return [
        make_source(stream_id, payloads[stream_id], channel)
        for channel, (lo, hi) in zip(channels, ranges)
        for stream_id in range(lo, hi)
    ]


def bind_state(population, table) -> None:
    """Make *table* the write-through target of *population*'s filter
    state: one column copy for a columnar population, one
    ``membership.bind_state`` per source of a list."""
    bind = getattr(population, "bind_state", None)
    if bind is not None:
        bind(table)
        return
    for source in population:
        source.membership.bind_state(table, source.stream_id)


class FilteredSource:
    """A source that reports iff its membership flips.

    Parameters
    ----------
    stream_id:
        Dense integer identifier, also the index into trace arrays.
    initial_payload:
        The source's payload (value or point) at virtual time 0.
    membership:
        The strategy deciding when a payload change must be reported.
    """

    def __init__(
        self, stream_id: int, initial_payload, membership: MembershipStrategy
    ) -> None:
        self.stream_id = int(stream_id)
        self.membership = membership
        self.value = self._coerce(initial_payload)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def apply(self, payload, time: float) -> None:
        """Install a new payload; report if the filter demands it."""
        self.value = self._coerce(payload)
        tags = self.membership.evaluate(self.value)
        if tags is not None:
            self._emit(time, tags)

    def assign(self, payload) -> None:
        """Install a payload *without* filter evaluation.

        Only valid for records already proven quiescent — the batched
        replay fast path applies those in bulk, bypassing per-event
        dispatch entirely.
        """
        self.value = self._coerce(payload)

    # ------------------------------------------------------------------
    # Specialization points
    # ------------------------------------------------------------------
    def _coerce(self, payload):
        """Normalize an incoming payload (e.g. ``float``, ``as_point``)."""
        return payload

    def _emit(self, time: float, tags) -> None:
        """Deliver one report; *tags* is :data:`REPORT` or a slot list."""
        raise NotImplementedError


class ChannelFilteredSource(FilteredSource):
    """A filtered source wired to a :class:`Channel`.

    Handles the two server-to-source message kinds uniformly: a probe
    request resynchronizes the membership and replies with the current
    payload; a constraint deployment installs the new filter and sends
    one self-correcting report when the server's belief was stale.
    """

    def __init__(
        self,
        stream_id: int,
        initial_payload,
        membership: MembershipStrategy,
        channel: Channel,
    ) -> None:
        super().__init__(stream_id, initial_payload, membership)
        self.channel = channel
        channel.bind_source(self.stream_id, self._handle_message)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _emit(self, time: float, tags) -> None:
        self.channel.send_to_server(self._update_message(time))

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.PROBE_REQUEST:
            # Replying synchronizes the server's knowledge with our value.
            self.membership.resync(self.value)
            self.channel.send_to_server(self._reply_message(message.time))
            return
        if message.kind is MessageKind.CONSTRAINT:
            container = self._constraint_of(message)
            if self.membership.install(
                container, message.assumed_inside, self.value
            ):
                self._emit(message.time, REPORT)
            return
        raise RuntimeError(  # pragma: no cover - defensive
            f"source received unexpected {message.kind}"
        )

    # ------------------------------------------------------------------
    # Message vocabulary (stack-specific)
    # ------------------------------------------------------------------
    def _update_message(self, time: float) -> Message:
        raise NotImplementedError

    def _reply_message(self, time: float) -> Message:
        raise NotImplementedError

    def _constraint_of(self, message: Message):
        """Extract the container carried by a CONSTRAINT message."""
        raise RuntimeError(
            f"{type(self).__name__} received unexpected {message.kind}"
        )
