"""Force the per-message control plane from a test.

A batch of probes or constraints goes columnar when its channel hands
the whole batch to one population
(:meth:`repro.network.channel.Channel.bulk_target`); that one gate is
the only thing that picks the path.  The equivalence grids hold the
columnar path to the ordered message loop by answering the gate with
``None`` here, so every batch inside travels message by message.  The
patch is on the class: every channel of a session obeys it, sharded
or latency-modeled.

Each consultation is counted, so :func:`run_per_message` can check
that some batch really asked: a grid whose batches never reach the
gate fails loudly instead of comparing the columnar path with itself.
The count is this process's only — a forked worker inherits the patch
but not the tally.

A test that logs traffic wraps the handlers a channel holds
(:func:`record_deliveries`); the channel itself has no observer hook.

Usage::

    from control_forcing import run_per_message

    report = run_per_message(lambda: Engine().run(spec, workload))
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.network.channel import Channel


@contextmanager
def per_message():
    """Inside, every batch travels message by message.  Yields a list
    that holds each batch's ids as they consulted the gate (a column,
    or a broadcast's ``range``)."""
    consulted: list = []

    def declined(channel, stream_ids):
        consulted.append(stream_ids)
        return None

    with mock.patch.object(Channel, "bulk_target", declined):
        yield consulted


def run_per_message(run):
    """``run()`` on the per-message control plane; asserts that some
    batch consulted the gate."""
    with per_message() as consulted:
        result = run()
    assert consulted, "no batch consulted Channel.bulk_target"
    return result


def record_deliveries(channel, note) -> None:
    """Call ``note(message)`` as each message reaches its handler on
    *channel* — at delivery, which on a latency-modeled channel is
    later than the send.  Wraps the bound server handler and every
    source range's; a wrapped source handler is no bound method, so the
    gate declines every batch on *channel* from then on."""

    def noting(handler):
        def wrapped(message):
            note(message)
            handler(message)

        return wrapped

    channel.bind_server(noting(channel._server_handler))
    channel._source_ranges = [
        (lo, hi, noting(handler)) for lo, hi, handler in channel._source_ranges
    ]
