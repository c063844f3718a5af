"""Force a replay strategy from a test: the differential grids' one hook.

The engine picks how a run replays (:func:`repro.runtime.replay.
resolve_mode`); no deployment knob overrides it.  Grids that hold the
per-event and batched strategies to one ledger force one here instead,
by answering every ``"auto"`` request at ``resolve_mode`` as if *mode*
had been asked.  An explicit ``mode=`` (a session-level call, or the
cursor a session builds with the mode it resolved) stays as asked.
Worker processes — the shard transport's, the fan-out pool's — are
forked inside the patch and inherit it.

Each forced resolution is appended to one unlinked file that forked
workers share, so :func:`run_forced` can check that the forced arm
really ran in this process and in every worker: a patch that missed a
worker fails loudly instead of comparing ``auto`` with ``auto``.

Usage::

    from replay_forcing import run_forced

    report = run_forced("event", lambda: Engine().run(spec, workload))
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from unittest import mock

from repro.runtime import replay, session


@contextmanager
def forced_replay(mode: str):
    """Every ``"auto"`` replay inside resolves as if *mode* were asked.

    Yields a list that holds, on exit, every forced resolution
    (``"event"`` / ``"batch"``) made here or in a forked worker.
    """
    descriptor, path = tempfile.mkstemp(prefix="forced-replay-")
    os.close(descriptor)
    log = os.open(path, os.O_RDWR | os.O_APPEND)
    os.unlink(path)
    resolve = replay.resolve_mode

    def forced(asked, *args, **kwargs):
        if asked != "auto":
            return resolve(asked, *args, **kwargs)
        resolved = resolve(mode, *args, **kwargs)
        os.write(log, resolved.encode() + b"\n")
        return resolved

    resolutions: list[str] = []
    try:
        with mock.patch.object(replay, "resolve_mode", forced), \
                mock.patch.object(session, "resolve_mode", forced):
            yield resolutions
    finally:
        size = os.fstat(log).st_size
        resolutions.extend(os.pread(log, size, 0).decode().split())
        os.close(log)


def run_forced(mode: str, run):
    """``run()`` with replay forced to *mode*; asserts that arm ran.

    Every replay must have resolved under the patch (``"event"`` for a
    forced ``"event"``), and where the result carries replay stats —
    ``extras["replay"]``, merged over workers for the transport and
    the fan-out — their mode must be the one those resolutions name.
    """
    with forced_replay(mode) as resolutions:
        result = run()
    ran = set(resolutions)
    assert ran, f"no replay resolved under the forced {mode!r}"
    if mode == "event":
        assert ran == {"event"}, f"forced 'event' resolved {sorted(ran)}"
    stats = (getattr(result, "extras", None) or {}).get("replay")
    if stats is not None:
        label = ran.pop() if len(ran) == 1 else "mixed"
        assert stats["mode"] == label, (
            f"forced {mode!r}: resolved {label!r}, ran {stats['mode']!r}"
        )
    return result
