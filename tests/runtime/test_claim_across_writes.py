"""The replay cursor keeps its claim across a constraint write.

Every value-window report re-centres its own row, so before the write
log each one dropped the cursor's claim and the next candidate was a
fresh scan: figure01's default workload at eps = 150 read 301 chunk
scans for 258 dispatches, and batched replay ran no faster than per
event there.  Now a write re-tests only the records of the rows the
tables' write logs name (DESIGN.md §9), so scans are few — a count, not
a wall-clock reading — and the ledger and answer are per-event
replay's.  The candidate oracle of ``test_replay_cursor.py`` (every
candidate is ``pos`` plus the first potential crossing of a fresh
pre-scan) is held here on the window population and on a rank protocol
whose reactions probe single rows between broadcasts.
"""

import numpy as np
import pytest
from replay_forcing import run_forced

from repro import Engine, QuerySpec, RankTolerance, TopKQuery, Workload
from repro.experiments.base import Profile
from repro.experiments.figures import FIGURES, _value_window
from repro.runtime.replay import ReplayCursor, _StatePrescan


def _figure01_cell(eps):
    """figure01's default-profile value-window cell at *eps*, unchecked
    (a checked run replays per event)."""
    params = FIGURES["figure01"].profiles[Profile.DEFAULT]
    spec, workload, _ = _value_window(params, 0, None, eps)
    return spec, workload


def test_figure01_at_eps_150_scans_less_than_it_dispatches():
    spec, workload = _figure01_cell(150.0)
    batch = run_forced("batch", lambda: Engine().run(spec, workload))
    event = run_forced("event", lambda: Engine().run(spec, workload))
    stats = batch.extras["replay"]
    assert stats["kernel"] == "run" and stats["dispatch_bailout_at"] is None
    assert 0 < stats["chunk_scans"] < stats["dispatches"], stats
    assert batch.ledger == event.ledger
    assert batch.final_answer == event.final_answer


@pytest.mark.parametrize(
    "spec, workload",
    [
        pytest.param(*_figure01_cell(150.0), id="value-eps-150"),
        pytest.param(*_figure01_cell(50.0), id="value-eps-50"),
        pytest.param(
            QuerySpec("rtp", TopKQuery(5), RankTolerance(5, 3)),
            Workload.synthetic(n_streams=120, horizon=120.0, sigma=60.0, seed=7),
            id="rtp",
        ),
    ],
)
def test_a_kept_claim_is_the_first_live_crossing(monkeypatch, spec, workload):
    original = ReplayCursor.candidate
    kept = []

    def candidate(cursor):
        scans = cursor.stats["chunk_scans"]
        k = original(cursor)
        if cursor.stats["dispatch_bailout_at"] is None:
            pos = cursor.pos
            mask = _StatePrescan(cursor._tables).crossing_mask(
                cursor.ids[pos:], cursor.payloads[pos:]
            )
            hits = np.flatnonzero(mask)
            assert k == (pos + int(hits[0]) if hits.size else None), pos
            kept.append(cursor.stats["chunk_scans"] == scans)
        return k

    monkeypatch.setattr(ReplayCursor, "candidate", candidate)
    batch = run_forced("batch", lambda: Engine().run(spec, workload))
    monkeypatch.undo()
    event = run_forced("event", lambda: Engine().run(spec, workload))
    assert batch.ledger == event.ledger
    assert batch.final_answer == event.final_answer
    assert sum(kept) > 1  # candidates answered from a kept claim
