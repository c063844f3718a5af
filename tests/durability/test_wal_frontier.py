"""The WAL loop as frontiers inside one replay (DESIGN.md §11).

A durable run replays each snapshot interval *once*; a journal segment
is a frontier of that replay, appended before its end is released.
These tests pin what must not move when the loop is restructured —
segment lengths, the order of event and message frames, the journal's
bytes — and what the restructuring buys: per-segment work that does not
grow with the population.  The second half damages snapshot files:
every way of being unusable must fall back, never abort, never load.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest

import repro.runtime.session as session_module
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy, resume_run
from repro.durability.journal import (
    REC_EVENTS,
    REC_MESSAGES,
    frame_header,
    load_journal,
    scan_journal,
)
from repro.durability.recovery import _restore_from_snapshot
from repro.durability.runner import (
    SNAPSHOT_COLUMNS,
    SNAPSHOT_MAGIC,
    execute_durable_streams,
)
from repro.network.accounting import Phase
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced

SPECS = {
    "zt-nrp": QuerySpec("zt-nrp", RangeQuery(400.0, 600.0)),
    "ft-nrp": QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2)
    ),
    "rtp": QuerySpec("rtp", TopKQuery(10), RankTolerance(10, 5)),
}

SMALL = Workload.synthetic(n_streams=40, horizon=100.0, sigma=60.0, seed=23)
RECOVERY = Workload.synthetic(n_streams=120, horizon=400.0, seed=23)


class Kill(BaseException):
    """Raised from the progress hook: a process death at that position."""


def _deployment(topology, policy):
    if topology == "single":
        return Deployment.single(durable=policy)
    return Deployment.sharded(2, durable=policy)


def _run(protocol, workload, topology, policy, replay_mode):
    """The durable run, replay forced to *replay_mode*."""
    return run_forced(
        replay_mode,
        lambda: Engine().run(
            SPECS[protocol], workload, _deployment(topology, policy)
        ),
    )


_PLAIN: dict = {}


def _plain(protocol, workload):
    key = (protocol, id(workload))
    if key not in _PLAIN:
        _PLAIN[key] = Engine().run(SPECS[protocol], workload, Deployment.single())
    return _PLAIN[key]


_PER_RECORD: dict = {}


def _maintenance_after_each_record(protocol):
    """``totals[k]``: maintenance messages charged by ``records[:k]`` of
    SMALL, from the per-event reference replay."""
    if protocol not in _PER_RECORD:
        trace = SMALL.materialize()
        session = ExecutionSession.for_streams(trace, SPECS[protocol].build())
        session.initialize()
        totals = [0]
        session.replay_trace(
            trace,
            after_apply=lambda time: totals.append(
                session.ledger.maintenance_total
            ),
        )
        assert len(totals) == trace.n_records + 1
        _PER_RECORD[protocol] = totals
    return _PER_RECORD[protocol]


# ----------------------------------------------------------------------
# The journal a frontier-driven run writes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("replay_mode", ["event", "batch"])
@pytest.mark.parametrize("topology", ["single", "sharded"])
@pytest.mark.parametrize("protocol", sorted(SPECS))
@pytest.mark.parametrize("segment", ["1", "7", "128", "n+1"])
def test_segments_and_message_frames(
    tmp_path, segment, protocol, topology, replay_mode
):
    trace = SMALL.materialize()
    n = trace.n_records
    segment_records = n + 1 if segment == "n+1" else int(segment)
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        snapshot_every=50,
        segment_records=segment_records,
    )
    report = _run(protocol, SMALL, topology, policy, replay_mode)
    plain = _plain(protocol, SMALL)
    assert report.ledger == plain.ledger
    assert report.final_answer == plain.final_answer

    contents = load_journal(policy.journal_path)
    expected = [segment_records] * (n // segment_records)
    if n % segment_records:
        expected.append(n % segment_records)
    assert contents.segments == expected
    assert report.extras["durability"]["segments"] == len(expected)

    # Summed message frames are the ledger, per (phase, kind).
    journaled = {phase: {} for phase in Phase}
    for phase, kind, count in contents.messages:
        journaled[phase][kind] = journaled[phase].get(kind, 0) + count
    assert journaled[Phase.INITIALIZATION] == report.ledger.initialization
    assert journaled[Phase.MAINTENANCE] == report.ledger.maintenance

    # Write-ahead, frame by frame: when the events frame of [lo, hi) is
    # appended, the journal holds every maintenance message records[:lo]
    # caused and none that a later record did.
    totals = _maintenance_after_each_record(protocol)
    position = maintenance = 0
    for rtype, body in scan_journal(policy.journal_path).records:
        if rtype == REC_EVENTS:
            assert maintenance == totals[position], position
            position += int.from_bytes(body[:4], "little")
        elif rtype == REC_MESSAGES and body[0] == 1:  # maintenance phase
            maintenance += int.from_bytes(body[2:6], "little")
    assert (position, maintenance) == (n, totals[n])

    # A cut falls on the first segment boundary >= snapshot_every past
    # the previous one, and never at the end of the trace.
    step = -(-50 // segment_records) * segment_records
    assert [mark["position"] for mark in contents.snapshots] == list(
        range(step, n, step)
    )


@pytest.mark.parametrize(
    "protocol, topology, replay_mode",
    [
        ("zt-nrp", "single", "batch"),
        ("ft-nrp", "sharded", "auto"),
        ("rtp", "single", "event"),
    ],
)
def test_a_kill_at_every_segment_boundary_resumes_identically(
    tmp_path, protocol, topology, replay_mode
):
    trace = SMALL.materialize()
    plain = _plain(protocol, SMALL)
    boundaries = list(range(16, trace.n_records, 16)) + [trace.n_records]
    for boundary in boundaries:
        policy = DurabilityPolicy(
            run_dir=str(tmp_path / f"run{boundary}"),
            fsync="every",
            snapshot_every=48,
            segment_records=16,
        )
        heard = []

        def progress(position):
            heard.append(position)
            if position == boundary:
                raise Kill

        def crash_then_resume():
            with pytest.raises(Kill):
                execute_durable_streams(
                    trace,
                    SPECS[protocol].build(),
                    _deployment(topology, policy),
                    progress=progress,
                )
            # Progress hears of every boundary, in order, exactly once.
            assert heard == boundaries[: len(heard)]
            contents = load_journal(policy.journal_path)
            assert len(contents.times) == boundary
            assert [m["position"] for m in contents.snapshots] == [
                cut
                for cut in range(48, trace.n_records, 48)
                if cut <= boundary
            ]
            return resume_run(policy.run_dir, trace)

        result = run_forced(replay_mode, crash_then_resume)
        assert result.ledger == plain.ledger, boundary
        assert result.final_answer == plain.final_answer, boundary
        recovery = result.extras["durability"]["recovery"]
        assert recovery["position"] == boundary
        # The newest marked snapshot is always the one restored.
        newest = boundary // 48 * 48
        assert recovery["snapshot_file"] == (
            f"snapshot_{newest:012d}.pkl" if newest else None
        )


def test_segment_cost_does_not_grow_with_the_population(tmp_path, monkeypatch):
    """By count, not time: 312 segments over 200 streams.  One replay
    consults the columnar gate once; a replay *per segment* did so per
    segment."""
    workload = Workload.synthetic(
        n_streams=200, horizon=500.0, sigma=60.0, seed=23
    )
    n = workload.materialize().n_records
    assert 4500 < n < 5500
    calls = {"gate": 0}
    gate = session_module.columnar_table

    def counted_gate(*args):
        calls["gate"] += 1
        return gate(*args)

    monkeypatch.setattr(session_module, "columnar_table", counted_gate)
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), snapshot_every=0, segment_records=16
    )
    report = Engine().run(
        SPECS["zt-nrp"], workload, Deployment.single(durable=policy)
    )
    assert report.extras["durability"]["segments"] == -(-n // 16)
    assert report.extras["replay"]["kernel"] == "columnar"
    assert calls["gate"] == 1


#: sha256 of ``journal.bin`` for three cells of RECOVERY under
#: ``fsync="interval", snapshot_every=400, segment_records=128``,
#: computed at commit 70dd7c6 (the last one whose WAL loop replayed
#: segment by segment).  Frame order, frame bytes and the appends at
#: which an interval fsync falls are all inside the digest.  The ft-nrp
#: cell was re-pinned when FT-NRP's quiet reports went columnar (one
#: ``UPDATE x q`` frame per absorbed prefix where the cursor wrote ``q``
#: frames of 1; at 70dd7c6 it read 15359f7c...df089310); what did not
#: move is held by ``test_absorbed_prefixes_journal_the_event_mode_totals``.
GOLDEN_JOURNALS = {
    ("zt-nrp", "single", "batch"): (
        "d8bb5197962b7423e40e71b0ba8158991f864fb2936339d290f68f1a164d2a77"
    ),
    ("ft-nrp", "sharded", "auto"): (
        "96dbf89f0d8f68080005989daf4fb69ae4601a8b47f513a313151b51c15952c1"
    ),
    ("rtp", "single", "event"): (
        "01556a01ade8152a662a6884601795201e38722c57cef0c85071ac37604bfaaa"
    ),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN_JOURNALS))
def test_journal_bytes_are_pinned(tmp_path, cell):
    protocol, topology, replay_mode = cell
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        fsync="interval",
        snapshot_every=400,
        segment_records=128,
    )
    report = _run(protocol, RECOVERY, topology, policy, replay_mode)
    assert report.extras["durability"]["snapshots"]["count"] == 4
    assert sorted(os.listdir(policy.snapshot_dir)) == [
        f"snapshot_{cut:012d}.pkl" for cut in (512, 1024, 1536, 2048)
    ]
    with open(policy.journal_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == GOLDEN_JOURNALS[cell]


def _messages_between_event_frames(path):
    """``(phase, kind) -> count`` folded over the message frames that
    precede the first events frame, then over those between each pair
    of consecutive events frames (and behind the last)."""
    spans = [{}]
    for rtype, body in load_journal(path).scan.records:
        if rtype == REC_EVENTS:
            spans.append({})
        elif rtype == REC_MESSAGES:
            key, count = (body[0], body[1]), int.from_bytes(body[2:6], "little")
            spans[-1][key] = spans[-1].get(key, 0) + count
    return spans


def test_absorbed_prefixes_journal_the_event_mode_totals(tmp_path):
    """What makes re-pinning the ft-nrp digest safe: between any two
    events frames the columnar kernel journals the charges per-event
    replay does — in fewer frames, never in another segment."""
    spans, frames = {}, {}
    for replay_mode in ("event", "auto"):
        policy = DurabilityPolicy(
            run_dir=str(tmp_path / replay_mode),
            fsync="interval",
            snapshot_every=400,
            segment_records=128,
        )
        report = _run("ft-nrp", RECOVERY, "sharded", policy, replay_mode)
        spans[replay_mode] = _messages_between_event_frames(policy.journal_path)
        frames[replay_mode] = report.extras["durability"]["journal"]["message_frames"]
    assert report.extras["replay"]["kernel"] == "columnar"
    assert report.extras["replay"]["dispatches"] > 0
    assert len(spans["auto"]) == -(-RECOVERY.materialize().n_records // 128) + 1
    assert spans["auto"] == spans["event"]
    assert frames["auto"] < frames["event"]


def test_a_kill_between_an_absorbed_prefix_and_its_reaction_resumes(tmp_path):
    """The slack a quiet report leaves in ``count`` must survive the
    kill: with it lost (or counted twice) the report behind the kill
    position reacts at another record, and the ledger moves."""
    trace = SMALL.materialize()
    plain = _plain("ft-nrp", SMALL)
    charged = np.diff(_maintenance_after_each_record("ft-nrp"))
    reports = np.nonzero(charged)[0]
    kills = [
        int(reacting)
        for quiet, reacting in zip(reports, reports[1:])
        if charged[quiet] == 1 and charged[reacting] > 1
    ]
    assert kills, "no reaction directly behind a quiet report"
    for kill in kills:
        for snapshot_every in (0, kill):  # recompute all / restore the cut
            policy = DurabilityPolicy(
                run_dir=str(tmp_path / f"run{kill}-{snapshot_every}"),
                fsync="every",
                snapshot_every=snapshot_every,
                segment_records=kill,
            )

            def progress(position):
                if position == kill:
                    raise Kill

            def crash_then_resume():
                with pytest.raises(Kill):
                    execute_durable_streams(
                        trace, SPECS["ft-nrp"].build(),
                        _deployment("single", policy), progress=progress,
                    )
                assert len(load_journal(policy.journal_path).times) == kill
                return resume_run(policy.run_dir, trace)

            result = run_forced("batch", crash_then_resume)
            assert result.ledger == plain.ledger, (kill, snapshot_every)
            assert result.final_answer == plain.final_answer
            assert result.extras["replay"]["kernel"] == "columnar"
            recovery = result.extras["durability"]["recovery"]
            assert recovery["position"] == kill
            assert (recovery["snapshot_file"] is not None) == bool(snapshot_every)


# ----------------------------------------------------------------------
# Unusable snapshots fall back; they never abort and never load
# ----------------------------------------------------------------------
def _reframed(path, edit):
    """Rewrite the snapshot at *path* with its pickled body passed
    through *edit* — and a CRC that holds, so only decoding or
    rebuilding can reject it."""
    ((tag, body),) = scan_journal(path, SNAPSHOT_MAGIC).records
    body = edit(body)
    with open(path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC + frame_header(tag, body) + body)


def _rewrite(path, edit):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(edit(blob))


def _flip(blob):
    damaged = bytearray(blob)
    for offset in range(2000, 2100):
        damaged[offset] ^= 0xFF
    return bytes(damaged)


def _disagreeing_population(body):
    blob = pickle.loads(body)
    blob["population"]["lower"][3] -= 1.0
    return pickle.dumps(blob, protocol=4)


DAMAGE = {
    # (a) at the parent: loaded silently.
    "flip": lambda path: _rewrite(path, _flip),
    "garbage": lambda path: _rewrite(path, lambda blob: os.urandom(len(blob))),
    # (b) at the parent: KeyError('engine_now') aborted recovery.
    "wrong shape": lambda path: _rewrite(
        path, lambda blob: pickle.dumps({"hello": 1})
    ),
    "wrong shape, framed": lambda path: _reframed(
        path, lambda body: pickle.dumps({"hello": 1})
    ),
    # (c) at the parent: ModuleNotFoundError aborted recovery.
    "stale class path": lambda path: _reframed(
        path,
        lambda body: body.replace(b"repro.server.server", b"repro.server.servez"),
    ),
    "truncation": lambda path: _rewrite(path, lambda blob: blob[: len(blob) // 2]),
    "empty": lambda path: _rewrite(path, lambda blob: b""),
    "missing": os.remove,
    "columns disagree with the table": lambda path: _reframed(
        path, _disagreeing_population
    ),
}


#: What ``recovery["skipped_snapshots"]`` must say of each damage mode:
#: the exception type and the words that name the damage.
REASON = {
    "flip": ("ValueError", "crc scan"),
    "garbage": ("ValueError", "magic scan"),
    "wrong shape": ("ValueError", "magic scan"),
    "wrong shape, framed": ("KeyError", "'host'"),
    "stale class path": ("ModuleNotFoundError", "repro.server.servez"),
    "truncation": ("ValueError", "torn scan"),
    "empty": ("ValueError", "magic scan"),
    "missing": ("FileNotFoundError", "No such file"),
    "columns disagree with the table": (
        "ValueError", "source-side 'lower' disagrees with the restored table",
    ),
}


def _assert_skipped(recovery, paths, damage):
    """One ``(file, reason)`` per damaged snapshot, newest first, each
    reason naming the exception and the damage."""
    skipped = recovery["skipped_snapshots"]
    assert [file for file, _ in skipped] == [
        os.path.basename(path) for path in reversed(paths)
    ]
    error, words = REASON[damage]
    for _, reason in skipped:
        assert reason.startswith(error + ": ") and words in reason, reason


def _killed_at_half(tmp_path):
    trace = RECOVERY.materialize()
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        fsync="every",
        snapshot_every=400,
        segment_records=128,
    )

    def progress(position):
        if position >= trace.n_records // 2:
            raise Kill

    with pytest.raises(Kill):
        execute_durable_streams(
            trace,
            SPECS["zt-nrp"].build(),
            Deployment.single(durable=policy),
            progress=progress,
        )
    marks = load_journal(policy.journal_path).snapshots
    assert [mark["position"] for mark in marks] == [512, 1024]
    paths = [os.path.join(policy.snapshot_dir, mark["file"]) for mark in marks]
    return trace, policy, paths


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_newest_snapshot_falls_back_to_the_previous_mark(
    tmp_path, damage
):
    trace, policy, (older, newest) = _killed_at_half(tmp_path)
    DAMAGE[damage](newest)
    expected_error = {
        "stale class path": ModuleNotFoundError,
        "wrong shape, framed": KeyError,
        "missing": FileNotFoundError,
    }.get(damage, ValueError)
    match = "disagrees" if damage.startswith("columns") else None
    with pytest.raises(expected_error, match=match):
        _restore_from_snapshot(newest)

    result = resume_run(policy.run_dir, trace)
    plain = _plain("zt-nrp", RECOVERY)
    assert result.ledger == plain.ledger
    assert result.final_answer == plain.final_answer
    recovery = result.extras["durability"]["recovery"]
    assert recovery["snapshot_file"] == os.path.basename(older)
    _assert_skipped(recovery, [newest], damage)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_every_snapshot_damaged_falls_back_to_the_manifest(tmp_path, damage):
    trace, policy, paths = _killed_at_half(tmp_path)
    for path in paths:
        DAMAGE[damage](path)
    result = resume_run(policy.run_dir, trace)
    plain = _plain("zt-nrp", RECOVERY)
    assert result.ledger == plain.ledger
    assert result.final_answer == plain.final_answer
    recovery = result.extras["durability"]["recovery"]
    assert recovery["snapshot_file"] is None
    _assert_skipped(recovery, paths, damage)


def test_a_snapshot_holds_columns_not_sources(tmp_path):
    """The pickled graph stops at the channels; the population is its
    five planes, equal to the table's at the cut."""
    trace, policy, (_, newest) = _killed_at_half(tmp_path)
    with open(newest, "rb") as handle:
        raw = handle.read()
    assert raw.startswith(SNAPSHOT_MAGIC)
    assert b"IntervalMembership" not in raw
    assert b"FilterConstraint" not in raw
    ((tag, body),) = scan_journal(newest, SNAPSHOT_MAGIC).records
    assert tag == SNAPSHOT_COLUMNS

    blob = pickle.loads(body)
    assert sorted(blob) == [
        "channels", "engine_now", "host", "ledger", "population", "position",
    ]
    for channel in blob["channels"]:
        assert channel._source_ranges == []
    population = blob["population"]
    assert sorted(population) == [
        "has_filter", "inside", "lower", "upper", "value",
    ]
    n = trace.n_streams
    table = blob["host"].state
    expected = trace.initial_values.copy()
    expected[trace.stream_ids[:1024]] = trace.values[:1024]
    assert np.array_equal(population["value"], expected)
    assert np.array_equal(population["lower"], table.lower)
    assert np.array_equal(population["upper"], table.upper)
    for name, column in (("has_filter", "scannable"), ("inside", "inside")):
        bits = np.unpackbits(population[name], count=n).view(bool)
        assert np.array_equal(bits, getattr(table, column))
