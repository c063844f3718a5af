"""Kill-and-recover differential: the recovered run IS the run.

The acceptance contract: a run killed mid-replay and recovered from
snapshot+journal produces a message ledger byte-identical to the
uninterrupted run, across

    {zt-nrp, rtp} × {single, sharded(2)} × {event, batch}

with both recovery paths exercised (snapshot restore and journal-only
manifest rebuild), plus one real ``os._exit`` subprocess kill.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from operator import attrgetter

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness.checker import ToleranceViolationError
from repro.durability import DurabilityPolicy, recover_run, resume_run
from repro.durability.recovery import _restore_from_snapshot
from repro.durability.runner import execute_durable_streams
from repro.network.messages import (
    ProbeReplyMessage,
    ProbeRequestMessage,
    UpdateMessage,
)
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.vocabulary import Vocabulary
from repro.server.sharded import ShardServer
from repro.state.pools import SilencerPools
from repro.state.table import StreamStateTable
from repro.streams.vocabulary import SCALAR
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from replay_forcing import run_forced
from trace_cuts import head

SPECS = {
    "zt-nrp": QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0)),
    "rtp": QuerySpec(
        protocol="rtp", query=TopKQuery(10), tolerance=RankTolerance(10, 5)
    ),
}

WORKLOAD = Workload.synthetic(n_streams=120, horizon=400.0, seed=23)


class SimulatedKill(BaseException):
    """Raised from the progress hook to model a mid-run process death."""


def _crash(spec, deployment_kind, policy, trace):
    """Run durably and kill the run at half the trace."""
    if deployment_kind == "single":
        deployment = Deployment.single(durable=policy)
    else:
        deployment = Deployment.sharded(2, durable=policy)
    kill_at = trace.n_records // 2

    def progress(position):
        if position >= kill_at:
            raise SimulatedKill

    with pytest.raises(SimulatedKill):
        execute_durable_streams(
            trace, spec.build(), deployment, progress=progress
        )


def _crash_then_resume(spec, deployment_kind, replay_mode, policy, trace):
    """Crash, recover and finish, every replay forced to *replay_mode*."""

    def crash_then_resume():
        _crash(spec, deployment_kind, policy, trace)
        return resume_run(policy.run_dir, trace)

    return run_forced(replay_mode, crash_then_resume)


@pytest.mark.parametrize("protocol", sorted(SPECS))
@pytest.mark.parametrize("deployment_kind", ["single", "sharded"])
@pytest.mark.parametrize("replay_mode", ["event", "batch"])
def test_kill_and_recover_ledger_identity(
    tmp_path, protocol, deployment_kind, replay_mode
):
    spec = SPECS[protocol]
    trace = WORKLOAD.materialize()
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())

    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        fsync="every",
        snapshot_every=400,
        segment_records=128,
    )
    result = _crash_then_resume(
        spec, deployment_kind, replay_mode, policy, trace
    )
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer
    durability = result.extras["durability"]
    assert durability["recovered"] is True
    assert durability["recovery"]["snapshot_file"] is not None
    assert durability["recovery"]["position"] >= trace.n_records // 2


@pytest.mark.parametrize("protocol", sorted(SPECS))
def test_journal_only_recovery_without_snapshots(tmp_path, protocol):
    """snapshot_every=0: recovery rebuilds from the manifest and
    replays the whole journal — same ledger, same answer."""
    spec = SPECS[protocol]
    trace = WORKLOAD.materialize()
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())

    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        fsync="every",
        snapshot_every=0,
        segment_records=128,
    )
    result = _crash_then_resume(spec, "single", "batch", policy, trace)
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer
    assert result.extras["durability"]["recovery"]["snapshot_file"] is None


@pytest.mark.parametrize("snapshot_every", [0, 400], ids=["rebuild", "snapshot"])
@pytest.mark.parametrize("deployment_kind", ["single", "sharded"])
def test_a_manifest_that_names_a_replay_mode_still_resumes(
    tmp_path, deployment_kind, snapshot_every
):
    """Run directories written while the replay mode was a deployment
    knob carry ``"replay_mode"`` in their manifest; recovery ignores it
    and resumes to the same ledger."""
    spec = SPECS["rtp"]
    trace = WORKLOAD.materialize()
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        snapshot_every=snapshot_every,
        segment_records=128,
    )
    _crash(spec, deployment_kind, policy, trace)
    with open(policy.manifest_path, "rb") as handle:
        manifest = pickle.load(handle)
    assert "replay_mode" not in manifest
    manifest["replay_mode"] = "event"
    with open(policy.manifest_path, "wb") as handle:
        pickle.dump(manifest, handle)

    result = resume_run(policy.run_dir, trace)
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer
    assert result.extras["durability"]["recovered"] is True


@pytest.mark.parametrize("deployment_kind", ["single", "sharded"])
def test_a_snapshot_that_carries_the_retired_planes_still_resumes(
    tmp_path, monkeypatch, deployment_kind
):
    """Run directories written while the state table kept a
    ``report_time`` and a ``silencer`` plane (and ``constraint_epoch``),
    and FT-NRP's silencer pools mirrored into it through ``_table``,
    pickled all of them into every snapshot.  Such a cut still restores
    — the retired attributes ride along inert — and resumes to the
    uninterrupted run's ledger and answer."""
    spec = QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2)
    )
    trace = WORKLOAD.materialize()
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())
    protocol = spec.build()
    table_state = StreamStateTable.__getstate__

    def with_retired_planes(self):
        return {
            **table_state(self),
            "report_time": np.zeros(self.n_streams),
            "silencer": np.zeros(self.n_streams, dtype=np.int8),
            "constraint_epoch": 7,
        }

    monkeypatch.setattr(StreamStateTable, "__getstate__", with_retired_planes)
    monkeypatch.setattr(
        SilencerPools,
        "__getstate__",
        lambda self: {**vars(self), "_table": protocol._state},
        raising=False,
    )
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), snapshot_every=400, segment_records=128
    )
    deployment = (
        Deployment.single(durable=policy)
        if deployment_kind == "single"
        else Deployment.sharded(2, durable=policy)
    )

    def progress(position):
        if position >= trace.n_records // 2:
            raise SimulatedKill

    with pytest.raises(SimulatedKill):
        execute_durable_streams(trace, protocol, deployment, progress=progress)
    monkeypatch.undo()

    result = resume_run(policy.run_dir, trace)
    snapshot = result.extras["durability"]["recovery"]["snapshot_file"]
    assert snapshot is not None
    session, _ = _restore_from_snapshot(os.path.join(policy.snapshot_dir, snapshot))
    restored = session.host.protocol
    assert restored._pools._table is restored._state
    assert restored._state.silencer.dtype == np.int8
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer


@pytest.mark.parametrize("deployment_kind", ["single", "sharded"])
def test_a_snapshot_whose_vocabulary_carries_the_retired_fields_still_resumes(
    tmp_path, monkeypatch, deployment_kind
):
    """Run directories written while the payload vocabulary named the
    update and probe message classes, the payload field, the trace
    columns and the strict-mode error — and each shard server kept its
    own reference to it — pickled all of them with the host.  Such a
    cut still restores (the retired fields ride along inert) and
    resumes to the uninterrupted run's ledger and answer."""
    spec = QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2)
    )
    trace = WORKLOAD.materialize()
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())
    retired = {
        "probe_request": ProbeRequestMessage,
        "probe_reply": ProbeReplyMessage,
        "update": UpdateMessage,
        "payload_of": attrgetter("value"),
        "initial_column": "initial_values",
        "record_column": "values",
        "violation_error": ToleranceViolationError,
    }
    monkeypatch.setattr(
        Vocabulary,
        "__getstate__",
        lambda self: {**vars(self), **retired},
        raising=False,
    )
    monkeypatch.setattr(
        ShardServer,
        "__getstate__",
        lambda self: {**vars(self), "vocabulary": self._coordinator.vocabulary},
        raising=False,
    )
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), snapshot_every=400, segment_records=128
    )
    deployment = (
        Deployment.single(durable=policy)
        if deployment_kind == "single"
        else Deployment.sharded(2, durable=policy)
    )

    def progress(position):
        if position >= trace.n_records // 2:
            raise SimulatedKill

    with pytest.raises(SimulatedKill):
        execute_durable_streams(trace, spec.build(), deployment, progress=progress)
    monkeypatch.undo()

    result = resume_run(policy.run_dir, trace)
    snapshot = result.extras["durability"]["recovery"]["snapshot_file"]
    assert snapshot is not None
    session, _ = _restore_from_snapshot(os.path.join(policy.snapshot_dir, snapshot))
    host = session.host
    assert vars(host.vocabulary)["record_column"] == "values"
    assert host.vocabulary == SCALAR
    assert all(shard.vocabulary == SCALAR for shard in host.shards)
    assert len(host.shards) == (1 if deployment_kind == "single" else 2)
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer


def test_uninterrupted_durable_run_matches_plain(tmp_path):
    """No crash at all: the durable wrapper changes nothing observable."""
    spec = SPECS["zt-nrp"]
    baseline = Engine().run(spec, WORKLOAD, Deployment.single())
    policy = DurabilityPolicy(run_dir=str(tmp_path / "run"))
    report = Engine().run(
        spec, WORKLOAD, Deployment.single(durable=policy)
    )
    assert report.ledger == baseline.ledger
    assert report.final_answer == baseline.final_answer
    assert report.topology == "single+durable"
    assert report.extras["durability"]["recovered"] is False


def test_recover_run_reports_position(tmp_path):
    """recover_run alone rebuilds the session to the journal's edge."""
    spec = SPECS["zt-nrp"]
    trace = WORKLOAD.materialize()
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), fsync="every", segment_records=64
    )
    kill_at = trace.n_records // 3

    def progress(position):
        if position >= kill_at:
            raise SimulatedKill

    with pytest.raises(SimulatedKill):
        execute_durable_streams(
            trace, spec.build(), Deployment.single(durable=policy),
            progress=progress,
        )
    rec = recover_run(policy.run_dir)
    assert rec.position >= kill_at
    assert rec.position < trace.n_records
    assert rec.scan_reason in ("clean", "torn")


def test_rerunning_an_existing_run_dir_is_refused(tmp_path):
    spec = SPECS["zt-nrp"]
    policy = DurabilityPolicy(run_dir=str(tmp_path / "run"))
    Engine().run(spec, WORKLOAD, Deployment.single(durable=policy))
    with pytest.raises(FileExistsError, match="recover"):
        Engine().run(spec, WORKLOAD, Deployment.single(durable=policy))


def test_resume_rejects_a_foreign_trace(tmp_path):
    spec = SPECS["zt-nrp"]
    trace = WORKLOAD.materialize()
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"), fsync="every", segment_records=64
    )

    def progress(position):
        raise SimulatedKill

    with pytest.raises(SimulatedKill):
        execute_durable_streams(
            trace, spec.build(), Deployment.single(durable=policy),
            progress=progress,
        )
    short = head(trace.restrict_streams(trace.n_streams), 1.0)
    with pytest.raises(ValueError, match="wrong trace"):
        resume_run(policy.run_dir, short)


def test_real_process_kill_and_recover(tmp_path):
    """A child process os._exit(1)s mid-run; the parent recovers it."""
    trace_path = tmp_path / "trace.npz"
    run_dir = tmp_path / "run"
    trace = WORKLOAD.materialize()
    trace.save(trace_path)

    child = textwrap.dedent(
        f"""
        import os
        from repro.api import Deployment
        from repro.durability import DurabilityPolicy
        from repro.durability.runner import execute_durable_streams
        from repro.api import QuerySpec
        from repro.queries.range_query import RangeQuery
        from repro.streams.trace import StreamTrace

        trace = StreamTrace.load({str(trace_path)!r})
        policy = DurabilityPolicy(
            run_dir={str(run_dir)!r}, fsync="every", snapshot_every=300,
            segment_records=64,
        )
        spec = QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))

        def progress(position):
            if position >= trace.n_records // 2:
                os._exit(1)  # no atexit, no finally: a genuine kill

        execute_durable_streams(
            trace, spec.build(), Deployment.single(durable=policy),
            progress=progress,
        )
        raise SystemExit("unreachable: the child should have died")
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr

    baseline = Engine().run(SPECS["zt-nrp"], WORKLOAD, Deployment.single())
    result = resume_run(str(run_dir), trace)
    assert result.ledger == baseline.ledger
    assert result.final_answer == baseline.final_answer


def test_snapshot_pickles_reopen_consistently(tmp_path):
    """Direct check of the snapshot cut: a pickled mid-run graph
    re-binds into a working session (shard aliasing preserved)."""
    from repro.durability.journal import load_journal

    spec = SPECS["zt-nrp"]
    trace = WORKLOAD.materialize()
    policy = DurabilityPolicy(
        run_dir=str(tmp_path / "run"),
        fsync="every",
        snapshot_every=200,
        segment_records=64,
    )
    Engine().run(spec, WORKLOAD, Deployment.sharded(2, durable=policy))
    contents = load_journal(policy.journal_path)
    assert contents.snapshots, "expected at least one snapshot mark"
    path = os.path.join(policy.snapshot_dir, contents.snapshots[-1]["file"])
    session, _ = _restore_from_snapshot(path)
    host = session.host
    from repro.state.sharding import validate_shard_alignment

    validate_shard_alignment(
        host.state, [shard.state for shard in host.shards]
    )
