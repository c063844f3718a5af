"""Disk-backed planes: ``storage="mmap"`` equivalence and limits.

The durability tier swaps the table's numpy planes for ``np.memmap``
files so 1M+-stream populations fit without RAM-resident state.  The
contract: the backing is invisible to every consumer — same mutation
API, same shard aliasing, same run results — and explicitly refused
where it cannot hold (object-dtype container columns).
"""

import os
import pickle

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.state.sharding import (
    StateShardView,
    shard_ranges,
    validate_shard_alignment,
)
from repro.state.table import StateTableFactory, StreamStateTable


def _mmap_table(tmp_path, n=16) -> StreamStateTable:
    return StreamStateTable(
        n, storage="mmap", plane_dir=str(tmp_path / "planes")
    )


def test_mmap_requires_a_plane_dir():
    with pytest.raises(ValueError, match="plane_dir"):
        StreamStateTable(4, storage="mmap")


def test_planes_live_on_disk(tmp_path):
    table = _mmap_table(tmp_path)
    assert table.storage == "mmap"
    assert isinstance(table.values, np.memmap)
    on_disk = sorted(os.listdir(table.plane_dir))
    assert "values.npy" in on_disk and "lower.npy" in on_disk

    table.record_report(3, 42.0, time=1.0)
    table.record_deploy(3, 40.0, 45.0)
    table.flush_planes()
    # The flushed file holds the mutation — readable by a fresh map.
    reread = np.load(
        os.path.join(table.plane_dir, "values.npy"), mmap_mode="r"
    )
    assert reread[3] == 42.0


def test_mutation_api_matches_ram_backing(tmp_path):
    ram = StreamStateTable(8)
    disk = _mmap_table(tmp_path, 8)
    for table in (ram, disk):
        table.record_report_rows(
            np.arange(8), np.arange(8, dtype=np.float64), time=0.0
        )
        table.record_deploy(2, 1.0, 3.0)
        table.answer_add(2)
        table.record_report(5, -1.0, time=2.0)
    np.testing.assert_array_equal(ram.values, np.asarray(disk.values))
    np.testing.assert_array_equal(ram.lower, np.asarray(disk.lower))
    np.testing.assert_array_equal(
        ram.answer_mask, np.asarray(disk.answer_mask)
    )
    assert ram.answer_size == disk.answer_size == 1
    assert (disk.lower[2], disk.upper[2]) == (1.0, 3.0)


def test_shard_views_alias_mmap_parent(tmp_path):
    parent = _mmap_table(tmp_path, 10)
    shards = [
        StateShardView(parent, lo, hi) for lo, hi in shard_ranges(10, 3)
    ]
    validate_shard_alignment(parent, shards)
    shards[1].record_report(0, 7.0, time=1.0)  # local row 0 of shard 1
    assert parent.values[shards[1].lo] == 7.0


def test_container_column_refused_under_mmap(tmp_path):
    table = _mmap_table(tmp_path)
    with pytest.raises(ValueError, match="mmap"):
        table._ensure_containers()


def test_pickle_converts_planes_to_ram(tmp_path):
    """Snapshots must not capture live memmaps: a crashed run's plane
    files may be ahead of the journal, so pickling materializes RAM
    copies and the clone reports ``storage == "ram"``."""
    table = _mmap_table(tmp_path, 6)
    table.record_report(4, 9.0, time=3.0)
    clone = pickle.loads(pickle.dumps(table))
    assert clone.storage == "ram"
    assert clone.plane_dir is None
    assert not isinstance(clone.values, np.memmap)
    assert clone.values[4] == 9.0
    # Independent copies: mutating the clone leaves the original alone.
    clone.values[4] = 0.0
    assert table.values[4] == 9.0


def test_factory_is_picklable_and_threads_storage(tmp_path):
    factory = StateTableFactory(
        storage="mmap", plane_dir=str(tmp_path / "planes")
    )
    rebuilt = pickle.loads(pickle.dumps(factory))
    table = rebuilt(5)
    assert table.storage == "mmap"
    assert table.n_streams == 5
    assert StateTableFactory()(5).storage == "ram"


def test_session_runs_identically_over_mmap(tmp_path):
    """Full protocol run: mmap-backed planes produce the same ledger
    and answer as RAM-backed, single and sharded."""
    spec = QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))
    workload = Workload.synthetic(n_streams=80, horizon=150.0, seed=11)
    trace = workload.materialize()
    baseline = Engine().run(spec, workload, Deployment.single())

    for build in ("single", "sharded"):
        factory = StateTableFactory(
            storage="mmap", plane_dir=str(tmp_path / f"planes_{build}")
        )
        if build == "single":
            session = ExecutionSession.for_streams(
                trace, spec.build(), state_factory=factory
            )
        else:
            session = ExecutionSession.for_streams_sharded(
                trace, spec.build(), 2, state_factory=factory
            )
        session.initialize(time=0.0)
        session.replay(
            trace.times, trace.stream_ids, trace.values, horizon=trace.horizon
        )
        assert session.snapshot() == baseline.ledger
        assert session.host.state.storage == "mmap"
