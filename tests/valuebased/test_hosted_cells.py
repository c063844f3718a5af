"""The value-window scheme on the one hosted executor, pinned.

Every figure below was read off the separate value-window runner this
executor replaced, on the same workload and spec: the ledger, the rank
quality a checked run samples (its mean is now the exact sum over the
count) and the final answer.  The refusals keep their messages.
"""

import numpy as np
import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness.checker import (
    RankQualityChecker,
    ToleranceChecker,
    with_truncation_note,
)
from repro.correctness.oracle import Oracle
from repro.durability import DurabilityPolicy
from repro.network.accounting import LedgerSnapshot, MessageLedger
from repro.network.channel import Channel
from repro.network.latency import UniformLatency
from repro.network.messages import MessageKind
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import TopKQuery
from repro.state.table import StreamStateTable
from repro.valuebased.protocol import ValueToleranceTopKProtocol
from repro.valuebased.source import WindowPopulation

WORKLOAD = Workload.synthetic(n_streams=200, horizon=100.0, seed=3)
SPEC = QuerySpec("value-eps", TopKQuery(k=5), options={"eps": 50.0})
LEDGER = LedgerSnapshot(initialization={}, maintenance={MessageKind.UPDATE: 287})
ANSWER = frozenset({17, 49, 66, 90, 142})


@pytest.mark.parametrize(
    "deployment, topology",
    [
        (Deployment.single(), "single"),
        (Deployment.sharded(2), "sharded(2)"),
        # parallel is a permission: value windows take no worker process.
        (Deployment.sharded(2, parallel=True), "sharded(2)"),
    ],
)
def test_unchecked_cells(deployment, topology):
    report = Engine().run(SPEC, WORKLOAD, deployment)
    assert report.stack == "valuebased"
    assert report.topology == topology
    assert report.ledger == LEDGER
    assert report.final_answer == ANSWER
    assert "transport" not in report.extras["replay"]
    assert report.checks == 0 and report.violations == ()


@pytest.mark.parametrize(
    "deployment", [Deployment.single(check_every=3), Deployment.sharded(2, check_every=3)]
)
def test_checked_cells(deployment):
    report = Engine().run(SPEC, WORKLOAD, deployment)
    assert report.ledger == LEDGER
    assert report.checks == 1645
    assert report.violations == ()
    assert report.extras["worst_rank"] == 10
    assert report.extras["value_guarantee_held"] is True
    assert report.extras["mean_rank_error"] == 0.5440729483282675


def test_checked_latency_cell():
    deployment = Deployment.single(
        check_every=3, latency=UniformLatency(0.0, 2.0, seed=1)
    )
    report = Engine().run(SPEC, WORKLOAD, deployment)
    assert report.ledger == LEDGER
    assert report.final_answer == ANSWER
    assert report.checks == 1645
    assert report.extras["worst_rank"] == 10
    assert report.extras["mean_rank_error"] == 0.5696048632218845
    assert report.extras["value_guarantee_held"] is False
    assert report.violations == ("value guarantee violated",)


def test_refusals_keep_their_messages(tmp_path):
    durable = Deployment.single(durable=DurabilityPolicy(run_dir=str(tmp_path)))
    with pytest.raises(ValueError, match="value-window"):
        Engine().run(SPEC, WORKLOAD, durable)
    with pytest.raises(ValueError, match="query 'a'.*'valuebased'"):
        Engine().run_queries({"a": SPEC}, WORKLOAD)
    moving = Workload.moving_objects(n_objects=10, horizon=5.0, seed=1)
    with pytest.raises(ValueError, match="'value-eps'.*'valuebased'.*moving_objects"):
        Engine().run(SPEC, moving)


def test_rank_quality_checker_by_hand():
    """Ticks every, 2*every, ...; ranks against the truth; the value
    guarantee broken only past eps/2."""
    known = np.array([9.0, 8.0, 1.0, 2.0])
    answer = np.array([True, True, False, False])
    checker = RankQualityChecker(
        Oracle(known), TopKQuery(k=2), lambda: answer, known, eps=2.0, every=2
    )
    checker.apply(0, 0.0)  # truth: stream 0 falls to rank 4
    checker.check(1.0)  # tick 1: no sample
    assert checker.samples == 0
    checker.apply(3, 2.0)
    checker.check(2.0)  # tick 2: ranks 4 and 1; drift 9 > eps/2
    fields = checker.report_fields()
    assert fields["checks"] == 2
    assert fields["extras"]["worst_rank"] == 4
    assert fields["extras"]["mean_rank_error"] == 1.0
    assert fields["violations"] == ("value guarantee violated",)

    within = RankQualityChecker(
        Oracle(known + 1.0), TopKQuery(k=2), lambda: answer, known, eps=2.0, every=1
    )
    within.check(1.0)  # drift exactly eps/2: held
    assert within.report_fields()["extras"]["value_guarantee_held"] is True
    beyond = RankQualityChecker(
        Oracle(known + 1.5), TopKQuery(k=2), lambda: answer, known, eps=2.0, every=1
    )
    beyond.check(1.0)  # drift 0.75 eps: broken
    assert beyond.report_fields()["extras"]["value_guarantee_held"] is False


def test_window_population_seeds_the_host_values_for_free():
    """Binding the windows writes their centres into the host table's
    value column, and no message is charged for it."""
    ledger = MessageLedger()
    channel = Channel(ledger)
    population = WindowPopulation([4.0, 7.0, 1.0], [channel], [(0, 3)], 2.0)
    table = StreamStateTable(3)
    population.bind_state(table)
    np.testing.assert_array_equal(table.values, [4.0, 7.0, 1.0])
    np.testing.assert_array_equal(table.lower, [3.0, 6.0, 0.0])
    np.testing.assert_array_equal(table.upper, [5.0, 8.0, 2.0])
    assert ledger.snapshot() == LedgerSnapshot(initialization={}, maintenance={})


def test_only_the_value_windows_declare_their_own_stack():
    """A stock protocol takes the vocabulary's population and the
    tolerance checker; the value windows name both of their own."""
    stock = ZeroToleranceRangeProtocol
    assert stock.population is None and stock.checker_kind is None
    windows = ValueToleranceTopKProtocol(TopKQuery(k=2), 3.0)
    assert windows.checker_kind is RankQualityChecker
    assert isinstance(windows.population([1.0], [], [(0, 1)]), WindowPopulation)
    assert windows.population([1.0], [], [(0, 1)]).width == 3.0


def test_unchecked_fields_per_checker_kind():
    """A run nothing checked: no fields from the tolerance kind; from the
    rank-quality kind the best worst rank ``k`` and no samples."""
    windows = ValueToleranceTopKProtocol(TopKQuery(k=4), 6.0)
    assert ToleranceChecker.unchecked_fields(windows) == {}
    assert RankQualityChecker.unchecked_fields(windows) == {
        "checks": 0,
        "violations": (),
        "extras": {
            "eps": 6.0,
            "worst_rank": 4,
            "mean_rank_error": 0.0,
            "value_guarantee_held": True,
        },
    }


def test_rank_quality_checker_rejects_a_zero_interval():
    known = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="every must be >= 1"):
        RankQualityChecker(
            Oracle(known), TopKQuery(k=1), lambda: known > 1.5, known, 1.0, 0
        )


def test_truncation_note_only_when_records_were_dropped():
    lines = ("t=1.0: a", "t=2.0: b")
    assert with_truncation_note(lines, 2) == lines
    assert with_truncation_note((), 0) == ()
    assert with_truncation_note(lines, 5) == lines + ("... and 3 more",)
