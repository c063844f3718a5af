"""Whole-run differential: the columnar checker vs the set-based one.

Every cell of {ft-nrp, zt-nrp, rtp, ft-rp, rtp-2d, ft-nrp-2d} x {single,
sharded(2), sharded(2, parallel)} x {synchronous, a latency model under
which tolerance is breached} x check_every in {1, 7} runs twice: once as
shipped, once with the engine's ``ToleranceChecker`` given the set-based
reference through its ``evaluate=`` seam (Python sets, brute-force truth
from the oracle's payload array).  The two ``CheckerReport``s — checks,
violation_count, every retained ``Violation``, the inherent /
protocol-bug split — and the ledgers must be identical, and a strict run
must raise at the same record with the same message.
"""

import numpy as np
import pytest

import repro.api.engine as engine_module
from repro import (
    FractionTolerance,
    KnnQuery,
    RangeQuery,
    RankTolerance,
    TopKQuery,
    UniformLatency,
)
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness.checker import ToleranceChecker
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from set_based_reference import reference_reason

SCALAR = Workload.synthetic(n_streams=60, horizon=60.0, sigma=60.0, seed=5)
MOVING = Workload.moving_objects(
    n_objects=40, horizon=60.0, sigma=60.0, mean_interarrival=10.0, seed=5
)
BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])

SPECS = {
    "ft-nrp": (
        QuerySpec("ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2)),
        SCALAR,
    ),
    "zt-nrp": (QuerySpec("zt-nrp", RangeQuery(400.0, 600.0)), SCALAR),
    "rtp": (QuerySpec("rtp", TopKQuery(k=5), RankTolerance(k=5, r=3)), SCALAR),
    "ft-rp": (
        QuerySpec("ft-rp", KnnQuery(q=500.0, k=8), FractionTolerance(0.2, 0.2)),
        SCALAR,
    ),
    "rtp-2d": (
        QuerySpec(
            "rtp-2d", SpatialKnnQuery(q=[500.0, 500.0], k=5), RankTolerance(k=5, r=3)
        ),
        MOVING,
    ),
    "ft-nrp-2d": (
        QuerySpec("ft-nrp-2d", SpatialRangeQuery(BOX), FractionTolerance(0.2, 0.2)),
        MOVING,
    ),
}

TOPOLOGIES = {
    "single": Deployment.single,
    "sharded": lambda **knobs: Deployment.sharded(2, **knobs),
    "parallel": lambda **knobs: Deployment.sharded(2, parallel=True, **knobs),
}

#: Tolerances no protocol above is built to meet: checking against one
#: makes a correct synchronous run breach, which is what a strict run
#: needs in order to raise (under latency strict mode spares inherent
#: breaches).
UNMEETABLE = {
    "ft-nrp": FractionTolerance(0.0, 0.0),
    "rtp": RankTolerance(k=5, r=0),
    "rtp-2d": RankTolerance(k=5, r=0),
    "ft-nrp-2d": FractionTolerance(0.0, 0.0),
}


def latency():
    return UniformLatency(1.0, 8.0, seed=4)


def run(monkeypatch, spec, workload, deployment, *, reference, tolerance=None):
    """One engine run; *reference* swaps the evaluation for the
    set-based one, *tolerance* overrides what the checker demands."""

    class Checker(ToleranceChecker):
        def __init__(self, **knobs):
            if tolerance is not None:
                knobs["tolerance"] = tolerance
            if reference:
                knobs["evaluate"] = lambda: reference_reason(
                    set(np.flatnonzero(knobs["answer_of"]()).tolist()),
                    knobs["oracle"],
                    knobs["query"],
                    knobs["tolerance"],
                )
            super().__init__(**knobs)

    monkeypatch.setattr(engine_module, "ToleranceChecker", Checker)
    return Engine().run(spec, workload, deployment)


@pytest.mark.parametrize("check_every", [1, 7])
@pytest.mark.parametrize("delayed", [False, True], ids=["sync", "latency"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("name", SPECS)
def test_checker_report_and_ledger_match_the_set_based_run(
    monkeypatch, name, topology, delayed, check_every
):
    spec, workload = SPECS[name]

    def deployment():
        return TOPOLOGIES[topology](
            check_every=check_every, latency=latency() if delayed else None
        )

    columnar = run(monkeypatch, spec, workload, deployment(), reference=False)
    expected = run(monkeypatch, spec, workload, deployment(), reference=True)
    assert columnar.checker == expected.checker
    assert columnar.violations == expected.violations
    assert columnar.ledger == expected.ledger
    report = columnar.checker
    assert report.checks > 0
    assert report.classified == delayed
    if delayed and check_every == 1:
        # The latency model is there to breach tolerance: an empty
        # violation list would compare nothing.
        assert report.violation_count > 0
        assert report.inherent_count == report.violation_count
    if not delayed:
        assert report.ok


def test_the_grid_compares_a_truncated_violation_list(monkeypatch):
    """One cell overflows the 100-record detail cap, so the counters and
    the retained prefix are compared past it."""
    spec, workload = SPECS["zt-nrp"]
    report = run(
        monkeypatch,
        spec,
        workload,
        Deployment.single(check_every=1, latency=latency()),
        reference=False,
    )
    assert report.checker.violation_count > 100
    assert len(report.checker.violations) == 100
    assert report.violations[-1].startswith("... and ")


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("name", UNMEETABLE)
def test_strict_mode_raises_at_the_same_record(monkeypatch, name, topology):
    spec, workload = SPECS[name]
    messages = []
    for reference in (False, True):
        with pytest.raises(AssertionError) as raised:
            run(
                monkeypatch,
                spec,
                workload,
                TOPOLOGIES[topology](check_every=1, strict=True),
                reference=reference,
                tolerance=UNMEETABLE[name],
            )
        messages.append((type(raised.value), str(raised.value)))
    assert messages[0] == messages[1]
    # Not the t=0 check: the initial answer is exact, the breach comes
    # with a later record.
    assert not messages[0][1].startswith("t=0.0:")
