"""Real-delay golden runs of the latency-modeled channel.

The other latency suites compare a latency run against ``latency=0`` or
a synchronous run, or pin a few fields.  This one pins what a positive
delay *does*: the order in which held updates and constraints reach
the server and the sources under each delay model, as observed through
the per-phase ledger, the final answer, the check count and every
retained ``(time, reason, classification)`` violation — for three
protocol families x three models x two topologies x {unchecked,
checked}.  Any rewrite of the delay draws, the in-flight heap, the FIFO
floor or the delivery hops must leave every cell as it is.

The values were computed once, with the channel as it stood before its
per-message path was reworked (DESIGN.md §8.5); they are data, not
something to regenerate when a cell moves.
"""

import hashlib
import json

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.network.latency import (
    ExponentialLatency,
    FixedLatency,
    UniformLatency,
)
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

WORKLOAD = Workload.synthetic(n_streams=60, horizon=200.0, sigma=60.0, seed=3)

SPECS = {
    "ft-nrp": QuerySpec(
        "ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2)
    ),
    "zt-rp": QuerySpec("zt-rp", KnnQuery(q=500.0, k=5)),
    "rtp": QuerySpec("rtp", TopKQuery(k=5), RankTolerance(k=5, r=3)),
}

MODELS = {
    "uniform": UniformLatency(1.0, 8.0, seed=7),
    "exponential": ExponentialLatency(1.0, 2.5, seed=4),
    "fixed": FixedLatency(0.3, 1.5),
}

TOPOLOGIES = {
    "single": Deployment.single,
    "sharded2": lambda **knobs: Deployment.sharded(2, **knobs),
}


def fingerprint(report) -> tuple:
    """``(maintenance ledger, initialization ledger, final answer,
    checks, (violations, inherent, protocol bug), digest of the
    retained violations)`` — a ledger as ``"kind=count ..."``."""

    def ledger(counts):
        return " ".join(sorted(f"{kind.value}={n}" for kind, n in counts.items()))

    checker = report.checker
    counts = (0, 0, 0)
    digest = None
    if checker is not None:
        counts = (
            checker.violation_count,
            checker.inherent_count,
            checker.protocol_bug_count,
        )
        retained = [
            [repr(v.time), v.reason, v.classification]
            for v in checker.violations
        ]
        digest = hashlib.sha256(json.dumps(retained).encode()).hexdigest()[:16]
    return (
        ledger(report.ledger.maintenance),
        ledger(report.ledger.initialization),
        tuple(sorted(report.final_answer)),
        report.checks,
        counts,
        digest,
    )

GOLDEN = {
    'ft-nrp/uniform/single/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=66',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/uniform/single/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=66',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (90, 90, 0),
        '4e0e0d412bbf0bfc',
    ),
    'ft-nrp/uniform/sharded2/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=66',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/uniform/sharded2/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=66',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (101, 101, 0),
        '688b6c8aa1f870a4',
    ),
    'ft-nrp/exponential/single/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=62',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/exponential/single/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=62',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (18, 18, 0),
        '2367da7b07077566',
    ),
    'ft-nrp/exponential/sharded2/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/exponential/sharded2/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (7, 7, 0),
        '41a885f0b44c7b12',
    ),
    'ft-nrp/fixed/single/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/fixed/single/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (6, 6, 0),
        '7daffc9d2831717e',
    ),
    'ft-nrp/fixed/sharded2/check0': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'ft-nrp/fixed/sharded2/check1': (
        'constraint=2 probe_reply=2 probe_request=2 update=60',
        'constraint=60 probe_reply=60 probe_request=60',
        (0, 8, 12, 13, 29, 39, 40, 43, 47, 48, 53),
        646,
        (6, 6, 0),
        '7daffc9d2831717e',
    ),
    'zt-rp/uniform/single/check0': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/uniform/single/check1': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        646,
        (347, 347, 0),
        '5d901fb69e78ab0c',
    ),
    'zt-rp/uniform/sharded2/check0': (
        'constraint=3780 probe_reply=3717 probe_request=3717 update=63',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/uniform/sharded2/check1': (
        'constraint=3780 probe_reply=3717 probe_request=3717 update=63',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        646,
        (284, 284, 0),
        '95b68fe84aaf1b5f',
    ),
    'zt-rp/exponential/single/check0': (
        'constraint=3720 probe_reply=3658 probe_request=3658 update=62',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/exponential/single/check1': (
        'constraint=3720 probe_reply=3658 probe_request=3658 update=62',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        646,
        (201, 201, 0),
        '2f7d236c2d3700cc',
    ),
    'zt-rp/exponential/sharded2/check0': (
        'constraint=3540 probe_reply=3481 probe_request=3481 update=59',
        'constraint=60 probe_reply=60 probe_request=60',
        (12, 13, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/exponential/sharded2/check1': (
        'constraint=3540 probe_reply=3481 probe_request=3481 update=59',
        'constraint=60 probe_reply=60 probe_request=60',
        (12, 13, 39, 40, 53),
        646,
        (161, 161, 0),
        '731bfd0bc18a8bb9',
    ),
    'zt-rp/fixed/single/check0': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/fixed/single/check1': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        646,
        (119, 119, 0),
        'f9ed6ea8bba678eb',
    ),
    'zt-rp/fixed/sharded2/check0': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        0,
        (0, 0, 0),
        None,
    ),
    'zt-rp/fixed/sharded2/check1': (
        'constraint=3660 probe_reply=3599 probe_request=3599 update=61',
        'constraint=60 probe_reply=60 probe_request=60',
        (8, 12, 39, 40, 53),
        646,
        (119, 119, 0),
        'f9ed6ea8bba678eb',
    ),
    'rtp/uniform/single/check0': (
        'constraint=600 probe_reply=75 probe_request=75 update=67',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 27, 45, 49, 51),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/uniform/single/check1': (
        'constraint=600 probe_reply=75 probe_request=75 update=67',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 27, 45, 49, 51),
        646,
        (75, 75, 0),
        'aa86cfc9291f7790',
    ),
    'rtp/uniform/sharded2/check0': (
        'constraint=480 probe_reply=59 probe_request=59 update=59',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 27, 37, 45, 49),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/uniform/sharded2/check1': (
        'constraint=480 probe_reply=59 probe_request=59 update=59',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 27, 37, 45, 49),
        646,
        (77, 77, 0),
        'a68da63894c684e2',
    ),
    'rtp/exponential/single/check0': (
        'constraint=720 probe_reply=91 probe_request=91 update=54',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/exponential/single/check1': (
        'constraint=720 probe_reply=91 probe_request=91 update=54',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        646,
        (56, 56, 0),
        'de8f7a72fb723096',
    ),
    'rtp/exponential/sharded2/check0': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/exponential/sharded2/check1': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        646,
        (20, 20, 0),
        'f67fd170836f3585',
    ),
    'rtp/fixed/single/check0': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/fixed/single/check1': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        646,
        (6, 6, 0),
        'ef9f7cb2ad0061f9',
    ),
    'rtp/fixed/sharded2/check0': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        0,
        (0, 0, 0),
        None,
    ),
    'rtp/fixed/sharded2/check1': (
        'constraint=720 probe_reply=91 probe_request=91 update=55',
        'constraint=60 probe_reply=60 probe_request=60',
        (9, 17, 27, 45, 49),
        646,
        (6, 6, 0),
        'ef9f7cb2ad0061f9',
    ),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_a_real_delay_run_is_pinned(cell):
    protocol, model, topology, checked = cell.split("/")
    deployment = TOPOLOGIES[topology](
        latency=MODELS[model], check_every=int(checked[-1])
    )
    report = Engine().run(SPECS[protocol], WORKLOAD, deployment)
    assert fingerprint(report) == GOLDEN[cell]
