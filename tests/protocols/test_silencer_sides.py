"""The silencer pools and the deployed bounds tell one story.

FT-NRP and FT-RP keep two records of their silencers: the FIFO pools
(:class:`~repro.state.pools.SilencerPools`) hold the spending order, and
the state table's ``lower`` / ``upper`` planes hold each row's deployed
constraint.  No third copy exists (DESIGN.md §21), so the two must
agree between any two records of a run:

* a row is silenced — its bounds are all of space ``[-inf, +inf]`` or
  the empty region ``[+inf, +inf]`` — exactly when it sits in a pool;
* a false-positive silencer is an answer member under ``[-inf, +inf]``;
* a false-negative silencer is outside the answer.  It is usually under
  ``[+inf, +inf]``; a false-positive silencer that ``Fix_Error`` found
  outside keeps its ``[-inf, +inf]`` filter on joining the FN pool.
"""

import math

import numpy as np
import pytest

from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance

PROTOCOLS = {
    "ft-nrp": lambda: FractionToleranceRangeProtocol(
        RangeQuery(400.0, 600.0), FractionTolerance(0.3, 0.3)
    ),
    "ft-rp": lambda: FractionToleranceKnnProtocol(
        KnnQuery(500.0, 20), FractionTolerance(0.3, 0.3)
    ),
}
#: Records replayed between two looks at the state.
STEP = 7


def _sides(protocol):
    """The pools and the bounds of *protocol*'s rows, checked to agree;
    returns the pools' sizes and the FN silencers under ``[-inf, +inf]``."""
    table, pools = protocol._state, protocol._pools
    fp, fn = list(pools.fp), list(pools.fn)
    assert not set(fp) & set(fn)
    everywhere = (table.lower == -math.inf) & (table.upper == math.inf)
    nowhere = (table.lower == math.inf) & (table.upper == math.inf)
    silenced = np.flatnonzero(everywhere | nowhere)
    assert sorted(silenced.tolist()) == sorted(fp + fn)
    assert everywhere[fp].all() and table.answer_mask[fp].all()
    assert not table.answer_mask[fn].any()
    return len(fp), len(fn), int(everywhere[fn].sum())


@pytest.mark.parametrize("n_shards", [None, 2])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_pools_and_bounds_agree_throughout(name, n_shards):
    trace = generate_synthetic_trace(
        SyntheticConfig(n_streams=200, horizon=100.0, sigma=150.0, seed=0)
    )
    protocol = PROTOCOLS[name]()
    session = ExecutionSession.assemble("streams", trace, protocol, n_shards)
    session.initialize()
    seen = {_sides(protocol)}
    for start in range(0, trace.n_records, STEP):
        stop = start + STEP
        session.replay(
            trace.times[start:stop],
            trace.stream_ids[start:stop],
            trace.values[start:stop],
        )
        seen.add(_sides(protocol))
    session.close()
    # Not vacuous: both pools were live, spending moved them, and a
    # false-positive silencer found outside joined the FN pool.
    assert any(fp and fn for fp, fn, _ in seen)
    assert len({(fp, fn) for fp, fn, _ in seen}) > 1
    assert any(limbo for _, _, limbo in seen)
