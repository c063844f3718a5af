"""Running counts against a recount at every tick (DESIGN.md §14).

A checker given the answer's table keeps ``|A|``, ``|T|`` and
``|A ∩ T|`` between checks: truth flips are folded in as records reach
the oracle through ``ToleranceChecker.apply``, and a moved
``answer_epoch`` forces today's three reductions.  Hypothesis draws
interleavings of oracle applies, all four answer writers and checker
ticks; at every tick that fires, the running-count verdict must be the
from-scratch :func:`violation_reason`.  Dropping the epoch bump from any
one writer must make that property fail, and a sharded checked run must
write its answer only through the parent table.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.api.engine as engine_module
from repro import FractionTolerance, RangeQuery, UniformLatency
from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.correctness.checker import ToleranceChecker, violation_reason
from repro.correctness.oracle import Oracle
from repro.state.sharding import StateShardView
from repro.state.table import StreamStateTable

N = 8
QUERY = RangeQuery(3.0, 6.0)
WRITERS = ["answer_add", "answer_discard", "answer_assign_rows", "answer_set_mask"]

rows = st.integers(0, N - 1)
masks = st.lists(st.booleans(), min_size=N, max_size=N).map(np.array)
operations = st.one_of(
    st.tuples(st.just("apply"), rows, st.sampled_from([0.0, 2.0, 3.0, 5.0, 6.0, 9.0])),
    st.tuples(st.just("answer_add"), rows),
    st.tuples(st.just("answer_discard"), rows),
    st.lists(
        st.tuples(rows, st.booleans()), min_size=1, unique_by=lambda pair: pair[0]
    ).map(lambda pairs: ("answer_assign_rows", *map(np.array, zip(*pairs)))),
    st.tuples(st.just("answer_set_mask"), masks),
    # A run of ticks: a check_every=7 checker fires within one.
    st.tuples(st.just("ticks"), st.integers(1, 7)),
    st.tuples(st.just("ticks"), st.integers(1, 7)),
)
tolerances = st.sampled_from(
    [None, FractionTolerance(0.0, 0.0), FractionTolerance(0.2, 0.2),
     FractionTolerance(0.4, 0.1)]
)


def interleavings_hold(make_table, **knobs):
    """The property, over tables built by *make_table*."""

    @given(
        initial=st.lists(st.sampled_from([0.0, 4.0, 9.0]), min_size=N, max_size=N),
        answer=masks,
        script=st.lists(operations, max_size=30),
        every=st.sampled_from([1, 3, 7]),
        tolerance=tolerances,
    )
    @settings(**{"max_examples": 500, "deadline": None, "database": None, **knobs})
    def holds(initial, answer, script, every, tolerance):
        oracle = Oracle(np.array(initial))
        oracle.register_query(QUERY)
        table = make_table(N)
        table.answer_set_mask(answer)
        checker = ToleranceChecker(
            oracle, QUERY, tolerance, lambda: table.answer_mask,
            every=every, answer_table=table,
        )
        # The ticks that fire are compared; between them the counts
        # still see every write and every flip.
        time = 0.0
        for op, *args in script + [("ticks", 7)]:
            if op == "apply":
                checker.apply(*args)
            elif op != "ticks":
                getattr(table, op)(*args)
            for _ in range(args[0] if op == "ticks" else 0):
                time += 1.0
                checks = checker.report.checks
                violation = checker.check(time)
                if checker.report.checks > checks:
                    expected = violation_reason(
                        table.answer_mask, oracle, QUERY, tolerance
                    )
                    assert (violation and violation.reason) == expected

    return holds


def test_running_counts_equal_a_recount_at_every_tick():
    interleavings_hold(StreamStateTable)()


@pytest.mark.parametrize("writer", WRITERS)
def test_a_writer_without_its_epoch_bump_is_caught(writer):
    """The mutation check: the property is what guards each bump."""
    write = getattr(StreamStateTable, writer)

    def silent(self, *args):
        epoch = self.answer_epoch
        write(self, *args)
        self.answer_epoch = epoch

    mutant = type("Mutant", (StreamStateTable,), {writer: silent})
    with pytest.raises(AssertionError):
        interleavings_hold(
            mutant, max_examples=1000, derandomize=True, phases=[Phase.generate]
        )()


def test_a_sharded_run_writes_its_answer_through_the_parent(monkeypatch):
    """Sharded(2) under latency: every answer write lands on the parent
    table the checker counts from, the counts skip recounts, and the
    report is the recounting checker's."""
    spec = QuerySpec("ft-nrp", RangeQuery(400.0, 600.0), FractionTolerance(0.2, 0.2))
    workload = Workload.synthetic(n_streams=60, horizon=60.0, sigma=60.0, seed=5)
    writes, recounts = [], []
    for writer in WRITERS:
        original = getattr(StreamStateTable, writer)

        def spy(self, *args, _original=original):
            writes.append(type(self))
            return _original(self, *args)

        monkeypatch.setattr(StreamStateTable, writer, spy)

    def run(counted):
        class Checker(ToleranceChecker):
            def __init__(self, **knobs):
                if not counted:
                    knobs["answer_table"] = None
                super().__init__(**knobs)

            def check_now(self, time):
                if counted:
                    recounts.append(self._epoch != self._table.answer_epoch)
                return super().check_now(time)

        monkeypatch.setattr(engine_module, "ToleranceChecker", Checker)
        deployment = Deployment.sharded(
            2, check_every=1, latency=UniformLatency(1.0, 8.0, seed=4)
        )
        return Engine().run(spec, workload, deployment)

    counted = run(True)
    assert writes and StateShardView not in writes
    assert 0 < sum(recounts) < len(recounts) == counted.checks
    recounted = run(False)
    assert counted.checker == recounted.checker
    assert counted.checker.violation_count > 0
    assert counted.ledger == recounted.ledger
