"""The public API surface: everything in __all__ imports and works."""

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__ == "2.0.0"


def test_quickstart_docstring_flow():
    """The module docstring's quickstart must actually work."""
    report = repro.Engine().run(
        repro.QuerySpec(
            protocol="ft-nrp",
            query=repro.RangeQuery(400.0, 600.0),
            tolerance=repro.FractionTolerance(eps_plus=0.2, eps_minus=0.2),
        ),
        repro.Workload.synthetic(n_streams=100, horizon=200.0, seed=7),
        repro.Deployment.single(check_every=1),
    )
    assert report.tolerance_ok


def test_quickstart_sharded_is_one_argument_change():
    """The docstring's scale-out claim: sharding changes one argument."""
    spec = repro.QuerySpec(
        protocol="ft-nrp",
        query=repro.RangeQuery(400.0, 600.0),
        tolerance=repro.FractionTolerance(eps_plus=0.2, eps_minus=0.2),
    )
    workload = repro.Workload.synthetic(n_streams=100, horizon=200.0, seed=7)
    single = repro.Engine().run(spec, workload)
    sharded = repro.Engine().run(spec, workload, repro.Deployment.sharded(4))
    assert single.ledger == sharded.ledger
    assert single.final_answer == sharded.final_answer


def test_protocol_names_are_paper_names():
    assert repro.RankToleranceProtocol.name == "RTP"
    assert repro.ZeroToleranceRangeProtocol.name == "ZT-NRP"
    assert repro.FractionToleranceRangeProtocol.name == "FT-NRP"
    assert repro.ZeroToleranceKnnProtocol.name == "ZT-RP"
    assert repro.FractionToleranceKnnProtocol.name == "FT-RP"
