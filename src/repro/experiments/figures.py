"""The paper's evaluation figures (Section 6) as one table.

A figure is a small cube: dimensions (profile, series, x) over one
measure, a run's ``maintenance_messages``.  Each :class:`Figure` row
declares its dimensions — per-profile parameters, the params key (or
the values) of its series axis and of its x axis — and a *cell*
function that turns one (series, x) coordinate into the run that
measures it.  :func:`evaluate` walks any row: one ``Engine.run`` per
cell, plus the row's constant reference series.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Mapping

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.experiments.base import FigureResult, Profile
from repro.protocols.selection import BoundaryNearestSelection, RandomSelection
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

#: The paper's range query, on the TCP and the synthetic data alike.
RANGE = (400.0, 600.0)
#: Query point of figure 15's k-NN query (centre of the initial values).
QUERY_POINT = 500.0

#: One run: the spec, the workload and the checking cadence (0: unchecked).
Run = tuple[QuerySpec, Workload, int]


@dataclass(frozen=True)
class Figure:
    """One figure's grid.

    ``cell(params, seed, series, x)`` returns the :data:`Run` of one
    coordinate; ``columns`` maps a label format (over the series value)
    to the measure read off each report.  ``reference(params, seed)``
    maps a label to a :data:`Run` or a constant, repeated along x, and
    printed before the curves if ``reference_first``.  With
    ``restrict``, x is a stream count and each cell runs the first x
    streams of the trace its workload describes.
    """

    title: str
    x_name: str
    x: str
    series: str | tuple
    columns: Mapping[str, Callable[[Any], Any]]
    cell: Callable[[dict, int, Any, Any], Run]
    profiles: Mapping[Profile, dict]
    reference: Callable[[dict, int], dict] | None = None
    reference_first: bool = False
    restrict: bool = False


_messages = attrgetter("maintenance_messages")


def _worst_rank(report) -> int:
    return report.extras["worst_rank"]


def _workload(params: dict, seed: int, **more) -> Workload:
    """The TCP trace where the profile names subnets, else the synthetic
    model (Section 6.2); *more* reaches the synthetic model (sigma)."""
    if "n_subnets" in params:
        return Workload.tcp(
            n_subnets=params["n_subnets"],
            n_connections=params["n_connections"],
            days=params["days"],
            seed=seed,
        )
    return Workload.synthetic(
        n_streams=params["n_streams"], horizon=params["horizon"], seed=seed, **more
    )


def _fraction(family: str, query, eps: float) -> QuerySpec:
    """FT-NRP / FT-RP at ``eps+ = eps- = eps``; at 0 the zero-tolerance
    protocol it degenerates to (ZT-NRP / ZT-RP)."""
    if eps == 0.0:
        return QuerySpec(protocol=f"zt-{family}", query=query)
    return QuerySpec(
        protocol=f"ft-{family}", query=query, tolerance=FractionTolerance(eps, eps)
    )


def _value_window(params, seed, _, eps) -> Run:
    spec = QuerySpec(
        protocol="value-eps", query=TopKQuery(k=params["k"]), options={"eps": eps}
    )
    return spec, _workload(params, seed), params["check_every"]


def _rtp_reference(params, seed) -> dict:
    k, r = params["k"], params["r"]
    return {
        f"RTP(r={r}) messages": _rank_tolerance(params, seed, k, r),
        f"RTP(r={r}) rank bound": k + r,
    }


def _rank_tolerance(params, seed, k, r) -> Run:
    spec = QuerySpec(
        protocol="rtp", query=TopKQuery(k=k), tolerance=RankTolerance(k=k, r=r)
    )
    return spec, _workload(params, seed), 0


def _no_filter(params, seed) -> dict:
    spec = QuerySpec(protocol="no-filter", query=TopKQuery(k=params["k_values"][0]))
    return {"no filter": (spec, _workload(params, seed), 0)}


def _surface(params, seed, eps_minus, eps_plus) -> Run:
    tolerance = FractionTolerance(eps_plus, eps_minus)
    spec = QuerySpec(protocol="ft-nrp", query=RangeQuery(*RANGE), tolerance=tolerance)
    return spec, _workload(params, seed), 0


def _scalability(params, seed, eps, _) -> Run:
    n_max = max(params["stream_counts"])
    master = Workload.tcp(
        n_subnets=n_max,
        n_connections=n_max * params["connections_per_stream"],
        days=params["days"],
        seed=seed,
    )
    return _fraction("nrp", RangeQuery(*RANGE), eps), master, 0


def _fluctuation(params, seed, sigma, eps) -> Run:
    spec = _fraction("nrp", RangeQuery(*RANGE), eps)
    return spec, _workload(params, seed, sigma=sigma), 0


def _selection(params, seed, heuristic, eps) -> Run:
    if heuristic == "random":
        selection = RandomSelection(seed=seed)
    else:
        selection = BoundaryNearestSelection()
    spec = QuerySpec(
        protocol="ft-nrp",
        query=RangeQuery(*RANGE),
        tolerance=FractionTolerance(eps, eps),
        options={"selection": selection},
    )
    return spec, _workload(params, seed), 0


def _knn(params, seed, k, eps) -> Run:
    return _fraction("rp", KnnQuery(QUERY_POINT, k), eps), _workload(params, seed), 0


FIGURES: dict[str, Figure] = {
    # Motivation: the value-window scheme (reference [17]) for a sweep
    # of eps against RTP, whose worst rank is bounded by k + r.  Expected
    # shape: the value scheme's message count falls with eps while its
    # worst observed rank climbs without bound; no single eps matches
    # RTP's (cost, guaranteed-rank) point.
    "figure01": Figure(
        title="Motivation: value-based vs rank-based tolerance (top-k)",
        x_name="eps (value)",
        x="eps_values",
        series=(None,),
        columns={"value-eps messages": _messages, "value-eps worst rank": _worst_rank},
        cell=_value_window,
        reference=_rtp_reference,
        profiles={
            Profile.SMOKE: {
                "n_streams": 100, "horizon": 150.0, "k": 5, "r": 3,
                "eps_values": [5.0, 50.0, 400.0], "check_every": 5,
            },
            Profile.DEFAULT: {
                "n_streams": 400, "horizon": 300.0, "k": 10, "r": 5,
                "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0], "check_every": 10,
            },
            Profile.FULL: {
                "n_streams": 5000, "horizon": 2000.0, "k": 10, "r": 5,
                "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0], "check_every": 20,
            },
            Profile.SCALE: {
                "n_streams": 10_000, "horizon": 300.0, "k": 10, "r": 5,
                "eps_values": [2.0, 10.0, 50.0, 150.0, 400.0, 800.0], "check_every": 50,
            },
        },
    ),
    # RTP, top-k subnets by bytes over the TCP trace, r swept from 0.
    # Expected shape: messages fall as r grows for every k; at r = 0 and
    # large k, RTP is *worse* than no filtering because the bound R is
    # recomputed and re-broadcast constantly.
    "figure09": Figure(
        title="RTP: Effect of r",
        x_name="r",
        x="r_values",
        series="k_values",
        columns={"k={}": _messages},
        cell=_rank_tolerance,
        reference=_no_filter,
        reference_first=True,
        profiles={
            Profile.SMOKE: {
                "n_subnets": 120, "n_connections": 2_500, "days": 5.0,
                "k_values": [5, 10], "r_values": [0, 4, 8],
            },
            Profile.DEFAULT: {
                "n_subnets": 800, "n_connections": 12_000, "days": 30.0,
                "k_values": [15, 20, 25, 30], "r_values": [0, 2, 4, 8, 12, 16, 20],
            },
            Profile.FULL: {
                "n_subnets": 800, "n_connections": 606_497, "days": 30.0,
                "k_values": [15, 20, 25, 30], "r_values": list(range(0, 21, 2)),
            },
            Profile.SCALE: {
                "n_subnets": 10_000, "n_connections": 150_000, "days": 30.0,
                "k_values": [15, 30], "r_values": [0, 4, 8, 16],
            },
        },
    ),
    # FT-NRP, range [400, 600] over per-subnet bytes; the paper's surface
    # as one curve per eps-.  Expected shape: messages decrease
    # monotonically (modulo noise) in both tolerances; the (0, 0) corner
    # equals ZT-NRP's cost.
    "figure10": Figure(
        title="FT-NRP: Effect of eps+/eps- (TCP)",
        x_name="eps+",
        x="eps_values",
        series="eps_values",
        columns={"eps-={}": _messages},
        cell=_surface,
        profiles={
            Profile.SMOKE: {
                "n_subnets": 120, "n_connections": 2_500, "days": 5.0,
                "eps_values": [0.0, 0.2, 0.4],
            },
            Profile.DEFAULT: {
                "n_subnets": 800, "n_connections": 12_000, "days": 30.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "n_subnets": 800, "n_connections": 606_497, "days": 30.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
            },
            Profile.SCALE: {
                "n_subnets": 10_000, "n_connections": 150_000, "days": 30.0,
                "eps_values": [0.0, 0.2, 0.4],
            },
        },
    ),
    # FT-NRP scalability: one master TCP trace for the largest
    # population, restricted to each smaller one, so every system size
    # replays a strict subset of the same updates.  Expected shape: cost
    # grows with the number of streams for every tolerance; higher
    # tolerance gives larger absolute savings at larger n.
    "figure11": Figure(
        title="FT-NRP: Scalability",
        x_name="n_streams",
        x="stream_counts",
        series="eps_values",
        columns={"eps+=eps-={}": _messages},
        cell=_scalability,
        restrict=True,
        profiles={
            Profile.SMOKE: {
                "stream_counts": [60, 120], "connections_per_stream": 20, "days": 5.0,
                "eps_values": [0.0, 0.3],
            },
            Profile.DEFAULT: {
                "stream_counts": [200, 600, 1000, 1400, 1800],
                "connections_per_stream": 18, "days": 30.0,
                "eps_values": [0.0, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "stream_counts": list(range(200, 2001, 200)),
                "connections_per_stream": 300, "days": 30.0,
                "eps_values": [0.0, 0.2, 0.3, 0.4, 0.49],
            },
            # The ROADMAP's larger-n sweep: n in {10k, 100k}.
            Profile.SCALE: {
                "stream_counts": [10_000, 100_000], "connections_per_stream": 10,
                "days": 30.0, "eps_values": [0.0, 0.3],
            },
        },
    ),
    # figure10's grid over the Section 6.2 synthetic model (uniform
    # initial values, exponential update times, Gaussian steps).
    "figure12": Figure(
        title="FT-NRP: Effect of eps+/eps- (synthetic)",
        x_name="eps+",
        x="eps_values",
        series="eps_values",
        columns={"eps-={}": _messages},
        cell=_surface,
        profiles={
            Profile.SMOKE: {
                "n_streams": 150, "horizon": 150.0, "eps_values": [0.0, 0.2, 0.4],
            },
            Profile.DEFAULT: {
                "n_streams": 1000, "horizon": 400.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "n_streams": 5000, "horizon": 2000.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
            },
            Profile.SCALE: {
                "n_streams": 10_000, "horizon": 400.0, "eps_values": [0.0, 0.2, 0.4],
            },
        },
    ),
    # FT-NRP under data fluctuation: one workload per Gaussian step
    # deviation sigma.  Expected shape: more fluctuation, more boundary
    # crossings, more messages at every tolerance level; curves are
    # vertically ordered by sigma.
    "figure13": Figure(
        title="FT-NRP: Data fluctuation",
        x_name="eps+/eps-",
        x="eps_values",
        series="sigma_values",
        columns={"sigma={:g}": _messages},
        cell=_fluctuation,
        profiles={
            Profile.SMOKE: {
                "n_streams": 150, "horizon": 150.0, "sigma_values": [20.0, 80.0],
                "eps_values": [0.0, 0.3],
            },
            Profile.DEFAULT: {
                "n_streams": 800, "horizon": 300.0,
                "sigma_values": [20.0, 40.0, 60.0, 80.0, 100.0],
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "n_streams": 5000, "horizon": 2000.0,
                "sigma_values": [20.0, 40.0, 60.0, 80.0, 100.0],
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
            },
            Profile.SCALE: {
                "n_streams": 10_000, "horizon": 300.0, "sigma_values": [20.0, 80.0],
                "eps_values": [0.0, 0.3],
            },
        },
    ),
    # FT-NRP silencer placement at initialization, random against
    # boundary-nearest.  Expected shape: boundary-nearest at or below
    # random everywhere, the gap widening as tolerance (and hence the
    # number of silencers placed) grows.
    "figure14": Figure(
        title="FT-NRP: Selection heuristics",
        x_name="eps+/eps-",
        x="eps_values",
        series=("random", "boundary-nearest"),
        columns={"{}": _messages},
        cell=_selection,
        profiles={
            Profile.SMOKE: {
                "n_streams": 200, "horizon": 150.0, "eps_values": [0.1, 0.4],
            },
            Profile.DEFAULT: {
                "n_streams": 1000, "horizon": 400.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "n_streams": 5000, "horizon": 2000.0,
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
            },
            Profile.SCALE: {
                "n_streams": 10_000, "horizon": 400.0, "eps_values": [0.1, 0.4],
            },
        },
    ),
    # ZT-RP / FT-RP, a k-NN query around QUERY_POINT; the paper plots
    # log scale.  Expected shape: a steep drop from eps = 0 to small
    # positive tolerance for the larger k; at k = 20 with small tolerance
    # the protocol buys little (few silencers, recomputations still
    # frequent) — the paper's "FT-RP is not suitable" regime.
    "figure15": Figure(
        title="ZT-RP/FT-RP: Effect of eps+/eps-",
        x_name="eps+/eps-",
        x="eps_values",
        series="k_values",
        columns={"k={}": _messages},
        cell=_knn,
        profiles={
            Profile.SMOKE: {
                "n_streams": 100, "horizon": 100.0, "k_values": [5, 10],
                "eps_values": [0.0, 0.2, 0.4],
            },
            Profile.DEFAULT: {
                "n_streams": 300, "horizon": 200.0, "k_values": [20, 60, 100],
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4],
            },
            Profile.FULL: {
                "n_streams": 5000, "horizon": 2000.0, "k_values": [20, 60, 100],
                "eps_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.49],
            },
            Profile.SCALE: {
                "n_streams": 10_000, "horizon": 200.0, "k_values": [20, 100],
                "eps_values": [0.0, 0.2, 0.4],
            },
        },
    ),
}


def evaluate(
    name: str,
    profile: Profile | str = Profile.DEFAULT,
    seed: int = 0,
    deployment: Deployment | None = None,
) -> FigureResult:
    """Reproduce figure *name*: one ``Engine.run`` per (series, x) cell.

    Consecutive runs whose workloads are equal (same kind, same
    parameters) share the first one's trace, so each trace is generated
    and materialized once: once per figure, once per sigma for
    figure13, and figure11's master once, restricted per cell.
    """
    figure = FIGURES[name]
    profile = Profile.coerce(profile)
    params = figure.profiles[profile]
    deployment = deployment or Deployment.single()
    engine = Engine(deployment)
    shared = None

    def run(spec, workload, check_every, streams=None):
        nonlocal shared
        if workload != shared:
            shared = workload
        workload = shared
        if streams is not None:
            trace = workload.materialize().restrict_streams(streams)
            workload = Workload.from_trace(trace)
        if check_every:
            return engine.run(spec, workload, deployment.with_checking(check_every))
        return engine.run(spec, workload)

    x_values = list(params[figure.x])
    series_values = figure.series
    if isinstance(series_values, str):
        series_values = params[series_values]
    curves: dict[str, list] = {}
    for value in series_values:
        columns = {label.format(value): [] for label in figure.columns}
        for x in x_values:
            report = run(
                *figure.cell(params, seed, value, x), x if figure.restrict else None
            )
            for curve, measure in zip(columns.values(), figure.columns.values()):
                curve.append(measure(report))
        curves.update(columns)
    references = {}
    declared = figure.reference(params, seed) if figure.reference else {}
    for label, value in declared.items():
        if not isinstance(value, int):  # a run, not a constant
            value = _messages(run(*value))
        references[label] = [value] * len(x_values)
    return FigureResult(
        figure=name,
        title=figure.title,
        x_name=figure.x_name,
        x_values=x_values,
        series=(
            {**references, **curves}
            if figure.reference_first
            else {**curves, **references}
        ),
        profile=profile,
    )
