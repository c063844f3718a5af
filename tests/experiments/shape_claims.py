"""The paper's shape claims about figures 01 and 09-15, as one table.

Each :class:`Claim` names its figure, says in words what the paper's
plot shows, and checks it on a
:class:`~repro.experiments.base.FigureResult`.  Every claim holds at
``smoke``, ``default`` and ``full`` alike; a weaker form that a row
implies (figure15's drop by half, implied by its drop to a fifth) is
folded into that row.

``test_shape_claims.py`` checks every claim on the golden runs' results
(``smoke`` and ``default`` in tier-1, ``full`` in CI's slow lane), and
``benchmarks/bench_figures.py`` checks them on each figure it times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.base import FigureResult


@dataclass(frozen=True)
class Claim:
    figure: str
    says: str
    holds: Callable[[FigureResult], bool]


def _k_curves(result: FigureResult) -> list[list]:
    return [curve for name, curve in result.series.items() if name.startswith("k=")]


def _eps_minus_corners(result: FigureResult) -> tuple[list, list]:
    """figure10 / figure12: the eps- = 0 row and the highest-eps- row."""
    return (
        result.series["eps-=0.0"],
        result.series[f"eps-={result.x_values[-1]}"],
    )


def _rtp_lines(result: FigureResult) -> list[list]:
    return [curve for name, curve in result.series.items() if name.startswith("RTP")]


def _sigma_sums(result: FigureResult) -> list[int]:
    """figure13: each curve's total, in increasing sigma."""
    by_sigma = sorted(
        (float(name.split("=")[1]), sum(curve))
        for name, curve in result.series.items()
    )
    return [total for _, total in by_sigma]


def _eps_curves(result: FigureResult) -> tuple[list, list]:
    """figure11: the zero-tolerance curve and the highest-tolerance one."""
    by_eps = sorted(
        (float(name.split("=")[-1]), curve)
        for name, curve in result.series.items()
    )
    return by_eps[0][1], by_eps[-1][1]


def _gaps(result: FigureResult) -> list:
    """figure14: random minus boundary-nearest along x."""
    return [
        random - boundary
        for random, boundary in zip(
            result.series["random"], result.series["boundary-nearest"]
        )
    ]


CLAIMS = [
    Claim(
        "figure01",
        "value-eps messages fall as eps grows",
        lambda f: f.series["value-eps messages"][-1]
        < f.series["value-eps messages"][0],
    ),
    Claim(
        "figure01",
        "value-eps worst rank climbs as eps grows",
        lambda f: f.series["value-eps worst rank"][-1]
        > f.series["value-eps worst rank"][0],
    ),
    Claim(
        "figure01",
        "at the largest eps the worst rank passes RTP's bound k + r",
        lambda f: f.series["value-eps worst rank"][-1]
        > [c for n, c in f.series.items() if "rank bound" in n][0][0],
    ),
    Claim(
        "figure01",
        "two RTP reference lines, each constant along eps",
        lambda f: len(_rtp_lines(f)) == 2
        and all(len(set(curve)) == 1 for curve in _rtp_lines(f)),
    ),
    Claim(
        "figure09",
        "r on the x axis, and a no-filter baseline",
        lambda f: f.x_name == "r" and "no filter" in f.series,
    ),
    Claim(
        "figure09",
        "the table is titled and names the baseline",
        lambda f: "figure09" in f.format() and "no filter" in f.format(),
    ),
    Claim(
        "figure09",
        "every k: the largest r costs under half of r = 0",
        lambda f: all(curve[-1] < curve[0] / 2 for curve in _k_curves(f)),
    ),
    Claim(
        "figure09",
        "every k: the largest r beats no filtering",
        lambda f: all(curve[-1] < f.series["no filter"][0] for curve in _k_curves(f)),
    ),
    Claim(
        "figure09",
        "at r = 0 the largest k is worse than no filtering",
        lambda f: max(curve[0] for curve in _k_curves(f)) > f.series["no filter"][0],
    ),
    Claim(
        "figure10",
        "the high-tolerance corner is below the (0, 0) corner",
        lambda f: _eps_minus_corners(f)[1][-1] < _eps_minus_corners(f)[0][0],
    ),
    Claim(
        "figure10",
        "more eps- never costs more than 5 % over the eps+ row",
        lambda f: sum(_eps_minus_corners(f)[1])
        <= sum(_eps_minus_corners(f)[0]) * 1.05,
    ),
    Claim(
        "figure11",
        "every tolerance: cost grows with the number of streams",
        lambda f: all(curve[-1] > curve[0] for curve in f.series.values()),
    ),
    Claim(
        "figure11",
        "at the largest n the highest tolerance saves messages",
        lambda f: _eps_curves(f)[1][-1] < _eps_curves(f)[0][-1],
    ),
    Claim(
        "figure12",
        "the high-tolerance corner costs under 80 % of the (0, 0) corner",
        lambda f: _eps_minus_corners(f)[1][-1] < _eps_minus_corners(f)[0][0] * 0.8,
    ),
    Claim(
        "figure13",
        "curves are ordered by sigma: more fluctuation, more messages",
        lambda f: all(a < b for a, b in zip(_sigma_sums(f), _sigma_sums(f)[1:])),
    ),
    Claim(
        "figure14",
        "boundary-nearest costs less than random overall",
        lambda f: sum(f.series["boundary-nearest"]) < sum(f.series["random"]),
    ),
    Claim(
        "figure14",
        "the gap to random widens as tolerance grows",
        lambda f: _gaps(f)[-1] > _gaps(f)[0],
    ),
    Claim(
        "figure15",
        "every k: the first positive eps costs under a fifth of eps = 0",
        lambda f: all(curve[1] < curve[0] / 5 for curve in f.series.values()),
    ),
    Claim(
        "figure15",
        "every k: eps = 0 (ZT-RP) is the most expensive point",
        lambda f: all(curve[0] == max(curve) for curve in f.series.values()),
    ),
]
