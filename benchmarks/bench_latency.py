"""The stale-belief violation study: requirement 2 degradation vs latency.

For ZT-RP, FT-RP and RTP, replay one seeded workload under the
latency-modeled channel at increasing symmetric fixed delays (in units
of the workload's mean inter-update time, 20), with the continuous
checker classifying every violation:

* **violation rate** — violating checks / total checks: how often the
  answer set breaks its tolerance once resolution is no longer atomic
  with the data;
* **message overhead** — maintenance messages vs the latency-0 run: the
  extra self-correction traffic stale beliefs provoke;
* **protocol bugs** — violations the staleness classifier could *not*
  attribute to latency (must be zero: the latency-0 differential suite
  is the bug oracle, and these runs must stay clean).

Asserts, per protocol and profile: zero violations at latency 0, a
monotone non-decreasing violation-rate curve over the latency grid, and
zero protocol-bug classifications at every point.

The SCALE profile (n = 10,000, sampled checking) uses a latency grid
100x smaller than the default's.  Staleness is relative to the
*server-side* event rate (n / mean inter-update time), which grows
linearly in n — and zero-tolerance protocols melt down well before the
per-stream-comparable delays: at n = 10k and latency 2, ZT-RP enters a
self-correction storm (each late self-correction triggers a resolution
that redeploys stale-belief constraints population-wide, spawning more
self-corrections: measured 30.2M messages for 1k records, 56k per
update).  The scaled grid keeps the study in the informative regime and
the storm onset is still visible in the message-overhead curve's tail.

Set ``BENCH_OUTPUT_DIR`` to write ``BENCH_latency.json`` (uploaded by
the CI latency-smoke job); ``BENCH_SMOKE=1`` runs the default profile
only, with a shorter horizon.
"""

from __future__ import annotations

import time as _time

from bench_artifacts import SMOKE, write_artifact

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.queries.knn import KnnQuery, TopKQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

#: Symmetric fixed delays, in virtual time (mean inter-update time: 20).
#: The scale profile divides by 100 = n_scale / n_default: staleness is
#: relative to the server-side event rate, which grows with n.
DEFAULT_LATENCIES = (0.0, 2.0, 8.0, 32.0)
SCALE_LATENCIES = (0.0, 0.02, 0.08, 0.32)

SPECS = {
    "zt-rp": QuerySpec(protocol="zt-rp", query=KnnQuery(q=500.0, k=5)),
    "ft-rp": QuerySpec(
        protocol="ft-rp",
        query=KnnQuery(q=500.0, k=5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "rtp": QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=5),
        tolerance=RankTolerance(k=5, r=3),
    ),
}

PROFILES = {
    "default": {
        "n_streams": 100,
        "horizon": 200.0 if SMOKE else 400.0,
        "sigma": 60.0,
        "check_every": 1,
        "latencies": DEFAULT_LATENCIES,
    },
    "scale": {
        "n_streams": 10_000,
        "horizon": 40.0,
        "sigma": 60.0,
        "check_every": 50,
        "latencies": SCALE_LATENCIES,
    },
}

_RESULTS: dict = {"profiles": {}}


def _run_curve(profile_name: str, params: dict) -> dict:
    latencies = params["latencies"]
    workload = Workload.synthetic(
        n_streams=params["n_streams"],
        horizon=params["horizon"],
        sigma=params["sigma"],
        seed=0,
    )
    trace = workload.materialize()
    engine = Engine()
    print(
        f"\n[{profile_name}] n={trace.n_streams}, {trace.n_records} records, "
        f"sigma={params['sigma']:g}, check_every={params['check_every']}, "
        f"latencies {list(latencies)}"
    )
    header = (
        f"{'protocol':>8} {'latency':>8} {'viol.rate':>10} {'overhead':>9} "
        f"{'bugs':>5} {'msgs':>8} {'wall':>7}"
    )
    print(header)
    curves: dict = {"latencies": list(latencies)}
    for name, spec in SPECS.items():
        rates: list[float] = []
        overheads: list[float] = []
        bugs: list[int] = []
        messages: list[int] = []
        base_messages: int | None = None
        for latency in latencies:
            started = _time.perf_counter()
            report = engine.run(
                spec,
                workload,
                Deployment.single(
                    check_every=params["check_every"], latency=latency
                ),
            )
            wall = _time.perf_counter() - started
            inherent = report.extras["violations_inherent_latency"]
            bug_count = report.extras["violations_protocol_bug"]
            rate = (inherent + bug_count) / max(report.checks, 1)
            if base_messages is None:
                base_messages = max(report.maintenance_messages, 1)
            rates.append(rate)
            overheads.append(report.maintenance_messages / base_messages)
            bugs.append(bug_count)
            messages.append(report.maintenance_messages)
            print(
                f"{name:>8} {latency:>8g} {rate:>10.4f} "
                f"{overheads[-1]:>8.2f}x {bug_count:>5} "
                f"{report.maintenance_messages:>8} {wall:>6.2f}s"
            )
        curves[name] = {
            "violation_rate": rates,
            "message_overhead": overheads,
            "protocol_bugs": bugs,
            "maintenance_messages": messages,
        }
    return curves


def _assert_clean(profile_name: str, curves: dict) -> None:
    for name, curve in curves.items():
        if name == "latencies":
            continue
        assert all(b == 0 for b in curve["protocol_bugs"]), (
            f"[{profile_name}] {name}: checker attributed "
            f"{sum(curve['protocol_bugs'])} violation(s) to the protocol — "
            f"run the latency-0 differential suite to localize the bug"
        )


def _assert_monotone(profile_name: str, curves: dict) -> None:
    for name, curve in curves.items():
        if name == "latencies":
            continue
        rates = curve["violation_rate"]
        assert rates[0] == 0.0, (
            f"[{profile_name}] {name}: latency 0 must be violation-free, "
            f"got rate {rates[0]:.4f}"
        )
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-12, (
                f"[{profile_name}] {name}: violation rate not monotone in "
                f"latency: {rates}"
            )
        assert rates[-1] > 0.0, (
            f"[{profile_name}] {name}: the largest latency produced no "
            f"violations — the grid no longer exercises staleness"
        )


def test_bench_latency_violation_study():
    curves = _run_curve("default", PROFILES["default"])
    _RESULTS["profiles"]["default"] = curves
    _assert_clean("default", curves)
    _assert_monotone("default", curves)
    write_artifact("latency", _RESULTS)


def test_bench_latency_scale_profile():
    if SMOKE:
        print("\n[scale] skipped under BENCH_SMOKE")
        return
    curves = _run_curve("scale", PROFILES["scale"])
    _RESULTS["profiles"]["scale"] = curves
    _assert_clean("scale", curves)
    _assert_monotone("scale", curves)
    write_artifact("latency", _RESULTS)

