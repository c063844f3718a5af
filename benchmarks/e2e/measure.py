"""One workload, measured in this process (the driver's contract mode).

Protocol: set-up probes (fresh child processes: interpreter start,
imports, ``Workload.materialize()``) -> materialize here -> one warm-up
``Engine.run`` (discarded) plus the sibling-identity checks -> untraced
timed runs for the measuring window -> with ``trace=True``, traced runs
for the second half of the window.  A closed loop with one caller: the
next run starts when the previous one returned.

Every ``Engine.run`` and ``resume_run`` call — warm-up, sibling,
timed, traced — is an *attempt*; an exception, a timeout, outputs that
differ from the reference, or a protocol-bug violation makes it a
*failed* one.

Steadiness.  The reference box is a shared 2-vCPU VM whose speed drifts
by 20-40% over tens of seconds to minutes (neighbour load shows up as
slower CPU seconds, not as idle or steal time), and the driver accepts
the benchmark only if ten invocations agree within the metric's bound.
Raw medians do not: measured on 15 s windows they spread 0.10-0.25
(IQR / median) against a largest allowed bound of 0.25.  Each timed run
and each set-up probe is therefore bracketed by :func:`calibrate`, and
its time is divided by the slowdown the two readings show against
``CAL_REF_S``; the end-to-end time metrics are medians of these
*reference-speed* times.  The raw medians of the same runs are the
per-layer ``api.run_s`` / ``api.cpu_s`` / ``api.records_per_s``,
``host.slowdown_ratio`` says how far the box was from reference speed,
and every raw sample and reading is in the ``--json`` detail.
"""

from __future__ import annotations

import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Engine
from repro.durability import resume_run

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.metrics import (
    END_TO_END,
    PER_LAYER,
    iqr_ratio,
    ledger_counts,
    median_of,
    quartiles,
    report_metrics,
    span_metrics,
    transport_wall_metrics,
    work_items,
)
from benchmarks.e2e.scratch import scratch_dir
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import WorkloadDef

EXPECTED_PATH = Path(__file__).with_name("expected_seed0.json")

RUN_TIMEOUT_S = 120
SETUP_PROBES = 5
MIN_TIMED_RUNS = 3
#: A sibling more than this many times slower (or faster) is flagged.
OUTLIER_RATIO = 2.0

CAL_LOOPS = 40_000
CAL_BURSTS = 5
#: A usual ``calibrate()`` reading on the reference box (over a day they
#: range 3.3-7 ms).  It only fixes the unit: at this reading a
#: reference-speed second is a wall-clock second.
CAL_REF_S = 0.0045


def calibrate() -> float:
    """Seconds the fastest of a few fixed interpreter-bound bursts takes
    right now; the minimum ignores a preemption that lands inside one."""
    best = float("inf")
    for _ in range(CAL_BURSTS):
        started = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(CAL_LOOPS):
            table[i & 1023] = total
            total += i * 3 % 7
        best = min(best, time.perf_counter() - started)
    return best


class RunTimeout(Exception):
    pass


@contextmanager
def _time_limit(seconds: int):
    def on_alarm(signum, frame):
        raise RunTimeout(f"Engine.run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_seconds() -> float:
    """User+system CPU of this process plus its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    #: Mean of the calibration readings just before and just after.
    cal_s: float
    report: object = None

    def at_reference_speed(self, seconds: float) -> float:
        return seconds * CAL_REF_S / self.cal_s


@dataclass
class Measurement:
    """Everything one invocation learned; ``result()`` is the contract line."""

    workload: str
    seed: int
    smoke: bool
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: The set-up probes (fresh interpreters); no CPU reading, no report.
    setup: list[Sample] = field(default_factory=list)
    timed: list[Sample] = field(default_factory=list)
    #: End-to-end metric -> the per-run values its median was taken over.
    samples: dict = field(default_factory=dict)
    traced_walls: list[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    siblings: list[dict] = field(default_factory=list)
    spans: list = field(default_factory=list)
    spans_dropped: int = 0
    missing_entry_points: list[str] = field(default_factory=list)
    replay_kernel: str | None = None
    resume_s: float | None = None
    n_records: int = 0
    items: int = 0

    def result(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": self.metrics,
        }

    def detail(self) -> dict:
        """The contract line plus what the report and a reader need."""
        walls = [s.wall_s for s in self.timed]
        q1, q2, q3 = quartiles(walls) if walls else (0.0, 0.0, 0.0)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "smoke": self.smoke,
            **self.result(),
            "failures": self.failures,
            "n_records": self.n_records,
            "work_items": self.items,
            "run_s": {
                "samples": len(walls),
                "q1": q1,
                "median": q2,
                "q3": q3,
                "iqr_ratio": iqr_ratio(walls) if walls else 0.0,
                "values": walls,
                "cpu_s": [s.cpu_s for s in self.timed],
                "calibration_s": [s.cal_s for s in self.timed],
            },
            "setup_s": {
                "values": [s.wall_s for s in self.setup],
                "calibration_s": [s.cal_s for s in self.setup],
            },
            "end_to_end_samples": self.samples,
            "traced_run_s": self.traced_walls,
            "siblings": self.siblings,
            "replay_kernel": self.replay_kernel,
            "missing_entry_points": self.missing_entry_points,
            "spans_dropped": self.spans_dropped,
            "spans": self.spans,
        }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_probe(defn: WorkloadDef, seed: int, smoke: bool) -> None:
    """What a set-up probe child does after its imports: build the trace."""
    defn.workload(seed, smoke).materialize()


def _probe_setup(defn: WorkloadDef, seed: int, smoke: bool) -> Sample:
    """Wall of one fresh interpreter importing the library and
    materializing the trace — everything before the first ``Engine.run``."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--setup-probe",
        "--workload", defn.name, "--seed", str(seed),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    before = calibrate()
    started = time.perf_counter()
    subprocess.run(
        command, cwd=REPO_ROOT, check=True, timeout=RUN_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )  # fmt: skip
    wall = time.perf_counter() - started
    return Sample(wall, 0.0, (before + calibrate()) / 2)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def observed_outputs(report) -> dict:
    """The part of a report the seed-0 expectation pins down."""
    return {
        "n_records": int(report.n_records),
        "answer_size": len(report.final_answer),
        "ledger": ledger_counts(report.ledger),
    }


class _Runner:
    """Runs one workload's deployment repeatedly and judges each run."""

    def __init__(
        self, defn: WorkloadDef, workload, out: Measurement, scratch: Path
    ) -> None:
        self.defn = defn
        self.workload = workload
        self.out = out
        self.engine = Engine()
        self.scratch = scratch
        #: Output every later run must reproduce (set by the warm-up).
        self.reference: dict | None = None

    def run(self, deployment=None, keep_dir: bool = False):
        """One ``Engine.run``; returns ``(Sample | None, run_dir)``.

        With no *deployment* this is a run of the workload itself and is
        judged here; a sibling deployment is judged by the caller.
        """
        own = deployment is None
        run_dir = tempfile.mkdtemp(prefix="run-", dir=self.scratch)
        if own:
            deployment = self.defn.deployment(run_dir)
        self.out.attempted += 1
        try:
            with _time_limit(RUN_TIMEOUT_S):
                before = calibrate()
                cpu = _cpu_seconds()
                started = time.perf_counter()
                report = self.engine.run(self.defn.spec, self.workload, deployment)
                wall = time.perf_counter() - started
                cpu = _cpu_seconds() - cpu
                cal = (before + calibrate()) / 2
            if own:
                self._judge(report)
            return Sample(wall, cpu, cal, report), run_dir
        except Exception as error:  # a failed run is a counted outcome
            self.out.failures.append(
                f"{self.defn.name}: {type(error).__name__}: {error}"
            )
            return None, run_dir
        finally:
            if not keep_dir:
                shutil.rmtree(run_dir, ignore_errors=True)

    def _judge(self, report) -> None:
        problems = []
        if self.reference not in (None, observed_outputs(report)):
            problems.append("outputs differ from the warm-up run's")
        bugs = report.extras.get("violations_protocol_bug", 0)
        if bugs:
            problems.append(f"violations_protocol_bug = {bugs}")
        if problems:
            raise AssertionError("; ".join(problems))

    def warm_up(self) -> bool:
        """The discarded first run, the seed-0 expectation, the sibling
        identities (one run each, walls kept) and the durable resume."""
        defn, out = self.defn, self.out
        sample, run_dir = self.run(keep_dir=defn.check_resume)
        if sample is None:
            return False
        try:
            report = sample.report
            self.reference = observed_outputs(report)
            out.n_records = int(report.n_records)
            out.items = work_items(report)
            out.replay_kernel = (report.extras.get("replay") or {}).get("kernel")
            if out.seed == 0 and not out.smoke:
                expected = load_expected().get(defn.name)
                if expected != self.reference:
                    out.failures.append(
                        f"{defn.name}: seed-0 outputs differ from "
                        f"expected_seed0.json: {self.reference} != {expected}"
                    )
            for sibling in defn.siblings:
                self._check_sibling(sibling, sample)
            if defn.check_resume:
                self._check_resume(run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return True

    def _check_sibling(self, sibling, sample: Sample) -> None:
        defn, out = self.defn, self.out
        other, _ = self.run(deployment=sibling.deployment)
        if other is None:
            return
        identical = ledger_counts(other.report.ledger) == self.reference["ledger"]
        if not identical:
            out.failures.append(
                f"{defn.name}: ledger differs from sibling {sibling.label}"
            )
        ratio = sample.wall_s / other.wall_s
        out.siblings.append(
            {
                "workload": defn.name,
                "deployment": defn.deployment_label,
                "sibling": sibling.label,
                "wall_s": sample.wall_s,
                "sibling_wall_s": other.wall_s,
                "ratio": ratio,
                "ratio_metric": sibling.ratio_metric,
                "ledger_identical": identical,
                "outlier": max(ratio, 1.0 / ratio) > OUTLIER_RATIO,
            }
        )

    def _check_resume(self, run_dir: str) -> None:
        out = self.out
        out.attempted += 1
        try:
            started = time.perf_counter()
            resumed = resume_run(run_dir, self.workload.materialize())
            out.resume_s = time.perf_counter() - started
            if ledger_counts(resumed.ledger) != self.reference["ledger"]:
                out.failures.append(
                    f"{self.defn.name}: resume_run did not reproduce the ledger"
                )
        except Exception as error:
            out.failures.append(
                f"{self.defn.name}: resume_run: {type(error).__name__}: {error}"
            )

    def run_for(self, seconds: float, minimum: int) -> list[Sample]:
        """Back-to-back attempts until *seconds* have passed (>= *minimum*
        good ones); gives up once as many have failed."""
        samples: list[Sample] = []
        failed_before = len(self.out.failures)
        deadline = time.perf_counter() + seconds
        while len(samples) < minimum or time.perf_counter() < deadline:
            sample, _ = self.run()
            if sample is not None:
                samples.append(sample)
            elif len(self.out.failures) - failed_before >= minimum:
                break
        return samples


# ----------------------------------------------------------------------
# The measurement
# ----------------------------------------------------------------------
def measure(
    defn: WorkloadDef,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> Measurement:
    """Measure *defn* for *seconds*; ``out.metrics`` stays empty if the
    warm-up or every timed run failed."""
    out = Measurement(workload=defn.name, seed=seed, smoke=smoke)
    if not trace:
        out.setup = [_probe_setup(defn, seed, smoke) for _ in range(SETUP_PROBES)]
    workload = defn.workload(seed, smoke)
    started = time.perf_counter()
    trace_obj = workload.materialize()
    materialize_s = time.perf_counter() - started

    with scratch_dir(f"{defn.name}-") as scratch:
        runner = _Runner(defn, workload, out, scratch)
        if not runner.warm_up():
            return out
        out.timed = runner.run_for(seconds / 2 if trace else seconds, MIN_TIMED_RUNS)
        if not out.timed:
            return out
        if not trace:
            out.metrics = _with_units(_end_to_end(out), END_TO_END)
            return out
        layers = _report_layers(out)
        layers["streams.materialize_s"] = materialize_s
        layers["streams.trace_mb"] = _trace_bytes(trace_obj) / 2**20
        layers.update(_span_layers(runner, seconds / 2))
        out.metrics = _with_units(layers, PER_LAYER)
    return out


def _end_to_end(out: Measurement) -> dict:
    peak_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    out.samples = {
        "items_per_s": [
            out.items / s.at_reference_speed(s.wall_s) for s in out.timed
        ],
        "cpu_us_per_item": [
            s.at_reference_speed(s.cpu_s) / out.items * 1e6 for s in out.timed
        ],
        "peak_rss_mb": [peak_kib / 1024.0],
        "setup_s": [s.at_reference_speed(s.wall_s) for s in out.setup],
    }
    return {name: statistics.median(values) for name, values in out.samples.items()}


def _report_layers(out: Measurement) -> dict:
    """Per-layer numbers that need no tracing: raw medians over the
    untraced runs' reports and walls, plus the sibling ratios."""
    layers = median_of(
        [
            {**row, **transport_wall_metrics(sample.wall_s, row)}
            for sample in out.timed
            for row in (report_metrics(sample.report),)
        ]
    )
    run_s = statistics.median(s.wall_s for s in out.timed)
    layers["api.run_s"] = run_s
    layers["api.cpu_s"] = statistics.median(s.cpu_s for s in out.timed)
    layers["api.records_per_s"] = out.n_records / run_s
    layers["api.run_s_iqr_ratio"] = iqr_ratio([s.wall_s for s in out.timed])
    layers["host.slowdown_ratio"] = (
        statistics.median(s.cal_s for s in out.timed) / CAL_REF_S
    )
    for row in out.siblings:
        if row["ratio_metric"]:
            layers[row["ratio_metric"]] = run_s / row["sibling_wall_s"]
    if out.resume_s is not None:
        layers["durability.resume_s"] = out.resume_s
    return layers


def _span_layers(runner: _Runner, seconds: float) -> dict:
    """Per-layer numbers from traced runs of the same ``Engine.run`` call."""
    out = runner.out
    tracer = Tracer()
    rows = []
    with tracer.install(protocol_class=type(runner.defn.spec.build())):
        deadline = time.perf_counter() + seconds
        while not rows or time.perf_counter() < deadline:
            tracer.reset()
            sample, _ = runner.run()
            if sample is None:
                break
            out.traced_walls.append(sample.wall_s)
            rows.append(span_metrics(tracer))
    out.missing_entry_points = tracer.missing
    out.spans = tracer.spans
    out.spans_dropped = tracer.spans_dropped
    if not rows:
        return {}
    layers = median_of(rows)
    layers["trace.overhead_ratio"] = statistics.median(
        out.traced_walls
    ) / statistics.median(s.wall_s for s in out.timed)
    if out.n_records:
        layers["runtime.replay.ns_per_record"] = (
            layers["runtime.replay_self_s"] / out.n_records * 1e9
        )
    return layers


def _with_units(values: dict, table) -> dict:
    """Every metric of *table*, in table order; absent ones read 0."""
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in table
    }


def _trace_bytes(trace) -> int:
    names = (
        "times", "stream_ids", "values", "points",
        "initial_values", "initial_points",
    )  # fmt: skip
    return sum(getattr(getattr(trace, name, None), "nbytes", 0) for name in names)
