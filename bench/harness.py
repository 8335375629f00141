"""Measurement loop, correctness checks and metric aggregation.

A *suite* is one complete ``dramp run``: every call of
``dramp.driver.run_simulation`` it takes, interrupted or not, until the five
output files are complete. Every suite of one benchmark run uses the same
generated spec, so every suite must write the same bytes; the first,
uninterrupted suite is the reference the others are compared with.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

import dramp
import dramp.driver
from dramp.config import SimulationSpec, build_spec
from dramp.driver import RunResult
from dramp.persist import REPORT_TERMINATOR

import spans
import workloads

# fresh interpreters timed per run for setup_s, after one untimed warm-up,
# and the time of the numpy-only reference child at the reference speed
SETUP_REPEATS = 5
SETUP_REFERENCE_S = 0.15
# resumes timed from each prefix saved by the resume probe; odd, so that
# with workloads.INTERRUPTS prefixes the percentiles fall mid-cluster
PROBE_REPEATS = 7
# largest |refined mean - known mean| allowed, in standard errors of
# independent points; refined points of the slow d=32 chains stay correlated
# and reached 5.4 over 12 seeds, so the bound is loose
MEAN_Z_LIMIT = 8.0

# calibrate() loop count, and its duration at the reference speed that
# every timing is scaled to
CALIBRATION_LOOPS = 800
CALIBRATION_REF_S = 0.02

# layers reported as .calls and .s (inclusive seconds)
TIMED_LAYERS = (
    "proposal.log_kernel_density",
    "kernel.cascade",
    "rng.round_stream",
    "model.evaluate",
    "proposal.sample_candidate",
    "chain.moments_update",
    "kernel.commit",
    "proposal.adapt",
    "persist.write_row",
    "persist.read_chain",
    "persist.snapshot",
    "kernel.state_dict",
    "chain.row",
    "persist.detect_incomplete",
    "persist.read_snapshot",
    "driver.slice_chain",
    "kernel.load_state",
    "driver.payload",
)

# layers reported by self seconds: most of their time is in timed child layers
SELF_TIMED_LAYERS = (
    spans.CASCADE,
    "kernel.step",
    "parallel.run_forkjoin",
)

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from dramp.config import build_spec, initial_proposal, make_target
spec = build_spec(json.loads(sys.argv[2]))
make_target(spec)
initial_proposal(spec)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

REFERENCE_CODE = """
import sys
import numpy
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

_OUT_LINE = re.compile(rb"(?m)^out = .*$")


class Interrupt(Exception):
    """Raised from on_event to stop a run at a chosen row."""


class CheckFailed(Exception):
    """A suite's outputs failed a correctness check."""


# every calibrate() time of this process, kept with the results so that two
# revisions of dramp can be checked to leave the calibration alone
CALIBRATIONS: List[float] = []


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations dramp spends its time
    in: small numpy linear algebra, generator construction, Python float
    arithmetic, row formatting and packing.

    The garbage collector is off meanwhile, so that the objects a run leaves
    alive do not slow the calibration and scale their own cost away.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        gen = np.random.Generator(np.random.PCG64(12345))
        shape = np.eye(8) * 2.0
        acc = 0.0
        for i in range(CALIBRATION_LOOPS):
            z = gen.standard_normal(8)
            x = shape @ z
            acc += float(x @ x) + math.log1p(i)
            np.linalg.solve(shape, z)
            struct.pack("<8d", *x)
            ",".join("%.17g" % v for v in x[:2])
            np.random.SeedSequence(entropy=7, spawn_key=(i, 1))
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    CALIBRATIONS.append(seconds)
    return seconds


class ScaledClock:
    """Wall time scaled to the reference speed, interval by interval.

    The shared host's speed drifts by up to 2x within tens of seconds, far
    more than any regression bound. ``split()`` closes the running interval
    and calibrates; each interval is multiplied by CALIBRATION_REF_S over the
    mean of the calibrations on either side of it, so a slower host stretches
    both and the product stays put. Calibration time is not counted.
    """

    def __init__(self):
        self.seconds = 0.0  # scaled
        self.raw = 0.0
        self.notes: List[float] = []  # scaled sub-intervals, in note() order
        self._pending: List[float] = []
        self._calibration = calibrate()
        self._mark = time.perf_counter()

    def note(self, seconds: float) -> None:
        """Record a span of the running interval, scaled when it closes."""
        self._pending.append(seconds)

    def split(self) -> None:
        now = time.perf_counter()
        calibration = calibrate()
        factor = 2.0 * CALIBRATION_REF_S / (self._calibration + calibration)
        self.raw += now - self._mark
        self.seconds += (now - self._mark) * factor
        self.notes.extend(p * factor for p in self._pending)
        self._pending = []
        self._calibration = calibration
        self._mark = time.perf_counter()


@dataclass
class SuiteRun:
    spec: SimulationSpec
    result: RunResult
    seconds: float  # first call to completion, resumes included, scaled
    raw: float  # the same, unscaled
    rows: int
    steps: int
    chain_bytes: int
    resumed: List[bool] = field(default_factory=list)  # per run_simulation call
    resumes: List[float] = field(default_factory=list)  # call to first event, scaled


def suite_digest(spec: SimulationSpec) -> str:
    """SHA-256 over the five suite files; the report's echoed output prefix
    is the only line allowed to differ between suites."""
    digest = hashlib.sha256()
    for path in spec.output.all_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        if path == spec.output.report_path:
            data = _OUT_LINE.sub(b"out = <prefix>", data)
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _seconds_to_ready(argv: List[str], root: str) -> float:
    """Wall time from starting a child until it prints its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=root) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.communicate(timeout=120)
    if child.returncode != 0 or line != b"ready\n":
        raise RuntimeError("child %r exited with %d" % (argv[2][:40], child.returncode))
    return ready - start


def setup_times(values: Dict[str, str], root: str) -> List[float]:
    """SETUP_REPEATS set-up times, each scaled to the reference speed.

    A set-up is a fresh interpreter importing dramp and building the spec,
    the target and the initial proposal. Start-up is mostly process creation,
    imports and page faults, whose time follows calibrate()'s poorly, so each
    set-up is scaled instead by a reference child that only imports numpy,
    started right before and right after it.
    """
    setup = [sys.executable, "-c", SETUP_CODE, os.path.join(root, "src"),
             json.dumps(values)]
    reference = [sys.executable, "-c", REFERENCE_CODE]
    _seconds_to_ready(setup, root)  # warm-up: bytecode caches
    before = _seconds_to_ready(reference, root)
    times = []
    for _ in range(SETUP_REPEATS):
        raw = _seconds_to_ready(setup, root)
        after = _seconds_to_ready(reference, root)
        times.append(raw * 2.0 * SETUP_REFERENCE_S / (before + after))
        before = after
    return times


class Bench:
    """Runs suites of one workload and counts attempts and failures."""

    def __init__(self, workload: workloads.Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None
        self._dirs = 0

    def new_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, "d%05d" % self._dirs)
        os.makedirs(path)
        return path

    def spec(self, directory: str) -> SimulationSpec:
        return build_spec(dict(self.workload.values, out=os.path.join(directory, "run")))

    def attempt(self, fn: Callable[[], object]):
        """Run one attempt; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failing suite is counted; the benchmark goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def run_suite(self, interrupted: bool, traced_call=None,
                  before_resume=None) -> SuiteRun:
        """Run one suite to completion.

        At INTERRUPTS fixed, evenly spaced rows an interrupted suite raises
        from on_event and is resumed; an uninterrupted, untraced suite
        calibrates there instead, so its timing is scaled in short intervals.
        """
        directory = self.new_dir()
        spec = self.spec(directory)
        call = traced_call or dramp.driver.run_simulation
        limits = workloads.thresholds(self.workload)
        split_inside = not interrupted and traced_call is None
        chain_len = self.workload.shape.chain_len
        cursor = {"chain": 0, "last": -1, "next": 0, "first": None}

        def on_event(event: tuple) -> None:
            if cursor["first"] is None:
                cursor["first"] = time.perf_counter()
            if event[0] != "row_final" or cursor["next"] >= len(limits):
                return
            # row indices restart at 0 with each chain of a multichain run; a
            # resume continues the chain it was interrupted in
            index = event[1]
            if index <= cursor["last"]:
                cursor["chain"] += 1
            cursor["last"] = index
            if cursor["chain"] * chain_len + index + 1 >= limits[cursor["next"]]:
                cursor["next"] += 1
                if interrupted:
                    raise Interrupt()
                if split_inside:
                    clock.split()

        resumed: List[bool] = []
        clock = ScaledClock()
        while True:
            cursor["first"] = None
            cursor["last"] = -1
            resumed.append(bool(resumed))
            called = time.perf_counter()
            try:
                result = call(spec, on_event=on_event)
            except Interrupt:
                result = None
            if resumed[-1] and cursor["first"] is not None:
                clock.note(cursor["first"] - called)
            clock.split()
            if result is not None:
                break
            if before_resume is not None:
                before_resume(directory)
        chains = [s.chain for s in result.summaries]
        suite = SuiteRun(
            spec=spec,
            result=result,
            seconds=clock.seconds,
            raw=clock.raw,
            rows=sum(c.n_rows for c in chains),
            steps=sum(c.verbose_length - 1 for c in chains),
            chain_bytes=os.path.getsize(spec.output.chain_path),
            resumed=resumed,
            resumes=clock.notes,
        )
        self.check(suite)
        shutil.rmtree(directory)
        return suite

    def check(self, suite: SuiteRun) -> None:
        wl = self.workload
        problems = []
        with open(suite.spec.output.report_path, "rb") as fh:
            lines = [ln for ln in fh.read().decode("utf-8").split("\n") if ln.strip()]
        if not lines or lines[-1] != REPORT_TERMINATOR:
            problems.append("report does not end with its terminator")
        if suite.rows != wl.total_rows:
            problems.append("%d chain rows, expected %d" % (suite.rows, wl.total_rows))
        if wl.mean is not None:
            points = suite.result.refined.points
            if points.shape[0] < 2:
                problems.append("refined sample holds %d points" % points.shape[0])
            else:
                se = np.sqrt(np.diag(wl.covariance) / points.shape[0])
                z = float(np.max(np.abs(points.mean(axis=0) - wl.mean) / se))
                if z > MEAN_Z_LIMIT:
                    problems.append("refined mean is %.2f standard errors off" % z)
        if suite.spec.mode == "forkjoin":
            tally = suite.result.tally
            if tally is None or tally.total != suite.rows - 1:
                problems.append("contribution tally does not sum to rows - 1")
            p_hat = suite.result.speedup.fitted_acceptance_prob
            if not 0.0 < p_hat <= 1.0:
                problems.append("fitted acceptance probability %r" % p_hat)
        digest = suite_digest(suite.spec)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output files differ from the reference suite's")
        if problems:
            raise CheckFailed("; ".join(problems))

    def resume_once(self, saved: str) -> float:
        """Copy a saved interrupted prefix, resume it, and time the call up
        to its first kernel event."""
        directory = self.new_dir()
        os.rmdir(directory)
        shutil.copytree(saved, directory)
        spec = self.spec(directory)
        first: List[float] = []

        def on_event(event: tuple) -> None:
            first.append(time.perf_counter())
            raise Interrupt()

        called = time.perf_counter()
        try:
            dramp.driver.run_simulation(spec, on_event=on_event)
        except Interrupt:
            pass
        if not first:
            raise RuntimeError("resumed run emitted no kernel event")
        shutil.rmtree(directory)
        return first[0] - called

    def resume_probe(self) -> List[float]:
        """Resume latencies for a workload whose timed suites run
        uninterrupted: one interrupted suite saves its prefix before each
        resume, and each saved prefix is resumed PROBE_REPEATS times in all."""
        saved: List[str] = []

        def save(directory: str) -> None:
            dest = os.path.join(self.work_dir, "saved%02d" % len(saved))
            shutil.copytree(directory, dest)
            saved.append(dest)

        suite = self.attempt(lambda: self.run_suite(True, before_resume=save))
        latencies = list(suite.resumes) if suite is not None else []
        clock = ScaledClock()
        for path in saved:
            for _ in range(PROBE_REPEATS - 1):
                value = self.attempt(lambda: self.resume_once(path))
                if value is not None:
                    clock.note(value)
                clock.split()
            shutil.rmtree(path)
        return latencies + clock.notes


def _median(values) -> float:
    return float(statistics.median(values))


def allocation_peak(peaks: List[float]) -> Callable:
    """run_simulation, appending to ``peaks`` the most memory, in MB, that the
    call held at once, as tracemalloc counts it: Python objects and numpy
    buffers allocated during the call, not the interpreter's own."""

    def call(spec: SimulationSpec, on_event):
        tracemalloc.start()
        try:
            return dramp.driver.run_simulation(spec, on_event=on_event)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2.0 ** 20)
            tracemalloc.stop()

    return call


def measure_end_to_end(bench: Bench, seconds: float, root: str):
    wl = bench.workload
    interrupted = wl.shape.interrupted
    setup = setup_times(dict(wl.values, out=os.path.join(bench.work_dir, "setup")), root)
    # the uninterrupted reference suite doubles as the warm-up; it is not
    # timed, so it runs under tracemalloc
    peaks: List[float] = []
    bench.attempt(lambda: bench.run_suite(False, traced_call=allocation_peak(peaks)))
    # the probe's samples come first; an interrupted workload's timed suites
    # add theirs, equally many per interrupt, so the clusters stay even
    resumes = bench.resume_probe()
    rows_per_s: List[float] = []
    steps_per_s: List[float] = []
    start = time.perf_counter()
    while not (time.perf_counter() - start >= seconds and (rows_per_s or bench.failed)):
        suite = bench.attempt(lambda: bench.run_suite(interrupted))
        if suite is not None:
            rows_per_s.append(suite.rows / suite.seconds)
            steps_per_s.append(suite.steps / suite.seconds)
            resumes.extend(suite.resumes)
    if not rows_per_s or not resumes or not peaks:
        return None
    metrics = {
        "rows_per_s": _median(rows_per_s),
        "steps_per_s": _median(steps_per_s),
        "resume_p50_s": _median(resumes),
        "resume_p90_s": float(np.percentile(resumes, 90)),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_alloc_mb": max(peaks),
    }
    samples = {
        "rows_per_s": rows_per_s,
        "steps_per_s": steps_per_s,
        "resume_p50_s": resumes,
        "resume_p90_s": resumes,
        "setup_s": setup,
        "peak_rss_mb": [metrics["peak_rss_mb"]],
        "peak_alloc_mb": peaks,
    }
    return metrics, samples


def layer_metrics(tracer: spans.Tracer, suite: SuiteRun) -> Dict[str, float]:
    """Per-layer numbers of one traced suite."""
    calls, total, own = spans.layer_totals(tracer.spans)
    m: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".s"] = total.get(name, 0.0)
    for name in SELF_TIMED_LAYERS:
        m[name + ".self_s"] = own.get(name, 0.0)

    # chain rebuild on resume: append_row calls inside a resume preamble
    windows = spans.resume_windows(tracer.spans, suite.resumed)
    starts = [w[0] for w in windows]
    rebuild = 0
    rebuild_s = 0.0
    for _, _, name, start, end in tracer.spans:
        if name == "chain.append_row":
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and start < windows[i][1]:
                rebuild += 1
                rebuild_s += end - start
    m["chain.append_row.calls"] = rebuild
    m["chain.append_row.s"] = rebuild_s
    m["driver.resume_preamble.s"] = sum(end - start for start, end in windows)

    summaries = suite.result.summaries
    stages = max(len(s.stage_attempts) for s in summaries)
    attempts = [sum(s.stage_attempts[k] for s in summaries if k < len(s.stage_attempts))
                for k in range(stages)]
    accepts = [sum(s.stage_accepts[k] for s in summaries if k < len(s.stage_accepts))
               for k in range(stages)]
    for k in range(3):
        att = attempts[k] if k < stages else 0
        m["kernel.stage%d.accept_ratio" % k] = accepts[k] / att if att else 0.0
    m["kernel.attempts_per_row"] = sum(attempts) / suite.rows
    m["parallel.ranks_per_round"] = calls.get("rng.round_stream", 0) / suite.steps

    m["persist.chain_bytes"] = suite.chain_bytes
    m["persist.snapshot.bytes"] = tracer.snapshot_bytes
    m["refine.refine_two_phase.s"] = total.get("refine.refine_two_phase", 0.0)
    m["refine.cross_chain_check.s"] = total.get("refine.cross_chain_check", 0.0)
    m["persist.report.s"] = total.get("persist.report", 0.0)
    m["persist.sample.s"] = total.get("persist.sample", 0.0)
    m["refine.rounds"] = sum(
        len(r.rounds) for r in suite.result.per_chain_refined if r is not None
    )
    m["refine.kept_points"] = suite.result.refined.points.shape[0]
    m["driver.run_simulation.s"] = total.get(spans.ROOT, 0.0)
    m["driver.self_s"] = own.get(spans.ROOT, 0.0)
    # share of run_simulation's time spent inside a named layer
    m["trace.coverage"] = 1.0 - m["driver.self_s"] / m["driver.run_simulation.s"]
    for name in m:
        if name.endswith((".s", "self_s")):
            m[name] *= suite.seconds / suite.raw
    return m


def measure_layers(bench: Bench, seconds: float, spans_path: str):
    interrupted = bench.workload.shape.interrupted
    bench.attempt(lambda: bench.run_suite(False))  # reference and warm-up
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    plain_walls: List[float] = []
    first_calls: List[Dict[str, int]] = []

    def traced_suite() -> Dict[str, float]:
        tracer = spans.Tracer()
        tracer.install()
        try:
            suite = bench.run_suite(
                interrupted,
                traced_call=tracer.wrap(spans.ROOT, dramp.driver.run_simulation),
            )
        finally:
            tracer.uninstall()
        calls = spans.layer_totals(tracer.spans)[0]
        if not first_calls:
            first_calls.append(calls)
            spans.save_spans(spans_path, tracer.spans)
        elif calls != first_calls[0]:
            raise CheckFailed("call counts differ between two traced suites")
        traced_walls.append(suite.seconds)
        return layer_metrics(tracer, suite)

    start = time.perf_counter()
    while not (
        time.perf_counter() - start >= seconds
        and ((len(traced) >= 2 and plain_walls) or bench.failed)
    ):
        if len(traced) <= len(plain_walls):
            metrics = bench.attempt(traced_suite)
            if metrics is not None:
                traced.append(metrics)
        else:
            suite = bench.attempt(lambda: bench.run_suite(interrupted))
            if suite is not None:
                plain_walls.append(suite.seconds)
    if not traced or not plain_walls:
        return None
    # times and the share of time covered vary between suites; counts, bytes
    # and ratios repeat exactly
    metrics = {
        name: _median([m[name] for m in traced])
        if name.endswith((".s", "self_s", ".coverage")) else value
        for name, value in traced[0].items()
    }
    metrics["trace.overhead"] = _median(traced_walls) / _median(plain_walls)
    samples = {name: [m[name] for m in traced] for name in traced[0]}
    samples["trace.overhead"] = traced_walls + plain_walls
    return metrics, samples


def environment(root: str) -> Dict[str, object]:
    rev = ""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    package = os.path.join(root, "src", "dramp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev or "unknown",
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args, declared: dict, root: str) -> int:
    names = {w["name"] for w in declared["workloads"]}
    if args.workload not in names or args.workload not in workloads.SHAPES:
        print("dramp-bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(dramp.__file__).startswith(src + os.sep):
        print("dramp-bench: imported dramp from %s, not from %s"
              % (dramp.__file__, src), file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    work_dir = os.path.join(root, ".bench_work", str(os.getpid()))
    results_dir = os.path.join(root, ".bench_results")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    bench = Bench(workloads.build(args.workload, args.seed), work_dir)
    try:
        if args.trace:
            spans_path = os.path.join(results_dir, "spans-%s.npz" % tag)
            measured = measure_layers(bench, args.seconds, spans_path)
        else:
            measured = measure_end_to_end(bench, args.seconds, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if measured is None:
        print("dramp-bench: every suite failed", file=sys.stderr)
        return 1
    metrics, samples = measured
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json")

    env = environment(root)
    print("env %s" % json.dumps(env, sort_keys=True))
    print("%-34s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for m in wanted:
        print("%-34s %16.6g  %-6s %d" % (
            m["name"], metrics[m["name"]], m["unit"], len(samples[m["name"]])))
    print("error_rate %.6g (%d of %d attempts failed)" % (
        bench.failed / bench.attempted, bench.failed, bench.attempted))
    line = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(line, env=env, samples=samples, calibration_s=CALIBRATIONS,
                       workload=args.workload, seed=args.seed,
                       spec=bench.workload.values), fh, indent=1)
    print(json.dumps(line))
    return 0
