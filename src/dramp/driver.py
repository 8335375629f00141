"""Run orchestration: wires the sampling kernel to the output file suite.

One runner serves all three modes. It builds each chain's Kernel from one
factory keyed by mode and chain index (fork-join's stream policy gives every
attempt its own stream, serial and multichain chains draw from their own)
and steps it through Kernel.run, with one persistence handler that writes
rows, progress ticks and snapshots between steps. Multichain runs their
chains one after another into the same files and also snapshot between
chains.

The driver snapshots the kernel's exact state at every flush boundary (each
adaptation and every 1000 written rows). A run killed at any instant
therefore resumes from the last snapshot through one preamble: the chain and
progress files are truncated to the snapshot's byte offsets, the in-memory
chain is rebuilt from the truncated file, and the kernel counters, moment
accumulators and stream cursors are restored bit for bit. The completed
outputs of a resumed run are byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .chain import CompactChain
from .config import (
    TRAJECTORY_VERSION,
    SimulationSpec,
    check_restart_compatibility,
    initial_proposal,
    make_target,
    spec_digest,
    spec_to_items,
)
from .errors import CorruptRestart, IoFailure, RefusedOverwrite, SamplerError
from .kernel import Kernel, KernelSummary, RoundStreams, SerialStreams
from .model import TargetDensity
from .parallel import (
    ContributionTally,
    build_speedup_report,
    fit_geometric,
    measured_speedup,
)

# The runner steps fork-join chains through Kernel.run and never calls this;
# it stays importable here for tools that patch it by name.
from .parallel import run_forkjoin  # noqa: F401
from .persist import (
    ChainWriter,
    ProgressWriter,
    RunState,
    detect_incomplete,
    read_chain,
    read_snapshot,
    write_report,
    write_sample,
    write_snapshot,
)
from .refine import (
    ConvergenceCheck,
    RefinedSample,
    cross_chain_check,
    refine_two_phase,
)

__all__ = ["RunResult", "run_simulation", "replay_adaptation_covariances"]

_SNAPSHOT_ROW_PERIOD = 1000


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run produced, independent of the files."""

    spec: SimulationSpec
    restarted: bool
    summaries: Tuple[KernelSummary, ...]
    refined: Optional[RefinedSample]
    per_chain_refined: Tuple[Optional[RefinedSample], ...]
    check: Optional[ConvergenceCheck]
    tally: Optional[ContributionTally]
    speedup: object


class _SuiteFiles:
    """Open handles plus the write counters shared by all modes."""

    def __init__(self, spec: SimulationSpec, dimension: int, append: bool,
                 rows_written: int = 0):
        suite = spec.output
        names = tuple("Var%d" % (i + 1) for i in range(dimension))
        self.suite = suite
        self.writer = ChainWriter(suite, names, append=append)
        self.progress = ProgressWriter(suite.progress_path, append=append)
        self.rows_written = rows_written
        self._t0 = time.monotonic()
        self._blank_clock = spec.deterministic_test_mode

    def elapsed(self) -> Optional[float]:
        if self._blank_clock:
            return None
        return time.monotonic() - self._t0

    def write_row(self, row) -> None:
        self.writer.write_row(row)
        self.rows_written += 1

    def tick(self, tick: dict) -> None:
        self.progress.write_tick(tick, self.elapsed())

    def flush(self) -> None:
        self.writer.flush()
        self.progress.flush()

    def snapshot(self, payload: dict) -> None:
        # the payload's offsets count buffered bytes too; a kill after the
        # snapshot lands must find them on disk
        self.flush()
        write_snapshot(self.suite.restart_path, payload)

    def close(self) -> None:
        self.writer.close()
        self.progress.close()


def _payload(spec: SimulationSpec, sw: _SuiteFiles,
             kernel_state: Optional[dict], extra: dict) -> dict:
    body = {
        "format_version": 1,
        "trajectory_version": TRAJECTORY_VERSION,
        "spec_digest": spec_digest(spec),
        "mode": spec.mode,
        "chain_format": spec.output.chain_format,
        "delimiter": spec.output.delimiter,
        "n_chains": spec.n_chains,
        "worker_count": spec.worker_count,
        "rows_written": sw.rows_written,
        "chain_offset": sw.writer.tell(),
        "progress_offset": sw.progress.tell(),
        "kernel": kernel_state,
    }
    body.update(extra)
    return body


def _make_handler(
    kern: Kernel,
    sw: _SuiteFiles,
    spec: SimulationSpec,
    extra_fn: Callable[[], dict],
    on_event: Optional[Callable[[tuple], None]],
) -> Callable[[List[tuple]], None]:
    """Shared persistence reaction to the events of one kernel step.

    A snapshot stores the kernel state after the whole step, so a resume is
    byte-identical only if every byte that the snapshot's offsets count, and
    every line that the snapshotted state has already emitted, is on disk
    before the snapshot is written. The handler therefore writes all of the
    step's output (its finalized row and its progress tick) first, then
    takes at most one snapshot (on an adaptation or every 1000th written
    row), and _SuiteFiles.snapshot flushes both files before writing it. The
    user callback observes the step's events after persistence, so an
    exception thrown from it leaves a resumable suite behind, which is how
    the crash tests operate.
    """

    def handle(events: List[tuple]) -> None:
        snapshot_due = False
        for event in events:
            kind = event[0]
            if kind == "row_final":
                sw.write_row(kern.chain.row(event[1]))
                if sw.rows_written % _SNAPSHOT_ROW_PERIOD == 0:
                    snapshot_due = True
            elif kind == "adapt":
                snapshot_due = True
            elif kind == "tick":
                sw.tick(event[1])
        if snapshot_due:
            sw.snapshot(_payload(spec, sw, kern.state_dict(), extra_fn()))
        if on_event is not None:
            for event in events:
                on_event(event)

    return handle


def _slice_chain(chain: CompactChain, start: int, count: int) -> CompactChain:
    out = CompactChain(chain.dimension, variable_names=chain.variable_names)
    for i in range(start, start + count):
        out.append_row(chain.row(i))
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptRestart(message)


def _remove_suite(spec: SimulationSpec) -> None:
    paths = set(spec.output.all_paths())
    # the chain extension depends on the codec; clear both variants
    paths.add("%s_chain.txt" % spec.output.prefix)
    paths.add("%s_chain.bin" % spec.output.prefix)
    paths.add(spec.output.restart_path + ".tmp")
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _truncate_for_resume(spec: SimulationSpec, snap: dict) -> CompactChain:
    """Read the chain rows the snapshot counts, then cut the chain and
    progress files back to the snapshot's offsets. A file shorter than its
    offset (truncating would pad it with NULs), a damaged row or a wrong row
    count refuses the resume before any file is modified."""
    cuts = (
        (spec.output.chain_path, int(snap["chain_offset"])),
        (spec.output.progress_path, int(snap["progress_offset"])),
    )
    try:
        for path, offset in cuts:
            size = os.path.getsize(path)
            _require(
                size >= offset,
                "%s holds %d bytes but the restart snapshot counts %d; the "
                "file was cut short, so the run cannot resume"
                % (path, size, offset),
            )
    except OSError as exc:
        raise CorruptRestart("cannot inspect output files: %s" % exc) from exc
    stored = read_chain(spec.output.chain_path, spec.output.delimiter,
                        size=cuts[0][1])
    _require(
        stored.n_rows == int(snap["rows_written"]),
        "chain file holds %d rows, snapshot says %d"
        % (stored.n_rows, int(snap["rows_written"])),
    )
    try:
        for path, offset in cuts:
            os.truncate(path, offset)
    except OSError as exc:
        raise CorruptRestart(
            "cannot truncate output files to the snapshot boundary: %s" % exc
        ) from exc
    return stored


def _finish(
    spec: SimulationSpec,
    sw: _SuiteFiles,
    summaries: List[KernelSummary],
    chains: List[CompactChain],
    tally: Optional[ContributionTally],
    p_hat: float,
    observed_speedup: Optional[float],
    restarted: bool,
) -> RunResult:
    per_chain: List[Optional[RefinedSample]] = []
    for chain in chains:
        try:
            per_chain.append(refine_two_phase(chain))
        except SamplerError:
            per_chain.append(None)
    usable = [r for r in per_chain if r is not None]
    check = None
    if spec.mode == "multichain":
        check = cross_chain_check(usable) if len(usable) >= 2 else None
    dimension = chains[0].dimension
    if not usable:
        pooled = RefinedSample(
            dimension=dimension,
            points=np.zeros((0, dimension)),
            log_funcs=np.zeros(0),
            source_verbose_length=chains[0].verbose_length,
            rounds=(),
        )
    elif len(usable) == 1:
        pooled = usable[0]
    else:
        pooled = RefinedSample(
            dimension=dimension,
            points=np.vstack([r.points for r in usable]),
            log_funcs=np.concatenate([r.log_funcs for r in usable]),
            source_verbose_length=sum(r.source_verbose_length for r in usable),
            rounds=usable[0].rounds,
        )
    write_sample(sw.suite.sample_path, pooled, spec.output.delimiter)
    speedup = build_speedup_report(p_hat, observed_speedup)
    write_report(
        sw.suite,
        spec_to_items(spec),
        summaries[0],
        usable[0] if usable else None,
        speedup,
        mode=spec.mode,
        check=check,
        tally=tally,
        complete=True,
    )
    return RunResult(
        spec=spec,
        restarted=restarted,
        summaries=tuple(summaries),
        refined=pooled,
        per_chain_refined=tuple(per_chain),
        check=check,
        tally=tally,
        speedup=speedup,
    )


def _make_kernel(
    spec: SimulationSpec,
    target: TargetDensity,
    chain_index: int,
    chain: Optional[CompactChain] = None,
) -> Kernel:
    """Kernel of chain ``chain_index``: a fork-join chain draws each attempt
    from its own stream; serial and multichain chains from the chain's."""
    if spec.mode == "forkjoin":
        streams = RoundStreams(spec.kernel.rng_seed, spec.worker_count)
    else:
        streams = SerialStreams(spec.kernel.rng_seed, chain_index)
    return Kernel(target, spec.kernel, initial_proposal(spec), streams, chain=chain)


def _run(
    spec: SimulationSpec,
    target: TargetDensity,
    resume: Optional[dict],
    stored: Optional[CompactChain],
    on_event,
) -> RunResult:
    multichain = spec.mode == "multichain"
    completed_rows: List[int] = []
    completed_meta: List[dict] = []
    summaries: List[KernelSummary] = []
    chains: List[CompactChain] = []
    first_index = 0
    kern: Optional[Kernel] = None

    if resume is None:
        sw = _SuiteFiles(spec, target.dimension, append=False)
    else:
        _require(
            stored.dimension == target.dimension,
            "chain file dimension %d does not match the target's %d"
            % (stored.dimension, target.dimension),
        )
        if multichain:
            # the stored file holds the completed chains, then the prefix of
            # the chain the snapshot was taken in
            completed_rows = [int(v) for v in resume["completed_rows"]]
            completed_meta = [dict(m) for m in resume["completed_meta"]]
            first_index = int(resume["chain_index"])
            offset = 0
            for meta, n_rows in zip(completed_meta, completed_rows):
                block = _slice_chain(stored, offset, n_rows)
                offset += n_rows
                chains.append(block)
                summaries.append(
                    KernelSummary(
                        chain=block,
                        final_proposal=None,
                        stage_attempts=tuple(int(v) for v in meta["stage_attempts"]),
                        stage_accepts=tuple(int(v) for v in meta["stage_accepts"]),
                        burnin_location=int(meta["burnin"]),
                        adaptation_count=int(meta["adaptation_count"]),
                    )
                )
            prefix = _slice_chain(stored, offset, stored.n_rows - offset)
        else:
            prefix = stored
        sw = _SuiteFiles(spec, target.dimension, append=True,
                         rows_written=stored.n_rows)
        if resume["kernel"] is None:
            _require(
                prefix.n_rows == 0,
                "snapshot taken between chains but %d stray rows follow the "
                "last completed chain" % prefix.n_rows,
            )
        else:
            kern = _make_kernel(spec, target, first_index, chain=prefix)
            kern.load_state(resume["kernel"])

    def extra(chain_index: int) -> dict:
        if not multichain:
            return {}
        return {
            "chain_index": chain_index,
            "completed_rows": list(completed_rows),
            "completed_meta": list(completed_meta),
        }

    try:
        for index in range(first_index, spec.n_chains if multichain else 1):
            if kern is None:
                kern = _make_kernel(spec, target, index)
                sw.snapshot(_payload(spec, sw, kern.state_dict(), extra(index)))
            summary = kern.run(
                _make_handler(kern, sw, spec, lambda: extra(index), on_event)
            )
            sw.write_row(kern.chain.row(kern.chain.n_rows - 1))
            if multichain:
                completed_rows.append(kern.chain.n_rows)
                completed_meta.append(
                    {
                        "stage_attempts": list(summary.stage_attempts),
                        "stage_accepts": list(summary.stage_accepts),
                        "burnin": summary.burnin_location,
                        "adaptation_count": summary.adaptation_count,
                    }
                )
                sw.snapshot(_payload(spec, sw, None, extra(index + 1)))
            else:
                sw.flush()
            summaries.append(summary)
            chains.append(kern.chain)
            kern = None
        tally = None
        observed = None
        if spec.mode == "forkjoin":
            tally = ContributionTally.from_chain(chains[0], spec.worker_count)
            p_hat = fit_geometric(tally) if tally.total >= 1 else 1.0
            observed = measured_speedup(chains[0], spec.worker_count)
        else:
            p_hat = sum(c.n_rows for c in chains) / sum(
                c.verbose_length for c in chains
            )
        return _finish(
            spec, sw, summaries, chains, tally, p_hat, observed,
            restarted=resume is not None,
        )
    finally:
        sw.close()


def run_simulation(
    spec: SimulationSpec,
    force_overwrite: bool = False,
    on_event: Optional[Callable[[tuple], None]] = None,
) -> RunResult:
    """Execute a simulation end to end, resuming automatically if the output
    prefix holds an interrupted run.

    ``on_event`` observes every kernel event after it has been persisted; an
    exception raised from it aborts the run with a resumable suite on disk.
    Raises RefusedOverwrite when a completed run exists under the prefix and
    ``force_overwrite`` is not set.
    """
    parent = os.path.dirname(spec.output.prefix)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise IoFailure("cannot create output directory: %s" % exc) from exc
    if force_overwrite:
        state = RunState.FRESH
    else:
        state = detect_incomplete(spec.output.prefix)
    if state is RunState.COMPLETE:
        raise RefusedOverwrite(
            "a completed run already exists under prefix %r; pass "
            "force_overwrite to replace it" % spec.output.prefix
        )
    if state is RunState.FRESH:
        # forced, or the row-free leftovers of a run stopped before its
        # first snapshot
        _remove_suite(spec)
    resume = None
    stored = None
    if state is RunState.RESTARTABLE:
        snap = read_snapshot(spec.output.restart_path)
        check_restart_compatibility(spec, snap)
        _require(
            snap.get("mode") == spec.mode,
            "snapshot mode %r does not match spec mode %r"
            % (snap.get("mode"), spec.mode),
        )
        stored = _truncate_for_resume(spec, snap)
        resume = snap
    return _run(spec, make_target(spec), resume, stored, on_event)


def replay_adaptation_covariances(
    spec: SimulationSpec,
) -> List[Tuple[int, np.ndarray]]:
    """Re-run a simulation in memory and capture the proposal shape matrix at
    every adaptation, as (chain_length, matrix) pairs.

    The trajectory is fully determined by the spec, so this reproduces
    exactly the matrices the original run adapted through. Multichain specs
    replay their first chain, whose stream convention matches a serial run.
    """
    kern = _make_kernel(spec, make_target(spec), 0)
    captured: List[Tuple[int, np.ndarray]] = []

    def capture(events: List[tuple]) -> None:
        for event in events:
            if event[0] == "adapt":
                captured.append(
                    (event[1].at_chain_length, kern.proposal.covariance.copy())
                )

    kern.run(capture)
    return captured
