"""Run orchestration: wires the sampling kernel to the output file suite.

One runner serves all three modes. It builds each chain's Kernel from one
factory keyed by mode and chain index (every chain draws from its own PCG64
stream; the mode sets only the worker count, which stamps process ids) and
steps it through Kernel.run, with one persistence handler that writes rows,
progress ticks and snapshots between steps; rows reach the chain file in
blocks (_SuiteFiles). Multichain runs its chains one after another into the
same files; a SamplerError from any chain's kernel ends the run with every
finalized row on disk, and refine_chains refines what finished.

The driver snapshots each kernel when it builds it and at every flush
boundary (each adaptation and every 1000 finalized rows); each snapshot is
one record appended to the restart log. A snapshot (format version 4) holds
the file offsets and what the rows cannot give back: the kernel's stream
cursor (numpy's PCG64 state, in every mode), pending adaptation measure and
live row. A run killed at any instant, between two multichain chains too,
resumes from the last snapshot, as detect_incomplete read it, through one
preamble: the rows it counts are read, checked and split into multichain
chains by process id (chain i stamps i + 1; the live row names the chain in
progress), the files are cut back to its offsets and the log to its record,
and the kernel restores its fields and derives the rest (moments, burn-in,
stage tallies, the proposal and its adaptation count) by the rules a run
applies. The completed outputs of a resumed run, the restart log included,
are byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .chain import CompactChain
from .config import (
    SNAPSHOT_FORMAT_VERSION,
    TRAJECTORY_VERSION,
    SimulationSpec,
    check_restart_compatibility,
    initial_proposal,
    make_target,
    spec_digest,
    spec_to_items,
)
from .errors import CorruptRestart, IoFailure, RefusedOverwrite, SamplerError
from .kernel import Kernel, KernelSummary
from .model import TargetDensity
from .parallel import ContributionTally, SpeedupReport, run_speedup

# Nothing here calls these (detect_incomplete reads the snapshot); they stay
# importable here for tools that patch them by name.
from .parallel import run_forkjoin  # noqa: F401
from .persist import read_snapshot  # noqa: F401
from .persist import (
    ChainWriter,
    ProgressWriter,
    RunState,
    detect_incomplete,
    read_chain,
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

__all__ = ["RunResult", "refine_chains", "run_simulation"]

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
    """Open handles plus the write counters shared by all modes.

    Chain rows reach the file in blocks: each finalized row of the current
    chain is marked pending, and the pending range is written in one
    ChainWriter.write_rows call before a snapshot builds its payload (its
    offsets count the rows), at the end of each chain, on flush and on
    close, so a run stopped by an exception leaves every finalized row on
    disk. Snapshots, every 1000 rows at the latest, bound the range.
    """

    def __init__(self, spec: SimulationSpec, dimension: int, append: bool,
                 rows_written: int = 0):
        suite = spec.output
        names = tuple("Var%d" % (i + 1) for i in range(dimension))
        self.suite = suite
        self.writer = ChainWriter(suite, names, append=append)
        self.progress = ProgressWriter(suite.progress_path, append=append)
        self.rows_written = rows_written  # finalized rows, pending ones too
        self._chain: Optional[CompactChain] = None
        self._start = self._end = 0  # the pending rows of _chain
        self._t0 = time.monotonic()
        self._blank_clock = spec.deterministic_test_mode

    def finalize(self, chain: CompactChain, i: int) -> int:
        """Mark row i of ``chain`` pending; return the rows finalized so far.
        A chain's first finalized row is its first row not on disk."""
        if chain is not self._chain:
            self._chain, self._start = chain, i
        self._end = i + 1
        self.rows_written += 1
        return self.rows_written

    def tick(self, tick: dict) -> None:
        elapsed = None if self._blank_clock else time.monotonic() - self._t0
        self.progress.write_tick(tick, elapsed)

    def flush(self) -> None:
        if self._end > self._start:
            self.writer.write_rows(self._chain, self._start, self._end)
            self._start = self._end
        self.writer.flush()
        self.progress.flush()

    def snapshot(self, header: dict, kernel_state: dict) -> None:
        # the payload's offsets count the pending rows and the buffered
        # bytes; a kill after the snapshot's record is appended to the
        # restart log must find them on disk
        self.flush()
        write_snapshot(self.suite.restart_path, _payload(header, self, kernel_state))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        """Write the pending rows, then close both files even if that fails;
        a failed write does not replace an exception that ends the run."""
        try:
            self.flush()
        except (OSError, SamplerError):
            if exc_type is None:
                raise
        finally:
            try:
                self.writer.close()
            finally:
                self.progress.close()
        return False


def _snapshot_header(spec: SimulationSpec, digest: int) -> dict:
    """The snapshot fields fixed for the whole run; the digest pins the
    mode, the chain count and the worker count."""
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "trajectory_version": TRAJECTORY_VERSION,
        "spec_digest": digest,
        "chain_format": spec.output.chain_format,
        "delimiter": spec.output.delimiter,
    }


def _payload(header: dict, sw: _SuiteFiles, kernel_state: dict) -> dict:
    return dict(
        header,
        rows_written=sw.rows_written,
        chain_offset=sw.writer.tell(),
        progress_offset=sw.progress.tell(),
        kernel=kernel_state,
    )


def _make_handler(
    kern: Kernel,
    sw: _SuiteFiles,
    header: dict,
    on_event: Optional[Callable[[tuple], None]],
) -> Callable[[Sequence[tuple]], None]:
    """Shared persistence reaction to the events of one kernel step.

    A snapshot stores the kernel state after the whole step, so a resume is
    byte-identical only if every byte that the snapshot's offsets count, and
    every line that the snapshotted state has already emitted, is on disk
    before the snapshot is written. The handler therefore marks the step's
    finalized row pending and writes its progress tick first, then takes at
    most one snapshot (on an adaptation or every 1000th finalized row),
    which writes the pending rows and flushes both files first. The user
    callback observes the step's events after persistence, so an exception
    thrown from it leaves a resumable suite behind (the crash tests).
    """

    def handle(events: Sequence[tuple]) -> None:
        snapshot_due = False
        for event in events:
            kind = event[0]
            if kind == "row_final":
                if sw.finalize(kern.chain, event[1]) % _SNAPSHOT_ROW_PERIOD == 0:
                    snapshot_due = True
            elif kind == "adapt":
                snapshot_due = True
            elif kind == "tick":
                sw.tick(event[1])
        if snapshot_due:
            sw.snapshot(header, kern.state_dict())
        if on_event is not None:
            for event in events:
                on_event(event)

    return handle


def _slice_chain(chain: CompactChain, start: int, count: int) -> CompactChain:
    return chain.slice(start, count)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptRestart(message)


def _remove_suite(spec: SimulationSpec) -> None:
    # the chain extension depends on the codec; clear every variant
    paths = set(spec.output.all_paths() + spec.output.chain_paths)
    paths.add(spec.output.restart_path + ".tmp")
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _split_chains(spec: SimulationSpec, stored: CompactChain,
                  snap: dict) -> List[int]:
    """[0, end of chain 1, ..., end of chain k]: the k completed multichain
    chains in ``stored``, then the finalized rows of chain k + 1. Chain i
    stamps its rows i + 1, so the runs of equal process ids must be
    1, ..., m, and the live row names chain k + 1."""
    ids = stored.process_ids
    ends = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist() + [ids.size]
    runs = ids[[0] + ends[:-1]] if ids.size else ids
    k = int(snap["kernel"]["live_row"]["process_id"]) - 1
    _require(
        np.array_equal(runs, np.arange(1, runs.size + 1))
        and runs.size - k in (0, 1)
        and 0 <= k < spec.n_chains,
        "chain file process ids run %s, not 1, 2, ... up to chain %d, which "
        "the snapshot resumes" % (runs[:10].tolist(), k + 1),
    )
    return ([0] + ends)[: k + 1]


def _truncate_for_resume(
    spec: SimulationSpec, snap: dict
) -> Tuple[CompactChain, List[int]]:
    """Read the chain rows the snapshot counts, split multichain rows into
    chains (_split_chains; one chain otherwise), then cut the chain and
    progress files back to the snapshot's offsets and the restart log back
    to the end of the snapshot's record, dropping a torn tail. A file
    shorter than its offset (truncating would pad it with NULs), a damaged
    row, a wrong row count or process ids that do not split refuse the
    resume before any file is modified."""
    cuts = (
        (spec.output.chain_path, int(snap["chain_offset"])),
        (spec.output.progress_path, int(snap["progress_offset"])),
        (spec.output.restart_path, snap.end),
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
    _require(
        stored.dimension == spec.target_spec.dimension,
        "chain file dimension %d does not match the target's %d"
        % (stored.dimension, spec.target_spec.dimension),
    )
    # the stage tallies are read off this column
    stages = stored.dr_stages
    _require(
        np.all((stages >= 0) & (stages <= spec.kernel.dr_stage_count)),
        "chain file holds a DR stage outside [0, %d]" % spec.kernel.dr_stage_count,
    )
    edges = _split_chains(spec, stored, snap) if spec.mode == "multichain" else [0]
    try:
        for path, offset in cuts:
            os.truncate(path, offset)
    except OSError as exc:
        raise CorruptRestart(
            "cannot truncate output files to the snapshot boundary: %s" % exc
        ) from exc
    return stored, edges


def refine_chains(
    chains: Sequence[CompactChain],
) -> Tuple[Tuple[Optional[RefinedSample], ...], Optional[ConvergenceCheck]]:
    """Each chain's refined sample, None where refine_two_phase refuses the
    chain's rows (the chain is then left out of the pooled sample and the
    comparison), and the cross-chain check, None unless at least two
    refined chains remain. Every mode and run_multichain refine this way."""
    per_chain: List[Optional[RefinedSample]] = []
    for chain in chains:
        try:
            per_chain.append(refine_two_phase(chain))
        except SamplerError:
            per_chain.append(None)
    usable = [r for r in per_chain if r is not None]
    check = cross_chain_check(usable) if len(usable) >= 2 else None
    return tuple(per_chain), check


def _finish(
    spec: SimulationSpec,
    sw: _SuiteFiles,
    summaries: List[KernelSummary],
    chains: List[CompactChain],
    tally: Optional[ContributionTally],
    speedup: SpeedupReport,
    restarted: bool,
) -> RunResult:
    per_chain, check = refine_chains(chains)
    usable = [r for r in per_chain if r is not None]
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
    write_report(
        sw.suite,
        spec_to_items(spec),
        summaries[0],
        usable[0] if usable else None,
        speedup,
        mode=spec.mode,
        check=check,
        tally=tally,
    )
    return RunResult(
        spec=spec,
        restarted=restarted,
        summaries=tuple(summaries),
        refined=pooled,
        per_chain_refined=per_chain,
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
    """Kernel of chain ``chain_index``; only a fork-join chain has more than
    one worker, so only its rows are stamped by the workers' rank rule."""
    workers = spec.worker_count if spec.mode == "forkjoin" else 1
    return Kernel(target, spec.kernel, initial_proposal(spec), chain_index,
                  workers, chain=chain)


def _run(
    spec: SimulationSpec,
    target: TargetDensity,
    header: dict,
    resume: Optional[dict],
    stored: Optional[CompactChain],
    edges: List[int],
    on_event,
    kern: Optional[Kernel],
) -> RunResult:
    multichain = spec.mode == "multichain"
    summaries: List[KernelSummary] = []
    chains: List[CompactChain] = []

    if resume is None:  # ``kern`` is chain 0's fresh kernel
        sw = _SuiteFiles(spec, target.dimension, append=False)
    else:
        for start, end in zip(edges, edges[1:]):
            chains.append(_slice_chain(stored, start, end - start))
            summaries.append(KernelSummary.of(chains[-1], spec.kernel))
        sw = _SuiteFiles(spec, target.dimension, append=True,
                         rows_written=stored.n_rows)
        # no copy when the stored rows are all the chain in progress
        prefix = stored.tail(edges[-1]) if edges[-1] else stored
        kern = _make_kernel(spec, target, len(chains), chain=prefix)
        kern.load_state(resume["kernel"])

    with sw:
        if resume is None:
            sw.snapshot(header, kern.state_dict())
        for index in range(len(chains), spec.n_chains if multichain else 1):
            if kern is None:
                kern = _make_kernel(spec, target, index)
                sw.snapshot(header, kern.state_dict())
            summary = kern.run(_make_handler(kern, sw, header, on_event))
            # the end of the run finalizes the live row
            sw.finalize(kern.chain, kern.chain.n_rows - 1)
            sw.flush()
            summaries.append(summary)
            chains.append(kern.chain)
            kern = None
        tally, speedup = run_speedup(chains, spec.mode, spec.worker_count)
        return _finish(
            spec, sw, summaries, chains, tally, speedup,
            restarted=resume is not None,
        )


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
    if force_overwrite:
        state, snap = RunState.FRESH, None
    else:
        state, snap = detect_incomplete(spec.output.prefix)
    if state is RunState.COMPLETE:
        raise RefusedOverwrite(
            "a completed run already exists under prefix %r; pass "
            "force_overwrite to replace it" % spec.output.prefix
        )
    target = make_target(spec)
    # a fresh run's first kernel checks the start point before any file
    # or directory changes
    kern = None if state is RunState.RESTARTABLE else _make_kernel(spec, target, 0)
    parent = os.path.dirname(spec.output.prefix)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise IoFailure("cannot create output directory: %s" % exc) from exc
    if state is RunState.FRESH:
        # forced, or the row-free leftovers of a run stopped before its
        # first snapshot
        _remove_suite(spec)
    digest = spec_digest(spec)
    stored, edges = None, [0]
    if state is RunState.RESTARTABLE:
        check_restart_compatibility(spec, snap, digest)
        stored, edges = _truncate_for_resume(spec, snap)
    return _run(spec, target, _snapshot_header(spec, digest),
                snap, stored, edges, on_event, kern)

