"""Span recording around dramp's public layer functions.

The tracer patches each function where it is called, not only where it is
defined: ``dramp.kernel`` imports ``log_kernel_density``, ``sample_candidate``
and ``adapt`` by name, ``dramp.parallel`` does the same with
``propose_cascade``, and ``dramp.driver`` with ``read_chain``,
``write_snapshot``, ``refine_two_phase`` and ``make_target``. Two private
driver helpers are wrapped as well, because the resume preamble and every
snapshot spend measurable time in them: ``_slice_chain`` and ``_payload``.
The target's
``evaluate`` is wrapped by replacing the ``TargetDensity`` that
``make_target`` returns. Patches are installed only around traced suites and
removed afterwards, so untraced suites in the same process run plain code.

A span is (id, parent id, name, start, end). Spans stay in memory while a
suite runs; the first traced suite's spans are written to one file after it.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

import dramp.chain
import dramp.driver
import dramp.kernel
import dramp.parallel
import dramp.persist
import dramp.rng

ROOT = "driver.run_simulation"
CASCADE = "kernel.cascade"

# (owner, attribute, span name): every layer boundary the benchmark times
PATCH_POINTS = (
    (dramp.kernel, "propose_cascade", CASCADE),
    (dramp.parallel, "propose_cascade", CASCADE),
    (dramp.kernel, "log_kernel_density", "proposal.log_kernel_density"),
    (dramp.kernel, "sample_candidate", "proposal.sample_candidate"),
    (dramp.kernel, "adapt", "proposal.adapt"),
    (dramp.rng, "round_stream", "rng.round_stream"),
    (dramp.kernel.Kernel, "commit", "kernel.commit"),
    (dramp.kernel.Kernel, "state_dict", "kernel.state_dict"),
    (dramp.chain.WeightedMoments, "update", "chain.moments_update"),
    (dramp.chain.CompactChain, "append_row", "chain.append_row"),
    (dramp.chain.CompactChain, "row", "chain.row"),
    (dramp.persist.ChainWriter, "write_row", "persist.write_row"),
    (dramp.persist.ProgressWriter, "write_tick", "persist.write_tick"),
    (dramp.driver, "read_chain", "persist.read_chain"),
    (dramp.driver, "refine_two_phase", "refine.refine_two_phase"),
    (dramp.driver, "cross_chain_check", "refine.cross_chain_check"),
    (dramp.driver, "write_report", "persist.report"),
    (dramp.driver, "write_sample", "persist.sample"),
    (dramp.kernel.Kernel, "step", "kernel.step"),
    (dramp.driver, "run_forkjoin", "parallel.run_forkjoin"),
    (dramp.driver, "detect_incomplete", "persist.detect_incomplete"),
    (dramp.driver, "read_snapshot", "persist.read_snapshot"),
    (dramp.driver, "_slice_chain", "driver.slice_chain"),
    (dramp.kernel.Kernel, "load_state", "kernel.load_state"),
    (dramp.driver, "_payload", "driver.payload"),
)


class Tracer:
    """Records nested spans from one thread into an in-memory list."""

    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.snapshot_bytes = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in PATCH_POINTS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        write_snapshot = self.wrap("persist.snapshot", dramp.driver.write_snapshot)

        def snapshot(path, payload):
            write_snapshot(path, payload)
            self.snapshot_bytes += os.path.getsize(path)

        self._patch(dramp.driver, "write_snapshot", snapshot)
        make_target = self.wrap("driver.make_target", dramp.driver.make_target)

        def traced_target(spec):
            target = make_target(spec)
            return dataclasses.replace(
                target, evaluate=self.wrap("model.evaluate", target.evaluate)
            )

        self._patch(dramp.driver, "make_target", traced_target)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_totals(spans) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus its direct children's durations;
    spans come from one thread, so children nest strictly inside parents.
    """
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_time[sid]
    return calls, total, own


def resume_windows(spans, resumed) -> List[Tuple[float, float]]:
    """(start, end) of each resumed call's preamble: from entering
    run_simulation to the start of its first proposal cascade.

    ``resumed[i]`` says whether the i-th run_simulation call, in call order,
    resumed an interrupted prefix.
    """
    parents = {sid: parent for sid, parent, _, _, _ in spans}
    roots = sorted((start, sid) for sid, _, name, start, _ in spans if name == ROOT)
    root_ids = {sid for _, sid in roots}
    first_cascade: Dict[int, float] = {}
    for sid, parent, name, start, end in spans:
        if name != CASCADE:
            continue
        root = parent
        while root >= 0 and root not in root_ids:
            root = parents.get(root, -1)
        if root >= 0 and start < first_cascade.get(root, float("inf")):
            first_cascade[root] = start
    return [
        (start, first_cascade[sid])
        for (start, sid), was_resumed in zip(roots, resumed)
        if was_resumed and sid in first_cascade
    ]


def save_spans(path: str, spans) -> None:
    """Write spans as a structured numpy array (names as a lookup table)."""
    names = sorted({name for _, _, name, _, _ in spans})
    index = {name: i for i, name in enumerate(names)}
    table = np.array(
        [(sid, parent, index[name], start, end) for sid, parent, name, start, end in spans],
        dtype=[("id", "i8"), ("parent", "i8"), ("name", "i4"),
               ("start", "f8"), ("end", "f8")],
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, spans=table, names=np.array(names))
