"""The sampling kernel and the one run loop every execution mode shares.

A Kernel owns one chain. Each step is one proposal attempt: a full cascade
against the incumbent x on the generator the stream policy assigns to
attempt n, the chain's verbose length, charged as one verbose step. A
rejection adds 1 to x's weight and nothing else; an acceptance finalizes x's
row and appends the new state. The serial and multichain policies draw every
attempt from the chain's own stream; the fork-join policy gives attempt n its
own counter-based stream, so workers that pre-fetch attempts write the same
chain at any worker count (Brockwell 2006). Kernel.run is the only loop that
steps a chain; run_kernel, the parallel runners, the driver and the
adaptation replay all go through it.

Within a cascade, a rejection at stage k falls through to stage k+1 with a
narrower proposal, up to the configured stage count. Delayed-rejection
acceptance (Tierney & Mira 1999; Haario et al. 2006) works in whitened
coordinates. Candidate m is y_m = x + s_{m-1} L z_m (L the Cholesky factor of
the proposal shape, s_j the stage-j scale, z_m the stage's standard-normal
draw), so L^-1 (y_a - y_b) = s_{a-1} z_a - s_{b-1} z_b. Every proposal kernel
in an acceptance ratio is a squared norm of offsets the cascade already
holds, and the Gaussian normalizing constants cancel: the step path has no
linear solve and no log-determinant. The ratio also needs the acceptance
probabilities of subpaths, each a contiguous index range walked forwards or
backwards, so a cascade has O(k^2) of them; dr_log_alpha memoizes them by
(first, last) across the cascade's stages and serves every stage >= 1.

The target is evaluated in propose_cascade only: a NaN log-density counts as
-inf (outside the support), and +inf raises NonFiniteTarget naming the point.

RNG budget contract: every stage consumes exactly d standard normals plus one
uniform from the cascade's stream, whether or not the outcome is already
decided. Restart replay of a continuous stream depends on stream consumption
being a pure function of the event sequence.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rng as rng_mod
from .chain import ChainRow, CompactChain, WeightedMoments
from .errors import (
    DimensionMismatch,
    EmptyRange,
    NonFiniteStart,
    NonFiniteTarget,
    StageOutOfRange,
)
from .model import TargetDensity
from .proposal import AdaptationRecord, ProposalState, adapt

# The cascade draws candidates and whitens its kernel terms inline, so it calls
# neither of these; they stay importable here for tools that patch them by name.
from .proposal import log_kernel_density, sample_candidate  # noqa: F401

__all__ = [
    "REJECTED",
    "KernelConfig",
    "StepOutcome",
    "KernelSummary",
    "SerialStreams",
    "RoundStreams",
    "mh_accept_stage0",
    "dr_log_alpha",
    "propose_cascade",
    "burnin_location",
    "Kernel",
    "run_kernel",
]

REJECTED = -1

INF = float("inf")
NEG_INF = -INF


@dataclass(frozen=True)
class KernelConfig:
    """Static per-run sampling parameters.

    ``chain_length_target`` counts unique (compact) states, matching the
    storage unit. ``adaptation_period`` is measured in unique states between
    proposal re-estimations; None resolves to max(10*d, 100). The first
    ``greedy_adaptation_count`` adaptations use moments of the accepted states
    only, which escapes bad start points faster; afterwards the full weighted
    history from the start feeds the estimate.
    """

    chain_length_target: int
    start_point: Tuple[float, ...]
    rng_seed: int
    dr_stage_count: int = 1
    adaptation_period: Optional[int] = None
    greedy_adaptation_count: int = 4

    def __post_init__(self):
        if self.chain_length_target < 1:
            raise ValueError(
                "chain_length_target must be >= 1, got %d" % self.chain_length_target
            )
        if self.dr_stage_count < 0:
            raise ValueError(
                "dr_stage_count must be >= 0, got %d" % self.dr_stage_count
            )
        if self.adaptation_period is not None and self.adaptation_period < 1:
            raise ValueError(
                "adaptation_period must be >= 1, got %d" % self.adaptation_period
            )
        if self.greedy_adaptation_count < 0:
            raise ValueError("greedy_adaptation_count must be >= 0")
        object.__setattr__(
            self, "start_point", tuple(float(v) for v in self.start_point)
        )

    def resolved_adaptation_period(self, dimension: int) -> int:
        if self.adaptation_period is not None:
            return self.adaptation_period
        return max(10 * dimension, 100)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one full proposal cascade against an incumbent."""

    accepted_state: np.ndarray
    accepted_log_func: float
    accepted_at_stage: int  # REJECTED when every stage failed
    proposals_consumed: int


def mh_accept_stage0(log_current: float, log_candidate: float, u: float) -> bool:
    """Symmetric-proposal Metropolis rule: accept iff ln u < logCand - logCur."""
    lnu = math.log(u) if u > 0.0 else NEG_INF
    return lnu < log_candidate - log_current


def _log1mexp(a: float) -> float:
    """log(1 - exp(a)) for a <= 0."""
    if a >= 0.0:
        return NEG_INF
    if a > -0.6931471805599453:
        return math.log(-math.expm1(a))
    return math.log1p(-math.exp(a))


def dr_log_alpha(
    log_funcs: Sequence[float],
    draws: Sequence[np.ndarray],
    scales: Sequence[float],
    memo: Optional[Dict[Tuple[int, int], float]] = None,
    first: int = 0,
    last: Optional[int] = None,
) -> float:
    """Log acceptance probability of the path y_first -> ... -> y_last.

    ``log_funcs[m]`` is the target log-density at y_m, where y_0 is the
    incumbent x and y_m = x + scales[m-1] * L @ draws[m-1] the candidate of
    stage m-1 (``scales[j]`` is the full stage-j scale). The path's stage-j
    kernel is centered at its origin y_first; the final stage's kernel is
    symmetric and cancels, the earlier ones and the rejection probabilities
    of the forward prefixes and reversed suffixes remain. The path defaults
    to x followed by every candidate. ``memo`` caches subpaths by
    (first, last); pass one dict for all stages of a cascade.
    """
    if last is None:
        last = len(log_funcs) - 1
    if memo is None:
        memo = {}
    cached = memo.get((first, last))
    if cached is not None:
        return cached
    log_num = log_funcs[last]
    log_den = log_funcs[first]
    if abs(last - first) > 1 and log_num != NEG_INF:
        # whitened offsets: L^-1 (y_a - y_b) = w_a - w_b, w_m = s_{m-1} z_m
        w_first = scales[first - 1] * draws[first - 1] if first else 0.0
        w_last = scales[last - 1] * draws[last - 1] if last else 0.0
        step = 1 if last > first else -1
        for j in range(abs(last - first) - 1):
            fwd = first + step * (j + 1)
            rev = last - step * (j + 1)
            a = scales[fwd - 1] * draws[fwd - 1] - w_first
            b = scales[rev - 1] * draws[rev - 1] - w_last
            variance = scales[j] * scales[j]
            log_den -= 0.5 * float(a @ a) / variance
            log_num -= 0.5 * float(b @ b) / variance
            log_num += _log1mexp(
                dr_log_alpha(log_funcs, draws, scales, memo, last, rev)
            )
            log_den += _log1mexp(
                dr_log_alpha(log_funcs, draws, scales, memo, first, fwd)
            )
            if log_num == NEG_INF:
                break
    # a zero-probability forward path (log_den = -inf) gives min(0, +inf) = 0
    result = NEG_INF if log_num == NEG_INF else min(0.0, log_num - log_den)
    memo[(first, last)] = result
    return result


def propose_cascade(
    target: TargetDensity,
    proposal: ProposalState,
    incumbent: np.ndarray,
    log_incumbent: float,
    dr_stage_count: int,
    stream: np.random.Generator,
) -> StepOutcome:
    """Run one full proposal attempt: stage 0 plus up to dr_stage_count retries.

    Pure with respect to everything but the stream; shared verbatim by the
    serial kernel and the fork-join workers.
    """
    chol = proposal.chol_factor
    scale = proposal.scale_factor
    for stage in range(dr_stage_count + 1):
        z = stream.standard_normal(proposal.dimension)
        candidate = incumbent + scale * (chol @ z)
        log_candidate = float(target.evaluate(candidate))
        if log_candidate != log_candidate:
            log_candidate = NEG_INF  # NaN: outside the support
        elif log_candidate == INF:
            raise NonFiniteTarget(
                "target log-density is +inf at (%s)"
                % ", ".join("%.17g" % v for v in candidate)
            )
        u = float(stream.random())
        if stage == 0:
            if mh_accept_stage0(log_incumbent, log_candidate, u):
                return StepOutcome(candidate, log_candidate, 0, 1)
            if dr_stage_count:
                # the retries' state exists only once stage 0 has rejected
                scales = [scale] + [scale * s for s in proposal.dr_scales]
                if dr_stage_count >= len(scales):
                    raise StageOutOfRange(
                        "stage %d outside [0, %d]" % (dr_stage_count, len(scales) - 1)
                    )
                log_funcs = [log_incumbent, log_candidate]
                draws = [z]
                memo: Dict[Tuple[int, int], float] = {}
        else:
            log_funcs.append(log_candidate)
            draws.append(z)
            lnu = math.log(u) if u > 0.0 else NEG_INF
            if lnu < dr_log_alpha(log_funcs, draws, scales, memo):
                return StepOutcome(candidate, log_candidate, stage, stage + 1)
        if stage < dr_stage_count:
            scale = scales[stage + 1]
    return StepOutcome(incumbent, log_incumbent, REJECTED, dr_stage_count + 1)


def burnin_location(
    log_funcs: Sequence[float],
    dimension: int,
    weights: Optional[Sequence[int]] = None,
) -> int:
    """First verbose index whose log-density clears max - dimension/2.

    The threshold is the typical-set log-density deficit of a d-dimensional
    Gaussian. Falls back to the index of the maximum, though the maximum
    itself always qualifies.
    """
    logf = np.asarray(log_funcs, dtype=float)
    if logf.size == 0:
        raise EmptyRange("burn-in location of an empty series")
    if weights is None:
        starts = np.arange(logf.size, dtype=np.int64)
    else:
        w = np.asarray(weights, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(w)[:-1]))
    threshold = float(np.max(logf)) - dimension / 2.0
    hits = np.nonzero(logf >= threshold)[0]
    row = int(hits[0]) if hits.size else int(np.argmax(logf))
    return int(starts[row])


class SerialStreams:
    """One continuous generator for the whole chain (serial and multichain).

    Every attempt draws from the chain's own stream, and every row is
    stamped ``chain_index + 1``.
    """

    kind = "serial"

    def __init__(self, seed: int, chain_index: int = 0):
        self.seed = int(seed)
        self.chain_index = int(chain_index)
        self._gen = rng_mod.chain_stream(self.seed, self.chain_index)

    def generator(self, attempt: int) -> np.random.Generator:
        return self._gen

    def process_id(self, weight: int) -> int:
        return self.chain_index + 1

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "chain_index": self.chain_index,
            "generator": rng_mod.stream_state(self._gen),
        }

    def load_state(self, state: dict) -> None:
        self._gen = rng_mod.restore_stream(state["generator"])


class RoundStreams:
    """Fork-join: P = worker_count workers pre-fetch the chain's attempts.

    Attempt n draws from its own (seed, n) counter-based stream, so the chain
    is the same at every P; only the process ids differ. Workers take the
    attempts from one incumbent in rounds of P, in rank order, so the row
    accepted after w attempts from its predecessor was drawn by rank
    ((w - 1) mod P) + 1. The generator returned for one attempt is the
    object's one generator, reseated, and is valid only until the next.
    """

    kind = "per_round"

    def __init__(self, seed: int, worker_count: int = 1):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1, got %d" % worker_count)
        self.seed = int(seed)
        self.worker_count = int(worker_count)
        self._owner = rng_mod.RoundGenerator(self.seed)

    def generator(self, attempt: int) -> np.random.Generator:
        return rng_mod.round_stream(self._owner, attempt)

    def process_id(self, weight: int) -> int:
        return (weight - 1) % self.worker_count + 1

    def state_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed}

    def load_state(self, state: dict) -> None:
        pass  # nothing stateful; streams are derived per attempt


@dataclass
class KernelSummary:
    """What a finished run hands to reporting and refinement."""

    chain: CompactChain
    final_proposal: ProposalState
    stage_attempts: Tuple[int, ...]
    stage_accepts: Tuple[int, ...]
    burnin_location: int
    adaptation_count: int

    @property
    def mean_acceptance_rate(self) -> float:
        return self.chain.n_rows / self.chain.verbose_length

    @property
    def stage0_acceptance_rate(self) -> float:
        if self.stage_attempts[0] == 0:
            return 0.0
        return self.stage_accepts[0] / self.stage_attempts[0]


class Kernel:
    """The stepping engine of every mode: one chain, one stream policy.

    Owns the chain, the running moment accumulators, the adaptation schedule
    and the burn-in tracker. ``step()`` runs one cascade on the generator
    ``streams.generator(verbose_length)`` and commits it as one verbose
    step; it returns the bookkeeping events the step produced. ``run()``
    steps until the chain is full and hands each step's events to a
    callback, so callers persist rows and snapshots between steps. The seed
    row is stamped ``streams.process_id(1)``.
    """

    def __init__(
        self,
        target: TargetDensity,
        config: KernelConfig,
        proposal: ProposalState,
        streams,
        chain: Optional[CompactChain] = None,
    ):
        if target.dimension != proposal.dimension:
            raise DimensionMismatch(
                "target dimension %d, proposal dimension %d"
                % (target.dimension, proposal.dimension)
            )
        if config.dr_stage_count > len(proposal.dr_scales):
            raise StageOutOfRange(
                "dr_stage_count %d exceeds the %d configured stage scales"
                % (config.dr_stage_count, len(proposal.dr_scales))
            )
        self.target = target
        self.config = config
        self.proposal = proposal
        self.streams = streams
        d = target.dimension
        self._period = config.resolved_adaptation_period(d)
        self._stage_attempts = [0] * (config.dr_stage_count + 1)
        self._stage_accepts = [0] * (config.dr_stage_count + 1)
        self._moments_full = WeightedMoments(d)
        self._moments_greedy = WeightedMoments(d)
        self._pending_measure = 0.0
        self._run_max = NEG_INF
        self._burnin = 0
        self._log_incumbent = NEG_INF
        if chain is not None:
            self.chain = chain  # restart path: counters arrive via load_state
            return
        self.chain = CompactChain(d)
        start = np.asarray(config.start_point, dtype=float)
        if start.shape != (d,):
            raise DimensionMismatch(
                "start point has %d entries, target dimension is %d"
                % (start.size, d)
            )
        log_start = float(target.evaluate(start))
        if not math.isfinite(log_start):
            raise NonFiniteStart(
                "start point has non-finite log-density %g" % log_start
            )
        self._log_incumbent = log_start
        self._run_max = log_start
        self.chain.append_row(
            ChainRow(
                process_id=streams.process_id(1),
                dr_stage=0,
                mean_acceptance_rate=1.0,
                adaptation_measure=0.0,
                burnin_location=0,
                weight=1,
                log_func=log_start,
                state=start,
            )
        )
        self._moments_greedy.update(start, 1.0)

    @property
    def done(self) -> bool:
        return self.chain.n_rows >= self.config.chain_length_target

    @property
    def log_incumbent(self) -> float:
        return self._log_incumbent

    def _rescan_burnin(self) -> None:
        threshold = self._run_max - self.target.dimension / 2.0
        hits = np.nonzero(self.chain.log_funcs >= threshold)[0]
        row = int(hits[0]) if hits.size else int(np.argmax(self.chain.log_funcs))
        self._burnin = int(self.chain.verbose_starts[row])

    def step(self) -> List[tuple]:
        outcome = propose_cascade(
            self.target,
            self.proposal,
            self.chain.last_state(),
            self._log_incumbent,
            self.config.dr_stage_count,
            self.streams.generator(self.chain.verbose_length),
        )
        return self.commit(outcome)

    def run(
        self, on_step: Optional[Callable[[List[tuple]], None]] = None
    ) -> KernelSummary:
        """Step until the chain holds ``chain_length_target`` rows, handing
        each step's event list to ``on_step``, and return the summary."""
        while not self.done:
            events = self.step()
            if on_step is not None:
                on_step(events)
        return self.summary()

    def _stamp_live(self) -> None:
        # the running columns of a row are its values when it is finalized
        self.chain.restamp_last(
            self.chain.n_rows / self.chain.verbose_length, self._burnin
        )

    def commit(self, outcome: StepOutcome) -> List[tuple]:
        """Charge one cascade to the chain as one verbose step.

        A rejection only adds 1 to the live row's weight. An acceptance
        finalizes the live row (stamps its running columns, folds it into the
        full moments with its final weight, the attempts made from it), then
        appends the accepted state stamped with the process id the stream
        policy derives from that weight, and runs burn-in and adaptation.
        """
        chain = self.chain
        for s in range(outcome.proposals_consumed):
            self._stage_attempts[s] += 1
        if outcome.accepted_at_stage == REJECTED:
            chain.increment_last(1)
            events: List[tuple] = []
        else:
            finalized = chain.n_rows - 1
            weight = int(chain.weights[finalized])
            self._stamp_live()
            self._moments_full.update(chain.last_state(), float(weight))
            self._stage_accepts[outcome.accepted_at_stage] += 1
            chain.append_row(
                ChainRow(
                    process_id=self.streams.process_id(weight),
                    dr_stage=outcome.accepted_at_stage,
                    mean_acceptance_rate=0.0,  # stamped when finalized
                    adaptation_measure=self._pending_measure,
                    burnin_location=self._burnin,
                    weight=1,
                    log_func=outcome.accepted_log_func,
                    state=outcome.accepted_state,
                )
            )
            self._pending_measure = 0.0
            self._log_incumbent = outcome.accepted_log_func
            events = [("row_final", finalized)]
            if outcome.accepted_log_func > self._run_max:
                self._run_max = outcome.accepted_log_func
                self._rescan_burnin()
            self._moments_greedy.update(outcome.accepted_state, 1.0)
            if chain.n_rows % self._period == 0:
                if self.proposal.adaptation_count < self.config.greedy_adaptation_count:
                    moments = self._moments_greedy
                else:
                    # every verbose step so far: the live row has made one
                    moments = copy.copy(self._moments_full)
                    moments.update(outcome.accepted_state, 1.0)
                self.proposal, record = adapt(
                    self.proposal,
                    moments.mean,
                    moments.covariance(),
                    chain_length=chain.n_rows,
                )
                self._pending_measure = record.measure
                events.append(("adapt", record))
        if chain.verbose_length % 1000 == 0:
            events.append(
                (
                    "tick",
                    {
                        "verbose_length": chain.verbose_length,
                        "compact_length": chain.n_rows,
                        "mean_acceptance_rate": chain.n_rows
                        / chain.verbose_length,
                        "last_adaptation_measure": self._pending_measure,
                    },
                )
            )
        return events

    def summary(self) -> KernelSummary:
        self._stamp_live()  # the end of the run finalizes the last row
        return KernelSummary(
            chain=self.chain,
            final_proposal=self.proposal,
            stage_attempts=tuple(self._stage_attempts),
            stage_accepts=tuple(self._stage_accepts),
            burnin_location=self._burnin,
            adaptation_count=self.proposal.adaptation_count,
        )

    # restart transport: plain structures; persist owns the exact encoding
    def state_dict(self) -> dict:
        live = self.chain.row(self.chain.n_rows - 1)
        return {
            "stream": self.streams.state_dict(),
            "proposal": {
                "dimension": self.proposal.dimension,
                "covariance": self.proposal.covariance.copy(),
                "scale_factor": self.proposal.scale_factor,
                "dr_scales": list(self.proposal.dr_scales),
                "adaptation_count": self.proposal.adaptation_count,
            },
            "moments_full": {
                "total_weight": self._moments_full.total_weight,
                "mean": self._moments_full.mean.copy(),
                "m2": self._moments_full.m2.copy(),
            },
            "moments_greedy": {
                "total_weight": self._moments_greedy.total_weight,
                "mean": self._moments_greedy.mean.copy(),
                "m2": self._moments_greedy.m2.copy(),
            },
            "stage_attempts": list(self._stage_attempts),
            "stage_accepts": list(self._stage_accepts),
            "pending_measure": self._pending_measure,
            "run_max": self._run_max,
            "burnin": self._burnin,
            "log_incumbent": self._log_incumbent,
            "live_row": {
                "process_id": live.process_id,
                "dr_stage": live.dr_stage,
                "mean_acceptance_rate": live.mean_acceptance_rate,
                "adaptation_measure": live.adaptation_measure,
                "burnin_location": live.burnin_location,
                "weight": live.weight,
                "log_func": live.log_func,
                "state": live.state,
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore counters and the live row after the chain prefix was
        rebuilt from the chain file. Inverse of state_dict."""
        self.streams.load_state(state["stream"])
        p = state["proposal"]
        base = ProposalState.create(
            int(p["dimension"]),
            covariance=np.asarray(p["covariance"], dtype=float),
            scale_factor=float(p["scale_factor"]),
            dr_scales=tuple(float(s) for s in p["dr_scales"]),
        )
        self.proposal = replace(base, adaptation_count=int(p["adaptation_count"]))
        for name, key in (
            ("_moments_full", "moments_full"),
            ("_moments_greedy", "moments_greedy"),
        ):
            m = WeightedMoments(self.target.dimension)
            m.total_weight = float(state[key]["total_weight"])
            m.mean = np.asarray(state[key]["mean"], dtype=float)
            m.m2 = np.asarray(state[key]["m2"], dtype=float)
            setattr(self, name, m)
        self._stage_attempts = [int(v) for v in state["stage_attempts"]]
        self._stage_accepts = [int(v) for v in state["stage_accepts"]]
        self._pending_measure = float(state["pending_measure"])
        self._run_max = float(state["run_max"])
        self._burnin = int(state["burnin"])
        self._log_incumbent = float(state["log_incumbent"])
        lr = state["live_row"]
        self.chain.append_row(
            ChainRow(
                process_id=int(lr["process_id"]),
                dr_stage=int(lr["dr_stage"]),
                mean_acceptance_rate=float(lr["mean_acceptance_rate"]),
                adaptation_measure=float(lr["adaptation_measure"]),
                burnin_location=int(lr["burnin_location"]),
                weight=int(lr["weight"]),
                log_func=float(lr["log_func"]),
                state=np.asarray(lr["state"], dtype=float),
            )
        )


def run_kernel(
    target: TargetDensity,
    config: KernelConfig,
    proposal: ProposalState,
    streams=None,
    on_event: Optional[Callable[[tuple], None]] = None,
) -> KernelSummary:
    """Run a full simulation and return its summary.

    ``streams`` defaults to the continuous serial convention seeded from the
    config. ``on_event`` receives each bookkeeping event (finalized row,
    adaptation, progress tick, completion) as it happens; persistence layers
    consume the stream, tests inject crashes through it.
    """
    if streams is None:
        streams = SerialStreams(config.rng_seed)
    kern = Kernel(target, config, proposal, streams)
    if on_event is None:
        return kern.run()

    def each_event(events: List[tuple]) -> None:
        for event in events:
            on_event(event)

    summary = kern.run(each_event)
    on_event(("done", summary.chain.n_rows))
    return summary
