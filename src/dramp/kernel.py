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
backwards, so a cascade has O(k^2) of them. dr_log_alpha serves every stage
>= 1 from one memo per cascade that holds the subpath probabilities by
(first, last), each whitened offset s_{m-1} z_m, computed once, and each
squared norm of an offset difference, keyed by the unordered pair because
the subtraction is exactly antisymmetric.

The step path is bound by per-call overhead, not arithmetic, so its
per-attempt products (the candidate's L z, the offset norms, the built-in
targets' quadratic forms) use ndarray.dot, about half the cost of @ at small
d. On C-contiguous float64 operands both reach the same BLAS routine and
give the same bits; adaptation, moments and refinement keep @.

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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
    "stage_tallies",
    "adaptation_count",
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


class StepOutcome(NamedTuple):
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


_NORM = "norm"


def _sq_dist(draws, scales, memo: dict, a: int, b: int) -> float:
    """||w_a - w_b||^2 for the whitened offsets w_m = s_{m-1} z_m (w_0 = 0),
    so L^-1 (y_a - y_b) = w_a - w_b. Offsets and norms are memoized; the
    norm of a pair is the same bits in either order, since w_b - w_a is
    exactly -(w_a - w_b)."""
    key = (a, b, _NORM) if a < b else (b, a, _NORM)
    norm = memo.get(key)
    if norm is None:
        w_a = memo.get(a)
        if w_a is None:
            w_a = memo[a] = scales[a - 1] * draws[a - 1] if a else 0.0
        w_b = memo.get(b)
        if w_b is None:
            w_b = memo[b] = scales[b - 1] * draws[b - 1] if b else 0.0
        diff = w_a - w_b
        norm = memo[key] = float(diff.dot(diff))
    return norm


def dr_log_alpha(
    log_funcs: Sequence[float],
    draws: Sequence[np.ndarray],
    scales: Sequence[float],
    memo: Optional[dict] = None,
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
    to x followed by every candidate. ``memo`` holds what one cascade has
    computed: subpath probabilities by (first, last), whitened offsets w_m
    by m, and squared offset distances by (a, b, "norm") with a < b; pass
    one dict for all stages of a cascade.
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
        step = 1 if last > first else -1
        for j in range(abs(last - first) - 1):
            fwd = first + step * (j + 1)
            rev = last - step * (j + 1)
            variance = scales[j] * scales[j]
            log_den -= 0.5 * _sq_dist(draws, scales, memo, fwd, first) / variance
            log_num -= 0.5 * _sq_dist(draws, scales, memo, rev, last) / variance
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
        candidate = incumbent + scale * chol.dot(z)
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
                memo: dict = {}
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
    itself always qualifies. Without ``weights`` every row has weight 1.
    """
    logf = np.asarray(log_funcs, dtype=float)
    if logf.size == 0:
        raise EmptyRange("burn-in location of an empty series")
    threshold = float(np.max(logf)) - dimension / 2.0
    hits = np.nonzero(logf >= threshold)[0]
    row = int(hits[0]) if hits.size else int(np.argmax(logf))
    if weights is None:
        return row
    return int(np.sum(np.asarray(weights, dtype=np.int64)[:row]))


def adaptation_count(n_rows: int, dimension: int, period: int) -> int:
    """Adaptations a chain makes by ``n_rows`` rows: commit adapts at every
    multiple of the period from 2 rows on, and adapt counts one only past
    ``dimension`` rows, so the multiples in [max(2, d + 1), n_rows]."""
    first = max(2, dimension + 1)
    return max(0, n_rows // period - (first - 1) // period)


def stage_tallies(
    chain: CompactChain, dr_stage_count: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(attempts, accepts) per cascade stage, read off a kernel's chain.

    Every verbose step after the seed row is one cascade. accepts[k] counts
    the rows after the seed accepted at stage k; a cascade accepted at stage
    k ran stages 0..k, and a rejected one (a weight increment) ran them all.
    """
    accepts = np.bincount(chain.dr_stages[1:], minlength=dr_stage_count + 1)
    rejected = chain.verbose_length - chain.n_rows
    attempts = rejected + np.cumsum(accepts[::-1])[::-1]
    return tuple(int(v) for v in attempts), tuple(int(v) for v in accepts)


class SerialStreams:
    """One continuous generator for the whole chain (serial and multichain).

    Every attempt draws from the chain's own stream, and every row is
    stamped ``chain_index + 1``. Its state is the generator's.
    """

    def __init__(self, seed: int, chain_index: int = 0):
        self.chain_index = int(chain_index)
        self._gen = rng_mod.chain_stream(seed, self.chain_index)

    def generator(self, attempt: int) -> np.random.Generator:
        return self._gen

    def process_id(self, weight: int) -> int:
        return self.chain_index + 1

    def state_dict(self) -> dict:
        return rng_mod.stream_state(self._gen)

    def load_state(self, state: dict) -> None:
        self._gen = rng_mod.restore_stream(state)


class RoundStreams:
    """Fork-join: P = worker_count workers pre-fetch the chain's attempts.

    Attempt n draws from its own (seed, n) counter-based stream, so the chain
    is the same at every P; only the process ids differ. Workers take the
    attempts from one incumbent in rounds of P, in rank order, so the row
    accepted after w attempts from its predecessor was drawn by rank
    ((w - 1) mod P) + 1. The generator returned for one attempt is the
    object's one generator, reseated, and is valid only until the next.
    Nothing here has state: a stream is derived per attempt.
    """

    def __init__(self, seed: int, worker_count: int = 1):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1, got %d" % worker_count)
        self.worker_count = int(worker_count)
        self._owner = rng_mod.RoundGenerator(seed)

    def generator(self, attempt: int) -> np.random.Generator:
        return rng_mod.round_stream(self._owner, attempt)

    def process_id(self, weight: int) -> int:
        return (weight - 1) % self.worker_count + 1

    def state_dict(self) -> None:
        return None

    def load_state(self, state: None) -> None:
        pass


@dataclass
class KernelSummary:
    """What a finished run hands to reporting and refinement."""

    chain: CompactChain
    stage_attempts: Tuple[int, ...]
    stage_accepts: Tuple[int, ...]
    burnin_location: int
    adaptation_count: int

    @classmethod
    def of(cls, chain: CompactChain, config: KernelConfig) -> "KernelSummary":
        """The summary of a finished chain, read off its rows; the run's
        end stamps its burn-in on the last row."""
        attempts, accepts = stage_tallies(chain, config.dr_stage_count)
        d = chain.dimension
        period = config.resolved_adaptation_period(d)
        return cls(chain, attempts, accepts, int(chain.burnin_locations[-1]),
                   adaptation_count(chain.n_rows, d, period))

    @property
    def mean_acceptance_rate(self) -> float:
        return self.chain.n_rows / self.chain.verbose_length


class Kernel:
    """The stepping engine of every mode: one chain, one stream policy.

    Owns the chain, the full moment accumulator, the adaptation schedule
    and the burn-in tracker. ``step()`` runs one cascade on the generator
    ``streams.generator(verbose_length)`` and commits it as one verbose
    step; it returns the bookkeeping events the step produced. ``run()``
    steps until the chain is full and hands each step's events to a
    callback, so callers persist rows and snapshots between steps. The seed
    row is stamped ``streams.process_id(1)``.

    Apart from the stream cursor, the pending adaptation measure and the
    live row, the kernel's state is a function of the chain's rows, which
    load_state derives on resume. The incumbent (the live row's state and
    log-density) is also held apart from the chain, so a step reads no
    column: __init__, an acceptance in commit and load_state set it.
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
        self._moments = WeightedMoments(d)
        self._pending_measure = 0.0
        self._run_max = NEG_INF
        self._burnin = 0
        if chain is not None:
            # restart path: load_state adds the live row and the incumbent
            self.chain = chain
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
        self._run_max = log_start
        self.incumbent, self.log_incumbent = start, log_start
        self.chain.append_row(ChainRow(
            process_id=streams.process_id(1), dr_stage=0,
            mean_acceptance_rate=1.0, adaptation_measure=0.0,
            burnin_location=0, weight=1, log_func=log_start, state=start,
        ))

    @property
    def done(self) -> bool:
        return self.chain.n_rows >= self.config.chain_length_target

    def _rescan_burnin(self) -> None:
        chain = self.chain
        self._burnin = burnin_location(
            chain.log_funcs, self.target.dimension, chain.weights
        )

    def _fold(self, boundary: int) -> None:
        # the rows finalized since the previous boundary, with final weights
        rows = slice(max(boundary - self._period - 1, 0), boundary - 1)
        self._moments.update(self.chain.states[rows], self.chain.weights[rows])

    def _adapt_at(self, boundary: int, measured: bool = True) -> AdaptationRecord:
        """The adaptation at ``boundary`` rows: fold the rows finalized since
        the previous boundary, then adapt (``measured`` as for adapt) to the
        moments of the first ``boundary`` rows."""
        self._fold(boundary)
        states = self.chain.states[:boundary]
        if self.proposal.adaptation_count < self.config.greedy_adaptation_count:
            # the accepted states, unweighted
            moments = WeightedMoments(self.chain.dimension)
            moments.update(states, np.ones(boundary))
        else:
            # every verbose step so far: the boundary's live row has made one
            moments = copy.copy(self._moments)
            moments.update(states[-1:], np.ones(1))
        self.proposal, record = adapt(
            self.proposal, moments.mean, moments.covariance(), boundary, measured
        )
        return record

    def step(self) -> Sequence[tuple]:
        outcome = propose_cascade(
            self.target,
            self.proposal,
            self.incumbent,
            self.log_incumbent,
            self.config.dr_stage_count,
            self.streams.generator(self.chain.verbose_length),
        )
        return self.commit(outcome)

    def run(
        self, on_step: Optional[Callable[[Sequence[tuple]], None]] = None
    ) -> KernelSummary:
        """Step until the chain holds ``chain_length_target`` rows, handing
        the events of each step that has any to ``on_step``, and return the
        summary."""
        while self.chain.n_rows < self.config.chain_length_target:
            events = self.step()
            if events and on_step is not None:
                on_step(events)
        return self.summary()

    def _stamp_live(self) -> None:
        # the running columns of a row are its values when it is finalized
        self.chain.restamp_last(
            self.chain.n_rows / self.chain.verbose_length, self._burnin
        )

    def commit(self, outcome: StepOutcome) -> Sequence[tuple]:
        """Charge one cascade to the chain as one verbose step.

        A rejection only adds 1 to the chain's verbose length, and so to
        the live row's weight; away from a tick it produces no event and
        returns an empty tuple. An acceptance finalizes the live row (stamps
        its running columns; its final weight is the attempts made from
        it), then appends the accepted state, without a ChainRow,
        stamped with the process id the stream policy derives from that
        weight, makes it the incumbent and runs burn-in. At an adaptation
        boundary it folds the rows finalized since the previous one into the
        full moments and adapts. The stage tallies are read off the chain
        (``stage_tallies``), so a step counts nothing else.
        """
        state, log_func, stage, _ = outcome
        chain = self.chain
        if stage == REJECTED:
            chain.verbose_length += 1  # the live row's weight
            if chain.verbose_length % 1000:
                return ()
            events: List[tuple] = []
        else:
            finalized = chain.n_rows - 1
            weight = chain.weights.item(finalized)
            self._stamp_live()
            # the rate is stamped when the row is finalized
            chain.append(self.streams.process_id(weight), stage, 0.0,
                         self._pending_measure, self._burnin, 1, log_func, state)
            self.incumbent, self.log_incumbent = state, log_func
            self._pending_measure = 0.0
            events = [("row_final", finalized)]
            if log_func > self._run_max:
                self._run_max = log_func
                self._rescan_burnin()
            if chain.n_rows % self._period == 0:
                record = self._adapt_at(chain.n_rows)
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
        return KernelSummary.of(self.chain, self.config)

    # restart transport: plain structures; persist owns the exact encoding
    def state_dict(self) -> dict:
        """What the chain's rows cannot give back: the stream cursor (None
        for fork-join), the pending adaptation measure and the live row.
        The proposal and its adaptation count are not stored; load_state
        derives them."""
        return {
            "stream": self.streams.state_dict(),
            "pending_measure": self._pending_measure,
            # a fresh ChainRow: its fields, without a deep copy
            "live_row": vars(self.chain.row(self.chain.n_rows - 1)),
        }

    def load_state(self, state: dict) -> None:
        """Inverse of state_dict, on a kernel built with its initial proposal
        and the finalized rows: restore the stream and the pending measure,
        append the live row, and derive the rest from the rows as a run does,
        replaying every fold but only the last adaptation."""
        self.streams.load_state(state["stream"])
        self._pending_measure = float(state["pending_measure"])
        chain = self.chain
        chain.append_row(ChainRow(**state["live_row"]))
        self.incumbent = chain.last_state()
        self.log_incumbent = float(chain.log_funcs[-1])
        self._run_max = float(np.max(chain.log_funcs))
        self._rescan_burnin()
        # commit adapts at n_rows = k * period once n_rows >= 2
        boundaries = range(max(self._period, 2), chain.n_rows + 1, self._period)
        for boundary in boundaries[:-1]:
            self._fold(boundary)
        if boundaries:
            last = boundaries[-1]
            # the count the adaptations before the last one reached
            count = adaptation_count(last - 1, chain.dimension, self._period)
            self.proposal = replace(self.proposal, adaptation_count=count)
            # the snapshot holds the measure a run would have pending
            self._adapt_at(last, measured=False)


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

    def each_event(events: Sequence[tuple]) -> None:
        for event in events:
            on_event(event)

    summary = kern.run(each_event)
    on_event(("done", summary.chain.n_rows))
    return summary
