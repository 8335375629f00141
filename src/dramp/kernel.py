"""The sampling kernel and the one run loop every execution mode shares.

A Kernel owns one chain. Each step is one proposal attempt: a full cascade
against the incumbent x, drawn next from the chain's one PCG64 stream
(rng.chain_stream) and charged as one verbose step. A rejection adds 1 to
x's weight and nothing else; an acceptance finalizes x's row and appends the
new state. Every mode draws its attempts in order from that stream; the
worker count changes only the process id a row is stamped with, so workers
that pre-fetch attempts write the serial chain at any worker count
(Brockwell 2006). Kernel.run is the only loop that steps a chain;
run_kernel, the parallel runners and the driver all go through it. What a
finished chain adapted to is read back off its rows (Kernel.adaptations),
with no target evaluation.

Within a cascade, stage 0 accepts iff ln u < log pi(y) - log pi(x), with
ln 0 = -inf. A rejection at stage k falls through to stage k+1 with a
narrower proposal, up to the configured stage count. Delayed-rejection
acceptance (Tierney & Mira 1999; Haario et al. 2006) works in whitened
coordinates. Candidate m is y_m = x + s_{m-1} L z_m (L the Cholesky factor of
the proposal shape, s_j the stage-j scale, z_m the stage's standard-normal
draw), so L^-1 (y_a - y_b) = s_{a-1} z_a - s_{b-1} z_b. Every proposal kernel
in an acceptance ratio is a squared norm of offsets the cascade already
holds, and the Gaussian normalizing constants cancel: the step path has no
linear solve and no log-determinant. The ratio also needs the acceptance
probabilities of subpaths, each a contiguous index range walked forwards or
backwards, so a cascade has O(k^2) of them. Each cascade keeps a table of
the squared distances ||w_a - w_b||^2 (w_0 = 0, w_m = s_{m-1} z_m), in
Python floats from the block's dot products, and one memo of log(1 - alpha)
by subpath (first, last), each computed once; a stage that rejects stores
its own path's, which the next stage's ratio reuses. The last stage stores
nothing, so it first tests ln u against an upper bound of its ratio, the
early rejection of Solonen et al. 2012: dr_log_alpha's loop without the
numerator's log(1 - alpha) terms of reversed subpaths, each <= 0. IEEE
rounding is monotone, so the bound is never below the ratio as computed,
and ln u at or above it rejects where the full ratio would; only the rest
form the full ratio. Every decision, and so every byte, is unchanged.

The step path is bound by per-call overhead, not arithmetic. So the draws
come in blocks (BlockDraws): one refill draws BLOCK rows of d standard
normals, then BLOCK uniforms, and L z for the whole block is one product,
normals.dot(L^T). That product times the stage-s scale is kept as one
(BLOCK, d) array per stage the cascades run, all made again only when the
block or the proposal is not the one they were made with (after a refill,
an adaptation or a seek). A stage takes one row of its stage's array, added
to the incumbent, and one uniform. The DR table's dot products z_a . z_b
are made per block too, only when the cascades have retries: one np.vecdot
per lag b - a over the block's rows (BlockDraws.band), whose rows have the
bits of ndarray.dot of each pair. The target's products (the banana's
remaining coordinates, the mvn target's whitening) use ndarray.dot, about
half the cost of @ at small d; on C-contiguous float64 operands both reach
the same BLAS routine and give the same bits. Adaptation, moments and
refinement keep @.
Kernel.run reads a run's invariants once and calls
propose_cascade(target, proposal, incumbent, log_incumbent, draws) itself;
the cascade returns a plain tuple and runs the stages its BlockDraws was
built for, the one source of the stage count. A rejection that ends no tick
only adds 1 to the verbose length there; every other outcome is committed.

The target is evaluated in propose_cascade only: a NaN log-density counts as
-inf (outside the support), and +inf raises NonFiniteTarget naming the point.

RNG budget contract: stage k of a chain's run, counted over every cascade
and every stage, takes normal row k mod BLOCK and uniform k mod BLOCK of the
chain's (k div BLOCK)-th block, whether or not the outcome is already
decided. So the stream's use is a pure function of the event sequence, and
a resume restores it from the stream's state before the pending block and
the rows taken of it: it draws that block again and skips to the offset.
The BLAS rounds a product's rows differently for different row ranges, so
L z is always made over the whole block, which gives a resumed run the bits
of the uninterrupted one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import rng as rng_mod
from .chain import ChainRow, CompactChain, WeightedMoments
from .errors import (
    DimensionMismatch,
    EmptyRange,
    NonFiniteStart,
    CorruptRestart,
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
    "BLOCK",
    "BlockDraws",
    "KernelConfig",
    "KernelSummary",
    "extend_distances",
    "dr_log_alpha",
    "propose_cascade",
    "burnin_location",
    "stage_tallies",
    "adaptation_count",
    "Kernel",
    "run_kernel",
]

REJECTED = -1

TICK_STEPS = 1000  # a progress tick ends every this many verbose steps

BLOCK = 64  # cascade stages drawn per refill of a chain's BlockDraws

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


def _log1mexp(a: float) -> float:
    """log(1 - exp(a)) for a <= 0."""
    if a >= 0.0:
        return NEG_INF
    if a > -0.6931471805599453:
        return math.log(-math.expm1(a))
    return math.log1p(-math.exp(a))


def extend_distances(dists: list, scales, band, r: int) -> None:
    """Add candidate m = len(dists), drawn at row ``r`` of its block for
    stage m - 1, to a cascade's table of squared whitened distances (started
    as [[0.0]], w_0 alone). A cascade's stages take consecutive rows, so
    candidate a was drawn at row r - (m - a), and with w_a = s_a z_a
    (s_a = scales[a-1]), dists[a][b] = ||w_a - w_b||^2 = s_a^2 g_aa +
    s_b^2 g_bb - 2 s_a s_b g_ab for g_ab = z_a . z_b = band[|a - b|][r]
    (BlockDraws), all Python floats."""
    m = len(dists)
    s_m = scales[m - 1]
    top = dists[0]  # row 0 holds s_a^2 g_aa
    own = s_m * s_m * band[0][r]
    top.append(own)
    row = [own]
    for a in range(1, m):
        dist = top[a] + own - 2.0 * scales[a - 1] * s_m * band[m - a][r]
        dists[a].append(dist)
        row.append(dist)
    row.append(0.0)
    dists.append(row)


def dr_log_alpha(
    log_funcs: Sequence[float],
    dists: Sequence[Sequence[float]],
    scales: Sequence[float],
    memo: Optional[dict] = None,
    first: int = 0,
    last: Optional[int] = None,
    bound: bool = False,
) -> float:
    """Log acceptance probability of the path y_first -> ... -> y_last.

    ``log_funcs[m]`` is the target log-density at y_m, where y_0 is the
    incumbent x and y_m = x + scales[m-1] * L @ z_m the candidate of stage
    m-1 (``scales[j]`` is the full stage-j scale); ``dists`` is the table
    extend_distances builds. The path's stage-j kernel is centered at its
    origin y_first; the final stage's kernel is symmetric and cancels, the
    earlier ones and the rejection probabilities of the forward prefixes and
    reversed suffixes remain. The path defaults to x followed by every
    candidate. ``memo`` holds log(1 - alpha) of subpaths longer than one
    step by (first, last); pass one dict for all stages of a cascade.

    With ``bound``, the numerator leaves out the reversed suffixes'
    log(1 - alpha) terms and stores none of them; the rest is the same
    operations in the same order. Each left-out term is <= 0 and IEEE
    rounding is monotone, so the result is never below the exact value:
    ln u at or above it rejects as the exact ratio would. The cascade uses
    it at its last stage only; an earlier stage's exact value is the next
    stage's memo entry.
    """
    if last is None:
        last = len(log_funcs) - 1
    log_num = log_funcs[last]
    if log_num == NEG_INF:
        return NEG_INF
    log_den = log_funcs[first]
    span = abs(last - first)
    if span > 1:
        step = 1 if last > first else -1
        to_first, to_last = dists[first], dists[last]
        fwd, rev = first + step, last - step
        variance = scales[0] * scales[0]
        log_den -= 0.5 * to_first[fwd] / variance
        log_num -= 0.5 * to_last[rev] / variance
        # the one-step subpaths; a -inf candidate adds log(1 - 0)
        if log_funcs[rev] != NEG_INF and not bound:
            log_num += _log1mexp(log_funcs[rev] - log_funcs[last])
        if log_funcs[fwd] != NEG_INF:
            log_den += _log1mexp(log_funcs[fwd] - log_funcs[first])
        if span > 2 and log_num != NEG_INF:
            if memo is None:
                memo = {}
            for j in range(1, span - 1):
                fwd += step
                rev -= step
                variance = scales[j] * scales[j]
                log_den -= 0.5 * to_first[fwd] / variance
                log_num -= 0.5 * to_last[rev] / variance
                if not bound:
                    back = memo.get((last, rev))
                    if back is None:
                        back = memo[last, rev] = _log1mexp(
                            dr_log_alpha(log_funcs, dists, scales, memo, last, rev))
                    log_num += back
                ahead = memo.get((first, fwd))
                if ahead is None:
                    ahead = memo[first, fwd] = _log1mexp(
                        dr_log_alpha(log_funcs, dists, scales, memo, first, fwd))
                log_den += ahead
                if log_num == NEG_INF:
                    break
    # a zero-probability forward path (log_den = -inf) gives min(0, +inf) = 0
    return NEG_INF if log_num == NEG_INF else min(0.0, log_num - log_den)


class BlockDraws:
    """A chain's PCG64 stream, drawn BLOCK cascade stages at a time.

    A refill draws standard_normal((BLOCK, d)), then random(BLOCK); the
    stage at ``offset`` takes that row of ``normals`` and of ``uniforms``,
    and stage s of a cascade that row of ``scaled[s]``, the block's L z
    times the stage-s scale of ``proposal``, the proposal it was made for.
    ``scaled`` holds stages 0..``stages``. Nothing is drawn before a stage
    asks, so a kernel built for a resume draws one block at most.

    With ``stages`` >= 1 a refill also makes the band of the DR table's
    products (extend_distances), the one place they are made: ``band[j][r]``
    = z_r . z_(r-j) for j = 0..``stages``, in Python floats, one np.vecdot
    per lag over the block's rows. Row r - j < 0 is row BLOCK + r - j of the
    previous block, so a cascade that runs past a refill reads its earlier
    stages' lags there. A block that seek draws again has no previous block,
    and zeros stand in for it, the same on every resume; no cascade reads
    them, since a snapshot falls between cascades.
    """

    __slots__ = ("generator", "dimension", "stop", "start", "normals",
                 "uniforms", "band", "scaled", "proposal", "offset")

    def __init__(self, generator: np.random.Generator, dimension: int, stages: int):
        self.generator = generator
        self.dimension = dimension
        self.stop = stages + 1
        self.start = None  # the stream's state before the pending block
        self.normals = self.uniforms = self.band = None
        self.scaled = self.proposal = None
        self.offset = BLOCK  # rows taken of the block; BLOCK: none pending

    def _refill(self) -> None:
        gen = self.generator
        self.start = gen.bit_generator.state
        previous = self.normals
        self.normals = normals = gen.standard_normal((BLOCK, self.dimension))
        self.uniforms = gen.random(BLOCK).tolist()
        lags = self.stop - 1
        if lags:
            before = (np.zeros((lags, self.dimension)) if previous is None
                      else previous[BLOCK - lags:])
            rows = np.concatenate((before, normals))
            # np.vecdot's rows have the bits of ndarray.dot of each pair
            self.band = [np.vecdot(normals, rows[lags - j:BLOCK + lags - j]).tolist()
                         for j in range(self.stop)]
        self.proposal = None
        self.offset = 0

    def ready(self, proposal: ProposalState) -> int:
        """The offset of the next stage's row, after a refill if the block
        is used up, and new scaled rows if the block's were made for
        another proposal. A proposal with fewer stage scales than the
        cascades run raises StageOutOfRange."""
        if self.offset == BLOCK:
            self._refill()
        if self.proposal is not proposal:
            if len(proposal.stage_scales) < self.stop:
                raise StageOutOfRange("stage %d outside [0, %d]" % (
                    self.stop - 1, len(proposal.stage_scales) - 1))
            # the one place L z is made; always over all BLOCK rows
            steps = self.normals.dot(proposal.chol_factor.T)
            self.scaled = [steps * s for s in proposal.stage_scales[:self.stop]]
            self.proposal = proposal
        return self.offset

    def position(self) -> Tuple[dict, int]:
        """(numpy's PCG64 state dict, rows taken): the state before the
        pending block and its offset, or the current state and 0 when no
        block is pending."""
        if self.offset < BLOCK:
            return self.start, self.offset
        return self.generator.bit_generator.state, 0

    def seek(self, state: dict, offset: int) -> None:
        """Inverse of position: restore the state and draw the pending
        block again, if any."""
        if not (type(offset) is int and 0 <= offset < BLOCK):
            raise CorruptRestart("block offset %r outside [0, %d)" % (offset, BLOCK))
        self.generator.bit_generator.state = state
        self.offset = BLOCK
        self.normals = None  # the sought block's lags reach no other block
        if offset:
            self._refill()
            self.offset = offset


def propose_cascade(
    target: TargetDensity,
    proposal: ProposalState,
    incumbent: np.ndarray,
    log_incumbent: float,
    draws: BlockDraws,
) -> Tuple[np.ndarray, float, int]:
    """Run one full proposal attempt: stage 0 plus up to the retries
    ``draws`` was built for (its ``stop`` stages in all). Returns (state,
    log_func, stage) of the accepted candidate, or the incumbent's with
    stage REJECTED.

    Pure with respect to everything but the chain's draws; shared verbatim
    by the serial kernel and the fork-join workers.
    """
    evaluate = target.evaluate
    scales = proposal.stage_scales
    k = draws.offset
    if k == BLOCK or draws.proposal is not proposal:
        k = draws.ready(proposal)
    scaled, uniforms, band = draws.scaled, draws.uniforms, draws.band
    last = draws.stop - 1
    for stage in range(draws.stop):
        if k == BLOCK:
            k = draws.ready(proposal)
            scaled, uniforms, band = draws.scaled, draws.uniforms, draws.band
        # the bits of incumbent + scales[stage] * L z: a product's elements
        # round alike in a (BLOCK, d) array and in one row, and + commutes
        candidate = scaled[stage][k] + incumbent
        u = uniforms[k]
        k += 1
        draws.offset = k
        log_candidate = float(evaluate(candidate))
        if log_candidate != log_candidate:
            log_candidate = NEG_INF  # NaN: outside the support
        elif log_candidate == INF:
            raise NonFiniteTarget(
                "target log-density is +inf at (%s)"
                % ", ".join("%.17g" % v for v in candidate)
            )
        # math.log per stage, not numpy's log over the block: numpy's SIMD
        # loops round differently on other CPUs
        lnu = math.log(u) if u > 0.0 else NEG_INF
        if stage == 0:
            if lnu < log_candidate - log_incumbent:
                return candidate, log_candidate, 0
            if last:
                # the retries' state exists only once stage 0 has rejected
                log_funcs = [log_incumbent, log_candidate]
                dists, memo = [[0.0]], {}
                extend_distances(dists, scales, band, k - 1)
        else:
            log_funcs.append(log_candidate)
            extend_distances(dists, scales, band, k - 1)
            # the last stage stores no memo entry, so an upper bound of its
            # ratio settles most of its rejections
            if stage == last and lnu >= dr_log_alpha(
                    log_funcs, dists, scales, memo, bound=True):
                break
            log_alpha = dr_log_alpha(log_funcs, dists, scales, memo)
            if lnu < log_alpha:
                return candidate, log_candidate, stage
            if stage < last:
                # the next stage's ratio reuses this path's rejection
                memo[0, stage + 1] = _log1mexp(log_alpha)
    return incumbent, log_incumbent, REJECTED


def burnin_location(
    log_funcs: Sequence[float], dimension: int, weights: Sequence[int]
) -> int:
    """First verbose index whose log-density clears max - dimension/2: the
    summed ``weights`` of the rows before the first row that does.

    The threshold is the typical-set log-density deficit of a d-dimensional
    Gaussian. Falls back to the index of the maximum, though the maximum
    itself always qualifies.
    """
    logf = np.asarray(log_funcs, dtype=float)
    if logf.size == 0:
        raise EmptyRange("burn-in location of an empty series")
    threshold = float(np.max(logf)) - dimension / 2.0
    hits = np.nonzero(logf >= threshold)[0]
    row = int(hits[0]) if hits.size else int(np.argmax(logf))
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
    """The stepping engine of every mode: one chain, one stream.

    Owns the chain, its PCG64 stream ``generator`` (rng.chain_stream of the
    config's seed and ``chain_index``) and the BlockDraws ``draws`` that
    reads it, the full moment accumulator, the
    adaptation schedule and the burn-in tracker. ``step()`` runs one cascade
    on that stream and commits it as one verbose step; it returns the
    bookkeeping events the step produced. ``run()`` steps until the chain is
    full and hands each step's events to a callback, so callers persist rows
    and snapshots between steps.

    ``workers`` P pre-fetch the attempts in rounds of P, in rank order, so
    the row accepted after w attempts from its predecessor was drawn by rank
    ((w - 1) mod P) + 1. Each row is stamped process id chain_index +
    ((w - 1) mod P) + 1 (the seed row has w = 1): chain i of a serial or
    multichain run (P = 1) stamps i + 1, a fork-join chain its drawing rank.

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
        chain_index: int = 0,
        workers: int = 1,
        chain: Optional[CompactChain] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
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
        self.chain_index = int(chain_index)
        self.workers = int(workers)
        self.generator = rng_mod.chain_stream(config.rng_seed, self.chain_index)
        d = target.dimension
        self.draws = BlockDraws(self.generator, d, config.dr_stage_count)
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
        with np.errstate(all="ignore"):  # a start far out may overflow
            log_start = float(target.evaluate(start))
        if not math.isfinite(log_start):
            raise NonFiniteStart("start: the %s target's log-density there is %g"
                                 % (target.name, log_start))
        self._run_max = log_start
        self.incumbent, self.log_incumbent = start, log_start
        self.chain.append_row(ChainRow(
            process_id=self.chain_index + 1, dr_stage=0,
            mean_acceptance_rate=1.0, adaptation_measure=0.0,
            burnin_location=0, weight=1, log_func=log_start, state=start,
        ))

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
        made = adaptation_count(boundary - 1, self.chain.dimension, self._period)
        if made < self.config.greedy_adaptation_count:
            # the accepted states, unweighted
            moments = WeightedMoments(self.chain.dimension)
            moments.update(states, np.ones(boundary))
        else:
            # every verbose step so far: the boundary's live row has made one
            moments = copy.copy(self._moments)
            moments.update(states[-1:], np.ones(1))
        self.proposal, record = adapt(
            self.proposal, moments.covariance(), boundary, measured
        )
        return record

    def step(self) -> Sequence[tuple]:
        return self.commit(propose_cascade(
            self.target, self.proposal, self.incumbent, self.log_incumbent,
            self.draws,
        ))

    def run(
        self, on_step: Optional[Callable[[Sequence[tuple]], None]] = None
    ) -> KernelSummary:
        """Step until the chain holds ``chain_length_target`` rows, handing
        the events of each step that has any to ``on_step``, and return the
        summary. A rejection that ends no tick is charged here, as commit
        would."""
        chain, length = self.chain, self.config.chain_length_target
        target, draws = self.target, self.draws
        cascade = propose_cascade  # looked up per run, so a patched one is used
        while chain.n_rows < length:
            outcome = cascade(target, self.proposal, self.incumbent,
                              self.log_incumbent, draws)
            if outcome[2] == REJECTED and (chain.verbose_length + 1) % TICK_STEPS:
                chain.verbose_length += 1  # the live row's weight
                continue
            events = self.commit(outcome)
            if events and on_step is not None:
                on_step(events)
        return self.summary()

    def commit(self, outcome: Tuple[np.ndarray, float, int]) -> Sequence[tuple]:
        """Charge one cascade to the chain as one verbose step.

        A rejection only adds 1 to the chain's verbose length, and so to
        the live row's weight; away from a tick it produces no event and
        returns an empty tuple. An acceptance finalizes the live row (stamps
        its running columns; its final weight is the attempts made from
        it), then appends the accepted state, without a ChainRow, stamped
        with the process id that weight gives (see Kernel), makes it the
        incumbent and runs burn-in. At an adaptation boundary it folds the
        rows finalized since the previous one into the full moments and
        adapts. The stage tallies are read off the chain
        (``stage_tallies``), so a step counts nothing else.
        """
        state, log_func, stage = outcome
        chain = self.chain
        if stage == REJECTED:
            chain.verbose_length += 1  # the live row's weight
            if chain.verbose_length % TICK_STEPS:
                return ()
            events: List[tuple] = []
        else:
            finalized = chain.n_rows - 1
            # the running columns of a row are its values when it is finalized
            weight = chain.restamp_last(chain.n_rows / chain.verbose_length,
                                        self._burnin)
            # the new row's rate is stamped when it is finalized
            chain.append(self.chain_index + (weight - 1) % self.workers + 1,
                         stage, 0.0, self._pending_measure, self._burnin, 1,
                         log_func, state)
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
        if chain.verbose_length % TICK_STEPS == 0:
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
        chain = self.chain  # the end of the run finalizes the last row
        chain.restamp_last(chain.n_rows / chain.verbose_length, self._burnin)
        return KernelSummary.of(self.chain, self.config)

    def state_dict(self) -> dict:
        """What the chain's rows cannot give back, as plain JSON values: the
        stream cursor (numpy's PCG64 state before the pending block of
        draws, and the rows taken of it; see BlockDraws.position), the
        pending adaptation measure and the live row. The proposal is not
        stored; load_state derives it."""
        # a fresh ChainRow: its fields, without a deep copy
        live = vars(self.chain.row(self.chain.n_rows - 1))
        live["state"] = live["state"].tolist()
        stream, offset = self.draws.position()
        return {
            "stream": stream,
            "block_offset": offset,
            "pending_measure": self._pending_measure,
            "live_row": live,
        }

    def _boundaries(self) -> range:
        # commit adapts at n_rows = k * period once n_rows >= 2
        return range(max(self._period, 2), self.chain.n_rows + 1, self._period)

    def adaptations(self) -> Iterator[Tuple[AdaptationRecord, ProposalState]]:
        """Replay the adaptations of a kernel built on a finished chain's
        rows, yielding each record and the proposal after it. The
        adaptation at b rows is a function of those b rows, so the
        proposals and measures are those the run made, bit for bit."""
        for boundary in self._boundaries():
            record = self._adapt_at(boundary)
            yield record, self.proposal

    def load_state(self, state: dict) -> None:
        """Inverse of state_dict, on a kernel built with its initial proposal
        and the finalized rows: restore the stream (drawing its pending
        block again) and the pending measure,
        append the live row, and derive the rest from the rows as a run does.
        Of the adaptations, only the last is made (unmeasured: the snapshot
        holds the pending measure); the earlier boundaries only fold."""
        self.draws.seek(state["stream"], state["block_offset"])
        self._pending_measure = float(state["pending_measure"])
        chain = self.chain
        chain.append_row(ChainRow(**state["live_row"]))
        self.incumbent = chain.last_state()
        self.log_incumbent = float(chain.log_funcs[-1])
        self._run_max = float(np.max(chain.log_funcs))
        self._rescan_burnin()
        boundaries = self._boundaries()
        for boundary in boundaries[:-1]:
            self._fold(boundary)
        if boundaries:
            self._adapt_at(boundaries[-1], measured=False)


def run_kernel(
    target: TargetDensity,
    config: KernelConfig,
    proposal: ProposalState,
    chain_index: int = 0,
    workers: int = 1,
) -> KernelSummary:
    """Run a full simulation of chain ``chain_index`` with ``workers``
    pre-fetching workers (see Kernel) and return its summary. To observe
    the events, call Kernel(...).run(on_step) instead."""
    return Kernel(target, config, proposal, chain_index, workers).run()
