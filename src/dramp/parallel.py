"""Simulated parallel execution.

Two modes, both deterministic and in-process, both stepped by Kernel.run:

Multi-chain: independent kernels; chain i runs on chain index i, so on its
own stream, and stamps process id i + 1. Finished chains are refined and
cross-compared pairwise for convergence evidence. One failure policy, the
driver's, holds for run_multichain and dramp run alike: a SamplerError from
any chain's kernel ends the run; a chain whose rows refinement refuses is
left out of the pooled sample and the comparison; and the comparison runs
only when at least two refined chains remain.

Fork-join: pre-fetching (Brockwell 2006). P workers draw the chain's next P
proposal attempts against the incumbent, one cascade each, in rank order;
the round commits the first acceptor, and each attempt before it is a
rejection that costs the incumbent one verbose step, as in the serial chain.
The attempts draw in order from the chain's one stream (see dramp.kernel),
so a run at any P writes the serial chain of its seed bit for bit in every
column but the process id, and in that column too at P = 1. The weights
record the rounds and ranks: a row of weight w was left after w attempts in
ceil(w / P) rounds, and rank ((w - 1) mod P) + 1 drew the next row, whose
process id that rank is. For a constant per-attempt acceptance probability
that rank follows a truncated geometric law, which the tally fit inverts and
which gives the closed-form speedup curve below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .chain import CompactChain
from .errors import DegenerateTally
from .kernel import KernelConfig, KernelSummary, run_kernel

# Kernel.run runs every cascade, so nothing here calls this; it stays
# importable here for tools that patch it by name.
from .kernel import propose_cascade  # noqa: F401
from .model import TargetDensity
from .proposal import ProposalState
from .refine import ConvergenceCheck, RefinedSample

__all__ = [
    "ContributionTally",
    "SpeedupReport",
    "MultiChainResult",
    "ForkJoinResult",
    "run_multichain",
    "run_forkjoin",
    "fit_geometric",
    "predict_speedup",
    "recommend_workers",
    "build_speedup_report",
    "measured_speedup",
    "run_speedup",
    "PREDICTION_GRID",
]

# powers of two reported in the speedup table
PREDICTION_GRID = tuple(2 ** k for k in range(13))  # 1 .. 4096

WORKER_CAP = 2 ** 16


@dataclass(frozen=True)
class ContributionTally:
    """Accepted states credited to each worker rank (1-based ranks)."""

    worker_count: int
    counts: Tuple[int, ...]

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if len(self.counts) != self.worker_count:
            raise ValueError(
                "%d counts for %d workers" % (len(self.counts), self.worker_count)
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_chain(cls, chain: CompactChain, worker_count: int) -> "ContributionTally":
        """Accepted rows per rank of a fork-join chain, from its process ids.

        Row 0 is the seed and belongs to no worker.
        """
        counts = np.bincount(chain.process_ids[1:], minlength=worker_count + 1)[1:]
        return cls(worker_count=worker_count, counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class SpeedupReport:
    fitted_acceptance_prob: float
    predicted_curve: Tuple[Tuple[int, float], ...]
    recommended_workers: int
    observed_speedup: Optional[float] = None


@dataclass(frozen=True)
class MultiChainResult:
    summaries: Tuple[KernelSummary, ...]
    refined: Tuple[Optional[RefinedSample], ...]
    check: Optional[ConvergenceCheck]


@dataclass(frozen=True)
class ForkJoinResult:
    summary: KernelSummary
    tally: ContributionTally
    speedup: SpeedupReport


def predict_speedup(p: float, worker_count: int) -> float:
    """Expected strong-scaling speedup of the round protocol at P workers.

    Serial needs 1/p proposal attempts per accepted state; P round-parallel
    workers need 1/(1 - (1-p)^P) rounds. The ratio (1 - (1-p)^P)/p is 1 at
    P=1, monotone in P, and saturates at 1/p.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1], got %g" % p)
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1, got %d" % worker_count)
    if p == 1.0 or worker_count == 1:
        return 1.0  # exact by definition; (1-(1-p))/p would round
    return (1.0 - (1.0 - p) ** worker_count) / p


def recommend_workers(p: float, efficiency_floor: float = 0.05) -> int:
    """Smallest P whose speedup reaches (1 - floor) of the 1/p saturation.

    Equivalent to (1-p)^P <= floor. Scanned upward (the curve is monotone)
    and capped at 2^16 for vanishing acceptance probabilities.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1], got %g" % p)
    if not 0.0 < efficiency_floor < 1.0:
        raise ValueError(
            "efficiency_floor must be in (0, 1), got %g" % efficiency_floor
        )
    miss = 1.0 - p
    q = miss
    workers = 1
    while q > efficiency_floor and workers < WORKER_CAP:
        workers += 1
        q *= miss
    return workers


def fit_geometric(tally: ContributionTally) -> float:
    """Maximum-likelihood acceptance probability from a contribution tally.

    Model: P(rank = r) proportional to p (1-p)^(r-1) on r in {1..P}. That
    law is an exponential family in log(1-p) with sufficient statistic r - 1,
    so for n ranks whose r - 1 sum to s the likelihood derivative has the
    sign of n E_p[r-1] - s, which falls with p: it changes sign once.
    Bisection of [1e-12, 1 - 1e-12] runs to adjacent floats and returns the
    lower one, where the derivative is still positive. All mass in rank 1
    means every round was won immediately: p = 1.
    """
    if tally.total < 1:
        raise DegenerateTally("tally holds no accepted states")
    counts = np.asarray(tally.counts, dtype=float)
    n = float(counts.sum())
    s = float(counts @ np.arange(tally.worker_count))  # sum of (rank-1) weights
    if s == 0.0:
        return 1.0
    lo, hi = 1e-12, 1.0 - 1e-12
    if _geometric_score(lo, n, s, tally.worker_count) <= 0.0:
        return lo  # heavier-than-uniform tail; boundary solution
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if _geometric_score(mid, n, s, tally.worker_count) > 0.0:
            lo = mid
        else:
            hi = mid


def _geometric_score(p: float, n: float, s: float, big_p: int) -> float:
    """Derivative in p of the truncated-geometric log-likelihood of n ranks
    whose (rank - 1) values sum to s."""
    # 1 - q^P via expm1/log1p: the naive form loses ~11 digits near p=0
    # and flips the sign of the boundary test
    q = 1.0 - p
    one_minus_q_pow = -math.expm1(big_p * math.log1p(-p))
    return n / p - s / q - n * big_p * q ** (big_p - 1) / one_minus_q_pow


def measured_speedup(chain: CompactChain, worker_count: int) -> Optional[float]:
    """Observed fork-join speedup: proposal attempts per round. Every row but
    the last was left after ``weight`` attempts in ceil(weight / P) rounds;
    None for a chain that never left its seed row."""
    rounds = int(np.sum(-(-chain.weights[:-1] // worker_count)))
    if rounds == 0:
        return None
    return (chain.verbose_length - 1) / rounds


def build_speedup_report(
    p_hat: float, observed_speedup: Optional[float] = None
) -> SpeedupReport:
    curve = tuple((big_p, predict_speedup(p_hat, big_p)) for big_p in PREDICTION_GRID)
    return SpeedupReport(
        fitted_acceptance_prob=p_hat,
        predicted_curve=curve,
        recommended_workers=recommend_workers(p_hat),
        observed_speedup=observed_speedup,
    )


def run_speedup(
    chains: List[CompactChain], mode: str, worker_count: int
) -> Tuple[Optional[ContributionTally], SpeedupReport]:
    """The speedup a run reports: for fork-join, the chain's contribution
    tally and a report of p-hat fitted to it (1.0 for an empty tally) and
    the observed speedup; otherwise no tally and the acceptance rate
    measured over the chains."""
    if mode == "forkjoin":
        chain = chains[0]
        tally = ContributionTally.from_chain(chain, worker_count)
        p_hat = fit_geometric(tally) if tally.total >= 1 else 1.0
        return tally, build_speedup_report(p_hat, measured_speedup(chain, worker_count))
    rows = sum(c.n_rows for c in chains)
    return None, build_speedup_report(rows / sum(c.verbose_length for c in chains))


def run_multichain(
    target: TargetDensity,
    config: KernelConfig,
    proposal: ProposalState,
    n_chains: int,
) -> MultiChainResult:
    """Run independent chains and cross-compare their refined samples.

    Chain i is run_kernel on chain index i and stamps process id i + 1, so
    the result is reproducible for a fixed (seed, n_chains) no matter how
    the work would be scheduled. The failure policy is the driver's: a
    SamplerError from any chain's kernel propagates, and refinement follows
    dramp.driver.refine_chains.
    """
    # the driver imports this module, so its rule is imported at call time
    from .driver import refine_chains

    if n_chains < 1:
        raise ValueError("n_chains must be >= 1, got %d" % n_chains)
    summaries = tuple(
        run_kernel(target, config, proposal, index) for index in range(n_chains)
    )
    refined, check = refine_chains([s.chain for s in summaries])
    return MultiChainResult(summaries=summaries, refined=refined, check=check)


def run_forkjoin(
    target: TargetDensity,
    config: KernelConfig,
    proposal: ProposalState,
    worker_count: int,
    on_event: Optional[Callable[[tuple], None]] = None,
) -> ForkJoinResult:
    """Build one chain with P pre-fetching workers.

    This is run_kernel with P workers on chain index 0: the stream,
    adaptation, burn-in tracking and chain accounting are the serial
    kernel's, and the chain is the serial chain at every P but for its
    process ids. ``on_event`` sees the kernel's events, then ("done", rows).
    """
    summary = run_kernel(target, config, proposal, 0, worker_count, on_event)
    tally, speedup = run_speedup([summary.chain], "forkjoin", worker_count)
    return ForkJoinResult(summary=summary, tally=tally, speedup=speedup)
