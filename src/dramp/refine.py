"""Sample refinement: autocorrelation estimation and recursive decorrelation.

A chain mean's variance is inflated by the integrated autocorrelation (IAC);
refinement thins the chain until no measurable autocorrelation remains, in
two phases. Phase 1 walks the compact (unique-state) sequence, phase 2 the
weight-expanded verbose sequence; each phase repeatedly drops all but every
ceil(IAC)-th entry until the estimate falls under a noise threshold. The IAC
is the largest of estimate_iac over the dimensions, since the sample must be
decorrelated along each. The surviving points form the refined sample
written to the sample file.

Also here: the two-sample Kolmogorov-Smirnov test used to cross-compare
refined samples from independent chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .chain import CompactChain
from .errors import EmptySample, SeriesTooShort

__all__ = [
    "STOP_TOLERANCE",
    "RefinementRound",
    "RefinedSample",
    "estimate_iac",
    "refine_two_phase",
    "ks_two_sample",
    "ConvergenceCheck",
    "cross_chain_check",
]

# fixed part of the stop threshold; the noise floors below widen it when the
# series is short enough that the estimators cannot resolve a gap this small
STOP_TOLERANCE = 0.05

_MIN_POINTS = 8

# the batch-means estimate has relative std ~ sqrt(2 m / n); taking the max
# over dimensions inflates it further, so the trigger needs this much margin
_BATCH_NOISE_COEFF = 4.0
# sample lag-1 autocorrelation of a clean series has std ~ 1/sqrt(n); the
# max over d dimensions shifts the null up by roughly a log term
_LAG1_NOISE_COEFF = 1.5
_LAG1_DIM_COEFF = 0.6


def _icbrt(n: int) -> int:
    """Exact integer cube root (floor). Float powers alone misround near cubes."""
    c = int(round(n ** (1.0 / 3.0)))
    while c > 1 and c * c * c > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def _batch_iac(series: np.ndarray, batch_size: int, series_var: float) -> float:
    nb = series.size // batch_size
    means = series[: nb * batch_size].reshape(nb, batch_size).mean(axis=1)
    return batch_size * float(np.var(means)) / series_var


def estimate_iac(
    series: Sequence[float], weights: Optional[Sequence[int]] = None
) -> float:
    """Integrated autocorrelation of a (possibly weighted) scalar series.

    Batch-means estimator: IAC = m * Var(batch means) / Var(series) with
    population normalization. The batch size starts at floor(n^(1/3)) and is
    enlarged toward ten times the current estimate (capped so that at least
    eight batches remain) until it stops moving; without the enlargement,
    batches shorter than the correlation length truncate the estimate badly.
    Clamped below at 1; a constant series returns 1 by convention.
    """
    x = np.asarray(series, dtype=float)
    if weights is not None:
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != x.shape:
            raise SeriesTooShort(
                "weights length %d does not match series length %d"
                % (w.size, x.size)
            )
        x = np.repeat(x, w)
    n = x.size
    if n < _MIN_POINTS:
        raise SeriesTooShort(
            "need at least %d points, got %d" % (_MIN_POINTS, n)
        )
    series_var = float(np.var(x))
    if series_var <= 0.0:
        return 1.0
    m = max(1, _icbrt(n))
    est = _batch_iac(x, m, series_var)
    for _ in range(8):
        m_new = min(max(math.ceil(10.0 * est), m), max(m, n // 8))
        if m_new == m:
            break
        m = m_new
        est = _batch_iac(x, m, series_var)
    return max(1.0, est)


def _max_lag1(points: np.ndarray) -> float:
    """Largest per-dimension lag-1 autocorrelation (signed; population norm)."""
    n = points.shape[0]
    if n < 2:
        return 0.0
    centered = points - points.mean(axis=0)
    var = np.einsum("ij,ij->j", centered, centered)
    cov = np.einsum("ij,ij->j", centered[:-1], centered[1:])
    safe = var > 0.0
    if not np.any(safe):
        return 0.0
    return float(np.max(cov[safe] / var[safe]))


def _thinning_stride(points: np.ndarray, aggregate: float) -> Optional[int]:
    """Stride for the next thinning pass, or None once nothing is detectable.

    A fixed stop tolerance shreds short series: the batch estimate is clamped
    at 1 and its max over dimensions then sits persistently above any small
    fixed threshold, so each pass would halve the sample until almost nothing
    is left. Both triggers therefore widen with the noise of the statistic
    they test. The batch trigger handles long-range correlation and sets the
    stride from its estimate; the lag-1 screen is the sharp one once the
    series is nearly clean, and what it detects is short-range by nature, so
    it only ever asks for a halving.
    """
    n = points.shape[0]
    m_seed = max(1, _icbrt(n))
    # batch size the estimator settles at (its growth rule, reconstructed)
    m_eff = min(max(m_seed, math.ceil(10.0 * aggregate)), max(m_seed, n // 8))
    batch_floor = _BATCH_NOISE_COEFF * math.sqrt(2.0 * m_eff / n)
    if aggregate > 1.0 + max(STOP_TOLERANCE, batch_floor):
        return max(2, math.ceil(aggregate))
    z = _LAG1_NOISE_COEFF + _LAG1_DIM_COEFF * math.log(points.shape[1])
    lag_floor = max(STOP_TOLERANCE, z / math.sqrt(n))
    if _max_lag1(points) > lag_floor:
        return 2
    return None


@dataclass(frozen=True)
class RefinementRound:
    """One executed thinning pass.

    kept_count is in verbose units in both phases: surviving total weight for
    phase 1, surviving point count for phase 2. That makes the sequence
    strictly decreasing across the phase boundary as well.
    """

    phase: int
    iac_aggregate: float
    kept_count: int


@dataclass(frozen=True)
class RefinedSample:
    dimension: int
    points: np.ndarray
    log_funcs: np.ndarray
    source_verbose_length: int
    rounds: Tuple[RefinementRound, ...]


def refine_two_phase(chain: CompactChain) -> RefinedSample:
    """Decorrelate a chain into the final refined sample.

    Pre-burn-in states (verbose index below the chain's last running burn-in
    estimate) are dropped first. Phase 1 measures the IAC of the unique-state
    sequence and thins compact rows, weights riding along untouched; phase 2
    expands the survivors to verbose form and thins points. Each phase stops
    once no autocorrelation is detectable above estimator noise or fewer
    than 8 points remain.
    """
    if chain.n_rows == 0:
        raise SeriesTooShort("cannot refine an empty chain")
    burnin = int(chain.burnin_locations[chain.n_rows - 1])
    starts = chain.verbose_starts
    weights = chain.weights.astype(np.int64).copy()
    ends = starts + weights
    first = int(np.searchsorted(ends, burnin, side="right"))
    kept_states = chain.states[first:].copy()
    kept_logf = chain.log_funcs[first:].copy()
    kept_weights = weights[first:].copy()
    kept_weights[0] = int(ends[first]) - burnin
    if int(kept_weights.sum()) < _MIN_POINTS:
        raise SeriesTooShort(
            "only %d post-burn-in states, need %d"
            % (int(kept_weights.sum()), _MIN_POINTS)
        )
    rounds: List[RefinementRound] = []

    # phase 1: unique states, unweighted; weights survive the thinning
    while kept_states.shape[0] >= _MIN_POINTS:
        iac = max(estimate_iac(column) for column in kept_states.T)
        stride = _thinning_stride(kept_states, iac)
        if stride is None:
            break
        kept_states = kept_states[::stride]
        kept_logf = kept_logf[::stride]
        kept_weights = kept_weights[::stride]
        rounds.append(
            RefinementRound(
                phase=1,
                iac_aggregate=iac,
                kept_count=int(kept_weights.sum()),
            )
        )

    # phase 2: verbose expansion
    points = np.repeat(kept_states, kept_weights, axis=0)
    log_funcs = np.repeat(kept_logf, kept_weights)
    if points.shape[0] > 1 and np.all(points == points[0]):
        # repeats of a single state carry one point of information, not many
        points = points[:1]
        log_funcs = log_funcs[:1]
    while points.shape[0] >= _MIN_POINTS:
        iac = max(estimate_iac(column) for column in points.T)
        stride = _thinning_stride(points, iac)
        if stride is None:
            break
        points = points[::stride]
        log_funcs = log_funcs[::stride]
        rounds.append(
            RefinementRound(
                phase=2,
                iac_aggregate=iac,
                kept_count=int(points.shape[0]),
            )
        )

    return RefinedSample(
        dimension=chain.dimension,
        points=points,
        log_funcs=log_funcs,
        source_verbose_length=chain.verbose_length,
        rounds=tuple(rounds),
    )


def _kolmogorov_sf(lam: float) -> float:
    """Tail of the Kolmogorov distribution: 2 sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam < 0.05:
        return 1.0  # series needs many terms there and the answer is 1 anyway
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += -term if j % 2 == 0 else term
        if term < 1e-12:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the largest gap between the two empirical CDFs; the p-value uses the
    asymptotic Kolmogorov tail at lambda = sqrt(na*nb/(na+nb)) * D.
    """
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    na, nb = xa.size, xb.size
    if na == 0 or nb == 0:
        raise EmptySample("both samples must be non-empty")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / na
    cdf_b = np.searchsorted(xb, grid, side="right") / nb
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(na * nb / (na + nb))
    p_value = _kolmogorov_sf(effective * statistic)
    return statistic, p_value


@dataclass(frozen=True)
class ConvergenceCheck:
    """Pairwise per-dimension KS comparison across refined chains.

    Bonferroni-corrected at significance alpha across pairs x dimensions.
    A failure is evidence worth reporting, never fatal to the run.
    """

    entries: Tuple[Tuple[int, int, int, float, float], ...]  # (i, j, dim, D, p)
    alpha: float
    corrected_alpha: float

    @property
    def all_pass(self) -> bool:
        return all(p > self.corrected_alpha for (_, _, _, _, p) in self.entries)

    @property
    def failures(self) -> Tuple[Tuple[int, int, int, float, float], ...]:
        return tuple(
            e for e in self.entries if e[4] <= self.corrected_alpha
        )


def cross_chain_check(
    refined: Sequence[RefinedSample], alpha: float = 0.01
) -> ConvergenceCheck:
    if len(refined) < 2:
        return ConvergenceCheck(entries=(), alpha=alpha, corrected_alpha=alpha)
    dimension = refined[0].dimension
    n_pairs = len(refined) * (len(refined) - 1) // 2
    corrected = alpha / (n_pairs * dimension)
    entries = []
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            for dim in range(dimension):
                stat, p = ks_two_sample(
                    refined[i].points[:, dim], refined[j].points[:, dim]
                )
                entries.append((i, j, dim, stat, p))
    return ConvergenceCheck(
        entries=tuple(entries), alpha=alpha, corrected_alpha=corrected
    )
