"""Sample refinement: autocorrelation estimation and two-phase decorrelation.

A chain mean's variance is inflated by the integrated autocorrelation time
(IAC); refinement thins the chain so that no measurable autocorrelation
remains, in two phases. Phase 1 walks the compact (unique-state) sequence,
phase 2 the weight-expanded verbose sequence. Each phase estimates the IAC
of every dimension with Sokal's windowed estimator and takes the largest,
since the sample must be decorrelated along each; it then keeps every
ceil(f * IAC)-th entry, once, unless the IAC is within two of Sokal's
standard errors of 1, the value of an independent series. The surviving
points form the refined sample written to the sample file.

Also here: the two-sample Kolmogorov-Smirnov test used to cross-compare
refined samples from independent chains, each at its effective size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
# imported with the module: numpy loads its fft module on first use, which
# would land in the first refinement's time and allocations
from numpy.fft import irfft, rfft

from .chain import CompactChain
from .errors import EmptySample, SeriesTooShort

__all__ = [
    "RefinementRound",
    "RefinedSample",
    "estimate_iac",
    "refine_two_phase",
    "ks_two_sample",
    "ConvergenceCheck",
    "cross_chain_check",
]

_MIN_POINTS = 8

# Sokal's automatic window: the autocorrelations are summed up to the
# smallest lag M with M >= _WINDOW * IAC(M)
_WINDOW = 5.0
# stride per unit of IAC. Thinning a sticky chain's unique states by
# ceil(IAC) leaves their lag-1 autocorrelation near 0.25, so phase 1 thins
# further; phase 2 sees the already thinned states repeated by weight. Larger
# factors discard points that the refined sample's mean needs (criterion 1)
_PHASE_1_FACTOR = 1.75
_PHASE_2_FACTOR = 1.25
# the cross-chain check's significance, before the Bonferroni correction
_CHECK_ALPHA = 0.01
# columns per FFT batch: at most this many points, so that a batch's
# transforms hold about as much memory as one column of a long chain's
_BATCH_POINTS = 2048


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n. numpy's FFTs fall back to Bluestein's
    algorithm, about ten times slower, at lengths with a large prime
    factor."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over the 3^b 5^c below best
        factor = odd
        while factor < best:
            # the least power-of-two multiple of factor that reaches n
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def _sokal_iac(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """IAC of each column of ``points`` (n, d), and the window M each was
    summed to.

    The autocovariances come from FFTs along axis 0 of the centred columns,
    zero-padded to at least twice their length so that no lag wraps around
    (to the next length of _fft_length), one batch of columns at a time;
    IAC(M) is 1 + 2 * sum of the autocorrelations at lags 1..M. The IAC is
    clamped below at 1; a constant column gives (1, 0) by convention.
    """
    n, d = points.shape
    iacs, windows = np.empty(d), np.empty(d, dtype=np.int64)
    width = max(1, _BATCH_POINTS // n)
    length = _fft_length(2 * n)
    for first in range(0, d, width):
        batch = points[:, first:first + width]
        spectrum = np.abs(rfft(batch - batch.mean(axis=0), length, axis=0))
        acov = irfft(spectrum * spectrum, length, axis=0)[:n]
        with np.errstate(divide="ignore", invalid="ignore"):  # constant columns
            iac = 2.0 * np.cumsum(acov / acov[0], axis=0) - 1.0
        wide = np.arange(n)[:, None] >= _WINDOW * iac
        window = np.where(wide.any(axis=0), wide.argmax(axis=0), n - 1)
        windows[first:first + width] = window
        iacs[first:first + width] = np.maximum(1.0, iac[window, np.arange(window.size)])
        del spectrum, acov, iac, wide  # before the next batch's are made
    constant = points.min(axis=0) == points.max(axis=0)
    iacs[constant], windows[constant] = 1.0, 0
    return iacs, windows


def estimate_iac(
    series: Sequence[float], weights: Optional[Sequence[int]] = None
) -> float:
    """Integrated autocorrelation of a (possibly weighted) scalar series.

    Sokal's estimator: FFT autocorrelation summed to the smallest window M
    with M >= 5 * IAC(M). Weights expand the series first. Clamped below at
    1; a constant series returns 1 by convention.
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
    if x.size < _MIN_POINTS:
        raise SeriesTooShort(
            "need at least %d points, got %d" % (_MIN_POINTS, x.size)
        )
    return float(_sokal_iac(x[:, None])[0][0])


def _thinning_stride(
    points: np.ndarray, factor: float
) -> Tuple[float, Optional[int]]:
    """The largest IAC over the dimensions, and the stride to thin by, or
    None when that IAC is within noise of 1.

    Sokal's standard error of the estimate is IAC * sqrt((4M + 2) / n);
    under independence (IAC 1) an estimate above 1 + 2 * sqrt((4M + 2) / n)
    is unlikely, with M the window of the dimension that sets the IAC.
    """
    n = points.shape[0]
    iacs, windows = _sokal_iac(points)
    worst = int(np.argmax(iacs))
    iac = float(iacs[worst])
    if iac <= 1.0 + 2.0 * math.sqrt((4 * int(windows[worst]) + 2) / n):
        return iac, None
    return iac, math.ceil(factor * iac)


@dataclass(frozen=True)
class RefinementRound:
    """One executed thinning pass; each phase makes at most one.

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
    expands the survivors to verbose form and thins points. A phase with
    fewer than 8 points, or with no autocorrelation above estimator noise,
    keeps everything.
    """
    if chain.n_rows == 0:
        raise SeriesTooShort("cannot refine an empty chain")
    burnin = int(chain.burnin_locations[chain.n_rows - 1])
    weights = chain.weights
    ends = chain.verbose_starts + weights
    first = int(np.searchsorted(ends, burnin, side="right"))
    kept_states = chain.states[first:]
    kept_logf = chain.log_funcs[first:]
    kept_weights = weights[first:].copy()
    kept_weights[0] = int(ends[first]) - burnin
    if int(kept_weights.sum()) < _MIN_POINTS:
        raise SeriesTooShort(
            "only %d post-burn-in states, need %d"
            % (int(kept_weights.sum()), _MIN_POINTS)
        )
    rounds: List[RefinementRound] = []

    # phase 1: unique states, unweighted; weights survive the thinning
    if kept_states.shape[0] >= _MIN_POINTS:
        iac, stride = _thinning_stride(kept_states, _PHASE_1_FACTOR)
        if stride is not None:
            kept_states = kept_states[::stride]
            kept_logf = kept_logf[::stride]
            kept_weights = kept_weights[::stride]
            rounds.append(RefinementRound(1, iac, int(kept_weights.sum())))

    # phase 2: verbose expansion
    points = np.repeat(kept_states, kept_weights, axis=0)
    log_funcs = np.repeat(kept_logf, kept_weights)
    if points.shape[0] > 1 and np.all(points == points[0]):
        # repeats of a single state carry one point of information, not many
        points = points[:1]
        log_funcs = log_funcs[:1]
    if points.shape[0] >= _MIN_POINTS:
        iac, stride = _thinning_stride(points, _PHASE_2_FACTOR)
        if stride is not None:
            points = points[::stride]
            log_funcs = log_funcs[::stride]
            rounds.append(RefinementRound(2, iac, int(points.shape[0])))

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
    a: Sequence[float], b: Sequence[float], iac_a: float = 1.0, iac_b: float = 1.0
) -> Tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the largest gap between the two empirical CDFs; the p-value uses the
    asymptotic Kolmogorov tail at lambda = sqrt(ma*mb/(ma+mb)) * D, with the
    effective sizes m = n / IAC of samples whose points are autocorrelated
    (IAC 1, the default, for independent points).
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
    ma, mb = na / iac_a, nb / iac_b
    p_value = _kolmogorov_sf(math.sqrt(ma * mb / (ma + mb)) * statistic)
    return statistic, p_value


@dataclass(frozen=True)
class ConvergenceCheck:
    """Pairwise per-dimension KS comparison across refined chains.

    Bonferroni-corrected at significance alpha across pairs x dimensions.
    Refined points keep some autocorrelation, so each chain's sample counts
    at its effective size n / IAC per dimension. A failure is evidence
    worth reporting, never fatal to the run.
    """

    entries: Tuple[Tuple[int, int, int, float, float], ...]  # (i, j, dim, D, p)
    alpha: float
    corrected_alpha: float

    @property
    def all_pass(self) -> bool:
        return all(p > self.corrected_alpha for (_, _, _, _, p) in self.entries)


def cross_chain_check(refined: Sequence[RefinedSample]) -> ConvergenceCheck:
    alpha = _CHECK_ALPHA
    if len(refined) < 2:
        return ConvergenceCheck(entries=(), alpha=alpha, corrected_alpha=alpha)
    dimension = refined[0].dimension
    n_pairs = len(refined) * (len(refined) - 1) // 2
    corrected = alpha / (n_pairs * dimension)
    iacs = [_sokal_iac(r.points)[0] for r in refined]
    entries = []
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            for dim in range(dimension):
                stat, p = ks_two_sample(
                    refined[i].points[:, dim], refined[j].points[:, dim],
                    iacs[i][dim], iacs[j][dim],
                )
                entries.append((i, j, dim, stat, p))
    return ConvergenceCheck(
        entries=tuple(entries), alpha=alpha, corrected_alpha=corrected
    )
