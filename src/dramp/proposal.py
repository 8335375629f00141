"""Adaptive Gaussian random-walk proposal.

The proposal is N(center, (scale_factor * stage_scale)^2 * covariance) where
``covariance`` is a shape matrix re-estimated from chain history and the
center is always the current chain state. Delayed-rejection stages reuse the
shape with progressively smaller stage scales.

Successive shapes are compared through an upper bound on the total variation
distance between the two equal-mean Gaussians, derived from the Bhattacharyya
coefficient: d_TV <= sqrt(1 - BC^2). The bound lives in [0, 1], is 0 exactly
for identical proposals, and tends to 1 as the shapes diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadDimension,
    DimensionMismatch,
    NotPositiveDefinite,
    StageOutOfRange,
)

__all__ = [
    "ProposalState",
    "AdaptationRecord",
    "sample_candidate",
    "log_kernel_density",
    "effective_covariance",
    "adapt",
    "adaptation_measure",
    "default_scale_factor",
    "default_dr_scales",
]


def default_scale_factor(dimension: int) -> float:
    # Gelman-Roberts-Gilks optimal random-walk scaling
    return 2.38 / np.sqrt(dimension)


def default_dr_scales(stage_count: int) -> Tuple[float, ...]:
    return tuple(0.5 ** k for k in range(1, stage_count + 1))


def _factor(covariance: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; rejects asymmetric or non-SPD input."""
    scale = np.max(np.abs(covariance))
    if scale > 0.0:
        asym = np.max(np.abs(covariance - covariance.T))
        if asym > 1e-12 * scale:
            raise NotPositiveDefinite(
                "covariance asymmetric: max|C - C'| = %g" % asym
            )
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance failed factorization") from exc


@dataclass(frozen=True, eq=False)
class ProposalState:
    """Immutable proposal configuration.

    ``covariance`` is the adapted shape matrix; the density actually proposed
    at stage k has covariance (scale_factor * s_k)^2 * covariance with s_0 = 1
    and s_k = dr_scales[k-1] for k >= 1. ``chol_factor`` is the cached lower
    Cholesky factor of the shape matrix.
    """

    dimension: int
    covariance: np.ndarray
    chol_factor: np.ndarray
    scale_factor: float
    dr_scales: Tuple[float, ...]
    adaptation_count: int = 0

    @classmethod
    def create(
        cls,
        dimension: int,
        covariance: Optional[Sequence] = None,
        scale_factor: Optional[float] = None,
        dr_scales: Optional[Sequence[float]] = None,
    ) -> "ProposalState":
        if dimension < 1:
            raise BadDimension("dimension must be >= 1, got %d" % dimension)
        if covariance is None:
            cov = np.eye(dimension)
        else:
            cov = np.atleast_2d(np.asarray(covariance, dtype=float)).copy()
            if cov.shape != (dimension, dimension):
                raise DimensionMismatch(
                    "covariance has shape %r, expected (%d, %d)"
                    % (cov.shape, dimension, dimension)
                )
        if scale_factor is None:
            scale_factor = default_scale_factor(dimension)
        if scale_factor <= 0.0:
            raise ValueError("scale_factor must be positive, got %g" % scale_factor)
        if dr_scales is None:
            dr_scales = default_dr_scales(1)
        dr_scales = tuple(float(s) for s in dr_scales)
        prev = 1.0
        for s in dr_scales:
            # each stage must narrow the one before it (stage 0 scale is 1)
            if not 0.0 < s < prev:
                raise ValueError(
                    "dr_scales must be strictly decreasing within (0, 1), got %r"
                    % (dr_scales,)
                )
            prev = s
        return cls(
            dimension=dimension,
            covariance=cov,
            chol_factor=_factor(cov),
            scale_factor=float(scale_factor),
            dr_scales=dr_scales,
            adaptation_count=0,
        )

    def stage_scale(self, stage: int) -> float:
        if stage == 0:
            return self.scale_factor
        if not 1 <= stage <= len(self.dr_scales):
            raise StageOutOfRange(
                "stage %d outside [0, %d]" % (stage, len(self.dr_scales))
            )
        return self.scale_factor * self.dr_scales[stage - 1]


@dataclass(frozen=True)
class AdaptationRecord:
    """One adaptation event: the TVD bound and where in the chain it fired."""

    measure: float
    at_chain_length: int


def sample_candidate(
    state: ProposalState,
    center: np.ndarray,
    stage: int,
    random_stream: np.random.Generator,
) -> np.ndarray:
    """Draw one candidate for the given DR stage.

    Consumes exactly ``state.dimension`` standard normals from the stream, no
    matter the stage. Restart replay depends on that budget.
    """
    if stage < 0 or stage > len(state.dr_scales):
        raise StageOutOfRange(
            "stage %d outside [0, %d]" % (stage, len(state.dr_scales))
        )
    if len(center) != state.dimension:
        raise DimensionMismatch(
            "center length %d, proposal dimension %d"
            % (len(center), state.dimension)
        )
    z = random_stream.standard_normal(state.dimension)
    return center + state.stage_scale(stage) * (state.chol_factor @ z)


def log_kernel_density(
    state: ProposalState, center: np.ndarray, point: np.ndarray, stage: int
) -> float:
    """Log-density of the stage's proposal kernel at ``point`` given ``center``.

    Needed by the delayed-rejection acceptance ratio, where the first-stage
    kernel is evaluated at two different displacements.
    """
    s = state.stage_scale(stage)
    d = state.dimension
    delta = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    z = np.linalg.solve(state.chol_factor, delta)
    log_det_half = float(np.sum(np.log(np.diag(state.chol_factor))))
    return (
        -0.5 * d * np.log(2.0 * np.pi)
        - d * np.log(s)
        - log_det_half
        - 0.5 * float(z @ z) / (s * s)
    )


def effective_covariance(state: ProposalState, stage: int = 0) -> np.ndarray:
    """Covariance of the density actually proposed at ``stage``."""
    s = state.stage_scale(stage)
    return (s * s) * state.covariance


def adapt(
    state: ProposalState,
    running_mean: np.ndarray,
    running_cov: np.ndarray,
    chain_length: int,
    measured: bool = True,
) -> Tuple[ProposalState, AdaptationRecord]:
    """Re-estimate the proposal shape from running chain moments.

    The new shape is the weighted chain covariance plus a small ridge
    (1e-10 * trace / d on the diagonal) that keeps the factorization alive for
    highly correlated targets. Chains shorter than d+1 states cannot support a
    covariance estimate; the call is then a no-op with measure 0.

    ``running_mean`` is accepted for interface completeness but does not enter
    the update: proposals are re-centered at the current state every step, so
    only shape and scale matter, here and in the adaptation measure. With
    ``measured`` false the record's measure is NaN and its three
    log-determinants are skipped, for a caller that only rebuilds the shape.
    """
    d = state.dimension
    if chain_length < d + 1:
        return state, AdaptationRecord(measure=0.0, at_chain_length=chain_length)
    cov = np.asarray(running_cov, dtype=float)
    if cov.shape != (d, d):
        raise DimensionMismatch(
            "running covariance has shape %r, expected (%d, %d)" % (cov.shape, d, d)
        )
    ridge = 1e-10 * float(np.trace(cov)) / d
    shape = cov + ridge * np.eye(d)
    new_state = replace(
        state,
        covariance=shape,
        chol_factor=_factor(shape),
        adaptation_count=state.adaptation_count + 1,
    )
    measure = adaptation_measure(state, new_state) if measured else float("nan")
    return new_state, AdaptationRecord(measure=measure, at_chain_length=chain_length)


def _log_det_spd(matrix: np.ndarray) -> float:
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix failed factorization") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def adaptation_measure(old: ProposalState, new: ProposalState) -> float:
    """Upper bound on the TVD between two successive proposal distributions.

    Both proposals are centered at the same (current) state, so the bound
    compares the equal-mean Gaussians N(0, S1) and N(0, S2) with S_i the
    effective stage-0 covariances. BC = exp(-D_B) with
    D_B = (1/2) ln( det((S1+S2)/2) / sqrt(det S1 det S2) ), and the returned
    bound is sqrt(1 - BC^2).
    """
    if old.dimension != new.dimension:
        raise DimensionMismatch(
            "dimensions differ: %d vs %d" % (old.dimension, new.dimension)
        )
    # identity must give 0.0 exactly; floating-point log-dets can miss by 1 ulp
    if old.scale_factor == new.scale_factor and np.array_equal(
        old.covariance, new.covariance
    ):
        return 0.0
    s1 = effective_covariance(old)
    s2 = effective_covariance(new)
    log_bc = 0.25 * (_log_det_spd(s1) + _log_det_spd(s2)) - 0.5 * _log_det_spd(
        (s1 + s2) / 2.0
    )
    return float(np.sqrt(max(0.0, 1.0 - np.exp(2.0 * log_bc))))
