"""Target densities.

A target is anything that can report a log-density for a point in R^d.
User models are registered as plain callbacks through :class:`TargetDensity`;
three analytic families are built in for testing and demonstration:

``mvn``
    Multivariate normal with arbitrary mean and SPD covariance.
``himmelblau``
    exp(-Himmelblau(x, y)/s), a smooth four-mode density on R^2.
``banana``
    A Gaussian warped along a parabola (Rosenbrock-like ridge), d >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadDimension, DimensionMismatch, NotPositiveDefinite

__all__ = [
    "TargetDensity",
    "BuiltinTargetSpec",
    "gaussian_target",
    "himmelblau_target",
    "banana_target",
    "make_builtin_target",
    "BUILTIN_KINDS",
]

LOG_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class TargetDensity:
    """A log-density callback plus the metadata the sampler needs.

    Parameters
    ----------
    name : str
        Short identifier used in reports.
    dimension : int
        Length of the state vector.
    evaluate : callable
        Maps a length-``dimension`` ndarray to a float log-density
        (``-inf`` is allowed outside the support, NaN counts as ``-inf``,
        ``+inf`` is refused). Must be pure: no internal state, same input
        gives the same output.
    preferred_start : ndarray, optional
        Default starting point when the caller does not supply one.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    preferred_start: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise BadDimension("dimension must be >= 1, got %d" % self.dimension)
        if self.preferred_start is not None:
            start = np.asarray(self.preferred_start, dtype=float)
            if start.shape != (self.dimension,):
                raise DimensionMismatch(
                    "preferred_start has shape %r, expected (%d,)"
                    % (start.shape, self.dimension)
                )
            object.__setattr__(self, "preferred_start", start)

    def start_point(self) -> np.ndarray:
        if self.preferred_start is not None:
            return self.preferred_start.copy()
        return np.zeros(self.dimension)


def gaussian_target(
    mean: Sequence[float], covariance: Sequence[Sequence[float]]
) -> TargetDensity:
    """Multivariate normal target.

    log-density: -(1/2)(x-mu)' Sigma^-1 (x-mu) - (1/2) ln det Sigma
    - (d/2) ln 2 pi, evaluated through the Cholesky factor of Sigma.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    d = mu.size
    if cov.shape != (d, d):
        raise DimensionMismatch(
            "covariance has shape %r, expected (%d, %d)" % (cov.shape, d, d)
        )
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc
    const = -0.5 * d * LOG_TWO_PI - float(np.sum(np.log(np.diag(chol))))
    # whitening by the inverse factor turns each evaluation into one matmul
    whiten = np.linalg.inv(chol)

    def evaluate(x: np.ndarray) -> float:
        z = whiten.dot(x - mu)
        return const - 0.5 * float(z.dot(z))

    return TargetDensity(
        name="mvn", dimension=d, evaluate=evaluate, preferred_start=mu
    )


def himmelblau_target(scale: float = 10.0) -> TargetDensity:
    """Four-mode density exp(-Himmelblau(x, y)/scale) on R^2.

    Himmelblau(x, y) = (x^2 + y - 11)^2 + (x + y^2 - 7)^2 vanishes at the
    four global minimizers (3, 2), (-2.805..., 3.131...), (-3.779...,
    -3.283...), (3.584..., -1.848...), so the density has four equal modes.
    ``scale`` is a temperature: larger values flatten the landscape.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive, got %g" % scale)
    s = float(scale)

    def evaluate(x: np.ndarray) -> float:
        a = x[0] * x[0] + x[1] - 11.0
        b = x[0] + x[1] * x[1] - 7.0
        return -(a * a + b * b) / s

    return TargetDensity(
        name="himmelblau",
        dimension=2,
        evaluate=evaluate,
        preferred_start=np.zeros(2),
    )


def banana_target(
    dimension: int = 2, curvature: float = 0.1, sigma1: float = 10.0
) -> TargetDensity:
    """Gaussian warped along the parabola x2 = curvature * (x1^2 - sigma1^2).

    The first coordinate is N(0, sigma1^2); the second is unit normal around
    the parabola, centered so that E[x2] = 0; remaining coordinates are unit
    normal. Requires dimension >= 2.
    """
    if dimension < 2:
        raise BadDimension("banana target needs dimension >= 2, got %d" % dimension)
    if sigma1 <= 0.0:
        raise ValueError("sigma1 must be positive, got %g" % sigma1)
    b = float(curvature)
    s1 = float(sigma1)
    d = int(dimension)
    const = -0.5 * d * LOG_TWO_PI - np.log(s1)

    def evaluate(x: np.ndarray) -> float:
        ridge = x[1] - b * (x[0] * x[0] - s1 * s1)
        quad = (x[0] / s1) ** 2 + ridge * ridge
        if d > 2:
            rest = x[2:]
            quad += float(rest.dot(rest))
        return const - 0.5 * quad

    return TargetDensity(
        name="banana", dimension=d, evaluate=evaluate, preferred_start=np.zeros(d)
    )


@dataclass(frozen=True)
class BuiltinTargetSpec:
    """Declarative request for one of the built-in targets.

    ``mean`` and ``covariance`` apply to ``mvn`` only; ``shape_params``
    carries the named reals of the other families (``scale`` for
    himmelblau, ``curvature`` and ``sigma1`` for banana).
    """

    kind: str
    dimension: int
    mean: Optional[tuple] = None
    covariance: Optional[tuple] = None
    shape_params: dict = field(default_factory=dict)


BUILTIN_KINDS = ("mvn", "himmelblau", "banana")


def make_builtin_target(spec: BuiltinTargetSpec) -> TargetDensity:
    """Instantiate a built-in target from its declarative spec."""
    kind = spec.kind.lower()
    d = int(spec.dimension)
    if kind == "mvn":
        mean = np.zeros(d) if spec.mean is None else np.asarray(spec.mean, float)
        if mean.shape != (d,):
            raise DimensionMismatch(
                "mean has %d entries, dimension is %d" % (mean.size, d)
            )
        if spec.covariance is None:
            cov = np.eye(d)
        else:
            cov = np.asarray(spec.covariance, float)
            if cov.size != d * d:
                raise DimensionMismatch(
                    "covariance has %d entries, expected %d" % (cov.size, d * d)
                )
            cov = cov.reshape(d, d)
        return gaussian_target(mean, cov)
    if kind == "himmelblau":
        if d != 2:
            raise BadDimension("himmelblau target is two-dimensional, got %d" % d)
        return himmelblau_target(scale=float(spec.shape_params.get("scale", 10.0)))
    if kind == "banana":
        return banana_target(
            dimension=d,
            curvature=float(spec.shape_params.get("curvature", 0.1)),
            sigma1=float(spec.shape_params.get("sigma1", 10.0)),
        )
    raise ValueError("unknown built-in target kind %r" % spec.kind)
