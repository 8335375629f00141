"""Built-in target densities against closed forms and a scipy oracle."""

import math

import numpy as np
import pytest
from scipy import stats

from dramp.errors import (
    BadDimension,
    DimensionMismatch,
    NonFiniteStart,
    NotPositiveDefinite,
)
from dramp.kernel import Kernel, KernelConfig
from dramp.model import (
    FAMILIES,
    BuiltinTargetSpec,
    TargetDensity,
    banana_target,
    gaussian_target,
    himmelblau_target,
    make_builtin_target,
)
from dramp.proposal import ProposalState

HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class TestGaussian:
    def test_standard_normal_peak(self):
        t = gaussian_target([0.0], [[1.0]])
        assert t.evaluate(np.array([0.0])) == pytest.approx(-0.91893853, abs=1e-8)

    def test_standard_normal_at_one(self):
        t = gaussian_target([0.0], [[1.0]])
        assert t.evaluate(np.array([1.0])) == pytest.approx(-1.41893853, abs=1e-8)

    def test_identity_4d_peak(self):
        t = gaussian_target(np.zeros(4), np.eye(4))
        assert t.evaluate(np.zeros(4)) == pytest.approx(-3.67575413, abs=1e-8)

    def test_diag_determinant_term(self):
        t = gaussian_target([0.0, 0.0], [[1.0, 0.0], [0.0, 4.0]])
        # -ln 2pi - (1/2) ln 4
        assert t.evaluate(np.array([0.0, 0.0])) == pytest.approx(-2.53102424, abs=1e-8)

    def test_matches_scipy_logpdf_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5):
            a = rng.standard_normal((d, d))
            cov = a @ a.T + d * np.eye(d)
            mean = rng.standard_normal(d)
            t = gaussian_target(mean, cov)
            oracle = stats.multivariate_normal(mean=mean, cov=cov)
            for _ in range(20):
                x = rng.standard_normal(d) * 3.0
                assert t.evaluate(x) == pytest.approx(
                    float(oracle.logpdf(x)), rel=1e-10
                )

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            gaussian_target([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_target([0.0, 0.0], [[1.0]])

    def test_preferred_start_is_mean(self):
        t = gaussian_target([3.0, -1.0], np.eye(2))
        assert np.array_equal(t.start_point(), [3.0, -1.0])


class TestHimmelblau:
    def test_zero_at_root_with_unit_scale(self):
        t = himmelblau_target(scale=1.0)
        assert t.evaluate(np.array([3.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_origin_value_at_scale_ten(self):
        # Himmelblau(0,0) = 11^2 + 7^2 = 170
        t = himmelblau_target(scale=10.0)
        assert t.evaluate(np.array([0.0, 0.0])) == pytest.approx(-17.0, abs=1e-12)

    def test_four_modes_are_equal_roots(self):
        t = himmelblau_target(scale=1.0)
        modes = [
            (3.0, 2.0),
            (-2.805118086952745, 3.131312518250573),
            (-3.779310253377747, -3.283185991286170),
            (3.584428340330492, -1.848126526964404),
        ]
        for m in modes:
            assert t.evaluate(np.array(m)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            himmelblau_target(scale=0.0)


class TestBanana:
    def test_matches_direct_formula(self):
        b, s1 = 0.1, 10.0
        t = banana_target(2, b, s1)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.standard_normal(2) * 5.0
            ridge = x[1] - b * (x[0] ** 2 - s1 ** 2)
            expected = (
                -2.0 * HALF_LOG_TWO_PI
                - math.log(s1)
                - 0.5 * ((x[0] / s1) ** 2 + ridge ** 2)
            )
            assert t.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_extra_dimensions_are_unit_normal(self):
        t2 = banana_target(2, 0.1, 10.0)
        t4 = banana_target(4, 0.1, 10.0)
        x = np.array([1.0, 2.0, 0.7, -0.3])
        gap = t4.evaluate(x) - t2.evaluate(x[:2])
        expected = -2.0 * HALF_LOG_TWO_PI - 0.5 * (0.7 ** 2 + 0.3 ** 2)
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_requires_two_dimensions(self):
        with pytest.raises(BadDimension):
            banana_target(1)

    def test_rejects_nonpositive_sigma1(self):
        with pytest.raises(ValueError):
            banana_target(2, 0.1, 0.0)


def numpy_scalar_banana(dimension, curvature, sigma1):
    """The banana log-density on numpy scalars, as evaluated before the
    built-in targets moved to Python floats: the bits those must keep."""
    b, s1, d = float(curvature), float(sigma1), int(dimension)
    const = -0.5 * d * float(np.log(2.0 * np.pi)) - np.log(s1)

    def evaluate(x):
        ridge = x[1] - b * (x[0] * x[0] - s1 * s1)
        quad = (x[0] / s1) ** 2 + ridge * ridge
        if d > 2:
            rest = x[2:]
            quad += float(rest.dot(rest))
        return const - 0.5 * quad

    return evaluate


def numpy_scalar_himmelblau(scale):
    """The Himmelblau log-density on numpy scalars, as evaluated before."""
    s = float(scale)

    def evaluate(x):
        a = x[0] * x[0] + x[1] - 11.0
        b = x[0] + x[1] * x[1] - 7.0
        return -(a * a + b * b) / s

    return evaluate


TARGET_PAIRS = {
    "banana2": (banana_target(2), numpy_scalar_banana(2, 0.1, 10.0)),
    "banana4-bench": (banana_target(4, 0.05, 3.0),
                      numpy_scalar_banana(4, 0.05, 3.0)),
    "banana6": (banana_target(6, 0.3, 0.7), numpy_scalar_banana(6, 0.3, 0.7)),
    # unbent and narrow, so (x0 / sigma1)^2 dominates the quadratic form and
    # a change in its last bit shows
    "banana2-narrow": (banana_target(2, 0.0, 0.01),
                       numpy_scalar_banana(2, 0.0, 0.01)),
    "himmelblau": (himmelblau_target(), numpy_scalar_himmelblau(10.0)),
    "himmelblau-cold": (himmelblau_target(0.3), numpy_scalar_himmelblau(0.3)),
}


class TestTargetBits:
    """The built-in banana and Himmelblau targets compute on Python floats
    and give the bits of their numpy-scalar formulas, whose power calls
    pow, as Python's does; t * t rounds apart from pow(t, 2) on about 0.08%
    of inputs."""

    @pytest.mark.parametrize("name", sorted(TARGET_PAIRS))
    def test_python_floats_give_the_numpy_scalar_bits(self, name):
        target, oracle = TARGET_PAIRS[name]
        rng = np.random.default_rng(2024)
        n, d = 20_000, target.dimension
        scales = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        points = rng.standard_normal((n, d)) * scales
        got = np.array([target.evaluate(x) for x in points])
        want = np.array([float(oracle(x)) for x in points])
        assert np.isfinite(want).all()
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, "%d of %d points differ, first at %r" % (
            differ.size, n, points[differ[0]].tolist())

    @pytest.mark.parametrize("name", sorted(TARGET_PAIRS))
    @pytest.mark.parametrize("far", [1e160, 1e200, -1e200])
    def test_a_far_out_point_is_outside_the_support(self, name, far):
        # the numpy scalars overflowed to inf where Python's power raises
        # OverflowError; either way the log-density is -inf
        target, oracle = TARGET_PAIRS[name]
        x = np.full(target.dimension, far)
        with np.errstate(all="ignore"):  # the rest's dot overflows
            got = target.evaluate(x)
            want = float(oracle(x))
        # an unbent banana's ridge is 0 * inf there, NaN, which the
        # cascade reads as -inf
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got == -math.inf or (name == "banana2-narrow" and math.isnan(got))
        cfg = KernelConfig(10, tuple(x), rng_seed=1)
        with pytest.raises(NonFiniteStart):
            Kernel(target, cfg, ProposalState.create(target.dimension))


class TestBuiltinSpec:
    def test_kinds_are_constructible(self):
        for kind in FAMILIES:
            d = 2
            t = make_builtin_target(BuiltinTargetSpec(kind=kind, dimension=d))
            assert t.dimension == d
            assert math.isfinite(t.evaluate(t.start_point()))

    def test_mvn_defaults_to_standard_normal(self):
        t = make_builtin_target(BuiltinTargetSpec(kind="mvn", dimension=3))
        oracle = stats.multivariate_normal(mean=np.zeros(3), cov=np.eye(3))
        x = np.array([0.3, -1.2, 0.5])
        assert t.evaluate(x) == pytest.approx(float(oracle.logpdf(x)), rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_builtin_target(BuiltinTargetSpec(kind="cauchy", dimension=1))

    def test_mvn_mean_length_checked(self):
        with pytest.raises(DimensionMismatch):
            make_builtin_target(
                BuiltinTargetSpec(kind="mvn", dimension=2, mean=(1.0,))
            )


class TestTargetDensity:
    def test_dimension_validated(self):
        with pytest.raises(BadDimension):
            TargetDensity(name="t", dimension=0, evaluate=lambda x: 0.0)

    def test_start_point_default_is_origin(self):
        t = TargetDensity(name="t", dimension=3, evaluate=lambda x: 0.0)
        assert np.array_equal(t.start_point(), np.zeros(3))

    def test_start_point_returns_a_copy(self):
        t = gaussian_target([1.0], [[1.0]])
        s = t.start_point()
        s[0] = 99.0
        assert t.start_point()[0] == 1.0

