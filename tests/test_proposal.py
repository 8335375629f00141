"""Proposal state, delayed-rejection scales, adaptation and its TVD bound.

The adaptation measure's dominance over true total variation distance is the
load-bearing property here; it gets a numerical-integration oracle in the
acceptance suite and closed-form spot checks here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramp.errors import DimensionMismatch, NotPositiveDefinite, StageOutOfRange
from dramp.proposal import (
    AdaptationRecord,
    ProposalState,
    adapt,
    adaptation_measure,
    default_dr_scales,
    default_scale_factor,
    effective_covariance,
    log_kernel_density,
    sample_candidate,
)


class _FixedStream:
    """Stand-in generator that hands out a prescribed normal vector."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, n):
        assert n == self.z.size
        return self.z.copy()


class TestDefaults:
    def test_scale_factor_rule(self):
        assert default_scale_factor(1) == pytest.approx(2.38)
        assert default_scale_factor(4) == pytest.approx(1.19)

    def test_dr_scales_are_halvings(self):
        assert default_dr_scales(3) == (0.5, 0.25, 0.125)
        assert default_dr_scales(0) == ()


class TestProposalState:
    def test_create_defaults(self):
        p = ProposalState.create(3)
        assert np.array_equal(p.covariance, np.eye(3))
        assert p.scale_factor == pytest.approx(2.38 / math.sqrt(3))
        assert p.dr_scales == (0.5,)
        assert p.adaptation_count == 0

    def test_stage_scale_sequence(self):
        p = ProposalState.create(2, scale_factor=1.0, dr_scales=(0.5, 0.25))
        assert p.stage_scale(0) == 1.0
        assert p.stage_scale(1) == 0.5
        assert p.stage_scale(2) == 0.25
        with pytest.raises(StageOutOfRange):
            p.stage_scale(3)

    def test_dr_scales_must_decrease(self):
        with pytest.raises(ValueError):
            ProposalState.create(1, dr_scales=(0.5, 0.5))
        with pytest.raises(ValueError):
            ProposalState.create(1, dr_scales=(1.0,))
        # empty tuple disables delayed rejection and is legal
        assert ProposalState.create(1, dr_scales=()).dr_scales == ()

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            ProposalState.create(2, covariance=[[1.0, 0.5], [0.2, 1.0]])


class TestSampleCandidate:
    def test_identity_factor_passes_z_through(self):
        p = ProposalState.create(2, scale_factor=1.0)
        got = sample_candidate(p, np.zeros(2), 0, _FixedStream([1.0, -1.0]))
        assert np.array_equal(got, [1.0, -1.0])

    def test_scalar_cholesky_is_sigma(self):
        p = ProposalState.create(1, covariance=[[4.0]], scale_factor=1.0)
        got = sample_candidate(p, np.array([5.0]), 0, _FixedStream([0.5]))
        assert got[0] == pytest.approx(6.0)

    def test_stage_one_shrinks_step(self):
        p = ProposalState.create(1, scale_factor=2.38, dr_scales=(0.5,))
        got = sample_candidate(p, np.zeros(1), 1, _FixedStream([1.0]))
        assert got[0] == pytest.approx(1.19)

    def test_stage_out_of_range(self):
        p = ProposalState.create(1)
        with pytest.raises(StageOutOfRange):
            sample_candidate(p, np.zeros(1), 2, _FixedStream([1.0]))

    def test_center_dimension_checked(self):
        p = ProposalState.create(2)
        with pytest.raises(DimensionMismatch):
            sample_candidate(p, np.zeros(3), 0, _FixedStream([1.0, 1.0]))


class TestKernelDensity:
    def test_matches_gaussian_formula(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3.0 * np.eye(3)
        p = ProposalState.create(3, covariance=cov, scale_factor=0.7,
                                 dr_scales=(0.5,))
        center = rng.standard_normal(3)
        point = rng.standard_normal(3)
        for stage in (0, 1):
            eff = effective_covariance(p, stage)
            diff = point - center
            expected = (
                -0.5 * 3 * math.log(2.0 * math.pi)
                - 0.5 * math.log(np.linalg.det(eff))
                - 0.5 * float(diff @ np.linalg.solve(eff, diff))
            )
            got = log_kernel_density(p, center, point, stage)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_effective_covariance_scales_quadratically(self):
        p = ProposalState.create(2, scale_factor=3.0, dr_scales=(0.5,))
        assert np.allclose(effective_covariance(p, 0), 9.0 * np.eye(2))
        assert np.allclose(effective_covariance(p, 1), 2.25 * np.eye(2))


class TestAdapt:
    def test_short_chain_is_noop(self):
        p = ProposalState.create(3)
        new, rec = adapt(p, np.zeros(3), np.eye(3) * 5.0, chain_length=3)
        assert new is p
        assert rec == AdaptationRecord(measure=0.0, at_chain_length=3)

    def test_updates_shape_and_counts(self):
        p = ProposalState.create(2, scale_factor=1.0)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        new, rec = adapt(p, np.zeros(2), cov, chain_length=100)
        ridge = 1e-10 * np.trace(cov) / 2.0
        assert np.allclose(new.covariance, cov + ridge * np.eye(2))
        assert new.adaptation_count == 1
        assert new.scale_factor == p.scale_factor
        assert 0.0 < rec.measure < 1.0
        assert rec.at_chain_length == 100
        # unmeasured, the same shape and count, and no measure
        bare, bare_rec = adapt(p, np.zeros(2), cov, chain_length=100, measured=False)
        assert np.array_equal(bare.covariance, new.covariance)
        assert np.array_equal(bare.chol_factor, new.chol_factor)
        assert bare.adaptation_count == 1
        assert math.isnan(bare_rec.measure)

    def test_identical_covariance_measures_zero(self):
        p = ProposalState.create(2)
        ridge = 1e-10 * np.trace(p.covariance) / 2.0
        # feed the exact shape the previous adaptation produced
        prev, _ = adapt(p, np.zeros(2), np.eye(2), chain_length=50)
        again, rec = adapt(prev, np.zeros(2), prev.covariance - ridge * np.eye(2),
                           chain_length=60)
        assert rec.measure == 0.0


class TestAdaptationMeasure:
    def test_identity_is_exactly_zero(self):
        p = ProposalState.create(2)
        assert adaptation_measure(p, p) == 0.0

    def test_variance_one_to_four_scalar(self):
        a = ProposalState.create(1, covariance=[[1.0]], scale_factor=1.0)
        b = ProposalState.create(1, covariance=[[4.0]], scale_factor=1.0)
        # BC = sqrt(2*1*2/(1+4)) = 0.894427, measure = sqrt(1 - BC^2)
        assert adaptation_measure(a, b) == pytest.approx(0.447214, abs=1e-6)

    def test_isotropic_two_dim_case(self):
        a = ProposalState.create(2, covariance=np.eye(2), scale_factor=1.0)
        b = ProposalState.create(2, covariance=4.0 * np.eye(2), scale_factor=1.0)
        # BC = det(2.5 I)^(-1/2) * (det I * det 4I)^(1/4) = 2/2.5 = 0.8
        assert adaptation_measure(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_inflating_scale_approaches_one(self):
        a = ProposalState.create(1, covariance=[[1.0]], scale_factor=1.0)
        b = ProposalState.create(1, covariance=[[1e8]], scale_factor=1.0)
        assert adaptation_measure(a, b) > 0.999

    def test_symmetry(self):
        a = ProposalState.create(2, covariance=[[2.0, 0.4], [0.4, 1.0]],
                                 scale_factor=1.0)
        b = ProposalState.create(2, covariance=[[1.0, -0.2], [-0.2, 3.0]],
                                 scale_factor=1.0)
        assert adaptation_measure(a, b) == pytest.approx(
            adaptation_measure(b, a), rel=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            adaptation_measure(ProposalState.create(1), ProposalState.create(2))

    @settings(max_examples=60, deadline=None)
    @given(
        v1=st.floats(min_value=0.05, max_value=20.0),
        v2=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_scalar_measure_in_unit_interval_and_closed_form(self, v1, v2):
        a = ProposalState.create(1, covariance=[[v1]], scale_factor=1.0)
        b = ProposalState.create(1, covariance=[[v2]], scale_factor=1.0)
        m = adaptation_measure(a, b)
        assert 0.0 <= m <= 1.0
        bc = math.sqrt(2.0 * math.sqrt(v1 * v2) / (v1 + v2))
        assert m == pytest.approx(math.sqrt(max(0.0, 1.0 - bc * bc)), abs=1e-9)
