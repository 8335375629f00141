"""Simulated parallelism: the speedup law, the truncated-geometric fit of
worker contributions, and the two execution modes' reduction properties.

The one-worker fork-join run and the one-chain multi-chain run must reproduce
their serial equivalents bit for bit; those two reductions are what make the
simulated modes trustworthy stand-ins for the real thing.
"""

import math

import numpy as np
import pytest

from dramp.errors import DegenerateTally, SamplerError
from dramp.kernel import KernelConfig, RoundStreams, run_kernel
from dramp.model import TargetDensity, gaussian_target
from dramp.parallel import (
    PREDICTION_GRID,
    WORKER_CAP,
    ContributionTally,
    build_speedup_report,
    fit_geometric,
    predict_speedup,
    recommend_workers,
    run_forkjoin,
    run_multichain,
)
from dramp.proposal import ProposalState


def flat_target(dimension):
    return TargetDensity("flat", dimension, lambda x: 0.0)


def chains_equal(a, b):
    return (
        np.array_equal(a.states, b.states)
        and np.array_equal(a.log_funcs, b.log_funcs)
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.process_ids, b.process_ids)
        and np.array_equal(a.dr_stages, b.dr_stages)
        and np.array_equal(a.mean_acceptance_rates, b.mean_acceptance_rates)
        and np.array_equal(a.adaptation_measures, b.adaptation_measures)
        and np.array_equal(a.burnin_locations, b.burnin_locations)
    )


class TestPredictSpeedup:
    def test_single_worker_is_exactly_one(self):
        for p in (0.1, 0.3, 0.5, 0.9, 1.0):
            assert predict_speedup(p, 1) == 1.0

    def test_half_acceptance_doubling_table(self):
        assert predict_speedup(0.5, 2) == 1.5
        assert predict_speedup(0.5, 4) == 1.875
        assert predict_speedup(0.5, 8) == 1.9921875
        assert predict_speedup(0.5, 4096) == 2.0  # saturated in floats

    def test_sure_acceptance_never_gains(self):
        for workers in (1, 2, 64):
            assert predict_speedup(1.0, workers) == 1.0

    def test_monotone_concave_and_bounded(self):
        for p in (0.05, 0.3, 0.7):
            curve = [predict_speedup(p, w) for w in range(1, 200)]
            assert all(b >= a for a, b in zip(curve, curve[1:]))
            assert all(v <= 1.0 / p + 1e-12 for v in curve)
            gains = [b - a for a, b in zip(curve, curve[1:])]
            assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gains, gains[1:]))

    def test_vanishing_acceptance_approaches_worker_count(self):
        assert predict_speedup(1e-9, 10) == pytest.approx(10.0, rel=1e-6)

    def test_matches_simulated_round_protocol(self):
        # 2e5 simulated rounds at p=0.5, P=2: accepted-rounds rate vs closed form
        r = np.random.default_rng(14)
        hits = (r.random((200_000, 2)) < 0.5).any(axis=1)
        assert hits.mean() == pytest.approx(1.0 - 0.5 ** 2, rel=0.02)
        assert hits.mean() / 0.5 == pytest.approx(predict_speedup(0.5, 2), rel=0.02)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predict_speedup(0.0, 4)
        with pytest.raises(ValueError):
            predict_speedup(1.5, 4)
        with pytest.raises(ValueError):
            predict_speedup(0.5, 0)


class TestRecommendWorkers:
    def test_examples(self):
        assert recommend_workers(1.0) == 1
        assert recommend_workers(0.5) == 5
        assert recommend_workers(0.1) == 29

    def test_reaches_the_efficiency_floor(self):
        for p in (0.03, 0.2, 0.6):
            w = recommend_workers(p)
            assert (1.0 - p) ** w <= 0.05
            assert (1.0 - p) ** (w - 1) > 0.05

    def test_capped_for_vanishing_acceptance(self):
        assert recommend_workers(1e-9) == WORKER_CAP

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            recommend_workers(0.5, efficiency_floor=0.0)
        with pytest.raises(ValueError):
            recommend_workers(0.5, efficiency_floor=1.0)


class TestContributionTally:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContributionTally(0, ())
        with pytest.raises(ValueError):
            ContributionTally(2, (1,))
        with pytest.raises(ValueError):
            ContributionTally(2, (1, -1))
        assert ContributionTally(3, (4, 2, 0)).total == 6


class TestFitGeometric:
    def test_all_first_rank_means_sure_acceptance(self):
        assert fit_geometric(ContributionTally(8, (500,) + (0,) * 7)) == 1.0

    def test_two_one_split_over_two_workers(self):
        # exact MLE: the first-rank share 2/3 solves 1/(2-p) = 2/3, so p = 1/2
        p_hat = fit_geometric(ContributionTally(2, (2, 1)))
        assert p_hat == pytest.approx(0.5, abs=1e-9)
        # independent route: dense scan of the truncated-geometric likelihood
        grid = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
        loglik = (
            2 * np.log(grid)
            + (np.log(grid) + np.log1p(-grid))
            - 3 * np.log(1.0 - (1.0 - grid) ** 2)
        )
        assert grid[np.argmax(loglik)] == pytest.approx(0.5, abs=1e-5)

    def test_recovers_a_synthetic_tally(self):
        r = np.random.default_rng(30)
        draws = r.geometric(0.25, size=110_000)
        draws = draws[draws <= 32][:100_000]
        counts = np.bincount(draws, minlength=33)[1:33]
        tally = ContributionTally(32, tuple(int(c) for c in counts))
        assert fit_geometric(tally) == pytest.approx(0.25, abs=0.01)

    def test_all_last_rank_hits_the_lower_boundary(self):
        p_hat = fit_geometric(ContributionTally(4, (0, 0, 0, 50)))
        assert p_hat == pytest.approx(1e-12)

    def test_empty_tally_raises(self):
        with pytest.raises(DegenerateTally):
            fit_geometric(ContributionTally(4, (0, 0, 0, 0)))


class TestSpeedupReport:
    def test_report_wires_curve_and_recommendation(self):
        rep = build_speedup_report(0.5, observed_speedup=1.4)
        assert rep.fitted_acceptance_prob == 0.5
        assert rep.observed_speedup == 1.4
        assert [w for w, _ in rep.predicted_curve] == list(PREDICTION_GRID)
        assert dict(rep.predicted_curve)[1] == 1.0
        assert dict(rep.predicted_curve)[8] == 1.9921875
        assert rep.recommended_workers == recommend_workers(0.5)


class TestRunForkjoin:
    def test_one_worker_reduces_to_the_serial_kernel(self):
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=5, dr_stage_count=1)
        fj = run_forkjoin(target, cfg, ProposalState.create(2), worker_count=1)
        serial = run_kernel(
            target, cfg, ProposalState.create(2), streams=RoundStreams(5)
        )
        assert chains_equal(fj.summary.chain, serial.chain)
        assert fj.tally.counts == (serial.chain.n_rows - 1,)

    def test_flat_target_credits_only_rank_one(self):
        cfg = KernelConfig(200, (0.0,), rng_seed=3, dr_stage_count=0)
        fj = run_forkjoin(flat_target(1), cfg, ProposalState.create(1), worker_count=4)
        assert fj.tally.counts == (199, 0, 0, 0)
        assert fj.speedup.fitted_acceptance_prob == 1.0
        assert fj.speedup.recommended_workers == 1

    def test_same_seed_is_deterministic(self):
        target = gaussian_target([0.0], [[1.0]])
        cfg = KernelConfig(250, (0.0,), rng_seed=11, dr_stage_count=1)
        a = run_forkjoin(target, cfg, ProposalState.create(1), worker_count=3)
        b = run_forkjoin(target, cfg, ProposalState.create(1), worker_count=3)
        assert chains_equal(a.summary.chain, b.summary.chain)
        assert a.tally == b.tally

    def test_fitted_rate_tracks_per_attempt_acceptance(self):
        # with delayed rejection off, the fitted geometric parameter and the
        # raw attempt acceptance rate estimate the same quantity
        target = gaussian_target([0.0, 0.0], np.eye(2))
        cfg = KernelConfig(3000, (0.0, 0.0), rng_seed=21, dr_stage_count=0)
        fj = run_forkjoin(target, cfg, ProposalState.create(2), worker_count=8)
        s = fj.summary
        attempt_rate = (s.chain.n_rows - 1) / s.stage_attempts[0]
        assert fj.speedup.fitted_acceptance_prob == pytest.approx(
            attempt_rate, abs=0.03
        )
        assert fj.tally.total == s.chain.n_rows - 1

    def test_events_and_validation(self):
        events = []
        cfg = KernelConfig(50, (0.0,), rng_seed=3, dr_stage_count=0)
        run_forkjoin(
            flat_target(1), cfg, ProposalState.create(1), 2, on_event=events.append
        )
        assert events[-1] == ("done", 50)
        assert sum(1 for e in events if e[0] == "row_final") == 49
        with pytest.raises(ValueError):
            run_forkjoin(flat_target(1), cfg, ProposalState.create(1), 0)


class TestRunMultichain:
    def test_one_chain_reduces_to_the_serial_kernel(self):
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(300, (0.0, 0.0), rng_seed=8, dr_stage_count=1)
        mc = run_multichain(target, cfg, ProposalState.create(2), n_chains=1)
        serial = run_kernel(target, cfg, ProposalState.create(2))
        assert chains_equal(mc.summaries[0].chain, serial.chain)
        assert mc.failures == ()
        assert mc.check.entries == ()  # one chain, nothing to compare

    def test_chains_are_independent_and_compared(self):
        target = gaussian_target([0.0], [[1.0]])
        cfg = KernelConfig(600, (0.0,), rng_seed=13)
        mc = run_multichain(target, cfg, ProposalState.create(1), n_chains=3)
        assert len(mc.summaries) == 3
        assert not np.array_equal(mc.summaries[0].chain.states, mc.summaries[1].chain.states)
        assert [s.chain.process_ids[0] for s in mc.summaries] == [1, 2, 3]
        assert len(mc.check.entries) == 3  # 3 choose 2 pairs, one dimension
        assert all(r is not None for r in mc.refined)

    def test_failing_chains_are_recorded_not_raised(self):
        def poison(x):
            if abs(float(x[0])) > 1e-6:
                raise SamplerError("poison region")
            return 0.0

        target = TargetDensity("poison", 1, poison)
        cfg = KernelConfig(50, (0.0,), rng_seed=2)
        mc = run_multichain(target, cfg, ProposalState.create(1), n_chains=2)
        assert mc.summaries == (None, None)
        assert [i for i, _ in mc.failures] == [0, 1]
        assert all("poison" in msg for _, msg in mc.failures)
        assert mc.check.all_pass  # vacuous, nothing comparable

    def test_unrefinable_chain_keeps_its_summary(self):
        cfg = KernelConfig(3, (0.0,), rng_seed=2, dr_stage_count=0)
        mc = run_multichain(flat_target(1), cfg, ProposalState.create(1), n_chains=1)
        assert mc.summaries[0] is not None
        assert mc.refined[0] is None
        assert len(mc.failures) == 1 and "SeriesTooShort" in mc.failures[0][1]

    def test_chain_count_validation(self):
        with pytest.raises(ValueError):
            run_multichain(
                flat_target(1),
                KernelConfig(10, (0.0,), rng_seed=1),
                ProposalState.create(1),
                0,
            )
