"""Simulated parallelism: the speedup law, the truncated-geometric fit of
worker contributions, and the two execution modes' reduction properties.

The one-worker fork-join run and the one-chain multi-chain run must reproduce
their serial equivalents bit for bit; those two reductions are what make the
simulated modes trustworthy stand-ins for the real thing.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import dramp.driver
from dramp.config import build_spec, initial_proposal, make_target
from dramp.errors import DegenerateTally, NonFiniteTarget, SamplerError
from dramp.kernel import Kernel, KernelConfig, run_kernel
from dramp.chain import ChainRow, CompactChain
from dramp.model import TargetDensity, banana_target, gaussian_target
from dramp.parallel import (
    PREDICTION_GRID,
    WORKER_CAP,
    ContributionTally,
    build_speedup_report,
    _geometric_score,
    fit_geometric,
    measured_speedup,
    predict_speedup,
    recommend_workers,
    run_forkjoin,
    run_multichain,
)
from dramp.persist import read_chain
from dramp.proposal import ProposalState
from dramp.refine import cross_chain_check, refine_two_phase


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

    def test_bisection_matches_brentq_on_seeded_tallies(self):
        # the scipy root finder the fit once used is the oracle; the bisection
        # must also stop at adjacent floats across the score's sign change
        r = np.random.default_rng(31)
        fitted = 0
        for _ in range(300):
            big_p = int(r.integers(2, 65))
            draws = r.geometric(r.uniform(0.02, 0.98), size=int(r.integers(20, 2000)))
            draws = draws[draws <= big_p]
            counts = np.bincount(draws, minlength=big_p + 1)[1:]
            tally = ContributionTally(big_p, tuple(int(c) for c in counts))
            if tally.total == tally.counts[0]:
                continue  # empty, or the p = 1 rule
            n = float(tally.total)
            s = float(counts @ np.arange(big_p))
            score = lambda p: _geometric_score(p, n, s, big_p)
            if score(1e-12) <= 0.0:
                continue  # the boundary rule
            p_hat = fit_geometric(tally)
            assert p_hat == pytest.approx(brentq(score, 1e-12, 1.0 - 1e-12, xtol=1e-10), abs=1e-10)
            assert score(p_hat) > 0.0 >= score(math.nextafter(p_hat, 1.0))
            fitted += 1
        assert fitted >= 200


class TestSpeedupReport:
    def test_report_wires_curve_and_recommendation(self):
        rep = build_speedup_report(0.5, observed_speedup=1.4)
        assert rep.fitted_acceptance_prob == 0.5
        assert rep.observed_speedup == 1.4
        assert [w for w, _ in rep.predicted_curve] == list(PREDICTION_GRID)
        assert dict(rep.predicted_curve)[1] == 1.0
        assert dict(rep.predicted_curve)[8] == 1.9921875
        assert rep.recommended_workers == recommend_workers(0.5)


class TestMeasuredSpeedup:
    def test_attempts_per_round_of_a_hand_built_chain(self):
        chain = CompactChain(1)
        for w in (3, 1, 9, 1):
            chain.append_row(ChainRow(1, 0, 1.0, 0.0, 0, w, 0.0, np.zeros(1)))
        # 13 attempts leave the first three rows, in 1 + 1 + 3 = 5 rounds
        assert measured_speedup(chain, 4) == 2.6
        assert measured_speedup(chain, 1) == 1.0

    def test_seed_row_alone_has_no_rounds(self):
        chain = CompactChain(1)
        chain.append_row(ChainRow(1, 0, 1.0, 0.0, 0, 1, 0.0, np.zeros(1)))
        assert measured_speedup(chain, 8) is None


def _mvn8():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8))
    return gaussian_target(np.zeros(8), a @ a.T / 8 + np.eye(8))


class TestRunForkjoin:
    @pytest.mark.parametrize("dr_stages", [0, 2])
    @pytest.mark.parametrize("make_target", [lambda: banana_target(4), _mvn8],
                             ids=["banana4", "mvn8"])
    def test_any_worker_count_writes_the_one_worker_chain(
        self, make_target, dr_stages
    ):
        target = make_target()
        d = target.dimension
        cfg = KernelConfig(3000, (0.0,) * d, rng_seed=11,
                           dr_stage_count=dr_stages, adaptation_period=50)

        def run(workers):
            proposal = ProposalState.create(d, dr_scales=(0.5, 0.25))
            return run_forkjoin(target, cfg, proposal, worker_count=workers)

        one = run(1).summary
        assert np.all(one.chain.process_ids == 1)
        for workers in (2, 8, 64):
            fj = run(workers)
            s = fj.summary
            a, b = s.chain, one.chain
            for column in ("states", "log_funcs", "weights", "dr_stages",
                           "mean_acceptance_rates", "adaptation_measures",
                           "burnin_locations"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
            assert s.stage_attempts == one.stage_attempts
            assert s.stage_accepts == one.stage_accepts
            # row i + 1 came from the rank that drew attempt w_i of row i
            assert np.array_equal(
                a.process_ids[1:], (a.weights[:-1] - 1) % workers + 1
            )
            assert fj.speedup.observed_speedup == measured_speedup(a, workers)

    def test_one_worker_reduces_to_the_serial_kernel(self):
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=5, dr_stage_count=1)
        fj = run_forkjoin(target, cfg, ProposalState.create(2), worker_count=1)
        serial = run_kernel(target, cfg, ProposalState.create(2))
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
        Kernel(flat_target(1), cfg, ProposalState.create(1), 0, 2).run(events.extend)
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
        assert mc.check is None  # one chain, nothing to compare

    def test_chains_are_independent_and_compared(self):
        target = gaussian_target([0.0], [[1.0]])
        cfg = KernelConfig(600, (0.0,), rng_seed=13)
        mc = run_multichain(target, cfg, ProposalState.create(1), n_chains=3)
        assert len(mc.summaries) == 3
        assert not np.array_equal(mc.summaries[0].chain.states, mc.summaries[1].chain.states)
        assert [s.chain.process_ids[0] for s in mc.summaries] == [1, 2, 3]
        assert len(mc.check.entries) == 3  # 3 choose 2 pairs, one dimension
        assert all(r is not None for r in mc.refined)

    def test_a_failing_chain_stops_the_run(self):
        def poison(x):
            if abs(float(x[0])) > 1e-6:
                raise SamplerError("poison region")
            return 0.0

        target = TargetDensity("poison", 1, poison)
        cfg = KernelConfig(50, (0.0,), rng_seed=2)
        with pytest.raises(SamplerError, match="poison region"):
            run_multichain(target, cfg, ProposalState.create(1), n_chains=2)

    def test_unrefinable_chain_keeps_its_summary(self):
        cfg = KernelConfig(3, (0.0,), rng_seed=2, dr_stage_count=0)
        mc = run_multichain(flat_target(1), cfg, ProposalState.create(1), n_chains=1)
        assert mc.summaries[0].chain.n_rows >= 1
        assert mc.refined[0] is None
        assert mc.check is None

    def test_chain_count_validation(self):
        with pytest.raises(ValueError):
            run_multichain(
                flat_target(1),
                KernelConfig(10, (0.0,), rng_seed=1),
                ProposalState.create(1),
                0,
            )


def counted(target, spike_at=None):
    """``target`` with its evaluations counted in ``calls[0]``; from
    evaluation ``spike_at`` on it returns +inf."""
    calls = [0]

    def evaluate(x):
        calls[0] += 1
        if spike_at is not None and calls[0] >= spike_at:
            return float("inf")
        return target.evaluate(x)

    return dataclasses.replace(target, evaluate=evaluate), calls


class TestOneMultichainFailurePolicy:
    """run_multichain and dramp run end a multichain run on the same error."""

    def test_an_error_in_a_later_chain_ends_both_runs(self, tmp_path, monkeypatch):
        spec = build_spec({
            "target": "mvn", "dim": "2", "chain-len": "300", "seed": "6",
            "mode": "multichain", "chains": "3", "dr-stages": "1",
            "out": str(tmp_path / "run"), "deterministic-test-mode": "true",
        })
        target, calls = counted(make_target(spec))
        first = run_kernel(target, spec.kernel, initial_proposal(spec))
        # chain 2 alone, counting its evaluations up to the acceptance that
        # finalizes its first row; the spike falls on the evaluation after
        # it, so that row is stored
        second, second_calls = counted(make_target(spec))
        finalized_at = []

        def on_step(events):
            if any(e[0] == "row_final" for e in events) and not finalized_at:
                finalized_at.append(second_calls[0])

        Kernel(second, spec.kernel, initial_proposal(spec), 1).run(on_step)
        spike_at = calls[0] + finalized_at[0] + 1

        failing, _ = counted(make_target(spec), spike_at)
        with pytest.raises(NonFiniteTarget):
            run_multichain(failing, spec.kernel, initial_proposal(spec),
                           spec.n_chains)

        monkeypatch.setattr(dramp.driver, "make_target",
                            lambda s: counted(make_target(s), spike_at)[0])
        with pytest.raises(NonFiniteTarget):
            dramp.driver.run_simulation(spec)
        stored = read_chain(spec.output.chain_path, spec.output.delimiter)
        n = first.chain.n_rows
        assert stored.n_rows > n
        assert chains_equal(stored.slice(0, n), first.chain)
        assert np.all(stored.process_ids[n:] == 2)


class TestCrossChainPower:
    """The cross-chain check flags a chain whose target is shifted by half a
    standard deviation, on criterion 9's chains: it counts autocorrelated
    refined points at their effective size, which must not cost it that
    power."""

    def test_half_sd_shift_is_flagged(self):
        flagged = 0
        for rep in range(20):
            cfg = KernelConfig(
                chain_length_target=1200, start_point=(0.0,), rng_seed=500 + rep,
                dr_stage_count=1, adaptation_period=100,
                greedy_adaptation_count=4,
            )
            refined = []
            for index, mean in enumerate((0.0, 0.0, 0.0, 0.5)):
                proposal = ProposalState.create(
                    1, covariance=np.eye(1), scale_factor=2.38, dr_scales=(0.5,))
                chain = run_kernel(gaussian_target([mean], [[1.0]]), cfg,
                                   proposal, index).chain
                refined.append(refine_two_phase(chain))
            flagged += not cross_chain_check(refined).all_pass
        assert flagged >= 17, "flagged %d of 20" % flagged
