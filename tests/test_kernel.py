"""Sampling loop: acceptance rules, the proposal cascade, burn-in tracking,
stream conventions, and exact mid-run state transport.

The delayed-rejection acceptance rule gets closed-form spot checks and a
pathwise detailed-balance identity here; the statistical verification that
the combined kernel preserves its target lives in the acceptance suite.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramp import kernel as kernel_mod
from dramp import rng as rng_mod
from dramp.chain import CompactChain, WeightedMoments
from dramp.errors import (
    DimensionMismatch,
    EmptyRange,
    NonFiniteStart,
    NonFiniteTarget,
    StageOutOfRange,
)
from dramp.kernel import (
    REJECTED,
    Kernel,
    KernelConfig,
    RoundStreams,
    SerialStreams,
    StepOutcome,
    burnin_location,
    dr_log_alpha,
    mh_accept_stage0,
    propose_cascade,
    run_kernel,
)
from dramp.model import TargetDensity, gaussian_target
from dramp.parallel import run_forkjoin
from dramp.proposal import ProposalState, log_kernel_density


def flat_target(dimension):
    """Constant log-density; every symmetric proposal is accepted."""
    return TargetDensity("flat", dimension, lambda x: 0.0)


def wall_target(dimension):
    """Log-density minus infinity everywhere; every proposal is rejected."""
    return TargetDensity("wall", dimension, lambda x: float("-inf"))


class TestMhAcceptStage0:
    def test_equal_density_accepts_below_one(self):
        assert mh_accept_stage0(-1.0, -1.0, 0.9999)
        assert not mh_accept_stage0(-1.0, -1.0, 1.0)

    def test_half_ratio_threshold(self):
        # candidate density half the incumbent's: accept iff u < 1/2
        lc = -math.log(2.0)
        assert mh_accept_stage0(0.0, lc, 0.49)
        assert not mh_accept_stage0(0.0, lc, 0.51)

    def test_uphill_always_accepted(self):
        assert mh_accept_stage0(-5.0, -1.0, 0.999999)
        assert mh_accept_stage0(-5.0, -1.0, 0.0)

    def test_impossible_candidate_rejected(self):
        assert not mh_accept_stage0(0.0, float("-inf"), 1e-300)
        assert not mh_accept_stage0(0.0, float("-inf"), 0.0)


def symmetric_draws():
    """Stage draws for a 1-D path whose two displacements to y1 coincide:
    with scales (1, 1/2), y1 = x + 1 and y2 = x + 2, so |y1 - x| = |y2 - y1|
    and the first-stage kernel terms cancel."""
    return [np.array([1.0]), np.array([4.0])], [1.0, 0.5]


class TestDrAcceptStage1:
    """Hand-computed stage-1 cases of dr_log_alpha on the path
    x -> y1 (rejected) -> y2."""

    def test_uphill_second_stage_example(self):
        # path 0 -> -5 (rejected) -> +1: the ratio exceeds one
        draws, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -5.0, 1.0], draws, scales)
        assert la == 0.0
        for u in (1e-12, 0.3, 0.7, 0.999999):
            assert math.log(u) < la
        # the ratio written out by hand: alpha(x -> y1) = e^-5 and
        # alpha(y2 -> y1) = e^-6
        log_ratio = 1.0 + math.log1p(-math.exp(-6.0)) - math.log1p(-math.exp(-5.0))
        assert log_ratio == pytest.approx(1.0042789201, abs=1e-9)

    def test_matches_hand_ratio_on_a_downhill_path(self):
        # alpha(x -> y1) = e^-3, alpha(y2 -> y1) = e^-1.5
        draws, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -3.0, -1.5], draws, scales)
        log_ratio = (-1.5 + math.log1p(-math.exp(-1.5))) - math.log1p(-math.exp(-3.0))
        assert la == pytest.approx(log_ratio, abs=1e-12)
        for u in np.linspace(0.01, 0.99, 23):
            assert (math.log(u) < la) == (math.log(u) < log_ratio)

    def test_sure_reverse_acceptance_rejects(self):
        # y1 lies above y2, so alpha(y2 -> y1) = 1 empties the numerator
        draws, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -0.25, -0.5], draws, scales)
        assert la == float("-inf")
        assert not math.log(1e-300) < la

    def test_kernel_ratio_term_shifts_the_threshold(self):
        # alpha(x -> y1) = alpha(y2 -> y1) = e^-1: the base ratio is exactly
        # one, so the first-stage kernel term decides alone. In whitened
        # coordinates y1 = x + (1, 0) and y2 = x + (0, 1): |y1 - x|^2 = 1,
        # |y1 - y2|^2 = 2, a log kernel ratio of -1/2.
        log_funcs = [0.0, -1.0, 0.0]
        scales = [1.0, 0.5]
        draws = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        la = dr_log_alpha(log_funcs, draws, scales)
        assert la == pytest.approx(-0.5, abs=1e-15)
        assert math.log(0.5) < la
        assert not math.log(0.7) < la
        # the shift is log q0(y2 -> y1) - log q0(x -> y1) of the proposal
        prop = ProposalState.create(2, scale_factor=1.0, dr_scales=(0.5,))
        x = np.zeros(2)
        y1, y2 = x + draws[0], x + 0.5 * draws[1]
        lqr = log_kernel_density(prop, y2, y1, 0) - log_kernel_density(prop, x, y1, 0)
        assert la == pytest.approx(lqr, abs=1e-12)
        # symmetric displacements leave the base ratio of one
        draws, scales = symmetric_draws()
        assert dr_log_alpha(log_funcs, draws, scales) == 0.0


def _log1m(la):
    """log(1 - exp(la)) for a log probability la."""
    return math.log(-math.expm1(la))


def path_product(prop, states, log_funcs, alpha, order):
    """log of pi(origin) * prod q * prod (1 - alpha) * alpha_last along the
    path that visits ``states`` in ``order``; stage j's kernel is centered at
    the origin. A zero factor ends the product early, so no acceptance
    probability is asked of a path that cannot occur."""
    origin = order[0]
    total = log_funcs[origin]
    if total == float("-inf"):
        return total
    for stage, m in enumerate(order[1:]):
        total += log_kernel_density(prop, states[origin], states[m], stage)
    for m in order[1:-1]:
        la = alpha(origin, m)
        if la == 0.0:
            return float("-inf")
        total += _log1m(la)
    return total + alpha(origin, order[-1])


@st.composite
def dr_paths(draw):
    """A proposal, an incumbent, and the log-densities and draws of k = 1..4
    candidates; the memo's reuse of offsets and norms begins at k = 3."""
    d = draw(st.sampled_from([1, 3, 8]))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((d, d))
    prop = ProposalState.create(
        d,
        covariance=a @ a.T + 0.5 * np.eye(d),
        scale_factor=draw(st.floats(0.2, 3.0)),
        dr_scales=draw(st.sampled_from(
            [(0.5, 0.25, 0.125), (0.8, 0.4, 0.2), (0.9, 0.3, 0.1)]
        )),
    )
    level = st.one_of(
        st.just(float("-inf")), st.sampled_from([0.0, -1.0]), st.floats(-30.0, 5.0)
    )
    log_funcs = draw(st.lists(level, min_size=k + 1, max_size=k + 1))
    coord = st.floats(-3.0, 3.0)
    draws = [
        np.array(draw(st.lists(coord, min_size=d, max_size=d))) for _ in range(k)
    ]
    return prop, rng.standard_normal(d), log_funcs, draws


class TestPathwiseDetailedBalance:
    """pi(x) q(x -> y1..yk) prod(1 - alpha) alpha_k is the same along a path
    and along its reversal, for every delayed-rejection path; the kernel terms
    of the oracle come from the proposal's own density."""

    @settings(max_examples=400, deadline=None)
    @given(dr_paths())
    def test_forward_and_reversed_paths_balance(self, case):
        prop, x, log_funcs, draws = case
        k = len(draws)
        scales = [prop.stage_scale(j) for j in range(k)]
        states = [x] + [
            x + scales[m] * (prop.chol_factor @ draws[m]) for m in range(k)
        ]
        memo = {}

        def alpha(first, last):
            return dr_log_alpha(log_funcs, draws, scales, memo, first, last)

        forward = path_product(prop, states, log_funcs, alpha, list(range(k + 1)))
        reverse = path_product(prop, states, log_funcs, alpha, list(range(k, -1, -1)))
        if forward == float("-inf") or reverse == float("-inf"):
            assert forward == reverse
        else:
            assert abs(forward - reverse) <= 1e-10


def reference_dr_log_alpha(log_funcs, draws, scales, memo=None, first=0,
                           last=None):
    """dr_log_alpha as it was before it memoized offsets and pair norms: the
    same recursion, recomputing every whitened offset and squared norm."""
    if last is None:
        last = len(log_funcs) - 1
    if memo is None:
        memo = {}
    cached = memo.get((first, last))
    if cached is not None:
        return cached
    log_num = log_funcs[last]
    log_den = log_funcs[first]
    if abs(last - first) > 1 and log_num != float("-inf"):
        w_first = scales[first - 1] * draws[first - 1] if first else 0.0
        w_last = scales[last - 1] * draws[last - 1] if last else 0.0
        step = 1 if last > first else -1
        for j in range(abs(last - first) - 1):
            fwd = first + step * (j + 1)
            rev = last - step * (j + 1)
            a = scales[fwd - 1] * draws[fwd - 1] - w_first
            b = scales[rev - 1] * draws[rev - 1] - w_last
            variance = scales[j] * scales[j]
            log_den -= 0.5 * float(a @ a) / variance
            log_num -= 0.5 * float(b @ b) / variance
            log_num += kernel_mod._log1mexp(reference_dr_log_alpha(
                log_funcs, draws, scales, memo, last, rev))
            log_den += kernel_mod._log1mexp(reference_dr_log_alpha(
                log_funcs, draws, scales, memo, first, fwd))
            if log_num == float("-inf"):
                break
    result = (float("-inf") if log_num == float("-inf")
              else min(0.0, log_num - log_den))
    memo[(first, last)] = result
    return result


class TestDrMemoOracle:
    """The memoized offsets and pair norms change no bit of any ratio."""

    @settings(max_examples=300, deadline=None)
    @given(dr_paths())
    def test_every_subpath_matches_the_unmemoized_recursion(self, case):
        prop, _, log_funcs, draws = case
        k = len(draws)
        scales = [prop.stage_scale(j) for j in range(k)]
        memo, reference_memo = {}, {}
        # the stages of one cascade share its memo, each adding a candidate
        for stage in range(1, k):
            args = (log_funcs[:stage + 2], draws[:stage + 1], scales)
            assert dr_log_alpha(*args, memo) == reference_dr_log_alpha(
                *args, reference_memo)
        for first in range(k + 1):
            for last in range(k + 1):
                if first != last:
                    got = dr_log_alpha(log_funcs, draws, scales, memo, first, last)
                    want = reference_dr_log_alpha(
                        log_funcs, draws, scales, None, first, last)
                    assert got == want, (first, last)


class TestProposeCascade:
    def test_flat_target_accepts_at_stage_zero(self):
        prop = ProposalState.create(2)
        stream = rng_mod.chain_stream(5, 0)
        incumbent = np.zeros(2)
        out = propose_cascade(flat_target(2), prop, incumbent, 0.0, 1, stream)
        assert out.accepted_at_stage == 0
        assert out.proposals_consumed == 1
        assert out.accepted_log_func == 0.0
        assert not np.array_equal(out.accepted_state, incumbent)

    def test_full_rejection_returns_incumbent(self):
        prop = ProposalState.create(1, dr_scales=(0.5, 0.25))
        stream = rng_mod.chain_stream(5, 0)
        incumbent = np.array([1.5])
        out = propose_cascade(wall_target(1), prop, incumbent, 0.0, 2, stream)
        assert out.accepted_at_stage == REJECTED
        assert out.proposals_consumed == 3
        assert out.accepted_state is incumbent
        assert out.accepted_log_func == 0.0

    @pytest.mark.parametrize("stages,accepts", [(2, False), (0, True)])
    def test_stream_budget_is_exact(self, stages, accepts):
        # each attempted stage draws d normals plus one uniform, no more
        d = 3
        prop = ProposalState.create(d, dr_scales=(0.5, 0.25))
        target = flat_target(d) if accepts else wall_target(d)
        used = rng_mod.chain_stream(17, 0)
        propose_cascade(target, prop, np.zeros(d), 0.0, stages, used)
        replay = rng_mod.chain_stream(17, 0)
        for _ in range(stages + 1):
            replay.standard_normal(d)
            replay.random()
        assert used.random() == replay.random()


def nan_target(dimension):
    """Log-density NaN everywhere."""
    return TargetDensity("nan", dimension, lambda x: float("nan"))


class TestNonFiniteTarget:
    """NaN counts as -inf; +inf is refused where the target is evaluated."""

    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_nan_is_outside_the_support(self, stages):
        prop = ProposalState.create(3, dr_scales=(0.5, 0.25))
        incumbent = np.zeros(3)
        out = propose_cascade(
            nan_target(3), prop, incumbent, 0.0, stages, rng_mod.chain_stream(5, 0)
        )
        assert out.accepted_at_stage == REJECTED
        assert out.proposals_consumed == stages + 1
        assert out.accepted_state is incumbent

    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_nan_keeps_the_stream_budget(self, stages):
        prop = ProposalState.create(3, dr_scales=(0.5, 0.25))
        used = rng_mod.chain_stream(17, 0)
        propose_cascade(nan_target(3), prop, np.zeros(3), 0.0, stages, used)
        walled = rng_mod.chain_stream(17, 0)
        propose_cascade(wall_target(3), prop, np.zeros(3), 0.0, stages, walled)
        assert used.random() == walled.random()

    @pytest.mark.parametrize("stages", [0, 2])
    def test_plus_inf_raises_naming_the_point(self, stages):
        prop = ProposalState.create(2, dr_scales=(0.5, 0.25))
        target = TargetDensity("spike", 2, lambda x: float("inf"))
        stream = rng_mod.chain_stream(3, 0)
        with pytest.raises(NonFiniteTarget) as info:
            propose_cascade(target, prop, np.zeros(2), 0.0, stages, stream)
        replay = rng_mod.chain_stream(3, 0)
        point = prop.scale_factor * (prop.chol_factor @ replay.standard_normal(2))
        assert "+inf at (%.17g, %.17g)" % tuple(point) in str(info.value)

    @pytest.mark.parametrize("stages", [1, 2])
    def test_plus_inf_at_a_retry_raises(self, stages):
        # the wide stage-0 candidate lands outside the support, the narrow
        # retry inside the core, where the density is +inf
        prop = ProposalState.create(1, scale_factor=1e3, dr_scales=(1e-6, 1e-7))
        target = TargetDensity(
            "core", 1,
            lambda x: float("inf") if abs(x[0]) < 1.0 else float("-inf"),
        )
        stream = rng_mod.chain_stream(8, 0)
        with pytest.raises(NonFiniteTarget):
            propose_cascade(target, prop, np.zeros(1), 0.0, stages, stream)


class TestBurninLocation:
    def test_constant_series_starts_at_zero(self):
        assert burnin_location([-3.0, -3.0, -3.0], 4) == 0

    def test_first_index_clearing_the_deficit(self):
        # max is -1, threshold -1 - 2/2 = -2, first clearing index is 2
        assert burnin_location([-10.0, -3.0, -1.0, -1.5], 2) == 2

    def test_weights_map_to_verbose_index(self):
        got = burnin_location([-10.0, -3.0, -1.0, -1.5], 2, weights=[2, 3, 1, 1])
        assert got == 5

    def test_steep_climb_lands_on_the_last_state(self):
        assert burnin_location([-100.0, -50.0, 0.0], 1) == 2

    def test_empty_series_raises(self):
        with pytest.raises(EmptyRange):
            burnin_location([], 1)


class TestStreams:
    def test_serial_state_round_trip_is_bitwise(self):
        s = SerialStreams(seed=7)
        assert s.process_id(1) == s.process_id(5) == 1
        assert s.generator(0) is s.generator(9)  # one continuous stream
        s.generator(0).random(13)
        snap = json.loads(json.dumps(s.state_dict()))
        tail = s.generator(1).random(50)
        s2 = SerialStreams(seed=7)
        s2.load_state(snap)
        assert s2.generator(1).random(50).tolist() == tail.tolist()

    @staticmethod
    def draws(streams, attempt):
        gen = streams.generator(attempt)
        return gen.standard_normal(3).tolist() + [gen.random()]

    def test_round_streams_rank_rule(self):
        # the row accepted after w attempts was drawn by rank (w-1) mod P + 1
        streams = RoundStreams(seed=9, worker_count=4)
        assert [streams.process_id(w) for w in range(1, 10)] == [
            1, 2, 3, 4, 1, 2, 3, 4, 1]
        assert RoundStreams(seed=9).process_id(7) == 1
        with pytest.raises(ValueError):
            RoundStreams(seed=9, worker_count=0)

    def test_round_streams_keyed_only_by_attempt(self):
        a = RoundStreams(seed=9, worker_count=4)
        b = RoundStreams(seed=9, worker_count=3)
        for attempt in range(4):
            a.generator(attempt).random(100)  # consumption leaves no trace
        a.generator(7)  # nor does a reseat without draws
        a.generator(5).random(3)  # nor a partly drawn stream
        assert self.draws(a, 5) == self.draws(b, 5)
        assert self.draws(a, 5) != self.draws(a, 6)
        other_seed = RoundStreams(seed=10, worker_count=3)
        assert self.draws(a, 5) != self.draws(other_seed, 5)

    def test_round_streams_in_alternation_match_one_after_the_other(self):
        a, b, a2, b2 = (RoundStreams(seed=9, worker_count=2) for _ in range(4))
        alternating = [(self.draws(a, i), self.draws(b, i + 20)) for i in range(20)]
        first = [self.draws(a2, i) for i in range(20)]
        second = [self.draws(b2, i + 20) for i in range(20)]
        assert alternating == list(zip(first, second))

    def test_round_stream_draws_stay_in_their_counter_block(self):
        streams = RoundStreams(seed=9, worker_count=3)
        for attempt in (0, 41, 2 ** 40):
            gen = streams.generator(attempt)
            gen.standard_normal(500)
            gen.random(500)
            counter = gen.bit_generator.state["state"]["counter"]
            assert counter[2:].tolist() == [attempt, 0]

    def test_no_generator_built_per_round(self, monkeypatch):
        built = {}

        def counting(name, cls):
            def build(*args, **kwargs):
                built[name] = built.get(name, 0) + 1
                return cls(*args, **kwargs)

            return build

        for name in ("SeedSequence", "PCG64", "Philox", "Generator"):
            monkeypatch.setattr(
                np.random, name, counting(name, getattr(np.random, name))
            )
        counts = []
        for rows in (20, 500):
            built.clear()
            cfg = KernelConfig(rows, (0.0, 0.0), rng_seed=5, dr_stage_count=0)
            result = run_forkjoin(
                gaussian_target(np.zeros(2), np.eye(2)), cfg,
                ProposalState.create(2), worker_count=2,
            )
            counts.append(dict(built))
        assert result.summary.chain.verbose_length > 500  # attempts run
        assert counts[0] == counts[1]

    def test_restore_rejects_foreign_generator(self):
        st = rng_mod.stream_state(rng_mod.chain_stream(1, 0))
        st["bit_generator"] = "MT19937"
        with pytest.raises(ValueError):
            rng_mod.restore_stream(st)


class TestKernelConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KernelConfig(chain_length_target=0, start_point=(0.0,), rng_seed=1)
        with pytest.raises(ValueError):
            KernelConfig(1, (0.0,), 1, dr_stage_count=-1)
        with pytest.raises(ValueError):
            KernelConfig(1, (0.0,), 1, adaptation_period=0)
        with pytest.raises(ValueError):
            KernelConfig(1, (0.0,), 1, greedy_adaptation_count=-1)

    def test_start_point_coerced_to_floats(self):
        cfg = KernelConfig(1, (1, 2), 1)
        assert cfg.start_point == (1.0, 2.0)

    def test_adaptation_period_resolution(self):
        cfg = KernelConfig(1, (0.0,), 1)
        assert cfg.resolved_adaptation_period(1) == 100
        assert cfg.resolved_adaptation_period(15) == 150
        assert KernelConfig(1, (0.0,), 1, adaptation_period=7).resolved_adaptation_period(15) == 7


class TestKernelValidation:
    def test_dimension_mismatch(self):
        cfg = KernelConfig(10, (0.0, 0.0), 1)
        with pytest.raises(DimensionMismatch):
            Kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg, ProposalState.create(1), SerialStreams(1))

    def test_start_length_mismatch(self):
        cfg = KernelConfig(10, (0.0,), 1)
        with pytest.raises(DimensionMismatch):
            Kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg, ProposalState.create(2), SerialStreams(1))

    def test_stage_count_beyond_scales(self):
        cfg = KernelConfig(10, (0.0,), 1, dr_stage_count=2)
        with pytest.raises(StageOutOfRange):
            Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1), SerialStreams(1))

    def test_non_finite_start_density(self):
        cfg = KernelConfig(10, (0.0,), 1)
        with pytest.raises(NonFiniteStart):
            Kernel(wall_target(1), cfg, ProposalState.create(1), SerialStreams(1))


class TestKernelRuns:
    def test_length_one_run_is_the_seed_row(self):
        cfg = KernelConfig(1, (0.25, -0.5), rng_seed=4)
        s = run_kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg, ProposalState.create(2))
        assert s.chain.n_rows == 1
        assert s.chain.verbose_length == 1
        assert s.chain.weights[0] == 1
        assert np.array_equal(s.chain.states[0], [0.25, -0.5])
        assert s.mean_acceptance_rate == 1.0

    def test_flat_target_accepts_everything(self):
        cfg = KernelConfig(500, (0.0,), rng_seed=2, dr_stage_count=0)
        s = run_kernel(flat_target(1), cfg, ProposalState.create(1))
        assert s.chain.n_rows == 500
        assert s.chain.verbose_length == 500
        assert np.all(s.chain.weights == 1)
        assert s.mean_acceptance_rate == 1.0
        assert s.stage_accepts[0] == s.stage_attempts[0] == 499

    def test_event_protocol(self):
        events = []
        cfg = KernelConfig(2500, (0.0,), rng_seed=2, dr_stage_count=0)
        run_kernel(flat_target(1), cfg, ProposalState.create(1), on_event=events.append)
        rows = [e[1] for e in events if e[0] == "row_final"]
        assert rows == list(range(len(rows)))
        ticks = [e[1] for e in events if e[0] == "tick"]
        assert [t["verbose_length"] for t in ticks] == [1000, 2000]
        assert ticks[0]["compact_length"] == 1000
        assert ticks[0]["mean_acceptance_rate"] == 1.0
        assert events[-1] == ("done", 2500)

    def test_adaptation_schedule_fires_per_period(self):
        events = []
        cfg = KernelConfig(300, (0.0,), rng_seed=8, adaptation_period=50)
        kern = Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1),
                      SerialStreams(cfg.rng_seed))
        s = kern.run(events.extend)
        adapts = [e[1] for e in events if e[0] == "adapt"]
        assert len(adapts) == 6
        assert [a.at_chain_length for a in adapts] == [50, 100, 150, 200, 250, 300]
        assert s.adaptation_count == 6
        assert kern.proposal.adaptation_count == 6
        assert all(0.0 <= a.measure < 1.0 for a in adapts)

    def test_weight_accounting_matches_attempts(self):
        cfg = KernelConfig(800, (0.0,), rng_seed=6, dr_stage_count=1)
        s = run_kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1))
        # every iteration attempts stage 0; rejected ones bump a weight
        assert s.stage_attempts[0] == s.chain.verbose_length - 1
        assert s.stage_accepts[0] + s.stage_accepts[1] == s.chain.n_rows - 1
        assert int(np.sum(s.chain.weights)) == s.chain.verbose_length

    def test_standard_normal_moment_recovery(self):
        # 1e5 unique states on a unit normal: weighted moments land on the
        # truth well inside Monte Carlo error
        cfg = KernelConfig(100_000, (0.0,), rng_seed=3)
        s = run_kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1))
        w = s.chain.weights.astype(float)
        x = s.chain.states[:, 0]
        mean = (w @ x) / w.sum()
        var = (w @ (x - mean) ** 2) / w.sum()
        acc = s.chain.n_rows / s.chain.verbose_length
        assert abs(mean) <= 0.02
        assert abs(var - 1.0) <= 0.05
        assert 0.2 < acc < 0.95


class TestCommitPath:
    def test_rejection_commits_as_weight_only(self, monkeypatch):
        cfg = KernelConfig(50, (0.0,), rng_seed=1)
        k = Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1), SerialStreams(1))
        state = k.chain.last_state()
        calls = []
        monkeypatch.setattr(WeightedMoments, "update", lambda *args: calls.append(args))
        monkeypatch.setattr(CompactChain, "restamp_last", lambda *args: calls.append(args))
        # a rejected cascade runs every stage: two under DR 1
        events = k.commit(StepOutcome(state, k.log_incumbent, REJECTED, 2))
        assert k.chain.n_rows == 1
        assert k.chain.weights[0] == 2
        assert k.chain.process_ids[0] == 1  # seed row keeps its own pid
        assert events == ()  # no event list is built
        assert calls == []  # no moment fold, no restamp
        assert k.summary().stage_attempts == (1, 1)

    def test_acceptance_commits_a_new_row_with_given_pid(self):
        # period 2: the acceptance that makes row 1 is an adaptation boundary
        cfg = KernelConfig(50, (0.0,), rng_seed=1, adaptation_period=2)
        k = Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1),
                   RoundStreams(1, worker_count=4))
        state = k.chain.last_state()
        for _ in range(5):
            k.commit(StepOutcome(state, k.log_incumbent, REJECTED, 2))
        out = StepOutcome(np.array([0.5]), -0.125, 1, 2)
        events = k.commit(out)
        assert k.chain.n_rows == 2
        assert k.chain.weights.tolist() == [6, 1]
        assert k.chain.process_ids.tolist() == [1, 2]  # (6 - 1) mod 4 + 1
        assert k.chain.dr_stages[1] == 1
        assert k.chain.log_funcs[1] == -0.125
        assert k.chain.mean_acceptance_rates[0] == 1 / 6  # stamped when finalized
        assert ("row_final", 0) in events
        assert [e[0] for e in events] == ["row_final", "adapt"]
        # the boundary folds the finalized seed row with its final weight
        assert k._moments.total_weight == 6.0
        assert k._moments.mean.tolist() == [0.0]
        assert k.summary().stage_attempts == (6, 6)


class TestStageTallies:
    @pytest.mark.parametrize("dr_stages", [0, 1, 2])
    @pytest.mark.parametrize("round_streams", [False, True], ids=["serial", "rounds8"])
    def test_derived_tallies_match_the_cascades(
        self, monkeypatch, dr_stages, round_streams
    ):
        # an independent tally of what each cascade consumed and accepted
        attempts = [0] * (dr_stages + 1)
        accepts = [0] * (dr_stages + 1)
        cascade = kernel_mod.propose_cascade

        def counting(*args):
            out = cascade(*args)
            for stage in range(out.proposals_consumed):
                attempts[stage] += 1
            if out.accepted_at_stage != REJECTED:
                accepts[out.accepted_at_stage] += 1
            return out

        monkeypatch.setattr(kernel_mod, "propose_cascade", counting)
        target = gaussian_target([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
        cfg = KernelConfig(600, (3.0, -3.0), rng_seed=12, dr_stage_count=dr_stages,
                           adaptation_period=50)
        prop = ProposalState.create(2, scale_factor=4.0, dr_scales=(0.5, 0.1))
        streams = RoundStreams(12, 8) if round_streams else SerialStreams(12)
        s = Kernel(target, cfg, prop, streams).run()
        assert min(accepts) > 0  # every stage accepted some cascade
        assert s.stage_attempts == tuple(attempts)
        assert s.stage_accepts == tuple(accepts)


class TestStateTransport:
    @pytest.mark.parametrize("snap_at", [50, 137])
    def test_mid_run_round_trip_is_bitwise(self, snap_at):
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=99, dr_stage_count=1,
                           adaptation_period=60)
        ka = Kernel(target, cfg, ProposalState.create(2), SerialStreams(99))
        snap = None
        snap_rows = None
        while not ka.done:
            events = ka.step()
            if snap is None and any(e[0] == "row_final" for e in events):
                if ka.chain.n_rows - 1 >= snap_at:
                    snap = copy.deepcopy(ka.state_dict())
                    snap_rows = ka.chain.n_rows - 1
        # rebuild: finalized prefix from storage, live tail from the snapshot
        pre = ka.chain.slice(0, snap_rows)
        kb = Kernel(target, cfg, ProposalState.create(2), SerialStreams(99), chain=pre)
        kb.load_state(snap)
        while not kb.done:
            kb.step()
        sa, sb = ka.summary(), kb.summary()
        assert np.array_equal(sa.chain.states, sb.chain.states)
        assert np.array_equal(sa.chain.log_funcs, sb.chain.log_funcs)
        assert np.array_equal(sa.chain.weights, sb.chain.weights)
        assert np.array_equal(sa.chain.process_ids, sb.chain.process_ids)
        assert np.array_equal(sa.chain.dr_stages, sb.chain.dr_stages)
        assert np.array_equal(sa.chain.mean_acceptance_rates, sb.chain.mean_acceptance_rates)
        assert np.array_equal(sa.chain.adaptation_measures, sb.chain.adaptation_measures)
        assert np.array_equal(sa.chain.burnin_locations, sb.chain.burnin_locations)
        assert sa.stage_attempts == sb.stage_attempts
        assert sa.stage_accepts == sb.stage_accepts
        assert sa.burnin_location == sb.burnin_location
        assert sa.adaptation_count == sb.adaptation_count
        assert np.array_equal(ka.proposal.covariance, kb.proposal.covariance)

    def test_state_dict_holds_no_proposal(self):
        # load_state rebuilds the proposal from the rows, so a snapshot's
        # size grows with d, not d^2
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(300, (0.0, 0.0), rng_seed=99, adaptation_period=60)
        kern = Kernel(target, cfg, ProposalState.create(2), SerialStreams(99))
        kern.run()
        assert kern.proposal.adaptation_count == 5
        state = kern.state_dict()
        # the adaptation count and the stream's identity are derived too:
        # the stream block is the generator's own state
        assert set(state) == {"stream", "pending_measure", "live_row"}
        assert set(state["stream"]) == {"bit_generator", "state", "inc",
                                        "has_uint32", "uinteger"}
        assert RoundStreams(99, 4).state_dict() is None
