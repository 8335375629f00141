"""Sampling loop: acceptance rules, the proposal cascade, burn-in tracking,
the kernel's stream and process ids, and exact mid-run state transport.

The delayed-rejection acceptance rule gets closed-form spot checks and a
pathwise detailed-balance identity here; the statistical verification that
the combined kernel preserves its target lives in the acceptance suite.
"""

import copy
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    BLOCK,
    REJECTED,
    BlockDraws,
    Kernel,
    KernelConfig,
    burnin_location,
    dr_log_alpha,
    extend_distances,
    propose_cascade,
    run_kernel,
)
from dramp.model import (
    TargetDensity,
    banana_target,
    gaussian_target,
    himmelblau_target,
)
from dramp.parallel import run_forkjoin
from dramp.proposal import ProposalState, default_dr_scales, log_kernel_density


def flat_target(dimension):
    """Constant log-density; every symmetric proposal is accepted."""
    return TargetDensity("flat", dimension, lambda x: 0.0)


def wall_target(dimension):
    """Log-density minus infinity everywhere; every proposal is rejected."""
    return TargetDensity("wall", dimension, lambda x: float("-inf"))


class ScriptedStream:
    """A generator whose normals are all ones and whose uniforms are given,
    the last repeated to fill a block."""

    bit_generator = SimpleNamespace(state=None)

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def standard_normal(self, size):
        return np.ones(size)

    def random(self, size):
        return np.array(self.uniforms + self.uniforms[-1:] * size)[:size]


def chain_draws(seed, dimension, stages):
    """The block draws of chain 0's stream of ``seed``, for cascades of
    ``stages`` retries."""
    return BlockDraws(rng_mod.chain_stream(seed, 0), dimension, stages)


class TestStageZeroRule:
    """propose_cascade's stage 0 is the symmetric-proposal Metropolis rule:
    accept iff ln u < log pi(candidate) - log pi(incumbent), ln 0 = -inf."""

    @pytest.mark.parametrize("log_incumbent,log_candidate,u,accepted", [
        (-1.0, -1.0, 0.9999, True),  # equal density accepts below one
        (-1.0, -1.0, 1.0, False),
        # a candidate half as likely: the ratio is 1/2
        (0.0, -math.log(2.0), 0.49, True),
        (0.0, -math.log(2.0), float(np.nextafter(0.5, 0.0)), True),
        (0.0, -math.log(2.0), 0.5, False),  # ln u equal to the log ratio
        (0.0, -math.log(2.0), 0.51, False),
        (0.0, -30.0, 0.0, True),  # u = 0 accepts any candidate in the support
        (-5.0, -1.0, 0.999999, True),  # uphill always accepted
        (-5.0, -1.0, 0.0, True),
        (0.0, float("-inf"), 1e-300, False),  # an impossible candidate
        (0.0, float("-inf"), 0.0, False),
    ])
    def test_accepts_iff_log_u_below_the_log_ratio(
        self, log_incumbent, log_candidate, u, accepted
    ):
        target = TargetDensity("scripted", 1, lambda x: log_candidate)
        prop = ProposalState.create(1, scale_factor=1.0)
        incumbent = np.array([2.0])
        state, log_func, stage, made = propose_cascade(
            target, prop, incumbent, log_incumbent,
            BlockDraws(ScriptedStream([u]), 1, 0))
        assert made == 1
        if accepted:
            assert (state.tolist(), log_func, stage) == ([3.0], log_candidate, 0)
        else:
            assert state is incumbent
            assert (log_func, stage) == (log_incumbent, REJECTED)


def lag_band(draws):
    """The band of a cascade's stage draws, as BlockDraws makes it for
    consecutive rows: band[j][r] = z_(r-j) . z_r, each from one dot; lags
    past the first draw are never read."""
    return [[float(draws[r - j].dot(draws[r])) if r >= j else None
             for r in range(len(draws))] for j in range(len(draws))]


def distances(draws, scales):
    """The squared whitened distances of x and the candidates drawn as
    ``draws``, added one candidate at a time as the cascade adds them."""
    dists, band = [[0.0]], lag_band(draws)
    for r in range(len(draws)):
        extend_distances(dists, scales, band, r)
    return dists


def symmetric_draws():
    """Stage draws for a 1-D path whose two displacements to y1 coincide:
    with scales (1, 1/2), y1 = x + 1 and y2 = x + 2, so |y1 - x| = |y2 - y1|
    and the first-stage kernel terms cancel."""
    draws, scales = [np.array([1.0]), np.array([4.0])], [1.0, 0.5]
    return distances(draws, scales), scales


class TestDrAcceptStage1:
    """Hand-computed stage-1 cases of dr_log_alpha on the path
    x -> y1 (rejected) -> y2."""

    def test_uphill_second_stage_example(self):
        # path 0 -> -5 (rejected) -> +1: the ratio exceeds one
        dists, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -5.0, 1.0], dists, scales)
        assert la == 0.0
        for u in (1e-12, 0.3, 0.7, 0.999999):
            assert math.log(u) < la
        # the ratio written out by hand: alpha(x -> y1) = e^-5 and
        # alpha(y2 -> y1) = e^-6
        log_ratio = 1.0 + math.log1p(-math.exp(-6.0)) - math.log1p(-math.exp(-5.0))
        assert log_ratio == pytest.approx(1.0042789201, abs=1e-9)

    def test_matches_hand_ratio_on_a_downhill_path(self):
        # alpha(x -> y1) = e^-3, alpha(y2 -> y1) = e^-1.5
        dists, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -3.0, -1.5], dists, scales)
        log_ratio = (-1.5 + math.log1p(-math.exp(-1.5))) - math.log1p(-math.exp(-3.0))
        assert la == pytest.approx(log_ratio, abs=1e-12)
        for u in np.linspace(0.01, 0.99, 23):
            assert (math.log(u) < la) == (math.log(u) < log_ratio)

    def test_sure_reverse_acceptance_rejects(self):
        # y1 lies above y2, so alpha(y2 -> y1) = 1 empties the numerator
        dists, scales = symmetric_draws()
        la = dr_log_alpha([0.0, -0.25, -0.5], dists, scales)
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
        la = dr_log_alpha(log_funcs, distances(draws, scales), scales)
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
        dists, scales = symmetric_draws()
        assert dr_log_alpha(log_funcs, dists, scales) == 0.0


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
def dr_paths(draw, dims=(1, 3, 8), fewest=1):
    """A proposal, an incumbent, and the log-densities and draws of k =
    ``fewest``..4 candidates in one of ``dims`` dimensions; the memo's reuse
    of subpath rejections begins at k = 3."""
    d = draw(st.sampled_from(dims))
    k = draw(st.integers(fewest, 4))
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
        dists = distances(draws, scales)
        memo = {}

        def alpha(first, last):
            return dr_log_alpha(log_funcs, dists, scales, memo, first, last)

        forward = path_product(prop, states, log_funcs, alpha, list(range(k + 1)))
        reverse = path_product(prop, states, log_funcs, alpha, list(range(k, -1, -1)))
        if forward == float("-inf") or reverse == float("-inf"):
            assert forward == reverse
        else:
            assert abs(forward - reverse) <= 1e-10


def numpy_distances(draws, scales):
    """The squared whitened distances ||w_a - w_b||^2 of x (w_0 = 0) and the
    candidates drawn as ``draws``, each from a numpy difference."""
    w = [np.zeros_like(draws[0])] + [s * z for s, z in zip(scales, draws)]
    return [[float((a - b) @ (a - b)) for b in w] for a in w]


def reference_dr_log_alpha(log_funcs, dists, scales, memo=None, first=0,
                           last=None):
    """dr_log_alpha without its memo of log(1 - alpha) or its one-step
    shortcut: the recursion as it is written, on a table of squared
    distances ``dists``, with the subpath probabilities memoized."""
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
        step = 1 if last > first else -1
        for j in range(abs(last - first) - 1):
            fwd = first + step * (j + 1)
            rev = last - step * (j + 1)
            variance = scales[j] * scales[j]
            log_den -= 0.5 * dists[first][fwd] / variance
            log_num -= 0.5 * dists[last][rev] / variance
            log_num += kernel_mod._log1mexp(reference_dr_log_alpha(
                log_funcs, dists, scales, memo, last, rev))
            log_den += kernel_mod._log1mexp(reference_dr_log_alpha(
                log_funcs, dists, scales, memo, first, fwd))
            if log_num == float("-inf"):
                break
    result = (float("-inf") if log_num == float("-inf")
              else min(0.0, log_num - log_den))
    memo[(first, last)] = result
    return result


# Two exact ties: with s_1 = 2 s_2, ||w_3 - w_2|| = ||w_3 - w_4||, so a
# ratio's alpha is 1 up to rounding, where log(1 - alpha) turns the last bit
# of a distance into 4e-10, or into -inf
TIE_PROPOSAL = ProposalState.create(
    1, scale_factor=2.0537991304429593, dr_scales=(0.5, 0.25, 0.125))
TIE_DRAWS = [np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([0.0])]


class TestDrMemoOracle:
    """The memo of subpath rejections and the one-step shortcut move no
    bit: on the cascade's own distance table, every ratio is the plain
    recursion's. The table is checked against numpy in TestExtendDistances."""

    @settings(max_examples=300, deadline=None)
    @given(dr_paths())
    @example((TIE_PROPOSAL, np.zeros(1),
              [-math.inf, 0.0, -3.1896413638539366e-08, -math.inf, 0.0], TIE_DRAWS))
    @example((TIE_PROPOSAL, np.zeros(1),
              [-math.inf, -math.inf, 0.0, -math.inf, 0.0], TIE_DRAWS))
    def test_every_subpath_matches_the_unmemoized_recursion(self, case):
        prop, _, log_funcs, draws = case
        k = len(draws)
        scales = [prop.stage_scale(j) for j in range(k)]
        dists, band = [[0.0]], lag_band(draws)
        extend_distances(dists, scales, band, 0)
        memo, reference_memo = {}, {}
        # the stages of one cascade share its table and memo, each adding a
        # candidate, and each rejection stores its path's log(1 - alpha)
        for stage in range(1, k):
            extend_distances(dists, scales, band, stage)
            got = dr_log_alpha(log_funcs[:stage + 2], dists, scales, memo)
            want = reference_dr_log_alpha(
                log_funcs[:stage + 2], dists, scales, reference_memo)
            assert got == want, (stage, got, want)
            memo[0, stage + 1] = kernel_mod._log1mexp(got)
        for first in range(k + 1):
            for last in range(k + 1):
                if first != last:
                    got = dr_log_alpha(log_funcs, dists, scales, memo, first, last)
                    want = reference_dr_log_alpha(
                        log_funcs, dists, scales, None, first, last)
                    assert got == want, (first, last, got, want)


class TestExtendDistances:
    """The table's s_a^2 g_aa + s_b^2 g_bb - 2 s_a s_b g_ab is numpy's
    ||w_a - w_b||^2 up to rounding: within 1e-12 (s_a^2 g_aa + s_b^2 g_bb),
    plus the smallest normal double, below which rounding is absolute.
    That residue, not the memo, moves the ratios at TIE_DRAWS, so
    TestDrMemoOracle compares on the table itself."""

    @settings(max_examples=300, deadline=None)
    @given(dr_paths())
    @example((TIE_PROPOSAL, np.zeros(1), [0.0] * 5, TIE_DRAWS))
    def test_matches_numpy_squared_differences(self, case):
        prop, _, _, draws = case
        scales = [prop.stage_scale(j) for j in range(len(draws))]
        got, want = distances(draws, scales), numpy_distances(draws, scales)
        for a in range(len(draws) + 1):
            for b in range(len(draws) + 1):
                bound = 1e-12 * (want[0][a] + want[0][b]) + np.finfo(float).tiny
                assert abs(got[a][b] - want[a][b]) <= bound, (a, b)


def take_block(draws, proposal):
    """Use up ``draws``' pending block, if any, and draw the next."""
    draws.offset = BLOCK
    draws.ready(proposal)
    return draws.normals


class TestBlockBand:
    """Each band entry band[j][r] of BlockDraws is z_r . z_(r-j), with the
    bits of one ndarray.dot of the two rows: within a block, from the
    previous block's rows when r < j, and in a block that seek draws again,
    whose lags the block itself holds."""

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_every_lag_is_the_dot_of_its_two_rows(self, d, stages):
        draws = chain_draws(40 + d, d, stages)
        prop = ProposalState.create(d, dr_scales=default_dr_scales(stages))
        rows = take_block(draws, prop)
        for refill in range(4):
            band = draws.band
            assert len(band) == stages + 1
            # row BLOCK + r of ``rows`` is the block's row r
            first = 0 if refill == 0 else BLOCK
            for j in range(stages + 1):
                assert len(band[j]) == BLOCK
                for r in range(BLOCK):
                    if first + r - j >= 0:
                        want = float(rows[first + r - j].dot(rows[first + r]))
                        assert band[j][r] == want, (refill, j, r)
            rows = np.concatenate((draws.normals, take_block(draws, prop)))

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_a_sought_block_has_its_own_lags(self, d, stages):
        draws = chain_draws(50 + d, d, stages)
        prop = ProposalState.create(d, dr_scales=default_dr_scales(stages))
        for _ in range(3):
            take_block(draws, prop)
        state, normals, band = draws.start, draws.normals, draws.band
        take_block(draws, prop)
        for sought in (draws, chain_draws(50 + d, d, stages)):
            sought.seek(state, 17)
            assert np.array_equal(sought.normals, normals)
            for j in range(stages + 1):
                for r in range(BLOCK):
                    if r >= j:
                        want = float(normals[r - j].dot(normals[r]))
                        assert sought.band[j][r] == band[j][r] == want, (j, r)
                    else:  # no previous block: the same zeros on every resume
                        assert sought.band[j][r] == 0.0, (j, r)

    def test_no_retries_make_no_band(self):
        draws = chain_draws(3, 4, 0)
        take_block(draws, ProposalState.create(4))
        assert draws.band is None


def reference_propose_cascade(target, proposal, incumbent, log_incumbent,
                              blocks, attempts=1):
    """propose_cascade on the draws-based recursion: the same rows of the
    chain's blocks, each taken through BlockDraws.ready, which refills as
    needed, and the same candidates, from L z made here over the whole
    block; each retry's ratio from reference_dr_log_alpha. Each of the
    ``attempts`` is a cascade of its own, from a fresh path and memo."""
    scales = [proposal.scale_factor] + [
        proposal.scale_factor * s for s in proposal.dr_scales]
    for made in range(1, attempts + 1):
        log_funcs, draws, memo = [log_incumbent], [], {}
        for stage in range(blocks.stop):
            k = blocks.ready(proposal)
            z, u = blocks.normals[k], blocks.uniforms[k]
            steps = blocks.normals.dot(proposal.chol_factor.T)
            candidate = incumbent + scales[stage] * steps[k]
            blocks.offset = k + 1
            log_candidate = float(target.evaluate(candidate))
            if log_candidate != log_candidate:
                log_candidate = float("-inf")
            log_funcs.append(log_candidate)
            draws.append(z)
            lnu = math.log(u) if u > 0.0 else float("-inf")
            if stage == 0:
                accepted = lnu < log_candidate - log_incumbent
            else:
                accepted = lnu < reference_dr_log_alpha(
                    log_funcs, numpy_distances(draws, scales), scales, memo)
            if accepted:
                return candidate, log_candidate, stage, made
    return incumbent, log_incumbent, REJECTED, attempts


def correlated_gaussian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return gaussian_target(rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d))


class TestDecisionIdentity:
    """Every accept/reject decision of an adapting serial chain is the one
    the draws-based recursion makes: the chains agree bit for bit."""

    @pytest.mark.parametrize("target,stages,rows", [
        (correlated_gaussian(8, 4), 2, 2000),
        (banana_target(3), 3, 1500),
        (himmelblau_target(), 3, 1500),
    ], ids=["mvn8-dr2", "banana3-dr3", "himmelblau-dr3"])
    def test_chain_matches_the_reference_cascade(
        self, monkeypatch, target, stages, rows
    ):
        d = target.dimension

        def chain():
            cfg = KernelConfig(rows, (0.5,) * d, rng_seed=31,
                               dr_stage_count=stages)
            prop = ProposalState.create(d, dr_scales=default_dr_scales(stages))
            return run_kernel(target, cfg, prop).chain

        real = chain()
        monkeypatch.setattr(kernel_mod, "propose_cascade",
                            reference_propose_cascade)
        reference = chain()
        # the last stage accepts, so every ratio the cascade forms was used
        assert np.bincount(real.dr_stages, minlength=stages + 1)[stages] > 0
        assert real.n_rows == reference.n_rows == rows
        assert real.verbose_length == reference.verbose_length
        assert real.states.tobytes() == reference.states.tobytes()
        assert real.log_funcs.tobytes() == reference.log_funcs.tobytes()
        assert np.array_equal(real.weights, reference.weights)
        assert np.array_equal(real.dr_stages, reference.dr_stages)
        assert (real.adaptation_measures.tobytes()
                == reference.adaptation_measures.tobytes())


RETRY_PATHS = dr_paths(dims=(1, 2, 8), fewest=2)  # 1 to 3 retries


def stage_ratios(prop, log_funcs, draws):
    """Each retry's (bound, exact) ratio, on one table and memo walked as
    propose_cascade walks them, and the memo the walk leaves."""
    k = len(draws)
    scales = list(prop.stage_scales[:k])
    dists, band = [[0.0]], lag_band(draws)
    extend_distances(dists, scales, band, 0)
    memo, ratios = {}, []
    for stage in range(1, k):
        extend_distances(dists, scales, band, stage)
        path = log_funcs[:stage + 2]
        before = dict(memo)
        bound = dr_log_alpha(path, dists, scales, memo, bound=True)
        assert memo == before, "the bound stored a memo entry"
        ratios.append((bound, dr_log_alpha(path, dists, scales, memo)))
        memo[0, stage + 1] = kernel_mod._log1mexp(ratios[-1][1])
    return dists, scales, memo, ratios


class RowStream:
    """A generator whose first normal rows and uniforms are given, zeros and
    one half after them."""

    bit_generator = SimpleNamespace(state=None)

    def __init__(self, rows, uniforms):
        self.rows, self.uniforms = rows, uniforms

    def standard_normal(self, size):
        normals = np.zeros(size)
        normals[:len(self.rows)] = self.rows
        return normals

    def random(self, size):
        uniforms = np.full(size, 0.5)
        uniforms[:len(self.uniforms)] = self.uniforms
        return uniforms


TIE_PATHS = [
    (TIE_PROPOSAL, np.zeros(1),
     [-math.inf, 0.0, -3.1896413638539366e-08, -math.inf, 0.0], TIE_DRAWS),
    (TIE_PROPOSAL, np.zeros(1),
     [-math.inf, -math.inf, 0.0, -math.inf, 0.0], TIE_DRAWS),
]
BELOW_ONE = float(np.nextafter(1.0, 0.0))


class TestLastStageBound:
    """The last stage's bound (dr_log_alpha with ``bound``) is never below
    the exact ratio, so a cascade that rejects on it makes every decision
    the exact ratio makes."""

    @settings(max_examples=300, deadline=None)
    @given(RETRY_PATHS)
    @example(TIE_PATHS[0])
    @example(TIE_PATHS[1])
    def test_bound_is_never_below_the_exact_ratio(self, case):
        prop, _, log_funcs, draws = case
        dists, scales, memo, ratios = stage_ratios(prop, log_funcs, draws)
        for bound, exact in ratios:
            assert bound >= exact, (bound, exact)
        k = len(draws)
        for first in range(k + 1):
            for last in range(k + 1):
                if first != last:
                    bound, exact = (dr_log_alpha(
                        log_funcs, dists, scales, dict(memo), first, last, bound=b)
                        for b in (True, False))
                    assert bound >= exact, (first, last, bound, exact)

    @settings(max_examples=300, deadline=None)
    @given(RETRY_PATHS,
           st.lists(st.one_of(st.sampled_from([BELOW_ONE, 0.0]), st.floats(0.0, 1.0)),
                    min_size=3, max_size=3),
           st.sampled_from(["zero", "between", "any"]), st.floats(0.0, 1.0))
    @example(TIE_PATHS[0], [BELOW_ONE] * 3, "between", 0.5)
    @example(TIE_PATHS[1], [BELOW_ONE] * 3, "between", 0.5)
    @example(TIE_PATHS[1], [BELOW_ONE] * 3, "zero", 0.0)
    def test_cascade_matches_the_cascade_without_the_bound(
        self, case, early, last, t
    ):
        prop, x, log_funcs, draws = case
        bound, exact = stage_ratios(prop, log_funcs, draws)[3][-1]
        # the last uniform: u = 0 (ln u = -inf), between exp(exact) and
        # exp(bound), where only the exact ratio decides, or anywhere
        if last == "zero":
            u = 0.0
        elif last == "between":
            low = exact if exact > -math.inf else bound - 1.0
            u = math.exp(low + t * (bound - low)) if bound > -math.inf else t
        else:
            u = t
        uniforms = early[:len(draws) - 1] + [u]

        def cascade():
            levels = iter(log_funcs[1:])
            target = TargetDensity("scripted", prop.dimension,
                                   lambda y: next(levels))
            blocks = BlockDraws(RowStream(draws, uniforms), prop.dimension,
                                len(draws) - 1)
            return propose_cascade(target, prop, x, log_funcs[0], blocks)

        got = cascade()
        with pytest.MonkeyPatch.context() as patched:
            exact_only = kernel_mod.dr_log_alpha

            def no_bound(*args, bound=False, **kwargs):
                return exact_only(*args, **kwargs)

            patched.setattr(kernel_mod, "dr_log_alpha", no_bound)
            want = cascade()
        assert got[1:] == want[1:]
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[0] is x) == (want[0] is x)


def holed_target(evaluated):
    """A correlated 2-D Gaussian whose log-density is NaN where x0 > 1.5,
    counting its evaluations and NaNs in ``evaluated``."""
    gauss = gaussian_target([0.0, 0.0], [[1.0, 0.5], [0.5, 2.0]])

    def log_density(x):
        evaluated["calls"] += 1
        if x[0] > 1.5:
            evaluated["nan"] += 1
            return float("nan")
        return gauss.evaluate(x)

    return TargetDensity("holed", 2, log_density)


def single_attempts(target, prop, incumbent, log_incumbent, draws, n):
    """n calls of one attempt each, up to the first acceptance."""
    for made in range(1, n + 1):
        state, log_func, stage, one = propose_cascade(
            target, prop, incumbent, log_incumbent, draws)
        assert one == 1
        if stage != REJECTED:
            break
    return state, log_func, stage, made


class TestProposeCascade:
    """propose_cascade runs the stages its draws were built for; one call of
    n attempts is n calls of one attempt up to the first acceptance: the
    same outcome and attempts made, the same offset into the block and the
    same stream state, past refills and NaN evaluations, and an exception
    leaves the offset the single calls leave."""

    def test_flat_target_accepts_at_stage_zero(self):
        prop = ProposalState.create(2)
        incumbent = np.zeros(2)
        state, log_func, stage, made = propose_cascade(
            flat_target(2), prop, incumbent, 0.0, chain_draws(5, 2, 1))
        assert (stage, made) == (0, 1)
        assert log_func == 0.0
        assert not np.array_equal(state, incumbent)

    def test_full_rejection_returns_incumbent(self):
        prop = ProposalState.create(1, dr_scales=(0.5, 0.25))
        incumbent = np.array([1.5])
        state, log_func, stage, made = propose_cascade(
            wall_target(1), prop, incumbent, 0.0, chain_draws(5, 1, 2))
        assert (stage, made) == (REJECTED, 1)
        assert state is incumbent
        assert log_func == 0.0

    @pytest.mark.parametrize("stages", [0, 1])
    def test_the_draws_set_the_stage_count(self, stages):
        # a two-retry proposal on draws built for fewer retries runs the
        # draws' stages; when the call also passed a count of 2, it raised
        # TypeError (0 retries: no band) or IndexError (1: no scaled[2])
        prop = ProposalState.create(2, dr_scales=(0.5, 0.25))
        draws = BlockDraws(rng_mod.chain_stream(1, 0), 2, stages)
        state, log_func, stage, made = propose_cascade(
            wall_target(2), prop, np.zeros(2), 0.0, draws)
        assert (stage, log_func, made) == (REJECTED, 0.0, 1)
        assert draws.offset == stages + 1

    def test_a_proposal_with_fewer_stages_than_the_draws_is_refused(self):
        # checked once per new proposal, in BlockDraws.ready, also when the
        # proposal changes inside a block
        draws = chain_draws(1, 2, 2)
        wide = ProposalState.create(2, dr_scales=(0.5, 0.25))
        propose_cascade(wall_target(2), wide, np.zeros(2), 0.0, draws)
        short = ProposalState.create(2, dr_scales=(0.5,))
        with pytest.raises(StageOutOfRange, match=r"^stage 2 outside \[0, 1\]$"):
            propose_cascade(wall_target(2), short, np.zeros(2), 0.0, draws)
        assert draws.offset == 3

    @pytest.mark.parametrize("stages,accepts", [(2, False), (0, True)])
    def test_stream_budget_is_exact(self, stages, accepts):
        # each attempted stage takes one row of d normals and one uniform of
        # the block; a refill draws BLOCK rows of normals, then BLOCK uniforms
        d = 3
        prop = ProposalState.create(d, dr_scales=(0.5, 0.25))
        target = flat_target(d) if accepts else wall_target(d)
        for cascades in (1, 30):  # within the first block, and into the next
            used = chain_draws(17, d, stages)
            for _ in range(cascades):
                propose_cascade(target, prop, np.zeros(d), 0.0, used)
            taken = cascades * (stages + 1)
            replay = rng_mod.chain_stream(17, 0)
            for _ in range(-(-taken // BLOCK)):
                normals = replay.standard_normal((BLOCK, d))
                uniforms = replay.random(BLOCK).tolist()
            assert used.offset == (taken - 1) % BLOCK + 1
            assert np.array_equal(used.normals, normals)
            assert used.uniforms == uniforms
            assert used.generator.random() == replay.random()

    def test_each_stage_draws_incumbent_plus_scaled_factor_times_normals(self):
        # candidate k is x + s_k L z_k with C = L L^T, bit for bit that of
        # the block's product Z L^T, times s_k, plus x; the DR ratio is
        # exact for any factor, so only a non-diagonal C tells L from L^T.
        # The proposal changes inside the first block, as an adaptation
        # changes it, so stale rows show; the cascades run on into a second
        # block
        d = 3
        covs = [np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.4], [-0.3, 0.4, 0.5]]),
                np.array([[0.5, -0.2, 0.1], [-0.2, 1.5, 0.7], [0.1, 0.7, 1.0]])]
        props = [ProposalState.create(d, covariance=c, dr_scales=(0.5, 0.25))
                 for c in covs]
        seen = []
        target = TargetDensity(
            "wall", d, lambda x: seen.append(x.copy()) or float("-inf"))
        stream = RecordedStream(rng_mod.chain_stream(23, 0))
        draws = BlockDraws(stream, d, 2)
        incumbent = np.array([0.3, -1.2, 2.0])
        adapted_at = 5  # cascades; its first stage is row 15 of the block
        for cascade in range(22):
            propose_cascade(target, props[cascade >= adapted_at], incumbent,
                            0.0, draws)
        assert stream.calls == [("standard_normal", (BLOCK, d)),
                                ("random", BLOCK)] * 2
        blocks = stream.draws[0::2]
        assert len(seen) == 66
        for k, candidate in enumerate(seen):
            chol = np.linalg.cholesky(covs[k >= 3 * adapted_at])
            scale = props[0].scale_factor * (1.0, 0.5, 0.25)[k % 3]
            block, row = divmod(k, BLOCK)
            want = blocks[block].dot(chol.T)[row] * scale + incumbent
            assert candidate.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("stages", [0, 1, 2, 3])
    def test_one_call_equals_single_attempts(self, stages, n):
        # a wide proposal at every stage: long runs of rejections
        prop = ProposalState.create(
            2, scale_factor=10.0, dr_scales=(0.9, 0.8, 0.7))
        evaluated = {"calls": 0, "nan": 0}
        target = holed_target(evaluated)
        batched, single = chain_draws(60 + n, 2, stages), chain_draws(60 + n, 2, stages)
        x = np.array([0.2, -0.3])
        log_x = float(target.evaluate(x))
        outcomes, most = set(), 0
        for _ in range(2000 // n + 20):
            before = evaluated["calls"]
            got = propose_cascade(target, prop, x, log_x, batched, n)
            most = max(most, evaluated["calls"] - before)
            want = single_attempts(target, prop, x, log_x, single, n)
            assert got[1:] == want[1:]
            assert got[0].tobytes() == want[0].tobytes()
            assert (got[0] is x) == (want[0] is x)
            assert batched.offset == single.offset
            assert (batched.generator.bit_generator.state
                    == single.generator.bit_generator.state)
            outcomes.add((got[2] == REJECTED, got[3] > 1))
            x, log_x = want[0], want[1]
        assert evaluated["nan"] > 0
        if n == 1:
            assert outcomes == {(True, False), (False, False)}
        else:
            # rejections before an acceptance, and n rejections in a row
            assert (False, True) in outcomes
            if n == 7:
                assert (True, True) in outcomes
        if n == 200:
            assert most > BLOCK  # one call ran past a refill

    @pytest.mark.parametrize("stages", [0, 2])
    def test_plus_inf_at_a_later_attempt_raises_one_row_past_it(self, stages):
        # every stage rejects until evaluation 100, which is +inf: past a
        # refill, inside attempt 100 // (stages + 1) + 1
        prop = ProposalState.create(2, dr_scales=(0.5, 0.25))

        def spike_at(evaluation):
            calls = [0]

            def log_density(x):
                calls[0] += 1
                return float("inf") if calls[0] == evaluation else float("-inf")

            return TargetDensity("spike", 2, log_density)

        batched, single = chain_draws(9, 2, stages), chain_draws(9, 2, stages)
        with pytest.raises(NonFiniteTarget):
            propose_cascade(spike_at(100), prop, np.zeros(2), 0.0, batched, 500)
        with pytest.raises(NonFiniteTarget):
            single_attempts(spike_at(100), prop, np.zeros(2), 0.0, single, 500)
        assert batched.offset == single.offset == (100 - 1) % BLOCK + 1
        assert (batched.generator.bit_generator.state
                == single.generator.bit_generator.state)


class RecordedStream:
    """A generator that records each call and each value it hands out."""

    def __init__(self, gen):
        self._gen = gen
        self.bit_generator = gen.bit_generator
        self.calls = []
        self.draws = []

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        self.draws.append(self._gen.standard_normal(size))
        return self.draws[-1]

    def random(self, size):
        self.calls.append(("random", size))
        self.draws.append(self._gen.random(size))
        return self.draws[-1]


def nan_target(dimension):
    """Log-density NaN everywhere."""
    return TargetDensity("nan", dimension, lambda x: float("nan"))


class TestNonFiniteTarget:
    """NaN counts as -inf; +inf is refused where the target is evaluated."""

    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_nan_is_outside_the_support(self, stages):
        prop = ProposalState.create(3, dr_scales=(0.5, 0.25))
        incumbent = np.zeros(3)
        state, _, stage, made = propose_cascade(
            nan_target(3), prop, incumbent, 0.0, chain_draws(5, 3, stages)
        )
        assert (stage, made) == (REJECTED, 1)
        assert state is incumbent

    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_nan_keeps_the_stream_budget(self, stages):
        prop = ProposalState.create(3, dr_scales=(0.5, 0.25))
        used = chain_draws(17, 3, stages)
        propose_cascade(nan_target(3), prop, np.zeros(3), 0.0, used)
        walled = chain_draws(17, 3, stages)
        propose_cascade(wall_target(3), prop, np.zeros(3), 0.0, walled)
        assert used.offset == walled.offset == stages + 1
        assert used.generator.random() == walled.generator.random()

    @pytest.mark.parametrize("stages", [0, 2])
    def test_plus_inf_raises_naming_the_point(self, stages):
        prop = ProposalState.create(2, dr_scales=(0.5, 0.25))
        target = TargetDensity("spike", 2, lambda x: float("inf"))
        with pytest.raises(NonFiniteTarget) as info:
            propose_cascade(target, prop, np.zeros(2), 0.0,
                            chain_draws(3, 2, stages))
        replay = rng_mod.chain_stream(3, 0)
        z = replay.standard_normal((BLOCK, 2))[0]
        point = prop.scale_factor * (prop.chol_factor @ z)
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
        with pytest.raises(NonFiniteTarget):
            propose_cascade(target, prop, np.zeros(1), 0.0,
                            chain_draws(8, 1, stages))


class TestBurninLocation:
    def test_constant_series_starts_at_zero(self):
        assert burnin_location([-3.0, -3.0, -3.0], 4, [1, 1, 1]) == 0

    def test_first_index_clearing_the_deficit(self):
        # max is -1, threshold -1 - 2/2 = -2, first clearing index is 2
        assert burnin_location([-10.0, -3.0, -1.0, -1.5], 2, [1, 1, 1, 1]) == 2

    def test_weights_map_to_verbose_index(self):
        got = burnin_location([-10.0, -3.0, -1.0, -1.5], 2, weights=[2, 3, 1, 1])
        assert got == 5

    def test_threshold_is_half_the_dimension_below_the_maximum(self):
        # d = 4: threshold -1 - 4/2 = -3, so -2.5 clears it; at d/4 it would not
        assert burnin_location([-10.0, -2.5, -1.0], 4, [1, 1, 1]) == 1

    def test_steep_climb_lands_on_the_last_state(self):
        assert burnin_location([-100.0, -50.0, 0.0], 1, [1, 1, 1]) == 2

    def test_empty_series_raises(self):
        with pytest.raises(EmptyRange):
            burnin_location([], 1, [])


class TestAdaptationCount:
    """Adaptations happen at the multiples of the period in
    [max(2, d + 1), rows]; a boundary at d rows or fewer is a no-op."""

    def test_a_period_dividing_the_dimension(self):
        # the multiples 6, 8, ..., 200: the boundaries at 2 and 4 rows fall
        # at d rows or fewer
        assert kernel_mod.adaptation_count(200, 4, 2) == 98

    def test_summary_counts_the_adaptations_that_changed_the_proposal(self):
        d = 4
        cfg = KernelConfig(200, (0.0,) * d, rng_seed=3, adaptation_period=2)
        kern = Kernel(gaussian_target(np.zeros(d), np.eye(d)), cfg,
                      ProposalState.create(d))
        changed, last = [], [kern.proposal]

        def on_step(events):
            for event in events:
                if event[0] == "adapt":
                    changed.append(kern.proposal is not last[0])
                    last[0] = kern.proposal

        summary = kern.run(on_step)
        assert len(changed) == 100  # every multiple of 2 up to 200 rows
        assert sum(changed) == summary.adaptation_count == 98


class TestKernelStream:
    """The kernel's one stream: rng.chain_stream of the config's seed and the
    chain index, saved and restored as numpy's PCG64 state dict, and the one
    process-id rule chain_index + ((w - 1) mod workers) + 1."""

    @staticmethod
    def kernel(chain_index=0, workers=1, chain=None):
        # a wide proposal on a narrow target rejects often, so weights vary
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=7, dr_stage_count=1,
                           adaptation_period=10 ** 6)
        return Kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg,
                      ProposalState.create(2, scale_factor=9.0),
                      chain_index, workers, chain=chain)

    def test_stream_is_the_chain_stream_of_the_config_seed(self):
        kern = self.kernel(chain_index=2)
        assert kern.generator.random(5).tolist() == \
            rng_mod.chain_stream(7, 2).random(5).tolist()

    def test_state_round_trip_through_json_gives_the_same_draws(self):
        ka = self.kernel()
        for _ in range(30):
            ka.step()
        snap = json.loads(json.dumps(ka.state_dict()))
        kb = self.kernel(chain=ka.chain.slice(0, ka.chain.n_rows - 1))
        kb.load_state(snap)
        assert 0 < snap["block_offset"] == kb.draws.offset < BLOCK
        assert np.array_equal(kb.draws.normals, ka.draws.normals)
        assert kb.draws.uniforms == ka.draws.uniforms
        assert kb.generator.random(50).tolist() == ka.generator.random(50).tolist()

    @pytest.mark.parametrize("chain_index, workers", [(0, 1), (2, 1), (0, 4)])
    def test_process_ids_follow_the_rank_rule(self, chain_index, workers):
        chain = self.kernel(chain_index, workers).run().chain
        weights, pids = chain.weights, chain.process_ids
        assert weights.max() > 4  # every rank of four draws some row
        assert pids[0] == chain_index + 1
        assert np.array_equal(pids[1:], chain_index + (weights[:-1] - 1) % workers + 1)
        assert set(pids.tolist()) == set(range(chain_index + 1, chain_index + workers + 1))

    def test_zero_workers_refused(self):
        with pytest.raises(ValueError, match="workers"):
            self.kernel(workers=0)

    def test_forkjoin_stream_block_equals_the_serial_one(self):
        serial, forked = self.kernel(), self.kernel(workers=4)
        assert forked.state_dict()["stream"] == serial.state_dict()["stream"]
        serial.run()
        forked.run()
        assert forked.state_dict()["stream"] == serial.state_dict()["stream"]

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
        # numpy's setter refuses a dict of another bit generator, before
        # load_state touches the chain
        kern = self.kernel()
        state = json.loads(json.dumps(kern.state_dict()))
        state["stream"]["bit_generator"] = "MT19937"
        rebuilt = self.kernel(chain=kern.chain.slice(0, 0))
        with pytest.raises(ValueError):
            rebuilt.load_state(state)
        assert rebuilt.chain.n_rows == 0


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
            Kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg, ProposalState.create(1))

    def test_start_length_mismatch(self):
        cfg = KernelConfig(10, (0.0,), 1)
        with pytest.raises(DimensionMismatch):
            Kernel(gaussian_target([0.0, 0.0], np.eye(2)), cfg, ProposalState.create(2))

    def test_stage_count_beyond_scales(self):
        cfg = KernelConfig(10, (0.0,), 1, dr_stage_count=2)
        with pytest.raises(StageOutOfRange):
            Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1))

    def test_non_finite_start_density(self):
        cfg = KernelConfig(10, (0.0,), 1)
        with pytest.raises(NonFiniteStart):
            Kernel(wall_target(1), cfg, ProposalState.create(1))


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
        Kernel(flat_target(1), cfg, ProposalState.create(1)).run(events.extend)
        rows = [e[1] for e in events if e[0] == "row_final"]
        assert rows == list(range(len(rows)))
        ticks = [e[1] for e in events if e[0] == "tick"]
        assert [t["verbose_length"] for t in ticks] == [1000, 2000]
        assert ticks[0]["compact_length"] == 1000
        assert ticks[0]["mean_acceptance_rate"] == 1.0

    def test_adaptation_schedule_fires_per_period(self):
        events = []
        cfg = KernelConfig(300, (0.0,), rng_seed=8, adaptation_period=50)
        kern = Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1))
        s = kern.run(events.extend)
        adapts = [e[1] for e in events if e[0] == "adapt"]
        assert len(adapts) == 6
        assert [a.at_chain_length for a in adapts] == [50, 100, 150, 200, 250, 300]
        assert s.adaptation_count == 6
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
        k = Kernel(gaussian_target([0.0], [[1.0]]), cfg, ProposalState.create(1))
        state = k.chain.last_state()
        calls = []
        monkeypatch.setattr(WeightedMoments, "update", lambda *args: calls.append(args))
        monkeypatch.setattr(CompactChain, "restamp_last", lambda *args: calls.append(args))
        # a rejected cascade runs every stage: two under DR 1
        events = k.commit((state, k.log_incumbent, REJECTED))
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
                   workers=4)
        state = k.chain.last_state()
        for _ in range(5):
            k.commit((state, k.log_incumbent, REJECTED))
        events = k.commit((np.array([0.5]), -0.125, 1))
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


class TestAdaptationMoments:
    """The moments behind each adaptation, replayed on a finished chain's
    rows, against batch computations over exactly the rows each must see."""

    @staticmethod
    def replay_kernel(greedy=4):
        # a sticky proposal leaves rows with weights above 1, so weighted and
        # unweighted moments differ
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=11, adaptation_period=40,
                           greedy_adaptation_count=greedy)
        chain = run_kernel(target, cfg, ProposalState.create(2)).chain
        assert chain.weights.max() > 1
        return Kernel(target, cfg, ProposalState.create(2), chain=chain)

    def test_the_first_greedy_count_adaptations_are_unweighted(self, monkeypatch):
        seen = []
        real_adapt = kernel_mod.adapt

        def spy(state, cov, chain_length, measured=True):
            seen.append((chain_length, np.array(cov)))
            return real_adapt(state, cov, chain_length, measured)

        kern = self.replay_kernel(greedy=3)
        monkeypatch.setattr(kernel_mod, "adapt", spy)
        list(kern.adaptations())
        chain = kern.chain
        kinds = []
        for boundary, cov in seen:
            states = chain.states[:boundary]
            # every verbose step so far: the boundary's live row has made one
            weights = chain.weights[:boundary].copy()
            weights[-1] = 1
            if np.allclose(cov, np.cov(states.T, bias=True), rtol=1e-10, atol=0):
                kinds.append("unweighted")
            elif np.allclose(cov, np.cov(states.T, aweights=weights, bias=True),
                             rtol=1e-10, atol=0):
                kinds.append("weighted")
            else:
                kinds.append("neither")
        assert len(kinds) == 10
        assert kinds == ["unweighted"] * 3 + ["weighted"] * 7

    def test_each_fold_holds_exactly_the_finalized_rows(self):
        kern = self.replay_kernel()
        chain = kern.chain
        for record, _ in kern.adaptations():
            # the rows before the boundary's live row, with final weights
            rows = record.at_chain_length - 1
            batch = WeightedMoments(2)
            batch.update(chain.states[:rows], chain.weights[:rows])
            assert kern._moments.total_weight == batch.total_weight
            assert np.allclose(kern._moments.mean, batch.mean, rtol=1e-12, atol=0)
            assert np.allclose(kern._moments.m2, batch.m2, rtol=1e-10, atol=0)


class TestRunLoop:
    """Kernel.run makes one cascade call per committed step: a call runs
    attempts up to an acceptance or the next tick, and run() charges the
    rejections before its outcome and commits the outcome. The chain, the
    events and the stream are those of calling step(), one attempt each,
    until the chain is full."""

    @staticmethod
    def run_and_step(kernel, monkeypatch):
        """Run one kernel and step another until full; assert that they
        agree and that run() called the cascade once per row it appended
        and once per tick a rejection ended. Returns the run's chain, its
        events and the verbose lengths of its ticks."""
        cascade, calls = kernel_mod.propose_cascade, []

        def counting(*args):
            calls.append(args[-1])
            return cascade(*args)

        ran, steps = kernel(), []
        with monkeypatch.context() as patched:
            patched.setattr(kernel_mod, "propose_cascade", counting)
            ran.run(steps.append)
        ran_events = [event for step in steps for event in step]
        stepped, stepped_events = kernel(), []
        while stepped.chain.n_rows < stepped.config.chain_length_target:
            stepped_events.extend(stepped.step())
        stepped.summary()
        a, b = ran.chain, stepped.chain
        assert a.verbose_length == b.verbose_length
        for column in ("states", "log_funcs", "weights", "process_ids",
                       "dr_stages", "mean_acceptance_rates",
                       "adaptation_measures", "burnin_locations"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
        assert ran_events == stepped_events
        assert ran.generator.bit_generator.state == \
            stepped.generator.bit_generator.state
        # a step whose first event is a tick was a rejection
        rejected_ticks = sum(step[0][0] == "tick" for step in steps)
        assert len(calls) == a.n_rows - 1 + rejected_ticks
        # no call's budget runs past the next tick
        assert max(calls) <= kernel_mod.TICK_STEPS
        ticks = [e[1]["verbose_length"] for e in ran_events if e[0] == "tick"]
        return a, ran_events, ticks

    @staticmethod
    def spanning(chain, ticks):
        """For each tick, whether a rejection of the row live then ended it:
        the row's first step came before the tick, and a step after it."""
        rows = np.searchsorted(chain.verbose_starts, np.subtract(ticks, 1),
                               "right") - 1
        starts = chain.verbose_starts[rows]
        return rows, ((starts < np.subtract(ticks, 1))
                      & (starts + chain.weights[rows] > ticks))

    @pytest.mark.parametrize("dr_stages", [0, 2, 3])
    @pytest.mark.parametrize("workers", [1, 8])
    def test_run_equals_a_loop_of_step(self, monkeypatch, dr_stages, workers):
        def kernel():
            # a wide proposal rejects most attempts, so rejections span ticks
            cfg = KernelConfig(600, (0.0, 0.0), rng_seed=21,
                               dr_stage_count=dr_stages, adaptation_period=100)
            return Kernel(gaussian_target([0.0, 0.0], [[1.0, 0.5], [0.5, 2.0]]),
                          cfg, ProposalState.create(2, scale_factor=10.0,
                                                    dr_scales=(0.7, 0.5, 0.35)),
                          workers=workers)

        chain, events, ticks = self.run_and_step(kernel, monkeypatch)
        kinds = [event[0] for event in events]
        assert kinds.count("adapt") == 6
        assert len(ticks) >= 3
        # the row live at some tick was left by rejections before and after
        # it: the tick's own step was a rejection that run() committed
        assert np.any(self.spanning(chain, ticks)[1])

    @pytest.mark.parametrize("dr_stages", [0, 3])
    def test_rejection_runs_across_ticks(self, monkeypatch, dr_stages):
        # a box target under a proposal about 2000 times wider per attempt:
        # rows outlive ticks, and a call that starts on a tick runs a full
        # tick of rejections to the next
        def kernel():
            cfg = KernelConfig(20, (0.0,), rng_seed=5, dr_stage_count=dr_stages,
                               adaptation_period=10 ** 6)
            box = TargetDensity(
                "box", 1, lambda x: 0.0 if -1.0 < x[0] < 1.0 else float("-inf"))
            prop = ProposalState.create(1, scale_factor=1600.0 * (dr_stages + 1),
                                        dr_scales=(0.99, 0.98, 0.97))
            return Kernel(box, cfg, prop)

        chain, _, ticks = self.run_and_step(kernel, monkeypatch)
        rows, spanned = self.spanning(chain, ticks)
        # one row's rejections ended two ticks in a row
        assert np.any(spanned[1:] & spanned[:-1] & (rows[1:] == rows[:-1]))


class TestStageTallies:
    @pytest.mark.parametrize("dr_stages", [0, 1, 2])
    @pytest.mark.parametrize("workers", [1, 8], ids=["serial", "rounds8"])
    def test_derived_tallies_match_the_cascades(
        self, monkeypatch, dr_stages, workers
    ):
        # an independent tally of what each cascade consumed and accepted
        attempts = [0] * (dr_stages + 1)
        accepts = [0] * (dr_stages + 1)
        cascade = kernel_mod.propose_cascade

        def counting(target, proposal, incumbent, log_incumbent, draws,
                     budget=1):
            # one call of the cascade per attempt; each stage it runs
            # evaluates the target once
            for made in range(1, budget + 1):
                stages_run = [0]

                def evaluate(x):
                    stages_run[0] += 1
                    return target.evaluate(x)

                state, log_func, stage, _ = cascade(
                    dataclasses.replace(target, evaluate=evaluate), proposal,
                    incumbent, log_incumbent, draws)
                for k in range(stages_run[0]):
                    attempts[k] += 1
                if stage != REJECTED:
                    accepts[stage] += 1
                    break
            return state, log_func, stage, made

        monkeypatch.setattr(kernel_mod, "propose_cascade", counting)
        target = gaussian_target([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
        cfg = KernelConfig(600, (3.0, -3.0), rng_seed=12, dr_stage_count=dr_stages,
                           adaptation_period=50)
        prop = ProposalState.create(2, scale_factor=4.0, dr_scales=(0.5, 0.1))
        s = Kernel(target, cfg, prop, workers=workers).run()
        assert min(accepts) > 0  # every stage accepted some cascade
        assert s.stage_attempts == tuple(attempts)
        assert s.stage_accepts == tuple(accepts)


class TestStateTransport:
    @pytest.mark.parametrize("snap_at", [50, 137])
    def test_mid_run_round_trip_is_bitwise(self, snap_at):
        target = gaussian_target([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        cfg = KernelConfig(400, (0.0, 0.0), rng_seed=99, dr_stage_count=1,
                           adaptation_period=60)
        ka = Kernel(target, cfg, ProposalState.create(2))
        snap = None
        snap_rows = None
        while ka.chain.n_rows < cfg.chain_length_target:
            events = ka.step()
            if snap is None and any(e[0] == "row_final" for e in events):
                if ka.chain.n_rows - 1 >= snap_at:
                    snap = copy.deepcopy(ka.state_dict())
                    snap_rows = ka.chain.n_rows - 1
        # rebuild: finalized prefix from storage, live tail from the snapshot
        pre = ka.chain.slice(0, snap_rows)
        kb = Kernel(target, cfg, ProposalState.create(2), chain=pre)
        kb.load_state(snap)
        while kb.chain.n_rows < cfg.chain_length_target:
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
        kern = Kernel(target, cfg, ProposalState.create(2))
        assert kern.run().adaptation_count == 5
        state = kern.state_dict()
        # the adaptation count and the stream's identity are derived too:
        # the stream block is numpy's own PCG64 state dict
        assert set(state) == {"stream", "block_offset", "pending_measure",
                              "live_row"}
        # the state before the pending block, which draws that block again
        assert 0 < state["block_offset"] < BLOCK
        replay = rng_mod.chain_stream(0, 0)
        replay.bit_generator.state = state["stream"]
        assert np.array_equal(replay.standard_normal((BLOCK, 2)),
                              kern.draws.normals)
        assert set(state["stream"]) == {"bit_generator", "state",
                                        "has_uint32", "uinteger"}
        assert set(state["stream"]["state"]) == {"state", "inc"}
        # plain JSON values: the live row's state is a list
        assert json.loads(json.dumps(state)) == state
